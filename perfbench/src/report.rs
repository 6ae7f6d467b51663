//! Metric collection, order statistics, and the result line.

use std::time::Duration;

/// Named metrics in insertion order, each with its unit.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        debug_assert!(self.0.iter().all(|m| m.0 != name), "duplicate {name}");
        self.0.push((name, value, unit));
    }

    /// Prints every metric as a readable line (`name = value unit`).
    pub fn print(&self) {
        for (name, value, unit) in &self.0 {
            println!("{name} = {value:.6} {unit}");
        }
    }

    fn json(&self) -> String {
        let items: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(*value)
                )
            })
            .collect();
        format!("{{{}}}", items.join(", "))
    }

    pub fn all_finite(&self) -> bool {
        self.0.iter().all(|m| m.1.is_finite())
    }
}

/// JSON has no NaN or infinity; a non-finite value is written as 0 and the
/// run is marked incorrect by its caller (see [`Metrics::all_finite`]).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Outcome of one run: the contract's last stdout line.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    pub fn emit(self) {
        self.metrics.print();
        let correct = self.correct && self.metrics.all_finite();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.attempted,
            self.failed,
            self.metrics.json()
        );
    }
}

/// Nearest-rank quantile `q` in `[0, 1]` of unsorted samples (0 if empty),
/// the same rule as `rdg_exec::LatencyPercentiles`.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v[((v.len() - 1) as f64 * q).round() as usize]
}

/// A measured window's samples, split by completion time into equal parts
/// of the time the window was open. Samples
/// completing after it closed (the drain of the last outstanding
/// requests) are left out.
pub struct SubWindows {
    parts: Vec<Vec<f64>>,
    part_s: f64,
    items_per_sample: f64,
}

impl SubWindows {
    /// `samples` are `(completion ns, value)`, on the clock of `start_ns`;
    /// `open` is how long the window took new work.
    pub fn of(
        start_ns: u64,
        open: Duration,
        n_parts: u32,
        items_per_sample: f64,
        samples: &[(u64, f64)],
    ) -> Self {
        let part = open / n_parts;
        let part_ns = part.as_nanos().max(1) as u64;
        let mut parts = vec![Vec::new(); n_parts as usize];
        for &(t, v) in samples {
            if let Some(p) = parts.get_mut((t.saturating_sub(start_ns) / part_ns) as usize) {
                p.push(v);
            }
        }
        SubWindows {
            parts,
            part_s: part.as_secs_f64(),
            items_per_sample,
        }
    }

    /// Median over the parts of items completed per second.
    pub fn rate(&self) -> f64 {
        let rates: Vec<f64> = self
            .parts
            .iter()
            .map(|p| p.len() as f64 * self.items_per_sample / self.part_s)
            .collect();
        quantile(&rates, 0.5)
    }

    /// Like [`SubWindows::rate`] for samples that ran back to back and whose
    /// values are their durations in ms: items over the summed durations,
    /// which, unlike a count per part, is not quantized by long samples.
    pub fn sequential_rate(&self) -> f64 {
        let rates: Vec<f64> = self
            .parts
            .iter()
            .map(|p| {
                ratio(
                    p.len() as f64 * self.items_per_sample,
                    p.iter().sum::<f64>() / 1e3,
                )
            })
            .collect();
        quantile(&rates, 0.5)
    }

    /// Median over the parts of each part's `q` quantile.
    pub fn quantile(&self, q: f64) -> f64 {
        let per_part: Vec<f64> = self.parts.iter().map(|p| quantile(p, q)).collect();
        quantile(&per_part, 0.5)
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Process high-water resident set size in MiB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Relative gap `|a - b| / max(|a|, |b|)` (0 when both are 0).
pub fn rel_gap(a: f64, b: f64) -> f64 {
    ratio((a - b).abs(), a.abs().max(b.abs()))
}
