//! End-to-end and per-layer benchmark of the recursive-dataflow runtime.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-paper|serve-wide|train-lstm> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no profiling on;
//! `--trace 1` runs the same workload traced and reports the per-layer
//! metrics instead. The last stdout line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `README.md` in this directory
//! for what each workload and metric is for.

mod inputs;
mod layers;
mod protocol;
mod report;
mod serve;
mod train;

use rdg_models::{ModelConfig, ModelKind};
use std::process::ExitCode;
use std::time::Instant;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Executor worker threads: one per available core.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get())
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Computed (not measured) bytes the matmul-family kernels touch for one
/// tree of `leaves` leaves: every `[1, in] × [in, out]` product reads its
/// input row and weight matrix and writes its output row, 4 bytes per
/// element. Training adds a `MatMulBT` (input gradient) and a `MatMulAT`
/// (weight gradient) of the same size per forward product.
pub fn matmul_bytes(cfg: &ModelConfig, leaves: usize, training: bool) -> f64 {
    let gemv = |i: usize, o: usize| 4.0 * (i + i * o + o) as f64;
    let (e, h, c) = (cfg.embed, cfg.hidden, cfg.classes);
    let (per_leaf, per_internal) = match cfg.kind {
        ModelKind::TreeRnn => (gemv(e, h), gemv(2 * h, h)),
        ModelKind::TreeLstm => (3.0 * gemv(e, h), 5.0 * gemv(2 * h, h)),
        ModelKind::Rntn => unimplemented!("no workload runs RNTN"),
    };
    let fwd =
        leaves as f64 * per_leaf + leaves.saturating_sub(1) as f64 * per_internal + gemv(h, c);
    if training {
        3.0 * fwd
    } else {
        fwd
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "serve-paper" => protocol::run(&args, &serve::PAPER),
        "serve-wide" => protocol::run(&args, &serve::WIDE),
        "train-lstm" => protocol::run(&args, &train::TrainLstm),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    outcome.emit();
    ExitCode::SUCCESS
}
