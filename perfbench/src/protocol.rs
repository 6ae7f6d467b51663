//! The run protocol every workload shares: the input pool, timed set-ups,
//! the warm-up, the untraced measured window or the traced alternation,
//! the correctness gates, and the result line. A workload supplies only
//! its rig, its load loop, its gates and its own per-layer figures.

use crate::inputs::{self, InputSummary, TreeProps};
use crate::layers::{Delta, LayerReport, Probe, ServeLayer, SetupCost, TrainLayer};
use crate::report::{self, ratio, Metrics, Outcome, SubWindows};
use crate::{matmul_bytes, workers, Args};
use rdg_exec::Session;
use rdg_models::ModelConfig;
use rdg_tensor::Tensor;
use std::ops::Range;
use std::time::{Duration, Instant};

/// A 1 s warm-up precedes every measured window.
const WARMUP: Duration = Duration::from_secs(1);
/// Traced runs alternate untraced and traced windows this many times.
const ROUNDS: u32 = 2;
/// Fresh set-ups per run: at least this many, for at least
/// [`SETUP_TIME`]; `setup_s` is their median. Set-up time drifts in phases
/// of tens of milliseconds on a shared host, so the builds must span
/// several phases. The rigs a run measures are the first ones built. The
/// rest are built after the measured window, so their allocator churn
/// cannot raise `peak_rss_mb`.
const SETUP_REPS: usize = 32;
const SETUP_TIME: Duration = Duration::from_secs(2);

/// One workload: how to build its rig, drive it, and check it.
pub trait Workload {
    type Rig;
    /// One timed sample of a window: a request or a training step.
    type Span: Sample;
    /// Workload counters read at the same points as the layer [`Probe`].
    type Snap;
    /// Whether the model trains (matmul bytes count the backward pass).
    const TRAINING: bool;
    /// Items (requests or instances) one span stands for.
    const ITEMS_PER_SPAN: f64;
    /// Spans run back to back, so throughput is items over summed span
    /// time (see [`SubWindows::sequential_rate`]).
    const BACK_TO_BACK: bool;
    /// Percentile reported as `latency_tail_ms`.
    const TAIL: f64;
    /// Equal parts the measured window is split into; each end-to-end
    /// figure is the median over the parts. Machine speed on a shared host
    /// drifts over seconds, and a stall can hold up every outstanding
    /// request at once, so such an event moves one part, not the figure.
    /// More parts resist more stalls, but each part must still hold enough
    /// samples for [`Workload::TAIL`].
    const SUBWINDOWS: u32;

    fn cfg(&self) -> ModelConfig;
    /// Inputs generated per measured second, well above today's rate.
    fn pool_per_s(&self) -> f64;
    fn build(&self, cfg: &ModelConfig) -> (Self::Rig, SetupCost);
    fn session(rig: &Self::Rig) -> &Session;
    fn snap(rig: &Self::Rig) -> Self::Snap;
    /// Drives `rig` with inputs from `feed` for `dur`, or until the pool
    /// runs out.
    fn window(&self, rig: &mut Self::Rig, feed: &mut Feed, dur: Duration) -> Window<Self::Span>;
    /// The workload's correctness gates over everything `rig` ran.
    fn check(&self, cfg: &ModelConfig, rig: &Self::Rig, pool: &[Vec<Tensor>]) -> bool;
    /// Stops the rig and waits for every thread it started.
    fn teardown(rig: Self::Rig);
    /// The workload's own layer figures over the traced windows.
    fn split(
        &self,
        before: &Self::Snap,
        after: &Self::Snap,
        traced: &[Window<Self::Span>],
    ) -> Split;
}

/// A span's completion time (ns from the run's epoch) and value (ms).
pub trait Sample {
    fn done_ns(&self) -> u64;
    fn ms(&self) -> f64;
}

/// What a workload's traced windows add to the shared layer report.
pub struct Split {
    pub serve: ServeLayer,
    pub train: TrainLayer,
    /// Wall seconds during which the executor had work.
    pub exec_wall_s: f64,
    pub closure_gap: f64,
    pub closure_tol: f64,
}

/// Operations one window attempted, completed and failed.
#[derive(Clone, Copy, Default)]
pub struct Counts {
    pub attempted: u64,
    pub completed: u64,
    pub failed: u64,
}

impl Counts {
    pub fn add(&mut self, o: Counts) {
        self.attempted += o.attempted;
        self.completed += o.completed;
        self.failed += o.failed;
    }
}

/// What one window did. `completed` counts items, not spans.
pub struct Window<S> {
    pub spans: Vec<S>,
    pub counts: Counts,
    pub start_ns: u64,
    /// How long the window took new work: its duration, or less if the
    /// input pool ran out.
    pub open: Duration,
    /// Wall time including the drain of outstanding work.
    pub elapsed_s: f64,
    pub consumed: Range<usize>,
}

/// The pre-generated input pool, walked once from the front.
pub struct Feed<'a> {
    pub pool: &'a [Vec<Tensor>],
    pub epoch: Instant,
    pub seed: u64,
    pub next: usize,
}

impl Feed<'_> {
    /// Nanoseconds from the run's epoch.
    pub fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    pub fn left(&self) -> usize {
        self.pool.len() - self.next
    }
}

/// Timed fresh set-ups of one workload.
struct Setups(Vec<SetupCost>);

impl Setups {
    /// Builds the `n` rigs a run measures, timing each.
    fn keep<T>(&mut self, n: usize, mut build: impl FnMut() -> (T, SetupCost)) -> Vec<T> {
        (0..n)
            .map(|_| {
                let (rig, cost) = build();
                self.0.push(cost);
                rig
            })
            .collect()
    }

    /// Times the remaining set-ups, tearing each rig down before the next
    /// build starts, and returns the per-field medians over all of them.
    fn finish<T>(
        mut self,
        mut build: impl FnMut() -> (T, SetupCost),
        teardown: impl Fn(T),
    ) -> SetupCost {
        let t0 = Instant::now();
        while self.0.len() < SETUP_REPS || t0.elapsed() < SETUP_TIME {
            let (rig, cost) = build();
            teardown(rig);
            self.0.push(cost);
        }
        let med = |f: fn(&SetupCost) -> f64| {
            report::quantile(&self.0.iter().map(f).collect::<Vec<_>>(), 0.5)
        };
        SetupCost {
            total_s: med(|c| c.total_s),
            models_ms: med(|c| c.models_ms),
            autodiff_ms: med(|c| c.autodiff_ms),
            session_new_ms: med(|c| c.session_new_ms),
        }
    }
}

fn probe<W: Workload>(rig: &W::Rig) -> Probe {
    let sess = W::session(rig);
    Probe::read(sess.executor(), sess.plan())
}

/// Items completed per second of wall time over `ws`.
fn rate<S>(ws: &[Window<S>]) -> f64 {
    ratio(
        ws.iter().map(|w| w.counts.completed).sum::<u64>() as f64,
        ws.iter().map(|w| w.elapsed_s).sum(),
    )
}

fn consumed_props<S>(props: &[TreeProps], ws: &[Window<S>]) -> Vec<TreeProps> {
    ws.iter()
        .flat_map(|w| props[w.consumed.clone()].iter().copied())
        .collect()
}

/// Says so when a window ended early because the input pool ran out.
fn report_pool<S>(w: &Window<S>, dur: Duration) {
    if w.open < dur {
        println!(
            "input pool ran out after {:.3} s of {:.3} s; rates use the time the window was open",
            w.open.as_secs_f64(),
            dur.as_secs_f64()
        );
    }
}

/// A run whose measured windows completed nothing measured nothing.
fn measured<S>(ws: &[Window<S>]) -> bool {
    let any = ws.iter().any(|w| w.counts.completed > 0);
    if !any {
        eprintln!("the measured windows completed nothing");
    }
    any
}

pub fn run<W: Workload>(args: &Args, wl: &W) -> Outcome {
    let cfg = wl.cfg();
    let pool_len = (wl.pool_per_s() * (args.seconds + 2.0 * WARMUP.as_secs_f64())) as usize;
    let inputs::Corpus { feeds: pool, props } = inputs::generate(args.seed, pool_len, cfg.vocab);
    let rss_base = report::peak_rss_mb();
    let mut setups = Setups(Vec::new());
    let mut rigs = setups.keep(if args.trace { 2 } else { 1 }, || wl.build(&cfg));
    let mut feed = Feed {
        pool: &pool,
        epoch: Instant::now(),
        seed: args.seed,
        next: 0,
    };
    let dur = Duration::from_secs_f64(args.seconds);
    if !args.trace {
        let mut rig = rigs.pop().expect("one rig kept");
        wl.window(&mut rig, &mut feed, WARMUP);
        let w = wl.window(&mut rig, &mut feed, dur);
        let rss_mb = report::peak_rss_mb() - rss_base;
        let correct = wl.check(&cfg, &rig, &pool);
        W::teardown(rig);
        let setup = setups.finish(|| wl.build(&cfg), W::teardown);
        println!("{}", InputSummary::of(&props[w.consumed.clone()]).json());
        report_pool(&w, dur);
        let c = w.counts;
        println!(
            "failed_frac = {}",
            ratio(c.failed as f64, c.attempted as f64)
        );
        let done: Vec<(u64, f64)> = w.spans.iter().map(|s| (s.done_ns(), s.ms())).collect();
        let sub = SubWindows::of(w.start_ns, w.open, W::SUBWINDOWS, W::ITEMS_PER_SPAN, &done);
        println!(
            "latency_p99_ms = {:.6} ms (not a metric)",
            sub.quantile(0.99)
        );
        let throughput = if W::BACK_TO_BACK {
            sub.sequential_rate()
        } else {
            sub.rate()
        };
        let mut m = Metrics::default();
        m.put("setup_s", setup.total_s, "s");
        m.put("throughput_per_s", throughput, "1/s");
        m.put("latency_p50_ms", sub.quantile(0.50), "ms");
        m.put("latency_tail_ms", sub.quantile(W::TAIL), "ms");
        m.put("peak_rss_mb", rss_mb, "MB");
        return Outcome {
            correct: correct && measured(std::slice::from_ref(&w)),
            attempted: c.attempted,
            failed: c.failed,
            metrics: m,
        };
    }

    // Traced run: the second-to-last rig runs untraced, the last one with
    // the kernel profiler on; their windows alternate so drift hits both.
    let mut traced = rigs.pop().expect("two rigs kept");
    let mut plain = rigs.pop().expect("two rigs kept");
    W::session(&traced).executor().stats().enable_profiling();
    let mut all = Counts::default();
    all.add(wl.window(&mut plain, &mut feed, WARMUP).counts);
    all.add(wl.window(&mut traced, &mut feed, WARMUP).counts);
    let (probe0, snap0) = (probe::<W>(&traced), W::snap(&traced));
    let part = dur / (2 * ROUNDS);
    let (mut p_windows, mut t_windows) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        p_windows.push(wl.window(&mut plain, &mut feed, part));
        t_windows.push(wl.window(&mut traced, &mut feed, part));
    }
    let delta = Delta::between(&probe0, &probe::<W>(&traced));
    let split = wl.split(&snap0, &W::snap(&traced), &t_windows);
    let correct = wl.check(&cfg, &plain, &pool) & wl.check(&cfg, &traced, &pool);
    W::teardown(traced);
    W::teardown(plain);
    let setup = setups.finish(|| wl.build(&cfg), W::teardown);
    for w in p_windows.iter().chain(&t_windows) {
        all.add(w.counts);
        report_pool(w, part);
    }

    let (p_rate, t_rate) = (rate(&p_windows), rate(&t_windows));
    let overhead_frac = 1.0 - ratio(t_rate, p_rate);
    println!(
        "tracing overhead: untraced {p_rate:.2} items/s, traced {t_rate:.2} items/s ({:+.2}%)",
        100.0 * overhead_frac
    );
    let t_props = consumed_props(&props, &t_windows);
    let summary = InputSummary::of(&t_props);
    println!("{}", summary.json());
    let closed = split.closure_gap <= split.closure_tol;
    let report = LayerReport {
        items: t_windows.iter().map(|w| w.counts.completed).sum(),
        workers: workers(),
        exec_wall_s: split.exec_wall_s,
        delta,
        matmul_bytes: t_props
            .iter()
            .map(|p| matmul_bytes(&cfg, p.leaves, W::TRAINING))
            .sum(),
        setup,
        serve: split.serve,
        train: split.train,
        overhead_frac,
        closure_gap: split.closure_gap,
        inputs: &summary,
    };
    Outcome {
        correct: correct && closed && measured(&t_windows),
        attempted: all.attempted,
        failed: all.failed,
        metrics: report.metrics(),
    }
}
