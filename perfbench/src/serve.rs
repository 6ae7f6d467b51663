//! `serve-paper` and `serve-wide`: recursive TreeRNN inference through the
//! admission-controlled serving loop, driven closed-loop by one generator
//! thread with a fixed number of requests outstanding.

use crate::inputs;
use crate::layers::{ServeLayer, SetupCost, TrainLayer};
use crate::protocol::{Counts, Feed, Sample, Split, Window, Workload};
use crate::report::{mean, ratio, rel_gap};
use crate::{ms_since, workers};
use rdg_exec::{
    Executor, LatencyPercentiles, ServeClient, ServeStats, ServeTicket, Session, SpecializeOptions,
};
use rdg_models::{build_recursive, ModelConfig, ModelKind};
use rdg_tensor::Tensor;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One serving workload: model, offered concurrency, and input pool size.
pub struct ServeWorkload {
    cfg: fn() -> ModelConfig,
    /// Requests the generator keeps in flight (closed loop).
    outstanding: usize,
    /// Inputs generated per measured second: three to four times today's
    /// rate, so no tree repeats even if the program gets much faster.
    pool_per_s: f64,
}

/// Paper dimensions: per-request cost is executor machinery, not kernels.
pub const PAPER: ServeWorkload = ServeWorkload {
    cfg: || ModelConfig::paper_default(ModelKind::TreeRnn, 1),
    outstanding: 8,
    pool_per_s: 6000.0,
};

/// Serving dimensions: the combine matrix overflows L2, kernels dominate.
pub const WIDE: ServeWorkload = ServeWorkload {
    cfg: || ModelConfig {
        kind: ModelKind::TreeRnn,
        vocab: 2000,
        embed: 256,
        hidden: 768,
        classes: 2,
        batch: 1,
        seed: 20180423,
    },
    outstanding: 32,
    pool_per_s: 1000.0,
};

/// Responses each rig keeps for the reference check: a seeded uniform
/// sample (reservoir) over every response the rig returned.
const MAX_SAMPLES: usize = 400;
/// Tolerance of the traced run's latency closure: the client's mean span,
/// less its time inside `submit`, against the loop's own total mean.
const CLOSURE_TOL: f64 = 0.05;

pub struct Rig {
    sess: Session,
    client: ServeClient,
    /// Everything this rig's client saw, over all of its windows.
    seen: Counts,
    /// Submits the loop refused outright (no ticket returned).
    refused: u64,
    /// Responses kept for the reference check: pool index and outputs.
    samples: Vec<(usize, Vec<Tensor>)>,
}

/// One request's span, in nanoseconds from the run's epoch. Spans stay in
/// memory until the run ends.
pub struct Span {
    sent: u64,
    submitted: u64,
    done: u64,
}

impl Sample for Span {
    fn done_ns(&self) -> u64 {
        self.done
    }

    fn ms(&self) -> f64 {
        (self.done - self.sent) as f64 / 1e6
    }
}

/// Mean of the observations a lifetime latency track gained between two
/// snapshots, in ms.
fn mean_between(a: &LatencyPercentiles, b: &LatencyPercentiles) -> f64 {
    ratio(
        b.mean_us * b.count as f64 - a.mean_us * a.count as f64,
        (b.count - a.count) as f64,
    ) / 1e3
}

/// Replays every kept request on a scalar, unspecialized reference session
/// over the same parameters; every output must match bit for bit.
fn reference_check(cfg: &ModelConfig, rig: &Rig, pool: &[Vec<Tensor>]) -> bool {
    let reference = Session::with_params_options(
        Executor::with_threads(1),
        build_recursive(cfg).expect("model builds"),
        Arc::clone(rig.sess.params()),
        SpecializeOptions::disabled(),
    )
    .expect("reference session plans");
    let mut ok = true;
    for (i, got) in &rig.samples {
        let same = match reference.run(pool[*i].clone()) {
            Ok(want) => {
                want.len() == got.len()
                    && want.iter().zip(got).all(|(a, b)| {
                        a.shape() == b.shape()
                            && match (a.f32s(), b.f32s()) {
                                (Ok(x), Ok(y)) => {
                                    x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
                                }
                                _ => a.i32s().ok() == b.i32s().ok(),
                            }
                    })
            }
            Err(e) => {
                eprintln!("reference run failed: {e}");
                false
            }
        };
        if !same {
            eprintln!("response to input {i} differs from the scalar reference");
            ok = false;
        }
    }
    println!("reference check: {} responses compared", rig.samples.len());
    ok
}

/// The serving loop's accounting closure, and agreement between the loop's
/// counts and what the rig's one client saw.
fn accounting_check(rig: &Rig) -> bool {
    let st = rig.client.stats();
    let closed =
        st.submitted == st.completed + st.failed + st.shed + st.shed_inflight + st.abandoned;
    let seen = rig.seen;
    let agrees = st.completed == seen.completed && st.submitted == seen.attempted - rig.refused;
    println!("serve accounting: {}", st.summary());
    if !(closed && agrees) {
        eprintln!("serve accounting does not close");
    }
    closed && agrees
}

impl Workload for ServeWorkload {
    type Rig = Rig;
    type Span = Span;
    type Snap = ServeStats;
    const TRAINING: bool = false;
    const ITEMS_PER_SPAN: f64 = 1.0;
    const BACK_TO_BACK: bool = false;
    /// A 3 s part of a 30 s run holds about 700 `serve-wide` requests:
    /// about 35 lie beyond p95, but only seven beyond p99. So the tail
    /// metric is p95, and p99 is only printed.
    const TAIL: f64 = 0.95;
    const SUBWINDOWS: u32 = 10;

    fn cfg(&self) -> ModelConfig {
        (self.cfg)()
    }

    fn pool_per_s(&self) -> f64 {
        self.pool_per_s
    }

    fn build(&self, cfg: &ModelConfig) -> (Rig, SetupCost) {
        let t0 = Instant::now();
        let module = build_recursive(cfg).expect("model builds");
        let models_ms = ms_since(t0);
        let exec = Executor::with_threads(workers());
        let t1 = Instant::now();
        let sess = Session::new(exec, module).expect("session plans");
        let session_new_ms = ms_since(t1);
        let client = sess.serve();
        let cost = SetupCost {
            total_s: t0.elapsed().as_secs_f64(),
            models_ms,
            autodiff_ms: 0.0,
            session_new_ms,
        };
        let rig = Rig {
            sess,
            client,
            seen: Counts::default(),
            refused: 0,
            samples: Vec::new(),
        };
        (rig, cost)
    }

    fn session(rig: &Rig) -> &Session {
        &rig.sess
    }

    fn snap(rig: &Rig) -> ServeStats {
        rig.client.stats()
    }

    /// Runs the closed loop for `dur` (or until the pool runs out), then
    /// drains: the next request is submitted whenever the oldest
    /// outstanding one returns.
    fn window(&self, rig: &mut Rig, feed: &mut Feed, dur: Duration) -> Window<Span> {
        let t0 = Instant::now();
        let start = feed.next;
        let mut spans = Vec::new();
        let mut counts = Counts::default();
        let mut open_for = None;
        let mut ring: VecDeque<(u64, u64, usize, ServeTicket)> = VecDeque::new();
        loop {
            if open_for.is_none() && (t0.elapsed() >= dur || feed.left() == 0) {
                open_for = Some(t0.elapsed());
            }
            let open = open_for.is_none();
            if ring.len() >= self.outstanding || (!open && !ring.is_empty()) {
                let (sent, submitted, i, ticket) = ring.pop_front().expect("ring is non-empty");
                match ticket.wait() {
                    Ok(out) => {
                        let done = feed.ns(Instant::now());
                        counts.completed += 1;
                        spans.push(Span {
                            sent,
                            submitted,
                            done,
                        });
                        // Reservoir sampling: every response this rig
                        // returns is kept with the same probability.
                        let k = rig.seen.completed + counts.completed;
                        if rig.samples.len() < MAX_SAMPLES {
                            rig.samples.push((i, out));
                        } else if let Some(slot) = rig
                            .samples
                            .get_mut((inputs::mix(feed.seed, k) % k) as usize)
                        {
                            *slot = (i, out);
                        }
                    }
                    Err(e) => {
                        eprintln!("request failed: {e}");
                        counts.failed += 1;
                    }
                }
                continue;
            }
            if !open {
                break;
            }
            let i = feed.next;
            feed.next += 1;
            // Feeds are cloned (reference counts only), so the pool stays
            // resident and the RSS growth over it is the program's own.
            let sent = Instant::now();
            let submitted = rig.client.submit(feed.pool[i].clone());
            let submit_end = feed.ns(Instant::now());
            counts.attempted += 1;
            match submitted {
                Ok(ticket) => ring.push_back((feed.ns(sent), submit_end, i, ticket)),
                Err(e) => {
                    eprintln!("submit refused: {e}");
                    counts.failed += 1;
                    rig.refused += 1;
                }
            }
        }
        rig.seen.add(counts);
        Window {
            spans,
            counts,
            start_ns: feed.ns(t0),
            open: open_for.expect("the loop ends closed"),
            elapsed_s: t0.elapsed().as_secs_f64(),
            consumed: start..feed.next,
        }
    }

    fn check(&self, cfg: &ModelConfig, rig: &Rig, pool: &[Vec<Tensor>]) -> bool {
        accounting_check(rig) & reference_check(cfg, rig, pool)
    }

    fn teardown(rig: Rig) {
        // Joins the dispatcher; dropping the rig then joins the workers.
        rig.client.shutdown();
    }

    fn split(&self, st0: &ServeStats, st1: &ServeStats, traced: &[Window<Span>]) -> Split {
        let spans = || traced.iter().flat_map(|w| &w.spans);
        let client_mean = mean(&spans().map(Span::ms).collect::<Vec<_>>());
        let submit_block = mean(
            &spans()
                .map(|s| (s.submitted - s.sent) as f64 / 1e6)
                .collect::<Vec<_>>(),
        );
        let wait = mean_between(&st0.wait, &st1.wait);
        let service = mean_between(&st0.service, &st1.service);
        let total = mean_between(&st0.total, &st1.total);
        let delivery = client_mean - submit_block - total;
        // The client's clock against the loop's: what the generator saw,
        // less its time inside `submit`, must match the loop's own
        // enqueue-to-done mean.
        let closure_gap = rel_gap(client_mean - submit_block, total);
        println!(
            "closure: client mean {client_mean:.4} ms = submit {submit_block:.4} + server total \
             {total:.4} (wait {wait:.4} + service {service:.4}) + delivery {delivery:.4}; \
             gap {closure_gap:.4} (tolerance {CLOSURE_TOL})"
        );
        let fused = (st1.fusion_instances - st0.fusion_instances) as f64;
        let serve = ServeLayer {
            fused_frac: ratio(fused, (st1.fusion_eligible - st0.fusion_eligible) as f64),
            instances_per_group: ratio(fused, (st1.fusion_groups - st0.fusion_groups) as f64),
            submit_block_ms: submit_block,
            wait_mean_ms: wait,
            service_mean_ms: service,
            delivery_mean_ms: delivery,
            wave_size_mean: ratio(
                (st1.completed + st1.failed - st0.completed - st0.failed) as f64,
                (st1.batches - st0.batches) as f64,
            ),
            shed: (st1.shed + st1.shed_inflight + st1.shed_predicted)
                - (st0.shed + st0.shed_inflight + st0.shed_predicted),
            rejected: st1.rejected - st0.rejected,
        };
        Split {
            serve,
            train: TrainLayer::default(),
            exec_wall_s: traced.iter().map(|w| w.elapsed_s).sum(),
            closure_gap,
            closure_tol: CLOSURE_TOL,
        }
    }
}
