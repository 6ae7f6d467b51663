//! `train-lstm`: recursive TreeLSTM training at paper dimensions. Each step
//! is `Session::run_training_batch` over a minibatch, then
//! `GradStore::scale_all`, then `Adagrad::step`, walking once through a
//! freshly generated corpus.

use crate::layers::{ServeLayer, SetupCost, TrainLayer};
use crate::protocol::{Counts, Feed, Sample, Split, Window, Workload};
use crate::report::{mean, rel_gap};
use crate::{ms_since, workers};
use rdg_autodiff::build_training_module;
use rdg_exec::{Executor, Session};
use rdg_models::{build_recursive, ModelConfig, ModelKind};
use rdg_nn::{Adagrad, Optimizer};
use rdg_tensor::Tensor;
use std::time::{Duration, Instant};

const MINIBATCH: usize = 10;
const LEARNING_RATE: f32 = 0.05;
/// Tolerance of the traced run's step-time closure.
const CLOSURE_TOL: f64 = 0.02;

pub struct TrainLstm;

pub struct Rig {
    sess: Session,
    opt: Adagrad,
    nonfinite_losses: u64,
}

/// One step's span, in nanoseconds from the run's epoch: start, end of
/// forward/backward, end of gradient scaling, end of the optimizer step.
/// Spans stay in memory until the run ends.
pub struct Step([u64; 4]);

impl Step {
    fn phase_ms(&self, from: usize, to: usize) -> f64 {
        (self.0[to] - self.0[from]) as f64 / 1e6
    }
}

impl Sample for Step {
    fn done_ns(&self) -> u64 {
        self.0[3]
    }

    fn ms(&self) -> f64 {
        self.phase_ms(0, 3)
    }
}

impl Workload for TrainLstm {
    type Rig = Rig;
    type Span = Step;
    type Snap = ();
    const TRAINING: bool = true;
    const ITEMS_PER_SPAN: f64 = MINIBATCH as f64;
    const BACK_TO_BACK: bool = true;
    /// A 10 s sub-window holds about 100 steps, so about ten lie beyond
    /// p90; p99 would rest on one.
    const TAIL: f64 = 0.90;
    const SUBWINDOWS: u32 = 3;

    fn cfg(&self) -> ModelConfig {
        ModelConfig::paper_default(ModelKind::TreeLstm, 1)
    }

    /// About five times today's rate.
    fn pool_per_s(&self) -> f64 {
        400.0
    }

    fn build(&self, cfg: &ModelConfig) -> (Rig, SetupCost) {
        let t0 = Instant::now();
        let forward = build_recursive(cfg).expect("model builds");
        let models_ms = ms_since(t0);
        let t1 = Instant::now();
        let training = build_training_module(&forward, forward.main.outputs[0])
            .expect("training module builds");
        let autodiff_ms = ms_since(t1);
        let exec = Executor::with_threads(workers());
        let t2 = Instant::now();
        let sess = Session::new(exec, training).expect("session plans");
        let session_new_ms = ms_since(t2);
        let opt = Adagrad::new(LEARNING_RATE);
        let cost = SetupCost {
            total_s: t0.elapsed().as_secs_f64(),
            models_ms,
            autodiff_ms,
            session_new_ms,
        };
        let rig = Rig {
            sess,
            opt,
            nonfinite_losses: 0,
        };
        (rig, cost)
    }

    fn session(rig: &Rig) -> &Session {
        &rig.sess
    }

    fn snap(_: &Rig) {}

    /// Trains `rig` on consecutive minibatches for `dur` (or until the
    /// corpus runs out).
    fn window(&self, rig: &mut Rig, feed: &mut Feed, dur: Duration) -> Window<Step> {
        let t0 = Instant::now();
        let start = feed.next;
        let mut steps = Vec::new();
        let mut counts = Counts::default();
        let ns = |feed: &Feed| feed.ns(Instant::now());
        while t0.elapsed() < dur && feed.left() >= MINIBATCH {
            let batch = feed.pool[feed.next..feed.next + MINIBATCH].to_vec();
            feed.next += MINIBATCH;
            counts.attempted += MINIBATCH as u64;
            let step_start = ns(feed);
            let outs = match rig.sess.run_training_batch(batch) {
                Ok(outs) => outs,
                Err(e) => {
                    eprintln!("training step failed: {e}");
                    counts.failed += MINIBATCH as u64;
                    continue;
                }
            };
            let fwdbwd_end = ns(feed);
            let scaled = rig.sess.grads().scale_all(1.0 / MINIBATCH as f32);
            let scale_end = ns(feed);
            let stepped = scaled.and_then(|()| rig.opt.step(rig.sess.params(), rig.sess.grads()));
            let step_end = ns(feed);
            if let Err(e) = stepped {
                eprintln!("optimizer step failed: {e}");
                counts.failed += MINIBATCH as u64;
                continue;
            }
            counts.completed += MINIBATCH as u64;
            rig.nonfinite_losses += outs
                .iter()
                .filter(|o| !o[0].as_f32_scalar().is_ok_and(f32::is_finite))
                .count() as u64;
            steps.push(Step([step_start, fwdbwd_end, scale_end, step_end]));
        }
        Window {
            spans: steps,
            counts,
            start_ns: feed.ns(t0),
            open: t0.elapsed(),
            elapsed_s: t0.elapsed().as_secs_f64(),
            consumed: start..feed.next,
        }
    }

    /// Every loss was finite and every parameter is finite after training.
    /// A non-finite value is absorbing under Adagrad, so checking the final
    /// parameters covers every update.
    fn check(&self, _: &ModelConfig, rig: &Rig, _: &[Vec<Tensor>]) -> bool {
        let params = rig.sess.params();
        let bad_params = params
            .ids()
            .filter(|&p| {
                !params
                    .read(p)
                    .f32s()
                    .is_ok_and(|v| v.iter().all(|x| x.is_finite()))
            })
            .count();
        println!(
            "finite check: {} non-finite losses, {bad_params} of {} parameters non-finite",
            rig.nonfinite_losses,
            params.len()
        );
        rig.nonfinite_losses == 0 && bad_params == 0
    }

    /// Dropping the session joins the executor's workers.
    fn teardown(_: Rig) {}

    fn split(&self, _: &(), _: &(), traced: &[Window<Step>]) -> Split {
        let steps: Vec<&Step> = traced.iter().flat_map(|w| &w.spans).collect();
        let phase = |from, to| {
            steps
                .iter()
                .map(|s| s.phase_ms(from, to))
                .collect::<Vec<_>>()
        };
        let (fwdbwd, scale, optim) = (phase(0, 1), phase(1, 2), phase(2, 3));
        let traced_s: f64 = traced.iter().map(|w| w.elapsed_s).sum();
        let attributed_s = phase(0, 3).iter().sum::<f64>() / 1e3;
        let closure_gap = rel_gap(traced_s, attributed_s);
        println!(
            "closure: traced windows {traced_s:.4} s, fwd/bwd + scale + optimizer spans \
             {attributed_s:.4} s; gap {closure_gap:.4} (tolerance {CLOSURE_TOL})"
        );
        Split {
            serve: ServeLayer::default(),
            train: TrainLayer {
                fwdbwd_ms_per_step: mean(&fwdbwd),
                scale_ms: mean(&scale),
                optim_ms: mean(&optim),
            },
            exec_wall_s: fwdbwd.iter().sum::<f64>() / 1e3,
            closure_gap,
            closure_tol: CLOSURE_TOL,
        }
    }
}
