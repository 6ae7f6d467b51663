//! Per-layer counters read at the boundaries of the layers' public calls,
//! and the fixed per-layer metric set every traced run reports.
//!
//! A metric whose layer is not on a workload's path reads 0 there (for
//! example `cache.*` on the serve workloads, which never write the
//! backprop cache, and `serve.*` on `train-lstm`).

use crate::inputs::InputSummary;
use crate::report::{ratio, Metrics};
use rdg_exec::{Executor, ModulePlan, SpecStats, StatsSnapshot};
use std::collections::HashMap;
use std::time::Duration;

/// The kernels reported one by one, by the executor's op mnemonic.
pub const KERNELS: [(&str, &str); 7] = [
    ("MatMul", "kernel.MatMul.ms_per_item"),
    ("MatMulAT", "kernel.MatMulAT.ms_per_item"),
    ("MatMulBT", "kernel.MatMulBT.ms_per_item"),
    ("GradSink", "kernel.GradSink.ms_per_item"),
    ("Tanh", "kernel.Tanh.ms_per_item"),
    ("GatherScalarI32", "kernel.GatherScalarI32.ms_per_item"),
    ("ConcatCols", "kernel.ConcatCols.ms_per_item"),
];

/// Executor, kernel-profiler and specializer counters at one instant.
pub struct Probe {
    exec: StatsSnapshot,
    kernels: HashMap<&'static str, (Duration, u64)>,
    spec: SpecStats,
}

impl Probe {
    pub fn read(exec: &Executor, plan: &ModulePlan) -> Self {
        Probe {
            exec: exec.stats().snapshot(),
            kernels: exec.stats().kernel_profile(),
            spec: plan.spec_stats(),
        }
    }
}

/// What happened between two probes.
pub struct Delta {
    pub frames: u64,
    pub ops: u64,
    pub continuations: u64,
    pub cache_writes: u64,
    pub cache_reads: u64,
    /// Lifetime deepest frame (a maximum, not a difference).
    pub max_depth: u64,
    /// Profiled kernel seconds by op mnemonic.
    pub kernel_s: HashMap<&'static str, f64>,
    pub spec_hits: u64,
    pub spec_misses: u64,
    pub spec_promotions: u64,
}

impl Delta {
    pub fn between(a: &Probe, b: &Probe) -> Self {
        let kernel_s = b
            .kernels
            .iter()
            .map(|(op, (t, _))| {
                let before = a.kernels.get(op).map_or(Duration::ZERO, |e| e.0);
                (*op, t.saturating_sub(before).as_secs_f64())
            })
            .collect();
        Delta {
            frames: b.exec.frames_spawned - a.exec.frames_spawned,
            ops: b.exec.ops_executed - a.exec.ops_executed,
            continuations: b.exec.continuations - a.exec.continuations,
            cache_writes: b.exec.cache_writes - a.exec.cache_writes,
            cache_reads: b.exec.cache_reads - a.exec.cache_reads,
            max_depth: b.exec.max_depth,
            kernel_s,
            spec_hits: b.spec.hits - a.spec.hits,
            spec_misses: b.spec.misses - a.spec.misses,
            spec_promotions: b.spec.promotions - a.spec.promotions,
        }
    }

    pub fn kernel_total_s(&self) -> f64 {
        self.kernel_s.values().sum()
    }
}

/// Set-up costs of one fresh build (or their medians).
#[derive(Clone, Copy)]
pub struct SetupCost {
    pub total_s: f64,
    pub models_ms: f64,
    pub autodiff_ms: f64,
    pub session_new_ms: f64,
}

/// Serving-layer figures of a traced run (all zero on `train-lstm`).
#[derive(Default)]
pub struct ServeLayer {
    pub fused_frac: f64,
    pub instances_per_group: f64,
    pub submit_block_ms: f64,
    pub wait_mean_ms: f64,
    pub service_mean_ms: f64,
    pub delivery_mean_ms: f64,
    pub wave_size_mean: f64,
    pub shed: u64,
    pub rejected: u64,
}

/// Training-step figures of a traced run (all zero on serve workloads).
#[derive(Default)]
pub struct TrainLayer {
    pub fwdbwd_ms_per_step: f64,
    pub scale_ms: f64,
    pub optim_ms: f64,
}

/// Everything one traced run measured.
pub struct LayerReport<'a> {
    pub items: u64,
    pub workers: usize,
    /// Wall seconds during which the executor had work (the traced serve
    /// windows, or the traced `run_training_batch` spans).
    pub exec_wall_s: f64,
    pub delta: Delta,
    pub matmul_bytes: f64,
    pub setup: SetupCost,
    pub serve: ServeLayer,
    pub train: TrainLayer,
    pub overhead_frac: f64,
    pub closure_gap: f64,
    pub inputs: &'a InputSummary,
}

impl LayerReport<'_> {
    pub fn metrics(&self) -> Metrics {
        let n = self.items as f64;
        let per_item = |v: f64| ratio(v, n);
        let d = &self.delta;
        let busy_s = d.kernel_total_s();
        let worker_s = self.workers as f64 * self.exec_wall_s;
        let mut m = Metrics::default();
        // rdg_exec::executor
        m.put("exec.frames_per_item", per_item(d.frames as f64), "count");
        m.put("exec.ops_per_item", per_item(d.ops as f64), "count");
        m.put(
            "exec.continuations_per_item",
            per_item(d.continuations as f64),
            "count",
        );
        m.put("exec.max_depth", d.max_depth as f64, "count");
        m.put(
            "exec.self_ms_per_item",
            per_item((worker_s - busy_s) * 1e3),
            "ms",
        );
        // rdg_tensor
        m.put("kernel.busy_ms_per_item", per_item(busy_s * 1e3), "ms");
        m.put("kernel.share", ratio(busy_s, worker_s), "ratio");
        for (op, name) in KERNELS {
            let s = d.kernel_s.get(op).copied().unwrap_or(0.0);
            m.put(name, per_item(s * 1e3), "ms");
        }
        m.put(
            "kernel.matmul_bytes_per_item",
            per_item(self.matmul_bytes),
            "B",
        );
        // rdg_exec::batch
        m.put("fuse.fused_frac", self.serve.fused_frac, "ratio");
        m.put(
            "fuse.instances_per_group",
            self.serve.instances_per_group,
            "count",
        );
        // rdg_exec::serve
        m.put("serve.submit_block_ms", self.serve.submit_block_ms, "ms");
        m.put("serve.wait_mean_ms", self.serve.wait_mean_ms, "ms");
        m.put("serve.service_mean_ms", self.serve.service_mean_ms, "ms");
        m.put("serve.delivery_mean_ms", self.serve.delivery_mean_ms, "ms");
        m.put("serve.wave_size_mean", self.serve.wave_size_mean, "count");
        m.put("serve.shed", self.serve.shed as f64, "count");
        m.put("serve.rejected", self.serve.rejected as f64, "count");
        // rdg_exec::plan / session
        m.put(
            "plan.spec_hit_ratio",
            ratio(d.spec_hits as f64, (d.spec_hits + d.spec_misses) as f64),
            "ratio",
        );
        m.put("plan.spec_promotions", d.spec_promotions as f64, "count");
        m.put("plan.session_new_ms", self.setup.session_new_ms, "ms");
        // rdg_exec::cache and rdg_nn
        m.put(
            "cache.writes_per_item",
            per_item(d.cache_writes as f64),
            "count",
        );
        m.put(
            "cache.reads_per_item",
            per_item(d.cache_reads as f64),
            "count",
        );
        m.put(
            "train.fwdbwd_ms_per_step",
            self.train.fwdbwd_ms_per_step,
            "ms",
        );
        m.put("grads.scale_ms", self.train.scale_ms, "ms");
        m.put("optim.step_ms", self.train.optim_ms, "ms");
        // rdg_models + rdg_graph, rdg_autodiff
        m.put("models.build_ms", self.setup.models_ms, "ms");
        m.put("autodiff.build_ms", self.setup.autodiff_ms, "ms");
        // The trace itself
        m.put("trace.overhead_frac", self.overhead_frac, "ratio");
        m.put("trace.closure_gap", self.closure_gap, "ratio");
        // rdg_data: measured properties of the consumed inputs
        m.put("input.leaves_mean", self.inputs.leaves_mean, "count");
        m.put("input.leaves_max", self.inputs.leaves_max as f64, "count");
        m.put("input.height_mean", self.inputs.height_mean, "count");
        m.put(
            "input.small_tree_frac",
            self.inputs.small_tree_frac,
            "ratio",
        );
        m.put("input.repeat_frac", self.inputs.repeat_frac, "ratio");
        m
    }
}
