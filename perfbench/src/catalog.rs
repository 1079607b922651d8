//! Every workload and metric the benchmark reports, with the
//! end-to-end metric and workload each per-layer metric should move.
//! `BENCHMARK.json` lists the same names, units and directions; a
//! self-test keeps the two in step.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// `"higher"` / `"lower"`, as `BENCHMARK.json` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric, measured with tracing off.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// A per-layer metric: a kernel timed in isolation, or a share or work
/// count taken from the traced run.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name (`<crate>.<what>`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// The end-to-end metric a change to this layer should move.
    pub moves: &'static str,
    /// The workloads on which it should move; every other workload
    /// should stay unchanged.
    pub on: &'static str,
}

/// The workloads `BENCHMARK.json` lists, with why each was chosen.
pub const WORKLOADS: [(&str, &str); 2] = [
    (
        "uni-table7",
        "35-cell Table 7 grid run serially: generation, core and workstation memory do the work; \
         never touches directory, router or barrier",
    ),
    (
        "mp-splash",
        "MP3D, Water and Cholesky cells of Table 10 run serially: directory, sync and the engine \
         barrier do the work; never touches workstation memory",
    ),
];

/// End-to-end metrics (`--trace 0`).
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "sim_cycles_per_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "sim_instrs_per_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.25 },
];

const SERIAL: &str = "uni-table7, mp-splash";
const UNI: &str = "uni-table7";
const MP: &str = "mp-splash";
const JOBS2: &str = "mp-splash (its traced run's 2-thread Runner pass)";
const RATE: &str = "sim_cycles_per_s";

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    on: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, moves, on }
}

use Better::{Higher, Lower};

/// Per-layer metrics (`--trace 1`).
pub const PER_LAYER: [PerLayer; 39] = [
    layer("workloads.gen_ns_per_instr", "ns", Lower, RATE, SERIAL),
    layer("workloads.gen_run_ns_per_instr", "ns", Lower, RATE, UNI),
    layer("workloads.gen_share", "%", Lower, RATE, UNI),
    layer("workloads.gen_instrs_per_kcycle", "1/kcycle", Lower, RATE, SERIAL),
    layer("workloads.gen_instrs_per_batch", "instr", Higher, RATE, MP),
    layer("mp.splash_ns_per_instr", "ns", Lower, RATE, MP),
    layer("mp.dir_ns_per_txn", "ns", Lower, RATE, MP),
    layer("mp.latency_ns_per_sample", "ns", Lower, RATE, MP),
    layer("mp.directory_share", "%", Lower, RATE, MP),
    layer("mp.shard_advance_share", "%", Lower, RATE, MP),
    layer("mp.dir_txns_per_kcycle", "1/kcycle", Lower, RATE, MP),
    layer("mp.sync_waits_per_kcycle", "1/kcycle", Lower, RATE, MP),
    layer("pipeline.issue_ns", "ns", Lower, RATE, SERIAL),
    layer("pipeline.btb_ns", "ns", Lower, RATE, SERIAL),
    layer("pipeline.squash_per_kinstr", "1/kinstr", Lower, RATE, SERIAL),
    layer("core.ns_per_cycle", "ns", Lower, RATE, SERIAL),
    layer("core.self_share", "%", Lower, RATE, UNI),
    layer("core.idle_skip_share", "%", Lower, RATE, SERIAL),
    layer("core.ticks_per_kcycle", "1/kcycle", Lower, RATE, SERIAL),
    layer("mem.l1d_hit_ns", "ns", Lower, RATE, UNI),
    layer("mem.l1d_miss_ns", "ns", Lower, RATE, UNI),
    layer("mem.l1i_ns", "ns", Lower, RATE, UNI),
    layer("mem.tlb_ns", "ns", Lower, RATE, UNI),
    layer("mem.cache_ns", "ns", Lower, RATE, SERIAL),
    layer("mem.share", "%", Lower, RATE, UNI),
    layer("mem.misses_per_kinstr", "1/kinstr", Lower, RATE, UNI),
    layer("engine.queue_ns_per_op", "ns", Lower, RATE, SERIAL),
    layer("engine.router_ns_per_msg", "ns", Lower, RATE, MP),
    layer("engine.rand64_ns", "ns", Lower, RATE, SERIAL),
    layer("engine.exchange_share", "%", Lower, RATE, MP),
    layer("engine.segment_share", "%", Lower, RATE, MP),
    layer("engine.schedule_share", "%", Lower, RATE, MP),
    layer("engine.event_pops_per_kcycle", "1/kcycle", Lower, RATE, SERIAL),
    layer("engine.exchanges_per_kcycle", "1/kcycle", Lower, RATE, MP),
    layer("bench.runner_overhead_ms_per_cell", "ms", Lower, RATE, JOBS2),
    layer("bench.jobs2_efficiency", "ratio", Higher, RATE, JOBS2),
    layer("bench.artifact_ms", "ms", Lower, RATE, JOBS2),
    layer("obs.trace_overhead_pct", "%", Lower, "none", "none: tracing is off in timed runs"),
    layer("obs.span_overhead_pct", "%", Lower, "none", "none: tracing is off in timed runs"),
];
