//! The traced run's attribution.
//!
//! * Uniprocessor: benchmark-owned wrappers implement the public
//!   [`InstrSource`] and [`SystemPort`] traits around [`SyntheticApp`]
//!   and [`UniMemSystem`] and record a span around a deterministic
//!   1-in-[`SAMPLE_EVERY`] sample of their calls (call counts stay
//!   exact). Core self time is the run's time minus both children.
//! * Every workload: the program's own host-phase profiler
//!   ([`interleave_obs::profile`]), read from a profiled sweep; its
//!   marks give the deterministic work counts.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use interleave_bench::SweepResult;
use interleave_core::{
    DataOutcome, InstOutcome, InstrSource, ProcConfig, Processor, Scheme, SystemPort,
};
use interleave_isa::{Access, Instr};
use interleave_mem::{MemConfig, UniMemSystem};
use interleave_obs::profile::PhaseProfile;
use interleave_obs::validate::Violation;
use interleave_workloads::{mixes, SyntheticApp};

/// One call in this many is timed (a power of two).
pub const SAMPLE_EVERY: u64 = 8;

/// Calls into one layer, with the sampled calls' nanoseconds.
#[derive(Debug, Default)]
struct Span {
    calls: AtomicU64,
    timed_calls: AtomicU64,
    timed_ns: AtomicU64,
}

impl Span {
    /// Runs `f` as one call of this span, timing it when the call index
    /// falls on the sample grid.
    #[inline]
    fn record<T>(&self, f: impl FnOnce() -> T) -> T {
        let n = self.calls.load(Ordering::Relaxed);
        self.calls.store(n + 1, Ordering::Relaxed);
        if !n.is_multiple_of(SAMPLE_EVERY) {
            return f();
        }
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos() as u64;
        self.timed_calls.store(self.timed_calls.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        self.timed_ns.store(self.timed_ns.load(Ordering::Relaxed) + ns, Ordering::Relaxed);
        out
    }

    /// Exact call count.
    fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Estimated nanoseconds over all calls: the sampled time scaled by
    /// calls per sampled call.
    fn estimate_ns(&self) -> f64 {
        let timed = self.timed_calls.load(Ordering::Relaxed);
        if timed == 0 {
            return 0.0;
        }
        self.timed_ns.load(Ordering::Relaxed) as f64 * self.calls() as f64 / timed as f64
    }
}

/// An instruction source that records a span around every pull.
struct TracedSource {
    inner: SyntheticApp,
    span: Arc<Span>,
}

impl InstrSource for TracedSource {
    fn next_instr(&mut self) -> Option<Instr> {
        self.span.record(|| self.inner.next_instr())
    }

    fn next_run(&mut self, out: &mut Vec<Instr>, max: usize) -> usize {
        self.span.record(|| self.inner.next_run(out, max))
    }
}

/// A memory port that records a span around every access.
struct TracedPort {
    inner: UniMemSystem,
    span: Span,
}

impl SystemPort for TracedPort {
    fn data(&mut self, lookup_start: u64, addr: u64, kind: Access, ctx: usize) -> DataOutcome {
        let inner = &mut self.inner;
        self.span.record(|| inner.data(lookup_start, addr, kind, ctx))
    }

    fn inst(&mut self, lookup_start: u64, pc: u64) -> InstOutcome {
        let inner = &mut self.inner;
        self.span.record(|| inner.inst(lookup_start, pc))
    }

    fn check_invariants(&self, now: u64) -> Result<(), Violation> {
        self.inner.check_invariants(now)
    }
}

/// Instructions each application retires in the attribution run.
const SPAN_QUOTA: u64 = 20_000;

/// Uniprocessor attribution over the seven Table 5 mixes, each on a
/// 4-context interleaved processor with its four applications
/// resident.
#[derive(Debug, Default, Clone)]
pub struct UniSpans {
    /// Fastest untraced run, seconds.
    pub bare_s: f64,
    /// Fastest traced run, seconds.
    pub traced_s: f64,
    /// Generator share of the traced run, percent.
    pub gen_pct: f64,
    /// Memory-system share of the traced run, percent.
    pub mem_pct: f64,
    /// Core self share of the traced run, percent.
    pub core_pct: f64,
    /// Whether traced and untraced runs simulated identically.
    pub identical: bool,
}

fn spans_cpu(w: &mixes::Workload, seed: u64) -> Processor<UniMemSystem> {
    let mut cpu = Processor::new(
        ProcConfig::new(Scheme::Interleaved, 4),
        UniMemSystem::new(MemConfig::workstation()),
    );
    for (slot, &p) in w.apps.iter().enumerate() {
        cpu.attach(slot, Box::new(SyntheticApp::new(p, slot, seed).with_limit(SPAN_QUOTA)));
    }
    cpu
}

fn run_done<P: SystemPort>(cpu: &mut Processor<P>) -> (u64, u64) {
    cpu.run_until_done(u64::MAX / 2);
    (cpu.now(), (0..4).map(|c| cpu.retired(c)).sum())
}

/// Runs the attribution `reps` times each way, alternating, and keeps
/// the fastest of each.
pub fn uni_spans(seed: u64, reps: usize) -> UniSpans {
    let workloads = mixes::all();
    let mut out =
        UniSpans { bare_s: f64::MAX, traced_s: f64::MAX, identical: true, ..UniSpans::default() };
    for _ in 0..reps {
        let mut cpus: Vec<_> = workloads.iter().map(|w| spans_cpu(w, seed)).collect();
        let t = Instant::now();
        let bare: Vec<(u64, u64)> = cpus.iter_mut().map(run_done).collect();
        out.bare_s = out.bare_s.min(t.elapsed().as_secs_f64());

        let gen = Arc::new(Span::default());
        let mut cpus: Vec<Processor<TracedPort>> = workloads
            .iter()
            .map(|w| {
                let port = TracedPort {
                    inner: UniMemSystem::new(MemConfig::workstation()),
                    span: Span::default(),
                };
                let mut cpu = Processor::new(ProcConfig::new(Scheme::Interleaved, 4), port);
                for (slot, &p) in w.apps.iter().enumerate() {
                    let inner = SyntheticApp::new(p, slot, seed).with_limit(SPAN_QUOTA);
                    cpu.attach(slot, Box::new(TracedSource { inner, span: gen.clone() }));
                }
                cpu
            })
            .collect();
        let t = Instant::now();
        let traced: Vec<(u64, u64)> = cpus.iter_mut().map(run_done).collect();
        let total = t.elapsed().as_secs_f64();
        out.identical &= bare == traced;
        if total < out.traced_s {
            out.traced_s = total;
            let total_ns = total * 1e9;
            let mem_ns: f64 = cpus.iter().map(|c| c.port().span.estimate_ns()).sum();
            out.gen_pct = 100.0 * gen.estimate_ns() / total_ns;
            out.mem_pct = 100.0 * mem_ns / total_ns;
            out.core_pct = 100.0 - out.gen_pct - out.mem_pct;
        }
    }
    out
}

/// Profiler marks and scopes counted per 1000 simulated cycles.
const WORK_MARKS: [&str; 8] = [
    "core.tick",
    "workloads.gen_instrs",
    "workloads.gen_batch",
    "pipeline.squash",
    "mem.miss",
    "engine.event_pop",
    "engine.router_pop",
    "engine.exchange",
];

/// Directory and sync counters summed from the cells' METRICS.
const WORK_COUNTERS: [&str; 8] = [
    "mp.dir.local",
    "mp.dir.remote",
    "mp.dir.remote_cache",
    "mp.dir.upgrades",
    "mp.dir.invalidations",
    "mp.dir.writebacks",
    "mp.sync.waits",
    "mp.sync.grants",
];

/// Deterministic work counts of one profiled sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkCounts {
    /// Measured simulated cycles over all cells.
    pub cycles: u64,
    /// Measured retired instructions over all cells.
    pub instrs: u64,
    /// `(name, count)` for every mark and counter, in table order.
    pub counts: Vec<(&'static str, u64)>,
}

impl WorkCounts {
    /// Counts from a profiled sweep.
    pub fn of(sweep: &SweepResult, profile: &PhaseProfile) -> WorkCounts {
        let cycles = sweep.cells.iter().map(|(_, r)| r.cycles()).sum();
        let instrs = sweep.cells.iter().map(|(_, r)| crate::grid::instructions(r)).sum();
        let mut counts: Vec<(&'static str, u64)> =
            WORK_MARKS.iter().map(|&m| (m, profile.get(m).map_or(0, |s| s.calls))).collect();
        counts.extend(WORK_COUNTERS.iter().map(|&c| {
            (c, sweep.cells.iter().map(|(_, r)| r.metrics().counter_value(c).unwrap_or(0)).sum())
        }));
        WorkCounts { cycles, instrs, counts }
    }

    /// A count by name (0 if absent).
    pub fn get(&self, name: &str) -> u64 {
        self.counts.iter().find(|(n, _)| *n == name).map_or(0, |&(_, c)| c)
    }

    /// `count` per 1000 measured simulated cycles.
    pub fn per_kcycle(&self, count: u64) -> f64 {
        1000.0 * count as f64 / self.cycles.max(1) as f64
    }

    /// `count` per 1000 measured retired instructions.
    pub fn per_kinstr(&self, count: u64) -> f64 {
        1000.0 * count as f64 / self.instrs.max(1) as f64
    }

    /// Renders the table: one row per count with its rate per 1000
    /// simulated cycles, plus instructions per generator batch.
    pub fn table(&self) -> String {
        let mut out = format!(
            "  work counts (exact for a fixed seed; marks cover warmup too, rates are per 1000 \
             measured cycles)\n  {:<24} {:>14} {:>14}\n  {:<24} {:>14} {:>14}\n  {:<24} {:>14} {:>14}\n",
            "count", "calls", "per_kcycle", "sim_cycles", self.cycles, "-", "sim_instrs", self.instrs, "-"
        );
        for &(name, count) in &self.counts {
            out += &format!("  {name:<24} {count:>14} {:>14.4}\n", self.per_kcycle(count));
        }
        out += &format!(
            "  {:<24} {:>14.4}   (1.0000 = one instruction per generator call)\n",
            "gen_instrs/gen_batch",
            self.instrs_per_batch()
        );
        out
    }

    /// Generated instructions per generator call.
    pub fn instrs_per_batch(&self) -> f64 {
        self.get("workloads.gen_instrs") as f64 / self.get("workloads.gen_batch").max(1) as f64
    }
}

/// Self time of `phase` as a percentage of the profile's total self
/// time (0 when the phase never ran).
pub fn self_share(profile: &PhaseProfile, phase: &str) -> f64 {
    let total = profile.total_self_ns();
    if total == 0 {
        return 0.0;
    }
    100.0 * profile.get(phase).map_or(0, |s| s.self_ns) as f64 / total as f64
}
