//! Per-layer kernels: each crate's hot public entry point timed in
//! isolation on state built outside the timed region.
//!
//! Every kernel is a `#[inline(never)]` probe fed through `black_box`,
//! so the compiler can neither hoist the work out of the loop nor
//! delete it. A kernel that replays fixed inputs on a fresh copy of its
//! warm state must return the same checksum on every sample; a
//! mismatch marks the run incorrect.

use std::hint::black_box;
use std::time::Instant;

use interleave_core::{InstrSource, PerfectMemory, ProcConfig, Processor, Scheme, VecSource};
use interleave_engine::{rand64, EventQueue, Inbox, Sequenced};
use interleave_isa::{Access, Instr, TimingModel};
use interleave_mem::{
    CacheParams, DataAccess, DirectCache, DirectTlb, InstAccess, MemConfig, UniMemSystem,
};
use interleave_mp::{splash_suite, Directory, LatencyModel, SplashThread};
use interleave_pipeline::{Btb, Scoreboard};
use interleave_workloads::{mixes, SyntheticApp};

use crate::grid::MP_APPS;
use crate::stats::quartiles;

/// Timed samples per kernel (after one untimed warm-up sample).
const SAMPLES: usize = 15;

/// One kernel's nanoseconds per operation over its samples.
#[derive(Debug, Clone)]
pub struct KernelStat {
    /// Per-layer metric name.
    pub name: &'static str,
    /// First quartile, ns per operation.
    pub q1: f64,
    /// Median, ns per operation.
    pub median: f64,
    /// Third quartile, ns per operation.
    pub q3: f64,
    /// Whether every sample returned the same checksum (always true for
    /// streaming kernels, whose inputs differ per sample).
    pub consistent: bool,
}

/// Times `SAMPLES` samples of `ops` operations each. `prepare` builds a
/// sample's input outside the timed region; `sample` consumes it and
/// returns a checksum. With `replay`, every checksum must match.
fn time_kernel<S>(
    name: &'static str,
    ops: u64,
    replay: bool,
    mut prepare: impl FnMut() -> S,
    mut sample: impl FnMut(S) -> u64,
) -> KernelStat {
    let reference = sample(prepare());
    let mut consistent = true;
    let mut ns = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let input = prepare();
        let t = Instant::now();
        let sum = black_box(sample(black_box(input)));
        ns.push(t.elapsed().as_nanos() as f64 / ops as f64);
        consistent &= !replay || sum == reference;
    }
    let (q1, median, q3) = quartiles(&ns);
    KernelStat { name, q1, median, q3, consistent }
}

fn fold(sum: u64, x: u64) -> u64 {
    sum.rotate_left(5) ^ x
}

fn instr_sum(sum: u64, i: &Instr) -> u64 {
    fold(sum, i.pc ^ i.mem.map_or(0, |m| m.addr))
}

/// The first application of each Table 5 mix, each in its own address
/// slot, boxed as the fetch unit holds sources.
fn table5_generators(seed: u64) -> Vec<Box<dyn InstrSource>> {
    mixes::all()
        .into_iter()
        .enumerate()
        .map(|(k, w)| Box::new(SyntheticApp::new(w.apps[0], k % 4, seed)) as Box<dyn InstrSource>)
        .collect()
}

/// `per_app` instructions of each application of the R0 mix (one
/// stream per context of a 4-context processor).
fn r0_streams(seed: u64, per_app: usize) -> Vec<Vec<Instr>> {
    mixes::r0()
        .apps
        .into_iter()
        .enumerate()
        .map(|(slot, p)| {
            let mut app = SyntheticApp::new(p, slot, seed);
            (0..per_app).map_while(|_| app.next_instr()).collect()
        })
        .collect()
}

const GEN_PER_APP: usize = 4096;

#[inline(never)]
fn gen_next_instr(gens: &mut [Box<dyn InstrSource>], per_app: usize) -> u64 {
    let mut sum = 0;
    for g in gens.iter_mut() {
        for _ in 0..per_app {
            let i = g.next_instr().expect("unlimited stream");
            sum = instr_sum(sum, &i);
        }
    }
    sum
}

#[inline(never)]
fn gen_next_run(gens: &mut [Box<dyn InstrSource>], per_app: usize, buf: &mut Vec<Instr>) -> u64 {
    let mut sum = 0;
    for g in gens.iter_mut() {
        let mut got = 0;
        while got < per_app {
            buf.clear();
            got += g.next_run(buf, 32);
            sum = buf.iter().fold(sum, instr_sum);
        }
    }
    sum
}

#[inline(never)]
fn splash_next_instr(threads: &mut [SplashThread], per_thread: usize) -> u64 {
    let mut sum = 0;
    for t in threads.iter_mut() {
        for _ in 0..per_thread {
            let i = t.next_instr().expect("unlimited stream");
            sum = instr_sum(sum, &i);
        }
    }
    sum
}

/// A directory transaction: node, address, and `Some(cached)` for a
/// write.
type DirOp = (usize, u64, Option<bool>);

#[inline(never)]
fn dir_replay(dir: &mut Directory, ops: &[DirOp]) -> u64 {
    ops.iter().fold(0, |sum, &(node, addr, write)| {
        let tx = match write {
            Some(cached) => dir.write(node, addr, cached),
            None => dir.read(node, addr),
        };
        fold(sum, tx.class as u64 ^ (tx.invalidate.len() as u64) << 8)
    })
}

#[inline(never)]
fn latency_samples(model: &LatencyModel, seed: u64, n: u64) -> u64 {
    let ranges = [model.local, model.remote, model.remote_cache];
    (0..n).fold(0, |sum, i| {
        sum.wrapping_add(model.sample_hashed(ranges[(i % 3) as usize], seed, (i % 8) as usize, i))
    })
}

#[inline(never)]
fn scoreboard_issue(sb: &mut Scoreboard, timing: &TimingModel, instrs: &[(usize, Instr)]) -> u64 {
    let mut now = 0;
    instrs.iter().fold(0, |sum, (ctx, instr)| {
        let ex = sb.earliest_issue(*ctx, instr, timing, now);
        sb.issue(*ctx, instr, timing, ex);
        now += 1;
        fold(sum, ex)
    })
}

#[inline(never)]
fn btb_replay(btb: &mut Btb, branches: &[(u64, bool, u64)]) -> u64 {
    branches.iter().fold(0, |sum, &(pc, taken, target)| {
        let hit = btb.check(pc, taken, target);
        btb.update(pc, taken, target);
        sum + u64::from(hit)
    })
}

#[inline(never)]
fn core_run(cpu: &mut Processor<PerfectMemory>) -> u64 {
    let cycles = cpu.run_until_done(50_000_000);
    assert!(cpu.is_done(), "perfect-memory replay must finish");
    fold(cycles, (0..4).map(|c| cpu.retired(c)).sum())
}

#[inline(never)]
fn l1d_access(mem: &mut UniMemSystem, now: &mut u64, step: u64, addrs: &[u64]) -> u64 {
    addrs.iter().fold(0, |sum, &addr| {
        *now += step;
        match mem.access_data(*now, addr, Access::Read, 0) {
            DataAccess::Hit => sum + 1,
            DataAccess::TlbMiss { .. } => sum + (1 << 20),
            DataAccess::Miss { .. } => sum + (1 << 40),
        }
    })
}

#[inline(never)]
fn l1i_access(mem: &mut UniMemSystem, now: &mut u64, pcs: &[u64]) -> u64 {
    pcs.iter().fold(0, |sum, &pc| {
        *now += 1;
        match mem.access_inst(*now, pc) {
            InstAccess::Hit => sum + 1,
            _ => sum + (1 << 20),
        }
    })
}

#[inline(never)]
fn tlb_replay(tlb: &mut DirectTlb, addrs: &[u64]) -> u64 {
    addrs.iter().fold(0, |sum, &a| sum + u64::from(tlb.access(a)))
}

#[inline(never)]
fn cache_replay(cache: &mut DirectCache, addrs: &[u64]) -> u64 {
    addrs.iter().fold(0, |sum, &a| {
        if cache.probe(a) {
            sum + 1
        } else {
            sum + u64::from(cache.fill(a, a & 64 != 0).is_some()) * 2
        }
    })
}

/// An engine event: due cycle and a payload id.
struct Ev {
    due: u64,
    id: u64,
}

impl Sequenced for Ev {
    fn due(&self) -> u64 {
        self.due
    }
}

/// Pushes `per_cycle` events a cycle, due 1..=64 cycles out, and pops
/// everything due, for `cycles` cycles; then drains.
#[inline(never)]
fn queue_churn(q: &mut EventQueue<Ev>, seed: u64, cycles: u64, per_cycle: u64) -> u64 {
    let mut sum = 0;
    let mut id = 0;
    for now in 0..cycles {
        for _ in 0..per_cycle {
            q.push(Ev { due: now + 1 + rand64::hashed(seed, 1, id) % 64, id });
            id += 1;
        }
        while let Some(e) = q.pop_due(now) {
            sum = fold(sum, e.id);
        }
    }
    while let Some(e) = q.pop_due(u64::MAX) {
        sum = fold(sum, e.id);
    }
    sum
}

/// The same churn through a router inbox keyed `(due, lane, seq)`.
#[inline(never)]
fn inbox_churn(inbox: &mut Inbox<u64>, seed: u64, cycles: u64, per_cycle: u64) -> u64 {
    let mut sum = 0;
    let mut seq = 0;
    for now in 0..cycles {
        for lane in 0..per_cycle {
            let due = now + 1 + rand64::hashed(seed, 2, seq) % 64;
            inbox.push((due, lane as usize, seq), seq);
            seq += 1;
        }
        while let Some((_, p)) = inbox.pop_due(now) {
            sum = fold(sum, p);
        }
    }
    while let Some((_, p)) = inbox.pop_due(u64::MAX) {
        sum = fold(sum, p);
    }
    sum
}

#[inline(never)]
fn rand64_draws(seed: u64, n: u64) -> u64 {
    (0..n).fold(0, |sum, i| sum ^ rand64::hashed(seed, i & 15, i))
}

/// Runs every kernel with inputs drawn from `seed`.
pub fn run_all(seed: u64) -> Vec<KernelStat> {
    let mut out = Vec::new();

    let mut gens = table5_generators(seed);
    let n = gens.len() as u64 * GEN_PER_APP as u64;
    out.push(time_kernel(
        "workloads.gen_ns_per_instr",
        n,
        false,
        || (),
        |()| gen_next_instr(&mut gens, GEN_PER_APP),
    ));
    let mut gens = table5_generators(seed ^ 1);
    let mut buf = Vec::with_capacity(64);
    out.push(time_kernel(
        "workloads.gen_run_ns_per_instr",
        n,
        false,
        || (),
        |()| gen_next_run(&mut gens, GEN_PER_APP, &mut buf),
    ));

    let mut threads: Vec<SplashThread> = splash_suite()
        .into_iter()
        .filter(|a| MP_APPS.contains(&a.name))
        .map(|a| SplashThread::new(a, 1, 16, seed))
        .collect();
    let n = threads.len() as u64 * GEN_PER_APP as u64;
    out.push(time_kernel(
        "mp.splash_ns_per_instr",
        n,
        false,
        || (),
        |()| splash_next_instr(&mut threads, GEN_PER_APP),
    ));

    let ops: Vec<DirOp> = (0..16_384u64)
        .map(|i| {
            let h = rand64::hashed(seed, 3, i);
            let addr = 0x7000_0000 + (h >> 8) % 2048 * 32;
            let write = ((h >> 20) % 10 < 3).then_some((h >> 30) & 1 == 1);
            ((h % 8) as usize, addr, write)
        })
        .collect();
    let mut warm = Directory::new(8, 32);
    dir_replay(&mut warm, &ops);
    out.push(time_kernel(
        "mp.dir_ns_per_txn",
        ops.len() as u64,
        true,
        || warm.clone(),
        |mut d| dir_replay(&mut d, &ops),
    ));

    let model = LatencyModel::dash_like();
    out.push(time_kernel(
        "mp.latency_ns_per_sample",
        200_000,
        true,
        || (),
        |()| latency_samples(&model, black_box(seed), 200_000),
    ));

    let streams = r0_streams(seed, 12_000);
    let interleaved: Vec<(usize, Instr)> = (0..4_096)
        .flat_map(|i| (0..4).map(move |c| (c, i)))
        .map(|(c, i)| (c, streams[c][i]))
        .collect();
    let timing = TimingModel::r4000_like();
    out.push(time_kernel(
        "pipeline.issue_ns",
        interleaved.len() as u64,
        true,
        || Scoreboard::new(4),
        |mut sb| scoreboard_issue(&mut sb, &timing, &interleaved),
    ));
    let branches: Vec<(u64, bool, u64)> = streams
        .iter()
        .flatten()
        .filter_map(|i| i.branch.map(|b| (i.pc, b.taken, b.target)))
        .collect();
    out.push(time_kernel(
        "pipeline.btb_ns",
        branches.len() as u64,
        true,
        || Btb::new(2048),
        |mut btb| btb_replay(&mut btb, &branches),
    ));

    let core_cpu = || {
        let mut cpu = Processor::new(ProcConfig::new(Scheme::Interleaved, 4), PerfectMemory);
        for (ctx, s) in streams.iter().enumerate() {
            cpu.attach(ctx, Box::new(VecSource::new(s.iter().copied())));
        }
        cpu
    };
    let mut probe = core_cpu();
    core_run(&mut probe);
    out.push(time_kernel("core.ns_per_cycle", probe.now(), true, core_cpu, |mut cpu| {
        core_run(&mut cpu)
    }));

    let cfg = MemConfig::workstation();
    let l1d = cfg.l1d;
    let mut mem = UniMemSystem::new(cfg.clone());
    let hits: Vec<u64> = (0..65_536u64).map(|i| 0x10_0000 + (i % 256) * 32).collect();
    for &a in &hits[..256] {
        mem.preload_data(a);
    }
    let mut now = 0;
    out.push(time_kernel(
        "mem.l1d_hit_ns",
        hits.len() as u64,
        true,
        || (),
        |()| l1d_access(&mut mem, &mut now, 1, &hits),
    ));
    // Two lines per set, alternated, so every access misses the primary
    // cache and refills from the secondary; clock steps let each fill
    // retire before the next miss.
    let sets = l1d.lines();
    let misses: Vec<u64> = (0..16_384u64)
        .map(|i| 0x20_0000 + (i % sets) * l1d.line + (i / sets % 2) * l1d.size)
        .collect();
    let mut mem = UniMemSystem::new(cfg.clone());
    l1d_access(&mut mem, &mut now, 200, &misses);
    out.push(time_kernel(
        "mem.l1d_miss_ns",
        misses.len() as u64,
        true,
        || (),
        |()| l1d_access(&mut mem, &mut now, 200, &misses),
    ));
    let pcs: Vec<u64> = (0..65_536u64).map(|i| 0x4000_0000 + (i % 1024) * 4).collect();
    let mut mem = UniMemSystem::new(cfg.clone());
    for &pc in pcs[..1024].iter().step_by(8) {
        mem.preload_inst(pc);
    }
    out.push(time_kernel(
        "mem.l1i_ns",
        pcs.len() as u64,
        true,
        || (),
        |()| l1i_access(&mut mem, &mut now, &pcs),
    ));

    let pages: Vec<u64> = (0..65_536u64)
        .map(|i| {
            let h = rand64::hashed(seed, 4, i);
            // Mostly a hot set that fits the TLB, sometimes a cold page.
            let page = if h.is_multiple_of(8) { 64 + (h >> 8) % 1024 } else { (h >> 8) % 48 };
            page * cfg.page_size + (h >> 32) % cfg.page_size
        })
        .collect();
    let mut warm_tlb = DirectTlb::new(cfg.dtlb_entries, cfg.page_size);
    tlb_replay(&mut warm_tlb, &pages);
    out.push(time_kernel(
        "mem.tlb_ns",
        pages.len() as u64,
        true,
        || warm_tlb.clone(),
        |mut t| tlb_replay(&mut t, &pages),
    ));
    let lines: Vec<u64> = (0..65_536u64)
        .map(|i| (rand64::hashed(seed, 5, i) % (2 * l1d.size)) & !(l1d.line - 1))
        .collect();
    let mut warm_cache = DirectCache::new(CacheParams::primary_data());
    cache_replay(&mut warm_cache, &lines);
    out.push(time_kernel(
        "mem.cache_ns",
        lines.len() as u64,
        true,
        || warm_cache.clone(),
        |mut c| cache_replay(&mut c, &lines),
    ));

    let (ecycles, per_cycle) = (8_192, 4);
    let mut q = EventQueue::new();
    out.push(time_kernel(
        "engine.queue_ns_per_op",
        ecycles * per_cycle,
        true,
        || (),
        |()| queue_churn(&mut q, seed, ecycles, per_cycle),
    ));
    let mut inbox = Inbox::new();
    out.push(time_kernel(
        "engine.router_ns_per_msg",
        ecycles * per_cycle,
        true,
        || (),
        |()| inbox_churn(&mut inbox, seed, ecycles, per_cycle),
    ));
    out.push(time_kernel(
        "engine.rand64_ns",
        500_000,
        true,
        || (),
        |()| rand64_draws(black_box(seed), 500_000),
    ));

    out
}
