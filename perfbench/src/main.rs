//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! With `--trace 0` it times the workload's grid with tracing off and
//! reports the end-to-end metrics; with `--trace 1` it runs the kernels
//! and the traced attribution run and reports the per-layer metrics.
//! A human-readable report goes to stderr; the last line of stdout is
//! the machine-readable result.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use interleave_bench::{Cell, CellResult, ExperimentSpec, SweepResult};
use interleave_core::Scheme;
use interleave_obs::profile;
use perfbench::catalog::{END_TO_END, PER_LAYER};
use perfbench::grid::{self, Workload};
use perfbench::hostspeed::HostSpeed;
use perfbench::kernels;
use perfbench::stats::{fold_fastest, median, result_line};
use perfbench::trace::{self, WorkCounts};

const USAGE: &str = "usage: perfbench --workload <uni-table7|mp-splash|smoke> \
                     [--seed <u64>] [--seconds <s>] [--trace <0|1>]";

/// Kernel and attribution inputs when no `--seed` is given: the
/// uniprocessor simulator's canonical seed.
const DEFAULT_SEED: u64 = 0x1994_0501;

struct Args {
    workload: Workload,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// Cell runs attempted and failed, and why.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    reasons: BTreeMap<String, u64>,
}

impl Tally {
    fn check(&mut self, ok: bool, reason: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            *self.reasons.entry(reason.to_string()).or_default() += 1;
        }
    }
}

/// Checks one pass's results against the reference (the first result
/// seen for each cell) and the completion rules.
fn check_pass(
    tally: &mut Tally,
    workload: Workload,
    cells: &[Cell],
    reference: &mut Vec<Option<CellResult>>,
    results: Vec<Option<CellResult>>,
    what: &str,
) {
    if reference.is_empty() {
        reference.resize(cells.len(), None);
    }
    for ((cell, r), slot) in cells.iter().zip(results).zip(reference.iter_mut()) {
        let Some(r) = r else {
            tally.check(false, &format!("{what}: panicked"));
            continue;
        };
        if !grid::finished(workload, cell, &r) {
            tally.check(false, &format!("{what}: ended without finishing"));
            continue;
        }
        match slot {
            Some(first) => {
                tally.check(*first == r, &format!("{what}: differs from the first pass"))
            }
            None => {
                tally.attempted += 1;
                *slot = Some(r);
            }
        }
    }
}

fn sweep_results(sweep: Option<SweepResult>, cells: usize) -> Vec<Option<CellResult>> {
    match sweep {
        Some(s) => s.cells.into_iter().map(|(_, r)| Some(r)).collect(),
        None => vec![None; cells],
    }
}

fn walls(sweep: &SweepResult) -> Vec<f64> {
    sweep.cell_walls.iter().map(|d| d.as_secs_f64()).collect()
}

fn totals(reference: &[Option<CellResult>]) -> (u64, u64) {
    reference.iter().flatten().fold((0, 0), |(c, i), r| (c + r.cycles(), i + grid::instructions(r)))
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Whether another pass fits `budget` seconds from `started`, judging
/// by the mean length of the `passes` already run.
fn another_pass(started: Instant, passes: usize, min_passes: usize, budget: f64) -> bool {
    let elapsed = started.elapsed().as_secs_f64();
    passes < min_passes || elapsed + elapsed / passes as f64 <= budget
}

struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
}

/// `--trace 0`: interleaved passes over the grid with each cell's
/// fastest pass as its host time, and set-up batches and reference
/// walks between cells. Host times are rescaled to quiet-host seconds by
/// the slowdown the reference walk saw over the run.
fn timed(args: &Args, spec: &ExperimentSpec, tally: &mut Tally) -> Report {
    let w = args.workload;
    let cells = spec.cells();
    let mut reference = Vec::new();
    let mut best = Vec::new();
    let mut setups = Vec::new();
    let mut peak_rss = 0.0;
    let mut speed = HostSpeed::default();
    let started = Instant::now();
    let mut passes = 0;
    while another_pass(started, passes, 2, args.seconds) {
        let mut results = Vec::with_capacity(cells.len());
        let mut secs = Vec::with_capacity(cells.len());
        for cell in &cells {
            let t = Instant::now();
            results.push(grid::guarded(|| spec.run_cell(cell)));
            secs.push(t.elapsed().as_secs_f64());
            setups.push(grid::setup_batch(w, args.seed));
            speed.sample();
        }
        fold_fastest(&mut best, &secs);
        check_pass(tally, w, &cells, &mut reference, results, "pass");
        if passes == 0 {
            // Every cell has run once; later passes only repeat them,
            // and how many fit the budget depends on the host.
            peak_rss = peak_rss_mb();
        }
        passes += 1;
    }
    let wall_s: f64 = best.iter().sum();
    let slowdown = speed.slowdown();
    let host_s = wall_s / slowdown;
    let (cycles, instrs) = totals(&reference);
    let mut notes = vec![format!(
        "cells {}, timed passes {passes}, {} set-up batches, wall {wall_s:.4} s (sum of per-cell \
         fastest passes, {:.0} cycles/s as measured); reference walk q1 {:.4} ms, \
         slowdown {slowdown:.4}, quiet-host {host_s:.4} s",
        cells.len(),
        setups.len(),
        cycles as f64 / wall_s,
        speed.first_quartile() * 1e3
    )];
    notes.extend(paper_note(w, &cells, &reference));
    Report {
        metrics: vec![
            ("sim_cycles_per_s", cycles as f64 / host_s, "1/s"),
            ("sim_instrs_per_s", instrs as f64 / host_s, "1/s"),
            ("setup_s", median(&setups) / slowdown, "s"),
            ("peak_rss_mb", peak_rss, "MB"),
        ],
        notes,
    }
}

fn paper_note(w: Workload, cells: &[Cell], results: &[Option<CellResult>]) -> Option<String> {
    if w != Workload::UniTable7 {
        return Some(
            "paper_gm_err: n/a (the repository holds no paper numbers for this grid; the \
                     model is unvalidated here)"
                .into(),
        );
    }
    grid::paper_gm_err(cells, results).map(|e| {
        format!("paper_gm_err {e:.6} ratio (mean |simulated - paper| Table 7 geomean gain; deterministic per seed)")
    })
}

/// `--trace 1`: kernels, the uniprocessor span attribution, a validated
/// pass, and alternating untraced/profiled sweeps.
fn traced(args: &Args, spec: &ExperimentSpec, tally: &mut Tally) -> Report {
    let w = args.workload;
    let started = Instant::now();
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let mut notes = Vec::new();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    for k in kernels::run_all(seed) {
        tally.check(k.consistent, &format!("kernel {}: checksum changed between samples", k.name));
        notes.push(format!(
            "kernel {:<32} median {:>10.3} ns  q1 {:>10.3}  q3 {:>10.3}",
            k.name, k.median, k.q1, k.q3
        ));
        m.insert(k.name, k.median);
    }

    let uni = matches!(w, Workload::UniTable7 | Workload::Smoke);
    if uni {
        let s = trace::uni_spans(seed, 3);
        tally.check(s.identical, "spans: traced run simulated differently");
        notes.push(format!(
            "uni spans: gen {:.2}%  mem {:.2}%  core self {:.2}%  (bare {:.4} s, traced {:.4} s, 1 in {} calls timed)",
            s.gen_pct, s.mem_pct, s.core_pct, s.bare_s, s.traced_s, trace::SAMPLE_EVERY
        ));
        m.insert("workloads.gen_share", s.gen_pct);
        m.insert("mem.share", s.mem_pct);
        m.insert("core.self_share", s.core_pct);
        m.insert("obs.span_overhead_pct", 100.0 * (s.traced_s / s.bare_s - 1.0));
    } else {
        for name in ["workloads.gen_share", "mem.share", "core.self_share", "obs.span_overhead_pct"]
        {
            m.insert(name, 0.0);
        }
    }

    let cells = spec.cells();
    let mut reference = Vec::new();
    let (serial, serial_wall) = grid::runner_pass(spec, 1);
    let serial_json = serial.as_ref().map(SweepResult::metrics_json);
    if let Some(s) = &serial {
        let reps: Vec<f64> = (0..9)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box((s.to_json(), s.metrics_json()));
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        m.insert("bench.artifact_ms", median(&reps));
    }
    check_pass(tally, w, &cells, &mut reference, sweep_results(serial, cells.len()), "serial");
    notes.extend(paper_note(w, &cells, &reference));

    // The same grid on two runner threads must reproduce the serial
    // sweep exactly.
    let (parallel, parallel_wall) = grid::runner_pass(spec, 2);
    let parallel_s = parallel_wall.as_secs_f64();
    if let Some(p) = &parallel {
        let busy: f64 = p.cell_walls.iter().map(|d| d.as_secs_f64()).sum();
        m.insert(
            "bench.runner_overhead_ms_per_cell",
            (2.0 * parallel_s - busy) * 1e3 / cells.len() as f64,
        );
    }
    m.insert("bench.jobs2_efficiency", serial_wall.as_secs_f64() / (2.0 * parallel_s));
    tally.check(
        parallel.as_ref().map(SweepResult::metrics_json) == serial_json,
        "jobs2: METRICS differ from serial",
    );
    check_pass(tally, w, &cells, &mut reference, sweep_results(parallel, cells.len()), "jobs2");

    // Invariant checkers on, through the copy of run_cell's
    // configuration built by the public builders. The MP machine-wide
    // checks cost several times the run, so only each target's
    // interleaved cell with the most contexts is validated.
    let t = Instant::now();
    let most = cells.iter().map(|c| c.contexts).max().unwrap_or(1);
    let validated: Vec<Option<CellResult>> = cells
        .iter()
        .zip(&reference)
        .map(|(c, r)| {
            if c.scheme == Scheme::Interleaved && c.contexts == most {
                grid::guarded(|| grid::build_sim(w, c, true).run())
            } else {
                r.clone()
            }
        })
        .collect();
    check_pass(tally, w, &cells, &mut reference, validated, "validated");
    notes.push(format!("validated pass {:.4} s", t.elapsed().as_secs_f64()));

    // Alternating serial sweeps with the profiler off and on; each
    // cell's fastest pass of each kind gives the profiler's overhead.
    let mut plain = Vec::new();
    let mut profiled = Vec::new();
    let mut fastest: Option<(f64, SweepResult, WorkCounts)> = None;
    let mut first_counts: Option<WorkCounts> = None;
    let remaining = args.seconds - started.elapsed().as_secs_f64();
    let loop_start = Instant::now();
    let mut passes = 0;
    while another_pass(loop_start, passes, 1, remaining) {
        let (sweep, _) = grid::runner_pass(spec, 1);
        if let Some(s) = &sweep {
            fold_fastest(&mut plain, &walls(s));
        }
        check_pass(tally, w, &cells, &mut reference, sweep_results(sweep, cells.len()), "untraced");

        profile::set_enabled(true);
        let (sweep, wall) = grid::runner_pass(spec, 1);
        profile::set_enabled(false);
        passes += 1;
        let Some(s) = sweep else {
            check_pass(tally, w, &cells, &mut reference, vec![None; cells.len()], "profiled");
            continue;
        };
        let counts = WorkCounts::of(&s, s.profile.as_ref().unwrap_or(&Default::default()));
        match &first_counts {
            Some(first) => tally.check(*first == counts, "work counts changed between passes"),
            None => first_counts = Some(counts.clone()),
        }
        fold_fastest(&mut profiled, &walls(&s));
        let results = s.cells.iter().map(|(_, r)| Some(r.clone())).collect();
        check_pass(tally, w, &cells, &mut reference, results, "profiled");
        if fastest.as_ref().is_none_or(|f| wall.as_secs_f64() < f.0) {
            fastest = Some((wall.as_secs_f64(), s, counts));
        }
    }
    let (untraced_s, traced_s) = (plain.iter().sum::<f64>(), profiled.iter().sum::<f64>());
    m.insert("obs.trace_overhead_pct", 100.0 * (traced_s / untraced_s - 1.0));
    notes.push(format!(
        "serial {:.4} s, jobs2 {parallel_s:.4} s; {passes} untraced/profiled pairs: {untraced_s:.4} s / \
         {traced_s:.4} s (sums of per-cell fastest passes)",
        serial_wall.as_secs_f64()
    ));

    if let Some((_, sweep, counts)) = fastest {
        let prof = sweep.profile.clone().unwrap_or_default();
        notes.push(counts.table());
        m.insert(
            "workloads.gen_instrs_per_kcycle",
            counts.per_kcycle(counts.get("workloads.gen_instrs")),
        );
        m.insert("workloads.gen_instrs_per_batch", counts.instrs_per_batch());
        let dir_txns: u64 =
            ["mp.dir.local", "mp.dir.remote", "mp.dir.remote_cache", "mp.dir.upgrades"]
                .iter()
                .map(|c| counts.get(c))
                .sum();
        m.insert("mp.dir_txns_per_kcycle", counts.per_kcycle(dir_txns));
        m.insert("mp.sync_waits_per_kcycle", counts.per_kcycle(counts.get("mp.sync.waits")));
        m.insert("pipeline.squash_per_kinstr", counts.per_kinstr(counts.get("pipeline.squash")));
        m.insert("core.ticks_per_kcycle", counts.per_kcycle(counts.get("core.tick")));
        m.insert("mem.misses_per_kinstr", counts.per_kinstr(counts.get("mem.miss")));
        m.insert("engine.event_pops_per_kcycle", counts.per_kcycle(counts.get("engine.event_pop")));
        m.insert("engine.exchanges_per_kcycle", counts.per_kcycle(counts.get("engine.exchange")));
        for (metric, phase) in [
            ("core.idle_skip_share", "core.idle_skip"),
            ("mp.directory_share", "mp.directory"),
            ("mp.shard_advance_share", "mp.shard_advance"),
            ("engine.exchange_share", "engine.exchange"),
            ("engine.segment_share", "engine.segment"),
            ("engine.schedule_share", "engine.schedule"),
        ] {
            m.insert(metric, trace::self_share(&prof, phase));
        }
        let mut phases: Vec<(&str, u64)> =
            prof.iter().filter(|(_, s)| s.self_ns > 0).map(|(n, s)| (n, s.self_ns)).collect();
        phases.sort_by_key(|p| std::cmp::Reverse(p.1));
        notes.push(format!(
            "profiler self time: {}",
            phases
                .iter()
                .map(|(n, _)| format!("{n} {:.1}%", trace::self_share(&prof, n)))
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }

    // A metric a failed pass left unmeasured reads 0, and the run is
    // marked incorrect.
    let metrics = PER_LAYER
        .iter()
        .map(|d| {
            let value = m.get(d.name).copied();
            tally.check(value.is_some(), &format!("{} not measured", d.name));
            (d.name, value.unwrap_or(0.0), d.unit)
        })
        .collect();
    Report { metrics, notes }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = match grid::resolve(args.workload, args.seed) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    profile::set_enabled(false);
    let mut tally = Tally::default();
    let report =
        if args.trace { traced(&args, &spec, &mut tally) } else { timed(&args, &spec, &mut tally) };

    let seed = args
        .seed
        .map_or("default (the canonical per-cell seeds sweep uses)".to_string(), |s| s.to_string());
    eprintln!(
        "perfbench {} seed {seed}, trace {}, budget {} s, {} host threads available",
        args.workload.name(),
        u8::from(args.trace),
        args.seconds,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for note in &report.notes {
        eprintln!("  {}", note.trim_end());
    }
    let defs: BTreeMap<&str, &str> = END_TO_END
        .iter()
        .map(|d| (d.name, d.unit))
        .chain(PER_LAYER.iter().map(|d| (d.name, d.unit)))
        .collect();
    eprintln!("  {:<36} {:>20}  unit", "metric", "value");
    for &(name, value, unit) in &report.metrics {
        debug_assert_eq!(defs.get(name), Some(&unit));
        eprintln!("  {name:<36} {value:>20.6}  {unit}");
    }
    let error_rate = tally.failed as f64 / tally.attempted.max(1) as f64;
    eprintln!(
        "  {:<36} {:>20.6}  ratio ({} of {} checks failed)",
        "error_rate", error_rate, tally.failed, tally.attempted
    );
    for (reason, n) in &tally.reasons {
        eprintln!("  FAILED {n}x: {reason}");
    }
    println!(
        "{}",
        result_line(tally.failed == 0, tally.attempted.max(1), tally.failed, &report.metrics)
    );
    ExitCode::SUCCESS
}
