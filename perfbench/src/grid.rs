//! The benchmark's grids: resolving a workload to the spec `sweep`
//! would run, building its simulators for the set-up measurement, and
//! checking each cell's result.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use interleave_bench::runner::Target;
use interleave_bench::{
    artifact_spec, Cell, CellResult, ExperimentSpec, Runner, Scale, SweepResult,
};
use interleave_mp::MpSim;
use interleave_workloads::MultiprogramSim;

/// Every grid runs at CI scale.
pub const SCALE: Scale = Scale::Ci;

/// The Table 10 applications the MP workloads keep: memory-bound with
/// migratory sharing (MP3D), FP-divide heavy (Water) and
/// lock-serialised (Cholesky).
pub const MP_APPS: [&str; 3] = ["MP3D", "Water", "Cholesky"];

/// Instruction quota and warmup of the `smoke` artifact, which the
/// self-tests use as a seconds-long stand-in for the real grids.
const SMOKE_QUOTA: u64 = 2_000;
const SMOKE_WARMUP: u64 = 500;

/// A grid the benchmark can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 35-cell Table 7 grid, serial.
    UniTable7,
    /// MP3D, Water and Cholesky from Table 10 (21 cells), serial.
    MpSplash,
    /// The repository's 3-cell `smoke` grid, for the self-tests only.
    Smoke,
}

impl Workload {
    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "uni-table7" => Some(Workload::UniTable7),
            "mp-splash" => Some(Workload::MpSplash),
            "smoke" => Some(Workload::Smoke),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::UniTable7 => "uni-table7",
            Workload::MpSplash => "mp-splash",
            Workload::Smoke => "smoke",
        }
    }

    /// Uniprocessor quota and warmup the spec resolves to.
    fn uni_knobs(self) -> (u64, u64) {
        match self {
            Workload::Smoke => (SMOKE_QUOTA, SMOKE_WARMUP),
            _ => (SCALE.uni_quota(), SCALE.uni_warmup()),
        }
    }
}

/// Resolves a workload to its spec, the way `sweep` resolves an
/// artifact. `seed` replaces the canonical per-cell seeds through
/// [`ExperimentSpec::seeds`]; `None` keeps them, reproducing `sweep`.
///
/// # Errors
///
/// Returns the message of an artifact the program no longer defines.
pub fn resolve(workload: Workload, seed: Option<u64>) -> Result<ExperimentSpec, String> {
    let spec = match workload {
        Workload::UniTable7 => artifact_spec("table7", SCALE)?,
        Workload::Smoke => artifact_spec("smoke", SCALE)?,
        Workload::MpSplash => {
            let table10 = artifact_spec("table10", SCALE)?;
            let mut spec = ExperimentSpec::new("mp-splash", SCALE).contexts([2, 4, 8]);
            for name in MP_APPS {
                let app = table10
                    .cells()
                    .into_iter()
                    .find_map(|c| match c.target {
                        Target::Mp(app) if app.name == name => Some(app),
                        _ => None,
                    })
                    .ok_or_else(|| format!("table10 no longer has {name}"))?;
                spec = spec.mp(app);
            }
            spec
        }
    };
    Ok(match seed {
        Some(s) => spec.seeds([s]),
        None => spec,
    })
}

/// A cell's simulator as its public builder makes it.
pub enum Sim {
    /// Uniprocessor multiprogramming simulation.
    Uni(MultiprogramSim),
    /// Multiprocessor simulation.
    Mp(MpSim),
}

/// Builds a cell's simulator through the public builders with the
/// configuration [`ExperimentSpec::run_cell`] resolves for it. The
/// traced run checks that a validated run of this simulator reproduces
/// `run_cell`'s result, so the copy cannot drift unnoticed.
pub fn build_sim(workload: Workload, cell: &Cell, validate: bool) -> Sim {
    match &cell.target {
        Target::Uni(w) => {
            let (quota, warmup) = workload.uni_knobs();
            let mut b = MultiprogramSim::builder(w.clone())
                .scheme(cell.scheme)
                .contexts(cell.contexts)
                .quota(quota)
                .warmup(warmup)
                .os(SCALE.os_model())
                .validate(validate);
            if let Some(seed) = cell.seed {
                b = b.seed(seed);
            }
            Sim::Uni(b.build())
        }
        Target::Mp(app) => {
            let mut b = MpSim::builder(app.clone())
                .scheme(cell.scheme)
                .contexts(cell.contexts)
                .nodes(SCALE.mp_nodes())
                .work(SCALE.mp_work())
                .warmup(SCALE.mp_warmup())
                .validate(validate);
            if let Some(seed) = cell.seed {
                b = b.seed(seed);
            }
            Sim::Mp(b.build())
        }
    }
}

impl Sim {
    /// Runs the simulation.
    pub fn run(&self) -> CellResult {
        match self {
            Sim::Uni(s) => CellResult::Uni(Box::new(s.run())),
            Sim::Mp(s) => CellResult::Mp(Box::new(s.run())),
        }
    }
}

/// One set-up: spec resolution, grid enumeration and every cell's
/// simulator construction. Returns the cell count.
fn setup_once(workload: Workload, seed: Option<u64>) -> usize {
    let spec = resolve(workload, seed).expect("workload resolved once already");
    let cells = spec.cells();
    let sims: Vec<Sim> = cells.iter().map(|c| build_sim(workload, c, false)).collect();
    black_box(&sims);
    sims.len()
}

/// Set-ups timed one at a time per batch.
const SETUPS_PER_BATCH: usize = 20;

/// Seconds of the fastest of [`SETUPS_PER_BATCH`] set-ups (one set-up
/// takes microseconds, so a single one is at the mercy of a stray
/// interrupt).
pub fn setup_batch(workload: Workload, seed: Option<u64>) -> f64 {
    (0..SETUPS_PER_BATCH)
        .map(|_| {
            let t = Instant::now();
            black_box(setup_once(workload, black_box(seed)));
            t.elapsed().as_secs_f64()
        })
        .fold(f64::MAX, f64::min)
}

/// Retired simulated instructions of a cell's measured period.
pub fn instructions(result: &CellResult) -> u64 {
    match result {
        CellResult::Uni(r) => r.instructions,
        CellResult::Mp(r) => r.metrics.counter_value("instructions.retired").unwrap_or(0),
    }
}

/// Whether a cell ran to completion: every application met its quota
/// (every thread its share of the work) and each measured cycle is
/// charged to exactly one category on every processor.
pub fn finished(workload: Workload, cell: &Cell, result: &CellResult) -> bool {
    match result {
        CellResult::Uni(r) => {
            let apps = match &cell.target {
                Target::Uni(w) => w.apps.len() as u64,
                Target::Mp(_) => return false,
            };
            r.cycles > 0
                && r.instructions >= workload.uni_knobs().0 * apps
                && r.breakdown.total() == r.cycles
        }
        CellResult::Mp(r) => {
            r.cycles > 0
                && instructions(result) >= SCALE.mp_work()
                && r.breakdown.total() == r.cycles * r.per_node.len() as u64
        }
    }
}

/// Runs `f`, turning a panic into `None` (its message is already on
/// stderr from the panic hook).
pub fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Runs the whole spec through a `Runner` of `jobs` threads; returns
/// the sweep (`None` if a cell panicked) and the call's wall time.
pub fn runner_pass(spec: &ExperimentSpec, jobs: usize) -> (Option<SweepResult>, Duration) {
    let t = Instant::now();
    let sweep = guarded(|| Runner::new(jobs).run(spec));
    (sweep, t.elapsed())
}

/// Mean absolute difference between the simulated Table 7 geometric
/// mean gains (2I, 2B, 4I, 4B over the single-context baseline) and
/// the paper's 1.22, 1.03, 1.50 and 1.11. `None` unless `results` holds
/// a complete Table 7 grid.
pub fn paper_gm_err(cells: &[Cell], results: &[Option<CellResult>]) -> Option<f64> {
    use interleave_core::Scheme;
    const PAPER: [(usize, Scheme, f64); 4] = [
        (2, Scheme::Interleaved, 1.22),
        (2, Scheme::Blocked, 1.03),
        (4, Scheme::Interleaved, 1.50),
        (4, Scheme::Blocked, 1.11),
    ];
    let throughput = |name: &str, scheme: Scheme, contexts: usize| {
        cells.iter().zip(results).find_map(|(c, r)| {
            let r = r.as_ref()?.as_uni()?;
            (c.target.name() == name && c.scheme == scheme && c.contexts == contexts)
                .then(|| r.throughput())
        })
    };
    let mixes = interleave_workloads::mixes::all();
    let mut err = 0.0;
    for (contexts, scheme, paper) in PAPER {
        let gains: Option<Vec<f64>> = mixes
            .iter()
            .map(|w| {
                let base = throughput(w.name, Scheme::Single, 1)?;
                Some(throughput(w.name, scheme, contexts)? / base)
            })
            .collect();
        let gm = interleave_stats::summary::geometric_mean(&gains?)?;
        err += (gm - paper).abs();
    }
    Some(err / PAPER.len() as f64)
}
