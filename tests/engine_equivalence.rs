//! Equivalence gate for the shared discrete-event engine
//! (`crates/engine`): the uniprocessor and multiprocessor drivers now
//! instantiate the engine's event queue, idle-bound authority, message
//! router, and quantum-barrier schedule instead of bespoke copies. These
//! tests pin the pre-extraction golden values and require the
//! engine-backed drivers to reproduce them exactly, at every worker
//! count.

use interleave::core::Scheme;
use interleave::mp::{splash_suite, MpSim};
use interleave::stats::{Breakdown, Category};
use interleave::workloads::{mixes, MultiprogramSim};

/// Asserts a breakdown matches golden per-category values in
/// `Category::ALL` order.
fn assert_breakdown(what: &str, got: &Breakdown, golden: [u64; 7]) {
    for (c, want) in Category::ALL.into_iter().zip(golden) {
        assert_eq!(got.get(c), want, "{what}: category {c:?} diverged from the golden value");
    }
}

/// The uniprocessor hot loop now drains the engine's typed event queue.
/// Golden values captured from the seed implementation must survive the
/// port unchanged.
///
/// Re-goldened once when the synthetic generator moved from a vendored
/// SmallRng to the keyed `engine::rand64` counter scheme (see DESIGN.md,
/// "Hot path v2"): the RNG stream changed, so fixed-seed values shifted,
/// while every distribution-level oracle (paper-claim tolerances, litmus
/// differentials, idle-skip and --jobs invariance) held unchanged.
#[test]
fn engine_backed_uni_driver_reproduces_seed_goldens() {
    let fp = MultiprogramSim::builder(mixes::fp())
        .scheme(Scheme::Interleaved)
        .contexts(2)
        .quota(2_000)
        .warmup(500)
        .build()
        .run();
    assert_eq!(fp.cycles, 78_944);
    assert_eq!(fp.instructions, 28_303);
    assert_breakdown(
        "uni fp/interleaved/2",
        &fp.breakdown,
        [28_137, 13_165, 1_708, 9_848, 15_998, 0, 10_088],
    );

    let ic = MultiprogramSim::builder(mixes::ic())
        .scheme(Scheme::Blocked)
        .contexts(4)
        .quota(2_000)
        .warmup(500)
        .build()
        .run();
    assert_eq!(ic.cycles, 27_392);
    assert_eq!(ic.instructions, 9_370);
    assert_breakdown("uni ic/blocked/4", &ic.breakdown, [9_343, 5_766, 50, 5_053, 1_049, 0, 6_131]);
}

/// The multiprocessor lockstep loop now runs on the engine's
/// `QuantumSchedule`. It must replay the seed's fixed 80-cycle barrier
/// schedule bit for bit, serially and at every worker count.
#[test]
fn engine_backed_mp_driver_reproduces_seed_goldens() {
    let run = |jobs: usize| {
        MpSim::builder(splash_suite()[0].clone())
            .scheme(Scheme::Interleaved)
            .nodes(4)
            .contexts(2)
            .work(12_000)
            .warmup(500)
            .mp_jobs(jobs)
            .build()
            .run()
    };
    let golden = run(1);
    assert_eq!(golden.cycles, 28_160);
    assert_breakdown(
        "mp splash0/interleaved/4x2",
        &golden.breakdown,
        [12_626, 5_983, 1_460, 0, 81_550, 0, 11_021],
    );
    for jobs in [2, 4] {
        let got = run(jobs);
        assert_eq!(golden, got, "engine schedule (mp_jobs={jobs}) diverged from the golden run");
    }
}
