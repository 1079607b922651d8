//! The conservative quantum-barrier driver.
//!
//! Time advances in quanta of at most one lookahead `hop`: within a
//! quantum every shard advances independently (optionally on parallel
//! host threads), and at the quantum barrier the machine's
//! [`Hooks::exchange`] replays logged state changes and routes messages.
//! Because no cross-shard message can be due before the end of the
//! quantum that produced it, results are bit-identical for any worker
//! count.
//!
//! [`QuantumSchedule::run`] owns the barrier placement — warmup in
//! hop-sized quanta clipped to the warmup boundary, then measurement in
//! fixed validation chunks, every clamp going through
//! [`crate::quantum_end`] — and is shared verbatim by the serial and
//! threaded executors of [`run_sharded`], so the worker count cannot
//! influence the schedule.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use interleave_obs::profile;

use crate::time::quantum_end;

/// One segment order from the schedule to every shard: advance from
/// `from` to exactly `to`, resetting measured statistics first when
/// `reset` is set (the first segment after warmup).
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    /// Starting cycle (the shard's current clock).
    pub from: u64,
    /// Ending cycle (the next quantum barrier).
    pub to: u64,
    /// Reset measured statistics before advancing.
    pub reset: bool,
}

/// Why a schedule stopped early.
#[derive(Debug)]
pub enum Abort {
    /// A violation or livelock the schedule detected; carries the
    /// message to panic with after the workers shut down.
    Fail(String),
    /// A shard advance panicked; the payload waits in the executor's
    /// panic slot.
    Panicked,
}

/// Machine-level callbacks [`QuantumSchedule::run`] drives between
/// segments. All hooks run on the driver thread while every worker is
/// parked at a barrier; the ones that need node state receive every
/// shard, in shard-index order, through [`Executor::with_shards`] — the
/// only way the driver reaches a shard, so nothing a shard owns needs a
/// lock of its own.
pub trait Hooks<S> {
    /// The quantum barrier at cycle `now`: replay logged transactions
    /// and route the messages they generate.
    fn exchange(&mut self, now: u64, shards: &mut [&mut S]);

    /// Machine-wide invariant checks at the warmup boundary and at every
    /// chunk boundary; an `Err` aborts the run with the message.
    fn check(&mut self, now: u64, shards: &mut [&mut S]) -> Result<(), String> {
        let _ = (now, shards);
        Ok(())
    }

    /// Called once at the warmup boundary, after the check: reset
    /// measured statistics.
    fn begin_measurement(&mut self, now: u64, shards: &mut [&mut S]) {
        let _ = (now, shards);
    }

    /// Called at every measured chunk boundary before the check (fault
    /// injection and similar test plumbing).
    fn chunk_boundary(&mut self, now: u64) {
        let _ = now;
    }

    /// Whether the run's completion condition holds (checked at chunk
    /// boundaries).
    fn done(&mut self, shards: &mut [&mut S]) -> bool;
}

/// The barrier schedule: warmup in hop-sized quanta, then measurement in
/// fixed validation chunks, each advanced in quanta of at most `hop`
/// cycles with an exchange at every barrier.
///
/// The schedule is a pure function of its fields — never of the
/// executor's worker count — which is what keeps parallel runs
/// bit-identical to serial ones.
#[derive(Debug, Clone, Copy)]
pub struct QuantumSchedule {
    /// Conservative lookahead: the minimum cycles any cross-shard
    /// message spends in flight, and therefore the fixed quantum length.
    pub hop: u64,
    /// Warmup cycles before measured statistics reset.
    pub warmup: u64,
    /// Measured-loop chunk length: completion, invariant checks, and
    /// fault hooks run at every chunk boundary.
    pub chunk: u64,
    /// Measured cycles past which the run aborts as a livelock.
    pub safety_slack: u64,
}

impl QuantumSchedule {
    /// Runs the schedule: `exec` advances every shard over each segment
    /// and hands the parked shards to `hooks` at every barrier. Returns
    /// the measured `(start, end)` cycle span.
    ///
    /// # Panics
    ///
    /// Panics if `hop` or `chunk` is zero.
    pub fn run<S: Shard>(
        &self,
        exec: &mut Executor<'_, S>,
        hooks: &mut impl Hooks<S>,
    ) -> Result<(u64, u64), Abort> {
        assert!(self.hop > 0, "lookahead hop must be at least one cycle");
        assert!(self.chunk > 0, "validation chunk must be at least one cycle");
        let mut now = 0u64;
        while now < self.warmup {
            let to = quantum_end(now, self.hop, self.warmup);
            segment(exec, Segment { from: now, to, reset: false })?;
            exec.with_shards(|shards| exchange(hooks, to, shards));
            now = to;
        }
        exec.with_shards(|shards| {
            hooks.check(now, shards)?;
            hooks.begin_measurement(now, shards);
            Ok(())
        })
        .map_err(Abort::Fail)?;
        let start = now;
        let safety = start.saturating_add(self.safety_slack);
        // The shards reset their own statistics at the start of the
        // first measured segment.
        let mut reset = true;
        loop {
            let chunk_end = now + self.chunk;
            while now < chunk_end {
                let to = quantum_end(now, self.hop, chunk_end);
                segment(exec, Segment { from: now, to, reset })?;
                reset = false;
                now = to;
                // One visit per barrier: the exchange, plus the chunk
                // boundary's hooks when this barrier closes the chunk.
                let done = exec
                    .with_shards(|shards| {
                        exchange(hooks, now, shards);
                        if now < chunk_end {
                            return Ok(false);
                        }
                        hooks.chunk_boundary(now);
                        hooks.check(now, shards)?;
                        Ok(hooks.done(shards))
                    })
                    .map_err(Abort::Fail)?;
                if done {
                    return Ok((start, now));
                }
            }
            if now >= safety {
                return Err(Abort::Fail(
                    "quantum schedule exceeded its safety bound (livelock?)".into(),
                ));
            }
        }
    }
}

/// Advances every shard over `seg` under the segment profile scope.
fn segment<S: Shard>(exec: &mut Executor<'_, S>, seg: Segment) -> Result<(), Abort> {
    let _segment = profile::enter("engine.segment");
    exec.segment(seg)
}

/// The barrier exchange under its profile scope.
fn exchange<S>(hooks: &mut impl Hooks<S>, now: u64, shards: &mut [&mut S]) {
    let _exchange = profile::enter("engine.exchange");
    hooks.exchange(now, shards);
}

/// One shard of the machine: everything a single worker advances
/// independently between barriers.
pub trait Shard: Send {
    /// Advances this shard over one commanded segment.
    fn run_segment(&mut self, seg: Segment);
}

/// Locks a mutex, ignoring poisoning: panics are handled deliberately by
/// the segment protocol (stored, shut down, re-raised), so a poisoned
/// lock must not cascade into a second panic that would wedge a barrier.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// See [`lock`].
pub fn read_lock<T>(m: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    m.read().unwrap_or_else(PoisonError::into_inner)
}

/// See [`lock`].
pub fn write_lock<T>(m: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    m.write().unwrap_or_else(PoisonError::into_inner)
}

/// One segment order from the driver to every worker group.
#[derive(Debug, Clone, Copy)]
struct SegmentCtl {
    seg: Segment,
    quit: bool,
}

/// A worker group: the shards one host thread advances, tagged with
/// their original index. Each group sits in its own mutex, locked once
/// per segment by its worker and once per barrier by the driver — never
/// both at once, since the barriers separate the two.
type Group<S> = Mutex<Vec<(usize, S)>>;

/// Where a panicking shard's payload waits until the workers shut down.
type PanicSlot = Mutex<Option<Box<dyn Any + Send>>>;

/// The segment executor [`run_sharded`] hands to its `drive` callback:
/// [`Executor::segment`] advances every shard over one segment, and
/// [`Executor::with_shards`] lends all of them to the driver between
/// segments.
pub struct Executor<'a, S> {
    mode: Mode<'a, S>,
}

enum Mode<'a, S> {
    /// Every shard advances on the driver thread.
    Serial(&'a mut [S]),
    /// Worker group 0 advances on the driver thread, the rest on parked
    /// worker threads released by the start barrier.
    Threaded {
        groups: &'a [Group<S>],
        ctl: &'a Mutex<SegmentCtl>,
        start_bar: &'a SpinBarrier,
        end_bar: &'a SpinBarrier,
        panic_slot: &'a PanicSlot,
    },
}

impl<S: Shard> Executor<'_, S> {
    /// Advances every shard over `seg`. Returns [`Abort::Panicked`] if a
    /// threaded shard panicked (its payload waits in the executor's
    /// panic slot); the serial executor propagates panics directly.
    pub fn segment(&mut self, seg: Segment) -> Result<(), Abort> {
        match &mut self.mode {
            Mode::Serial(shards) => {
                for shard in shards.iter_mut() {
                    shard.run_segment(seg);
                }
                Ok(())
            }
            Mode::Threaded { groups, ctl, start_bar, end_bar, panic_slot } => {
                *lock(ctl) = SegmentCtl { seg, quit: false };
                start_bar.wait();
                let result = catch_unwind(AssertUnwindSafe(|| run_group(&groups[0], seg)));
                if let Err(payload) = result {
                    lock(panic_slot).get_or_insert(payload);
                }
                end_bar.wait();
                // Any panic (ours or a worker's) aborts the schedule; the
                // payload waits in the slot.
                if lock(panic_slot).is_some() {
                    Err(Abort::Panicked)
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Runs `f` over every shard, in shard-index order. Called between
    /// segments, while every worker is parked, so the group locks it
    /// takes are uncontended.
    pub fn with_shards<R>(&mut self, f: impl FnOnce(&mut [&mut S]) -> R) -> R {
        match &mut self.mode {
            Mode::Serial(shards) => f(&mut shards.iter_mut().collect::<Vec<_>>()),
            Mode::Threaded { groups, .. } => {
                let mut guards: Vec<_> = groups.iter().map(lock).collect();
                let mut indexed: Vec<(usize, &mut S)> = guards
                    .iter_mut()
                    .flat_map(|group| group.iter_mut().map(|(index, shard)| (*index, shard)))
                    .collect();
                indexed.sort_unstable_by_key(|&(index, _)| index);
                f(&mut indexed.into_iter().map(|(_, shard)| shard).collect::<Vec<_>>())
            }
        }
    }
}

/// Runs a schedule over `shards`, serially (`jobs <= 1`) or on `jobs`
/// host threads (the driver thread doubles as worker group 0). `drive`
/// receives the segment executor and runs the schedule — typically
/// [`QuantumSchedule::run`] — exactly once. Returns the schedule's
/// measured span and the shards in their original order.
///
/// # Panics
///
/// Re-raises the first shard panic, or panics with the message of an
/// [`Abort::Fail`], after every worker has shut down cleanly.
pub fn run_sharded<S: Shard>(
    mut shards: Vec<S>,
    jobs: usize,
    drive: impl FnOnce(&mut Executor<'_, S>) -> Result<(u64, u64), Abort>,
) -> ((u64, u64), Vec<S>) {
    let jobs = jobs.clamp(1, shards.len().max(1));
    if jobs == 1 {
        let outcome = drive(&mut Executor { mode: Mode::Serial(&mut shards) });
        return match outcome {
            Ok(span) => (span, shards),
            Err(Abort::Fail(msg)) => panic!("{msg}"),
            Err(Abort::Panicked) => {
                unreachable!("the serial executor propagates panics directly")
            }
        };
    }

    let mut groups: Vec<Vec<(usize, S)>> = (0..jobs).map(|_| Vec::new()).collect();
    for (index, shard) in shards.drain(..).enumerate() {
        groups[index % jobs].push((index, shard));
    }
    let groups: Vec<Group<S>> = groups.into_iter().map(Mutex::new).collect();
    let idle = SegmentCtl { seg: Segment { from: 0, to: 0, reset: false }, quit: false };
    let ctl = Mutex::new(idle);
    let start_bar = SpinBarrier::new(jobs);
    let end_bar = SpinBarrier::new(jobs);
    let panic_slot: PanicSlot = Mutex::new(None);
    let outcome = std::thread::scope(|scope| {
        let (groups, ctl, start_bar, end_bar, panic_slot) =
            (&groups, &ctl, &start_bar, &end_bar, &panic_slot);
        // The driver thread doubles as worker group 0, so `jobs` counts
        // every host thread advancing shards.
        let handles: Vec<_> = groups[1..]
            .iter()
            .map(|group| {
                scope.spawn(move || worker_loop(group, ctl, start_bar, end_bar, panic_slot))
            })
            .collect();
        let mut exec =
            Executor { mode: Mode::Threaded { groups, ctl, start_bar, end_bar, panic_slot } };
        let outcome = catch_unwind(AssertUnwindSafe(|| drive(&mut exec)));
        // Quit handshake on every exit path: the workers park at the
        // start barrier, so release them before joining them.
        *lock(ctl) = SegmentCtl { quit: true, ..idle };
        start_bar.wait();
        // Join explicitly: unlike the scope's implicit join, a handle's
        // join waits for the thread to exit, after its thread-locals
        // (the host profiler's per-thread buffers) have been flushed.
        for h in handles {
            h.join().expect("workers catch panics and exit at quit");
        }
        outcome
    });
    let mut indexed: Vec<(usize, S)> = groups
        .into_iter()
        .flat_map(|group| group.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect();
    indexed.sort_unstable_by_key(|&(index, _)| index);
    let shards: Vec<S> = indexed.into_iter().map(|(_, shard)| shard).collect();
    match outcome {
        Err(driver_panic) => resume_unwind(driver_panic),
        Ok(Err(Abort::Panicked)) => {
            let payload = panic_slot
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("a panicked abort leaves its payload in the slot");
            resume_unwind(payload);
        }
        Ok(Err(Abort::Fail(msg))) => panic!("{msg}"),
        Ok(Ok(span)) => (span, shards),
    }
}

/// Runs one segment over every shard of a worker group, holding the
/// group's lock for the whole segment.
fn run_group<S: Shard>(group: &Group<S>, seg: Segment) {
    for (_, shard) in lock(group).iter_mut() {
        shard.run_segment(seg);
    }
}

/// One worker's service loop: park at the start barrier, run the
/// commanded segment over its group, park at the end barrier. Panics
/// are caught and parked in `panic_slot` so the barrier protocol never
/// wedges; the thread exits on `quit`.
fn worker_loop<S: Shard>(
    group: &Group<S>,
    ctl: &Mutex<SegmentCtl>,
    start: &SpinBarrier,
    end: &SpinBarrier,
    panic_slot: &PanicSlot,
) {
    loop {
        start.wait();
        let ctl = *lock(ctl);
        if ctl.quit {
            return;
        }
        let result = catch_unwind(AssertUnwindSafe(|| run_group(group, ctl.seg)));
        if let Err(payload) = result {
            lock(panic_slot).get_or_insert(payload);
        }
        end.wait();
    }
}

/// A reusable spin rendezvous for the per-segment barriers. `std`'s
/// `Barrier` parks threads through the OS; segments are tens of
/// microseconds of host work, so spinning (with a yield fallback for
/// oversubscribed hosts) keeps the rendezvous cheap.
struct SpinBarrier {
    members: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    fn new(members: usize) -> SpinBarrier {
        SpinBarrier { members, count: AtomicUsize::new(0), generation: AtomicUsize::new(0) }
    }

    fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.members {
            // Last arrival: reset the count for the next use, then
            // release the waiters (the generation bump publishes the
            // reset).
            self.count.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == generation {
                spins = spins.wrapping_add(1);
                if spins.is_multiple_of(1024) {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records every segment it is told to run.
    struct LogShard {
        log: Vec<(u64, u64, bool)>,
    }

    impl Shard for LogShard {
        fn run_segment(&mut self, seg: Segment) {
            self.log.push((seg.from, seg.to, seg.reset));
        }
    }

    /// Hooks that finish after a fixed number of chunks.
    struct ScriptedHooks {
        exchanges: Vec<u64>,
        chunks_left: usize,
    }

    impl ScriptedHooks {
        fn fixed(chunks: usize) -> ScriptedHooks {
            ScriptedHooks { exchanges: Vec::new(), chunks_left: chunks }
        }
    }

    impl<S> Hooks<S> for ScriptedHooks {
        fn exchange(&mut self, now: u64, _shards: &mut [&mut S]) {
            self.exchanges.push(now);
        }

        fn done(&mut self, _shards: &mut [&mut S]) -> bool {
            self.chunks_left = self.chunks_left.saturating_sub(1);
            self.chunks_left == 0
        }
    }

    fn schedule() -> QuantumSchedule {
        QuantumSchedule { hop: 80, warmup: 200, chunk: 128, safety_slack: 1 << 20 }
    }

    #[test]
    fn fixed_schedule_clips_to_warmup_and_chunks() {
        let mut hooks = ScriptedHooks::fixed(1);
        let shards = vec![LogShard { log: Vec::new() }];
        let (span, shards) = run_sharded(shards, 1, |e| schedule().run(e, &mut hooks));
        // Warmup 200 with hop 80: quanta 80/80/40; one 128-cycle chunk:
        // 80/48, with the reset on the first measured segment.
        assert_eq!(
            shards[0].log,
            vec![
                (0, 80, false),
                (80, 160, false),
                (160, 200, false),
                (200, 280, true),
                (280, 328, false),
            ]
        );
        assert_eq!(hooks.exchanges, vec![80, 160, 200, 280, 328]);
        assert_eq!(span, (200, 328));
    }

    #[test]
    fn parallel_executor_matches_serial_segments() {
        let mk = || (0..5).map(|_| LogShard { log: Vec::new() }).collect::<Vec<_>>();
        let sched = schedule();
        let mut serial_hooks = ScriptedHooks::fixed(2);
        let (serial_span, serial) = run_sharded(mk(), 1, |e| sched.run(e, &mut serial_hooks));
        let mut par_hooks = ScriptedHooks::fixed(2);
        let (par_span, parallel) = run_sharded(mk(), 3, |e| sched.run(e, &mut par_hooks));
        assert_eq!(serial_span, par_span);
        for (s, p) in serial.iter().zip(parallel.iter()) {
            assert_eq!(s.log, p.log, "shard order or segments diverged under threads");
        }
    }

    /// A shard that knows its index and logs its segments.
    struct Tagged {
        index: usize,
        log: Vec<(u64, u64, bool)>,
    }

    impl Shard for Tagged {
        fn run_segment(&mut self, seg: Segment) {
            self.log.push((seg.from, seg.to, seg.reset));
        }
    }

    /// Records, at every hook call, the shard indices it was lent and
    /// each one's log length, then appends a mark to every log (the
    /// driver may mutate what it is lent).
    #[derive(Default)]
    struct Witness {
        visits: Vec<(&'static str, u64, Vec<(usize, usize)>)>,
        chunks: usize,
    }

    impl Witness {
        fn see(&mut self, hook: &'static str, now: u64, shards: &mut [&mut Tagged]) {
            let seen = shards.iter().map(|s| (s.index, s.log.len())).collect();
            self.visits.push((hook, now, seen));
            for shard in shards.iter_mut() {
                shard.log.push((now, now, false));
            }
        }
    }

    impl Hooks<Tagged> for Witness {
        fn exchange(&mut self, now: u64, shards: &mut [&mut Tagged]) {
            self.see("exchange", now, shards);
        }

        fn check(&mut self, now: u64, shards: &mut [&mut Tagged]) -> Result<(), String> {
            self.see("check", now, shards);
            Ok(())
        }

        fn begin_measurement(&mut self, now: u64, shards: &mut [&mut Tagged]) {
            self.see("begin", now, shards);
        }

        fn done(&mut self, shards: &mut [&mut Tagged]) -> bool {
            self.see("done", 0, shards);
            self.chunks += 1;
            self.chunks == 2
        }
    }

    #[test]
    fn hooks_see_every_shard_in_index_order_at_any_job_count() {
        let run = |jobs: usize| {
            let shards = (0..5).map(|index| Tagged { index, log: Vec::new() }).collect();
            let mut witness = Witness::default();
            let (span, shards) = run_sharded(shards, jobs, |e| schedule().run(e, &mut witness));
            (span, witness.visits, shards.into_iter().map(|s| s.log).collect::<Vec<_>>())
        };
        let serial = run(1);
        for (hook, _, seen) in &serial.1 {
            let order: Vec<usize> = seen.iter().map(|&(index, _)| index).collect();
            assert_eq!(order, (0..5).collect::<Vec<_>>(), "{hook} saw shards out of order");
        }
        // Warmup 3 quanta + 2 chunks of 2 quanta, plus the warmup-boundary
        // check/begin and each chunk boundary's check/done.
        let hooks: Vec<&str> = serial.1.iter().map(|v| v.0).collect();
        assert_eq!(hooks.iter().filter(|&&h| h == "exchange").count(), 7);
        assert_eq!(hooks.iter().filter(|&&h| h == "done").count(), 2);
        assert_eq!(&hooks[3..5], ["check", "begin"]);
        // Threads change neither what the hooks saw nor what the shards
        // logged (segments interleaved with the driver's own marks).
        assert_eq!(serial, run(3));
    }

    #[test]
    #[should_panic(expected = "shard 3 exploded")]
    fn parallel_executor_propagates_shard_panics() {
        struct Bomb {
            index: usize,
        }
        impl Shard for Bomb {
            fn run_segment(&mut self, seg: Segment) {
                if self.index == 3 && seg.from >= 160 {
                    panic!("shard {} exploded", self.index);
                }
            }
        }
        let shards = (0..4).map(|index| Bomb { index }).collect::<Vec<_>>();
        let mut hooks = ScriptedHooks::fixed(4);
        run_sharded(shards, 4, |e| schedule().run(e, &mut hooks));
    }

    #[test]
    fn worker_profiles_are_flushed_when_run_sharded_returns() {
        struct Marking;
        impl Shard for Marking {
            fn run_segment(&mut self, _seg: Segment) {
                profile::mark("engine.test.shard_segment");
            }
        }
        profile::set_enabled(true);
        let mut hooks = ScriptedHooks::fixed(1);
        run_sharded((0..4).map(|_| Marking).collect(), 4, |e| schedule().run(e, &mut hooks));
        let profile = profile::take();
        profile::set_enabled(false);
        // 5 segments over 4 shards, three of them on worker threads whose
        // profiles reach the harvest only when the threads exit.
        let marks = profile.get("engine.test.shard_segment").expect("marked");
        assert_eq!(marks.calls, 20);
    }

    #[test]
    #[should_panic(expected = "safety bound")]
    fn never_done_run_hits_the_safety_bound() {
        struct Forever;
        impl<S> Hooks<S> for Forever {
            fn exchange(&mut self, _now: u64, _shards: &mut [&mut S]) {}
            fn done(&mut self, _shards: &mut [&mut S]) -> bool {
                false
            }
        }
        let sched = QuantumSchedule { hop: 80, warmup: 0, chunk: 128, safety_slack: 512 };
        let shards = vec![LogShard { log: Vec::new() }];
        run_sharded(shards, 1, |e| sched.run(e, &mut Forever));
    }
}
