//! Generic discrete-event substrate shared by every simulator in the
//! workspace.
//!
//! The uniprocessor hot loop and the multiprocessor quantum-barrier
//! driver are two faces of one discrete-event idea; this crate hosts the
//! pieces both instantiate instead of forking:
//!
//! * [`EventQueue`] — a cycle-indexed min-heap over any payload
//!   implementing [`Sequenced`], keyed `(due, class, seq)` so
//!   processing order is a pure function of scheduling order, never of
//!   heap internals.
//! * [`IdleBound`] — the time authority's vocabulary for "nothing can
//!   happen before cycle t", used by idle-cycle skipping inside one
//!   component. [`quantum_end`] is the single shared clamp of a
//!   quantum to the next scheduled boundary (warmup end or validation
//!   chunk), so no driver can drift from the schedule.
//! * [`Inbox`] and [`Msg`] — the deterministic cross-shard router:
//!   messages totally ordered by `(due cycle, source lane, per-lane
//!   sequence)` keys and delivered in exactly that order.
//! * [`rand64`] — stateless keyed sampling: a draw is a pure function
//!   of `(seed, lane, index)`, so concurrent consumers sample identical
//!   values no matter how the host schedules them. The latency model
//!   and the synthetic workload generator both key off it.
//! * [`QuantumSchedule`] and [`run_sharded`] — the conservative
//!   quantum-barrier driver: quanta of at most one lookahead, clipped to
//!   warmup and validation-chunk boundaries, executed serially or on
//!   host worker threads with bit-identical results.
//!
//! Nothing in this crate knows about processors, caches, or directories;
//! `interleave-core` instantiates the queue and idle bounds for its
//! pipeline loop, `interleave-mp` instantiates the router and driver for
//! its sharded machine, and future scenario families (shared-L1 thread
//! coupling, deeply pipelined C-slow schemes) can instantiate the same
//! substrate rather than fork a third copy. The only dependency is the
//! workspace instrumentation layer: the driver brackets its segments and
//! barrier exchanges with `interleave_obs::profile` scopes (and the
//! queue/router count pops) so host time attributes to the substrate's
//! phases — a relaxed atomic load per site when profiling is off.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod driver;
mod queue;
pub mod rand64;
mod router;
mod time;

pub use driver::{
    lock, read_lock, run_sharded, write_lock, Abort, Executor, Hooks, QuantumSchedule, Segment,
    Shard,
};
pub use queue::{EventQueue, Sequenced};
pub use router::{Inbox, Msg, MsgKey};
pub use time::{quantum_end, IdleBound};
