//! Sweep-throughput benchmark of the interleave simulator.
//!
//! It measures the program from outside, by timing calls into the
//! public entry points `sweep` and `serve` share
//! (`interleave_bench::{artifact_spec, ExperimentSpec::run_cell,
//! Runner::run}`) and into each crate's public kernels. See README.md
//! for the workloads, the metrics and how to run it.

#![forbid(unsafe_code)]

pub mod catalog;
pub mod grid;
pub mod hostspeed;
pub mod kernels;
pub mod stats;
pub mod trace;
