//! # lnic-benchmark: the repository's benchmark
//!
//! Five workloads (see [`workload::Workload`]) each run in their own
//! process, single-threaded, against the simulator's public API. An
//! end-to-end run times the drive of one workload with the online
//! invariant checker on, as users run it, and reports latency, goodput,
//! run and set-up time, and peak memory; a per-layer run repeats the
//! drive with bench-owned trace sinks and reports where simulated and
//! host time go. Every run passes a correctness gate. See `README.md`
//! for the metrics and how to run and compare.

#![warn(missing_docs)]

pub mod compare;
pub mod driver;
pub mod json;
pub mod layers;
pub mod run;
pub mod stats;
pub mod workload;

pub use run::{environment_problem, run, Metric, Options, Report};
pub use workload::Workload;
