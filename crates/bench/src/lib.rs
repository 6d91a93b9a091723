//! # gvf-bench — the figure/table regeneration harness
//!
//! One binary per table and figure of the paper's evaluation; see
//! `DESIGN.md` §3 for the experiment index and `EXPERIMENTS.md` for
//! paper-vs-measured results. The library part hosts what the binaries
//! share: the sweep driver, run manifests and their schemas, the cell
//! cache, telemetry, report formatting and the benchmark trajectory.

pub mod bench_history;
pub mod cellcache;
pub mod cli;
pub mod events;
mod fnv;
pub mod hostperf;
pub mod json;
pub mod manifest;
pub mod report;
pub mod schemas;
pub mod sweep;
