//! # gvf-bench — the figure/table regeneration harness
//!
//! One binary per table and figure of the paper's evaluation; see
//! `DESIGN.md` §3 for the experiment index and `EXPERIMENTS.md` for
//! paper-vs-measured results. The library part hosts shared report
//! formatting used by the binaries plus [`harness`], the in-repo
//! micro-benchmark driver the `benches/` targets run on (the workspace
//! builds offline, so Criterion is not a dependency).

pub mod bench_history;
pub mod cellcache;
pub mod cli;
pub mod events;
mod fnv;
pub mod harness;
pub mod hostperf;
pub mod json;
pub mod manifest;
pub mod report;
pub mod rundiff;
pub mod schemas;
pub mod sweep;
