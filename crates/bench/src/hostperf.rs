//! `gvf.hostperf` v2 — the host-performance section of a run manifest.
//!
//! [`gvf_sim::hostperf`] collects the raw numbers (rig nanoseconds,
//! per-worker pool telemetry, peak RSS); this module turns a
//! [`HostPerfSnapshot`] into the versioned JSON section every figure
//! binary embeds under the manifest's `hostPerf` key. The section is
//! **host-side only** and wall-clock dependent, so:
//!
//! - the serial-vs-parallel determinism diff strips it (see
//!   [`crate::manifest::strip_host_perf`] and `validate_json
//!   --det-diff`);
//! - nothing here ever reaches stdout;
//! - throughput figures (cells/sec, simulated cycles/sec) describe this
//!   run only: the performance history in `BENCH_gvf.json` is measured
//!   by the repository benchmark on the CPU clock (see
//!   [`crate::bench_history`]), because wall clock on a shared host is
//!   too noisy to compare runs by.
//!
//! Schema fields (v2):
//!
//! ```json
//! {
//!   "schema": "gvf.hostperf", "version": 2,
//!   "wall_s": 1.9, "peak_rss_bytes": 73728000,
//!   "phases": {"alloc_s": .., "simulate_s": ..},
//!   "sweeps": [{"label": "fig6", "cells": 55, "jobs": 4, "wall_s": ..,
//!               "workers": [{"busy_s": .., "queue_wait_s": .., "cells": ..}]}],
//!   "throughput": {"cells": 55, "cells_per_sec": ..,
//!                  "sim_cycles": 123456, "sim_cycles_per_sec": ..},
//!   "cellCache": {..}
//! }
//! ```
//!
//! `alloc_s`/`simulate_s` are the rigs' wall time (each rig reads
//! [`std::time::Instant`] around its kernels), summed across pool
//! workers, so they can exceed `wall_s` on a parallel run. The
//! per-layer split of `simulate_s` is rendered as the
//! `gvf.hostprofile` document ([`crate::manifest::hostprofile_doc_from`]).
//! Versioning follows the manifest policy (bump on breaking change,
//! consumers must check).

use crate::json::Json;
use gvf_sim::hostperf;
use gvf_sim::HostPerfSnapshot;

/// Host-performance schema identifier.
pub const HOSTPERF_SCHEMA: &str = crate::schemas::HOSTPERF.id;
/// Host-performance schema version; bump on breaking changes.
pub const HOSTPERF_SCHEMA_VERSION: u32 = crate::schemas::HOSTPERF.version;

fn secs(ns: u64) -> Json {
    Json::Num(ns as f64 / 1e9)
}

/// Rate `num / (ns as seconds)`, `0` when no time elapsed (a degenerate
/// run must still produce finite JSON).
fn per_sec(num: u64, ns: u64) -> Json {
    if ns == 0 {
        Json::Num(0.0)
    } else {
        Json::Num(num as f64 / (ns as f64 / 1e9))
    }
}

/// Builds the `gvf.hostperf` section from an explicit snapshot — the
/// pure, testable core of [`host_perf_json`]. `total_sim_cycles` is the
/// run's summed simulated cycles (from the manifest's cells), used for
/// the cycles/sec throughput figure.
pub fn host_perf_json_from(snap: &HostPerfSnapshot, total_sim_cycles: u64) -> Json {
    let sweeps: Vec<Json> = snap
        .sweeps
        .iter()
        .map(|s| {
            let workers: Vec<Json> = s
                .pool
                .workers
                .iter()
                .map(|w| {
                    Json::obj()
                        .with("busy_s", secs(w.busy_ns))
                        .with("queue_wait_s", secs(w.queue_wait_ns))
                        .with("cells", Json::num_u64(w.cells))
                })
                .collect();
            Json::obj()
                .with("label", Json::str(&s.label))
                .with("cells", Json::num_u64(s.pool.cells()))
                .with("jobs", Json::num_u64(s.pool.jobs as u64))
                .with("wall_s", secs(s.pool.wall_ns))
                .with("workers", Json::Arr(workers))
        })
        .collect();
    let total_cells: u64 = snap.sweeps.iter().map(|s| s.pool.cells()).sum();
    let sweep_wall_ns: u64 = snap.sweeps.iter().map(|s| s.pool.wall_ns).sum();
    Json::obj()
        .with("schema", Json::str(HOSTPERF_SCHEMA))
        .with("version", Json::num_u64(HOSTPERF_SCHEMA_VERSION as u64))
        .with("wall_s", secs(snap.wall_ns))
        .with(
            "peak_rss_bytes",
            match snap.peak_rss_bytes {
                Some(b) => Json::num_u64(b),
                None => Json::Null,
            },
        )
        .with(
            "phases",
            Json::obj()
                .with("alloc_s", secs(snap.alloc_ns))
                .with("simulate_s", secs(snap.simulate_ns)),
        )
        .with("sweeps", Json::Arr(sweeps))
        .with(
            "throughput",
            Json::obj()
                .with("cells", Json::num_u64(total_cells))
                .with("cells_per_sec", per_sec(total_cells, sweep_wall_ns))
                .with("sim_cycles", Json::num_u64(total_sim_cycles))
                .with(
                    "sim_cycles_per_sec",
                    per_sec(total_sim_cycles, sweep_wall_ns),
                ),
        )
}

/// The `hostPerf` section for this process right now: snapshots the
/// global collector and appends the cell-cache counters (how many cells
/// came from the cache vs simulated — the *only* place a run served
/// from the cache differs from a fresh one, and it is stripped by the
/// determinism diff). Called by [`crate::manifest::emit`].
pub fn host_perf_json(total_sim_cycles: u64) -> Json {
    host_perf_json_from(&hostperf::snapshot(), total_sim_cycles)
        .with("cellCache", crate::cellcache::counters_json())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gvf_sim::{PoolTelemetry, SweepTelemetry, WorkerTelemetry};

    pub(crate) fn sample_snapshot(wall_ns: u64) -> HostPerfSnapshot {
        HostPerfSnapshot {
            wall_ns,
            alloc_ns: wall_ns / 4,
            simulate_ns: wall_ns / 2,
            layers: Default::default(),
            sweeps: vec![SweepTelemetry {
                label: "fig6".into(),
                pool: PoolTelemetry {
                    wall_ns: wall_ns / 2,
                    jobs: 2,
                    workers: vec![
                        WorkerTelemetry {
                            busy_ns: wall_ns / 4,
                            queue_wait_ns: 1_000,
                            cells: 30,
                        },
                        WorkerTelemetry {
                            busy_ns: wall_ns / 5,
                            queue_wait_ns: 2_000,
                            cells: 25,
                        },
                    ],
                },
            }],
            peak_rss_bytes: Some(64 << 20),
        }
    }

    #[test]
    fn section_has_schema_and_round_trips() {
        let doc = host_perf_json_from(&sample_snapshot(2_000_000_000), 1_000_000);
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(HOSTPERF_SCHEMA)
        );
        let parsed = Json::parse(&doc.render()).expect("parse");
        assert_eq!(parsed, doc);
        let throughput = parsed.get("throughput").expect("throughput");
        assert_eq!(throughput.get("cells").and_then(Json::as_num), Some(55.0));
        let cps = throughput
            .get("sim_cycles_per_sec")
            .and_then(Json::as_num)
            .expect("rate");
        assert!(cps > 0.0);
    }

    #[test]
    fn degenerate_snapshot_stays_finite() {
        let doc = host_perf_json_from(&HostPerfSnapshot::default(), 0);
        let parsed = Json::parse(&doc.render()).expect("parse");
        assert_eq!(parsed, doc);
        // The rate helper guards the division by zero of an empty run.
        assert_eq!(
            parsed
                .get("throughput")
                .and_then(|t| t.get("sim_cycles_per_sec"))
                .and_then(Json::as_num),
            Some(0.0)
        );
    }
}
