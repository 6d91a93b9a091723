//! `hostPerf.cellCache` accounting across sweeps, end-to-end: two
//! differently named sweeps over overlapping cells share one cache
//! directory. The second must serve the overlap from the cache with
//! results equal to the first's, and the process-global cache counters,
//! the per-worker pool telemetry and the simulation results must all
//! reconcile with each other — even though cache hits take near-zero
//! busy time, and even for a cell that records a timeline, which skips
//! the cache read but writes its result. The always-on span profile of the same sweeps
//! must hold kernel-level paths only.
//!
//! This lives in its own integration-test file on purpose: the cache
//! counters, the host-perf collector and the span registry are
//! process-global statics, so the test needs a process where no other
//! sweep has ever run. Keep it the only `#[test]` here.

use gvf_bench::cli::HarnessOpts;
use gvf_bench::hostperf::host_perf_json;
use gvf_bench::json::Json;
use gvf_bench::sweep::{grid, Cell};
use gvf_core::Strategy;
use gvf_workloads::{WorkloadConfig, WorkloadKind};

fn opts(cache_dir: &std::path::Path, trace_first_cell: bool) -> HarnessOpts {
    HarnessOpts {
        cfg: WorkloadConfig::tiny(),
        jobs: 1,
        smoke: true,
        quiet: true,
        json_out: None,
        // Probes the first cell with a timeline, which skips the cache
        // read: it must still count as simulated (and written).
        trace_out: trace_first_cell.then(|| "unused.trace.json".into()),
        metrics_out: None,
        attrib_out: None,
        profile_out: None,
        // Enables the cycle-audit probe on every cell, so the test also
        // exercises the audit report travelling through the cache.
        audit_out: Some("unused.audit.json".into()),
        no_cache: false,
        cache_dir: Some(cache_dir.to_string_lossy().into_owned()),
        events_out: None,
        fail_cell: None,
    }
}

fn num(j: &Json, key: &str) -> u64 {
    j.get(key)
        .and_then(Json::as_num)
        .unwrap_or_else(|| panic!("cellCache.{key} missing")) as u64
}

#[test]
fn overlapping_sweeps_share_cells_and_counters_reconcile() {
    let dir = std::env::temp_dir().join(format!("gvf_cellcache_acct_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let kinds = &WorkloadKind::EVALUATED[..4];
    let n = kinds.len() as u64;

    // Sweep A ("fig1b"-like): the CUDA column. Cell 0 records a
    // timeline, so it simulates without reading the cache.
    let cuda: Vec<Cell> = kinds
        .iter()
        .map(|&k| Cell::workload(k, Strategy::Cuda))
        .collect();
    let a = grid("sweep-a", &opts(&dir, true), &cuda).expect_all();
    assert!(a[0].obs.is_some(), "cell 0 recorded its timeline");

    // Sweep B, another name and another grid: per workload the SharedOA
    // baseline, then the CUDA cell sweep A already simulated — the
    // timeline-recording one included.
    let pairs: Vec<Cell> = kinds
        .iter()
        .flat_map(|&k| [Strategy::SharedOa, Strategy::Cuda].map(|s| Cell::workload(k, s)))
        .collect();
    let b = grid("sweep-b", &opts(&dir, false), &pairs).expect_all();

    // The overlap comes back equal — including the cycle-audit report,
    // which travels *through* the cache.
    for (i, (ra, rb)) in a.iter().zip(b.iter().skip(1).step_by(2)).enumerate() {
        assert_eq!(ra.stats, rb.stats, "workload {i} stats");
        assert_eq!(ra.checksum, rb.checksum, "workload {i} checksum");
        assert!(ra.audit.is_some(), "workload {i} lost its audit report");
        assert_eq!(ra.audit, rb.audit, "workload {i} audit");
    }

    // Counter accounting. Sweep A: n simulated and written (cell 0
    // too). Sweep B: n SharedOA cells simulated and written, all n CUDA
    // cells cached.
    let total_cycles: u64 = a.iter().chain(&b).map(|r| r.stats.cycles).sum();
    let perf = host_perf_json(total_cycles);
    let cc = perf.get("cellCache").expect("hostPerf.cellCache");
    assert_eq!(num(cc, "simulatedCells"), 2 * n);
    assert_eq!(num(cc, "cachedCells"), n);
    assert_eq!(num(cc, "entriesWritten"), 2 * n);

    // Pool-telemetry accounting: both sweeps recorded, each crediting
    // every cell to exactly one worker, with non-negative idle time
    // (busy + queue-wait never exceeds the pool's wall clock) — the
    // cache hits included, where busy time is near zero.
    let snap = gvf_sim::hostperf::snapshot();
    assert_eq!(snap.sweeps.len(), 2, "one telemetry record per sweep");
    for s in &snap.sweeps {
        let credited: u64 = s.pool.workers.iter().map(|w| w.cells).sum();
        assert_eq!(credited, s.cells, "sweep {} worker cell credit", s.label);
        for w in &s.pool.workers {
            assert!(
                w.busy_ns + w.queue_wait_ns <= s.pool.wall_ns,
                "sweep {}: worker busy {} + wait {} exceeds wall {}",
                s.label,
                w.busy_ns,
                w.queue_wait_ns,
                s.pool.wall_ns
            );
        }
    }
    // Every cell either came from the cache or was simulated.
    let telemetry_cells: u64 = snap.sweeps.iter().map(|s| s.cells).sum();
    assert_eq!(telemetry_cells, n + 2 * n);
    assert_eq!(
        num(cc, "cachedCells") + num(cc, "simulatedCells"),
        telemetry_cells
    );

    // Span accounting: recorded without `profile_out` or an events
    // sink, at kernel granularity only — a pool cell and at most three
    // kernel spans per timed kernel, never per epoch or per load.
    let spans = gvf_sim::spans::snapshot();
    assert!(
        !spans.is_empty(),
        "spans recorded with no profile requested"
    );
    for s in &spans {
        assert!(
            KERNEL_LEVEL_SPANS.contains(&s.path.as_str()),
            "span path {:?} below kernel granularity",
            s.path
        );
    }
    let timed_kernels = spans
        .iter()
        .find(|s| s.path == "pool.cell;kernel.timing")
        .map_or(0, |s| s.count);
    let span_count: u64 = spans.iter().map(|s| s.count).sum();
    assert!(
        span_count <= telemetry_cells + 3 * timed_kernels,
        "{span_count} spans for {telemetry_cells} cells and {timed_kernels} timed kernels"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Every span path a sweep may record.
const KERNEL_LEVEL_SPANS: [&str; 4] = [
    "pool.cell",
    "pool.cell;kernel.functional",
    "pool.cell;kernel.timing",
    "pool.cell;kernel.absorb",
];
