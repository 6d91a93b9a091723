//! `hostPerf.cellCache` accounting across sweeps, end-to-end: two
//! differently named sweeps over overlapping cells share one cache
//! directory. The second must serve the overlap from the cache with
//! results equal to the first's, and the process-global cache counters,
//! the per-worker pool telemetry and the simulation results must all
//! reconcile with each other — even though cache hits take near-zero
//! busy time, and even for a cell that records a timeline, which skips
//! the cache read but writes its result. The host profile rendered from
//! the same always-on collector must hold exactly the kernel-level
//! paths, and reconcile with the pool telemetry and the rig time.
//!
//! This lives in its own integration-test file on purpose: the cache
//! counters and the host-time collector are process-global statics, so
//! the test needs a process where no other sweep has ever run. Keep it
//! the only `#[test]` here.

use gvf_bench::cli::HarnessOpts;
use gvf_bench::hostperf::host_perf_json;
use gvf_bench::json::Json;
use gvf_bench::manifest::hostprofile_doc_from;
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
    // every cell to exactly one worker, with busy + queue-wait never
    // exceeding the pool's wall clock — the cache hits included, where
    // busy time is near zero.
    let snap = gvf_sim::hostperf::snapshot();
    let sweep_cells: Vec<u64> = snap.sweeps.iter().map(|s| s.pool.cells()).collect();
    assert_eq!(sweep_cells, [n, 2 * n], "one telemetry record per sweep");
    for s in &snap.sweeps {
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
    let telemetry_cells: u64 = sweep_cells.iter().sum();
    assert_eq!(telemetry_cells, n + 2 * n);
    assert_eq!(
        num(cc, "cachedCells") + num(cc, "simulatedCells"),
        telemetry_cells
    );

    // Host profile: recorded without `profile_out` or an events sink,
    // at kernel granularity only, and rendered from the same snapshot.
    let profile = hostprofile_doc_from("test", &snap);
    let spans: Vec<(String, u64, u64)> = profile
        .get("spans")
        .and_then(Json::as_arr)
        .expect("profile spans")
        .iter()
        .map(|s| {
            let field = |k: &str| s.get(k).and_then(Json::as_num).expect(k) as u64;
            let path = s.get("path").and_then(Json::as_str).expect("path");
            (path.to_string(), field("count"), field("totalNs"))
        })
        .collect();
    let paths: Vec<&str> = spans.iter().map(|(p, ..)| p.as_str()).collect();
    // Every cell is probed (the audit is on), so absorb is present.
    assert_eq!(paths, KERNEL_LEVEL_SPANS);
    let (cell_count, cell_ns) = (spans[0].1, spans[0].2);
    assert_eq!(cell_count, telemetry_cells, "pool.cell count");
    let busy_ns: u64 = snap
        .sweeps
        .iter()
        .flat_map(|s| &s.pool.workers)
        .map(|w| w.busy_ns)
        .sum();
    assert_eq!(cell_ns, busy_ns, "pool.cell totalNs");
    let (absorb, functional, timing) = (&spans[1], &spans[2], &spans[3]);
    assert!(absorb.1 > 0, "probed launches record kernel.absorb");
    assert_eq!(
        functional.1, timing.1,
        "one functional and one timing layer per launch"
    );
    assert_eq!(
        snap.simulate_ns,
        absorb.2 + functional.2 + timing.2,
        "simulate_ns is the sum of the three layers"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Every span path a probed sweep records, in the profile's path order.
const KERNEL_LEVEL_SPANS: [&str; 4] = [
    "pool.cell",
    "pool.cell;kernel.absorb",
    "pool.cell;kernel.functional",
    "pool.cell;kernel.timing",
];
