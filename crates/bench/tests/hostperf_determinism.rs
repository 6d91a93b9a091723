//! The determinism contract versus the telemetry subsystem: host-perf
//! sections and trajectory timestamps are wall-clock data, so neither
//! may influence the serial-vs-parallel manifest comparison or the
//! regression gate's arithmetic. These tests pin that exclusion down
//! end-to-end, at the same layer `validate_json --det-diff` and
//! `perf_gate` operate on.

use gvf_bench::bench_history::{gate, record, History, Record};
use gvf_bench::cli::HarnessOpts;
use gvf_bench::hostperf::host_perf_json_from;
use gvf_bench::json::Json;
use gvf_bench::manifest::{manifest, strip_host_perf, CellRecord};
use gvf_sim::{HostPerfSnapshot, PoolTelemetry, SweepTelemetry, WorkerTelemetry};
use gvf_workloads::WorkloadConfig;

fn opts() -> HarnessOpts {
    HarnessOpts {
        cfg: WorkloadConfig::tiny(),
        jobs: 1,
        smoke: true,
        quiet: true,
        json_out: None,
        trace_out: None,
        metrics_out: None,
        attrib_out: None,
        profile_out: None,
        audit_out: None,
        no_cache: false,
        cache_dir: None,
        events_out: None,
        fail_cell: None,
    }
}

fn cells() -> Vec<CellRecord> {
    let mut stats = gvf_sim::Stats::new();
    stats.cycles = 12_345;
    stats.instrs_mem = 100;
    stats.instrs_compute = 4_000;
    stats.instrs_ctrl = 50;
    vec![CellRecord::new("raytrace", "typegroup", &stats)]
}

/// A snapshot shaped like run `variant`: same work, different clocks —
/// exactly what a serial and a parallel run of one grid look like.
fn snapshot(variant: u64) -> HostPerfSnapshot {
    HostPerfSnapshot {
        wall_ns: 1_000_000_000 * (variant + 1),
        alloc_ns: 90_000_000 * (variant + 1),
        simulate_ns: 800_000_000,
        layers: Default::default(),
        sweeps: vec![SweepTelemetry {
            label: "fig6".into(),
            pool: PoolTelemetry {
                wall_ns: 900_000_000 / (variant + 1),
                jobs: variant as usize + 1,
                workers: vec![WorkerTelemetry {
                    busy_ns: 850_000_000,
                    queue_wait_ns: 1_000 * variant,
                    cells: 1,
                }],
            },
        }],
        peak_rss_bytes: Some((64 + variant) << 20),
    }
}

/// Two runs of the same grid with wildly different host telemetry must
/// compare identical through the determinism view — and, as a sanity
/// check on the test itself, differ without the strip.
#[test]
fn host_perf_is_excluded_from_the_determinism_view() {
    let opts = opts();
    let cells = cells();
    let core = manifest("fig6", &opts, &cells);
    let serial = core
        .clone()
        .with("hostPerf", host_perf_json_from(&snapshot(0), 12_345));
    let parallel = core
        .clone()
        .with("hostPerf", host_perf_json_from(&snapshot(3), 12_345));

    assert_ne!(
        serial.render(),
        parallel.render(),
        "test is vacuous: the two hostPerf sections did not differ"
    );
    assert_eq!(
        strip_host_perf(&serial).render(),
        strip_host_perf(&parallel).render(),
        "determinism views must be byte-identical"
    );
    // The strip recovers exactly the deterministic core.
    assert_eq!(strip_host_perf(&serial), core);
}

/// Trajectory provenance (git rev, date) never reaches the gate: two
/// histories recording identical run records under different rev/date
/// stamps produce identical verdicts for every probe.
#[test]
fn trajectory_timestamps_are_excluded_from_the_gate() {
    let run = |ns: f64| {
        Record::from_json(
            Json::parse(&format!(
                r#"{{"workload": "micro-dispatch", "seed": 24301, "seconds": 0,
                    "noise": {{"steal_share": 0.0}},
                    "correct": true, "attempted": 72, "failed": 0,
                    "metrics": {{"engine.ns_per_instr": {{"value": {ns}, "unit": "ns"}}}}}}"#
            ))
            .expect("record parses"),
        )
        .expect("well-formed record")
    };
    let baseline = [run(880.0), run(892.0), run(905.0)];
    let mut then = History::default();
    let mut now = History::default();
    record(&mut then, &baseline, "0000001", "1999-12-31").expect("correct records");
    record(&mut now, &baseline, "fffffff", "2026-10-17").expect("correct records");
    for ns in [892.0, 1000.0, 1100.0, 9000.0] {
        let verdicts = gate(&then, &[run(ns)]);
        assert_eq!(verdicts.len(), 1, "the gate must judge the metric");
        assert_eq!(
            verdicts,
            gate(&now, &[run(ns)]),
            "verdict for {ns} ns depended on provenance"
        );
    }
}
