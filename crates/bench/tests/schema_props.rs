//! Property tests for the two host-performance schemas
//! (`gvf.hostperf` v2 and `gvf.bench-trajectory` v2): any generated
//! document must survive the render → parse round trip of the in-repo
//! JSON layer, and the trajectory must additionally decode back to an
//! equal value — the same guarantee the older schemas already enjoy
//! (see `json_roundtrip.rs`), run on the in-repo `gvf-prop` harness.

use gvf_bench::bench_history::{History, Record, TrajectoryEntry, JUDGED_METRICS};
use gvf_bench::hostperf::host_perf_json_from;
use gvf_bench::json::Json;
use gvf_prop::{props, Rng};
use gvf_sim::{HostPerfSnapshot, PoolTelemetry, SweepTelemetry, WorkerTelemetry};

/// An exactly-representable f64 (k/64 with bounded k), mirroring the
/// JSON round-trip suite's number palette.
fn arb_f64(rng: &mut Rng) -> f64 {
    rng.range_u64(0, 1 << 20) as f64 / 64.0
}

fn arb_snapshot(rng: &mut Rng) -> HostPerfSnapshot {
    let n_sweeps = rng.range_usize(0, 4);
    HostPerfSnapshot {
        wall_ns: rng.range_u64(0, 1 << 40),
        alloc_ns: rng.range_u64(0, 1 << 40),
        simulate_ns: rng.range_u64(0, 1 << 40),
        layers: Default::default(),
        sweeps: (0..n_sweeps)
            .map(|i| {
                let jobs = rng.range_usize(1, 9);
                SweepTelemetry {
                    label: format!("sweep{i}"),
                    pool: PoolTelemetry {
                        wall_ns: rng.range_u64(0, 1 << 40),
                        jobs,
                        workers: (0..jobs)
                            .map(|_| WorkerTelemetry {
                                busy_ns: rng.range_u64(0, 1 << 40),
                                queue_wait_ns: rng.range_u64(0, 1 << 30),
                                cells: rng.range_u64(0, 1 << 16),
                            })
                            .collect(),
                    },
                }
            })
            .collect(),
        peak_rss_bytes: if rng.bool(0.8) {
            Some(rng.range_u64(0, 1 << 44))
        } else {
            None
        },
    }
}

/// A run record shaped like `perfbench/run.py`'s: any subset of the
/// judged metrics plus one that is not judged.
fn arb_entry(rng: &mut Rng, i: usize) -> TrajectoryEntry {
    let mut metrics = Json::obj();
    for name in JUDGED_METRICS.iter().copied().chain(["work.cells"]) {
        if rng.bool(0.5) {
            metrics.set(
                name,
                Json::obj()
                    .with("value", Json::Num(arb_f64(rng)))
                    .with("unit", Json::str("ns")),
            );
        }
    }
    let record = Json::obj()
        .with("workload", Json::str(format!("workload{i}")))
        .with("seed", Json::num_u64(rng.range_u64(0, 1 << 20)))
        .with("seconds", Json::Num(arb_f64(rng)))
        .with(
            "noise",
            Json::obj()
                .with(
                    "loadavg_before",
                    Json::Arr(vec![Json::Num(arb_f64(rng)); 3]),
                )
                .with("steal_share", Json::Num(arb_f64(rng))),
        )
        .with("correct", Json::Bool(true))
        .with("attempted", Json::num_u64(rng.range_u64(0, 1 << 16)))
        .with("failed", Json::num_u64(0))
        .with("metrics", metrics);
    TrajectoryEntry {
        rev: format!("{:07x}", rng.range_u64(0, 1 << 28)),
        date: format!(
            "{:04}-{:02}-{:02}",
            rng.range_u64(1970, 2100),
            rng.range_u64(1, 13),
            rng.range_u64(1, 29)
        ),
        record: Record::from_json(record).expect("well-formed record"),
    }
}

/// `gvf.hostperf` v2: the emitted section always parses back to an
/// equal JSON tree and keeps its schema header and throughput block,
/// whatever the snapshot — including zero-duration and worker-less
/// degenerate shapes.
#[test]
fn hostperf_sections_round_trip() {
    props!(96, |rng| {
        let snap = arb_snapshot(rng);
        let cycles = rng.range_u64(0, 1 << 50);
        let doc = host_perf_json_from(&snap, cycles);
        let text = doc.render();
        let back = Json::parse(&text).expect("hostPerf section must parse");
        assert_eq!(back, doc, "round-trip mismatch for: {text}");
        assert_eq!(
            back.get("schema").and_then(Json::as_str),
            Some("gvf.hostperf")
        );
        let rate = back
            .get("throughput")
            .and_then(|t| t.get("sim_cycles_per_sec"))
            .and_then(Json::as_num)
            .expect("throughput rate");
        assert!(rate.is_finite(), "rate must stay finite: {rate}");
    });
}

/// `gvf.bench-trajectory` v2: a history of arbitrary entries decodes
/// back to an equal value after render → parse → from_json, and the
/// encoding is idempotent.
#[test]
fn trajectories_round_trip() {
    props!(96, |rng| {
        let n = rng.range_usize(0, 8);
        let history = History {
            entries: (0..n).map(|i| arb_entry(rng, i)).collect(),
        };
        let doc = history.to_json();
        let text = doc.render();
        let back = Json::parse(&text).expect("trajectory must parse");
        assert_eq!(back, doc);
        let decoded = History::from_json(&back).expect("trajectory must decode");
        assert_eq!(decoded, history);
        assert_eq!(decoded.to_json().render(), text, "encoding must be stable");
    });
}
