//! End-to-end telemetry: a real (tiny) sweep with an injected panic and
//! a re-run over the same cache, all writing one `gvf.events` stream — the stream
//! must validate against the lifecycle invariants, its roll-up must
//! match what actually happened (including the re-run's cache hits), the
//! flight recorder must capture the dead cell's context, and the
//! failure manifest must carry worker id, queue wait and the recorder
//! snapshot.
//!
//! This lives in its own integration-test file on purpose: the events
//! log and the cell-cache counters are process-global, so the test
//! needs a process of its own. Keep it the only `#[test]` here.

use gvf_bench::cli::HarnessOpts;
use gvf_bench::events;
use gvf_bench::json::Json;
use gvf_bench::manifest::failure_manifest;
use gvf_bench::sweep::{grid, Cell};
use gvf_core::Strategy;
use gvf_workloads::{WorkloadConfig, WorkloadKind};

fn opts(cache_dir: &std::path::Path, fail_cell: Option<usize>) -> HarnessOpts {
    HarnessOpts {
        cfg: WorkloadConfig::tiny(),
        jobs: 3,
        smoke: true,
        quiet: true,
        json_out: None,
        trace_out: None,
        metrics_out: None,
        attrib_out: None,
        profile_out: None,
        audit_out: None,
        no_cache: false,
        cache_dir: Some(cache_dir.to_string_lossy().into_owned()),
        events_out: None, // the sink is installed via events::init below
        fail_cell,
    }
}

#[test]
fn sweep_telemetry_reconciles_with_what_happened() {
    let tmp = std::env::temp_dir().join(format!("gvf_events_stream_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("create temp dir");
    let cache_dir = tmp.join("cache");
    let events_path = tmp.join("run.events.jsonl");

    events::init(
        &events_path.to_string_lossy(),
        &events::RunInfo {
            bin: "evtest".into(),
            fingerprint: "0123456789abcdef".into(),
            jobs: 3,
            smoke: true,
        },
    );
    assert!(events::sink_installed());

    let cells: Vec<Cell> = WorkloadKind::EVALUATED
        .map(|k| Cell::workload(k, Strategy::Cuda))
        .to_vec();
    let n = cells.len();
    assert!(n >= 2, "test needs at least two grid cells");
    let dead = 1usize;

    // Sweep 1: cell `dead` dies via the injection flag; the survivors
    // simulate and warm the cache.
    let o1 = opts(&cache_dir, Some(dead));
    let run1 = grid("evsweep1", &o1, &cells);

    let failures = run1.failures();
    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].cell, dead);
    assert!(failures[0].payload.contains("--fail-cell"));
    assert!(failures[0].worker < 3, "worker id must be a pool worker");

    // The flight recorder caught the failure, ending with its
    // cellFailed event.
    let flight = events::flight_recorder("evsweep1", dead).expect("flight recorder snapshot");
    assert!(!flight.is_empty() && flight.len() <= events::FLIGHT_RECORDER_EVENTS);
    let last = flight.last().unwrap();
    assert_eq!(last.get("ev").and_then(Json::as_str), Some("cellFailed"));
    assert_eq!(last.get("cell").and_then(Json::as_num), Some(dead as f64));

    // The failure manifest surfaces the runtime context per dead cell.
    let doc = failure_manifest("evsweep1", &o1, run1.cells());
    let entries = doc.get("cells").and_then(Json::as_arr).expect("cells");
    assert_eq!(entries.len(), n);
    let dead_entry = &entries[dead];
    assert_eq!(
        dead_entry.get("status").and_then(Json::as_str),
        Some("failed")
    );
    assert!(dead_entry.get("worker").and_then(Json::as_num).is_some());
    assert!(dead_entry
        .get("queueWaitMs")
        .and_then(Json::as_num)
        .is_some());
    let embedded = dead_entry
        .get("flightRecorder")
        .and_then(Json::as_arr)
        .expect("failed entry embeds the flight recorder");
    assert_eq!(embedded.len(), flight.len());

    // Sweep 2: the same command again — survivors come back as cache
    // hits, the dead cell simulates for real this time.
    let o2 = opts(&cache_dir, None);
    let run2 = grid("evsweep2", &o2, &cells);
    assert!(run2.failures().is_empty());
    events::run_end("ok");

    // The stream on disk validates and rolls up to exactly this story.
    let text = std::fs::read_to_string(&events_path).expect("events file");
    let stream = events::parse_stream(&text).expect("stream parses");
    let summary = events::validate_stream(&stream).expect("stream validates");
    assert_eq!(summary.bin, "evtest");
    assert_eq!(summary.fingerprint, "0123456789abcdef");
    assert_eq!(summary.run_status.as_deref(), Some("ok"));
    assert_eq!(summary.sweeps.len(), 2);

    let s1 = &summary.sweeps[0];
    assert_eq!((s1.label.as_str(), s1.total), ("evsweep1", n));
    assert!(s1.ended);
    assert_eq!(s1.failed, vec![dead]);
    assert_eq!(s1.finished.len(), n - 1);
    assert!(s1.cached.is_empty());

    let s2 = &summary.sweeps[1];
    assert_eq!((s2.label.as_str(), s2.total), ("evsweep2", n));
    assert!(s2.ended);
    assert!(s2.failed.is_empty());
    // Every survivor of sweep 1 is a cache hit; only the previously-dead
    // cell simulates.
    assert_eq!(s2.finished, vec![dead]);
    assert_eq!(s2.cached.len(), n - 1);

    let _ = std::fs::remove_dir_all(&tmp);
}
