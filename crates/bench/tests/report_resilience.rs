//! The report must degrade, not die: a results directory holding a
//! valid manifest next to empty, torn, and missing sibling artifacts
//! still collates (exit 0), and each affected section carries an
//! explicit "artifact absent" note naming the bad file — evidence is
//! never silently dropped.

use gvf_bench::json::Json;
use gvf_bench::schemas;
use std::path::PathBuf;
use std::process::Command;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gvf-report-resilience-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn tiny_manifest() -> String {
    schemas::RUN_MANIFEST
        .header()
        .with("generator", Json::str("fig7"))
        .with(
            "config",
            Json::obj()
                .with("scale", Json::num_u64(2))
                .with("iterations", Json::num_u64(1))
                .with("seed", Json::num_u64(7))
                .with("smoke", Json::Bool(true)),
        )
        .with(
            "cells",
            Json::Arr(vec![Json::obj()
                .with("workload", Json::str("bank"))
                .with("strategy", Json::str("vtable"))
                .with(
                    "stats",
                    Json::obj()
                        .with("cycles", Json::num_u64(1000))
                        .with("l1_hits", Json::num_u64(10)),
                )
                .with("derived", Json::obj().with("ipc", Json::Num(0.5)))]),
        )
        .with(
            "hostPerf",
            schemas::HOSTPERF
                .header()
                .with("wall_s", Json::Num(0.5))
                .with(
                    "throughput",
                    Json::obj().with("sim_cycles_per_sec", Json::Num(2000.0)),
                ),
        )
        .render()
}

#[test]
fn report_survives_missing_empty_and_torn_artifacts() {
    let dir = scratch_dir("torn");
    std::fs::write(dir.join("fig7.json"), tiny_manifest()).unwrap();
    // Empty attribution, torn (truncated mid-string) audit, an events
    // stream cut mid-line, and NO profile at all.
    std::fs::write(dir.join("fig7.attrib.json"), "").unwrap();
    std::fs::write(dir.join("fig7.audit.json"), "{\"schema\": \"gvf.cycleau").unwrap();
    std::fs::write(dir.join("fig7.events.jsonl"), "{\"schema\": \"gvf.events\"").unwrap();

    let out = dir.join("REPORT.md");
    let status = Command::new(env!("CARGO_BIN_EXE_report"))
        .args([
            "--results",
            dir.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
            "--quiet",
        ])
        .status()
        .expect("spawn report");
    assert!(
        status.success(),
        "report must collate what it can, not die on torn artifacts"
    );

    let md = std::fs::read_to_string(&out).expect("REPORT.md written");
    // The good manifest rendered.
    assert!(md.contains("Figure 7"), "valid manifest must render");
    // Each broken family is called out in its own section, naming the
    // file.
    assert!(
        md.contains("attribution artifact absent") && md.contains("fig7.attrib.json"),
        "empty attribution must be an explicit note"
    );
    assert!(
        md.contains("cycle-audit artifact absent") && md.contains("fig7.audit.json"),
        "torn audit must be an explicit note"
    );
    assert!(
        md.contains("events artifact absent") && md.contains("fig7.events.jsonl"),
        "torn events stream must be an explicit note"
    );
    // The missing profile degrades to the section's standing hint, not
    // an error.
    assert!(md.contains("No host profiles found"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn clean_tree_reports_no_absent_notes() {
    let dir = scratch_dir("clean");
    std::fs::write(dir.join("fig7.json"), tiny_manifest()).unwrap();
    let out = dir.join("REPORT.md");
    let status = Command::new(env!("CARGO_BIN_EXE_report"))
        .args([
            "--results",
            dir.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
            "--quiet",
        ])
        .status()
        .expect("spawn report");
    assert!(status.success());
    let md = std::fs::read_to_string(&out).unwrap();
    assert!(
        !md.contains("artifact absent"),
        "a clean tree must not fabricate absence notes"
    );
    // The last section still renders after every artifact section.
    assert!(md.contains("## Benchmark trajectory"));
    let _ = std::fs::remove_dir_all(&dir);
}
