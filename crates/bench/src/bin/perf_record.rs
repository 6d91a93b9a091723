//! Appends the current run's throughput samples to the benchmark
//! trajectory (`BENCH_gvf.json`).
//!
//! Usage: `perf_record [--history PATH] [--quiet] MANIFEST...`
//!
//! `--quiet` silences the per-entry and summary chatter; errors still
//! print and exit codes are unchanged.
//!
//! Each argument is a `gvf.run-manifest` produced by a figure binary
//! (their `--json-out` artifacts); the embedded `hostPerf` section
//! carries the throughput sample, so nothing is re-run. Manifests are
//! grouped by (generator, config) and each group contributes one
//! trajectory entry holding the **median** over its N samples — run a
//! figure binary several times and pass all the manifests here for a
//! noise-robust point. Exits non-zero if any manifest is unreadable,
//! so a broken pipeline cannot silently record nothing.
//!
//! Manifests of runs that served any cell from the cell cache (see
//! `hostPerf.cellCache`) are **skipped with a note**: cached cells take
//! near-zero wall time, so their cycles/sec figure would poison the
//! baseline with impossibly fast samples. `run_all.sh` therefore
//! records its `--no-cache` sample runs.
//!
//! Benchmark-grade entries (non-smoke, wall ≥ `MIN_BENCH_WALL_S`)
//! recorded from fewer than
//! [`gvf_bench::bench_history::RECOMMENDED_SAMPLES`] manifests get a
//! warning: a single wall-clock sample makes a noisy baseline, and the
//! gate's MAD-based tolerance needs spread to measure.
//!
//! All human-facing output goes to stderr; this binary emits nothing on
//! stdout (the determinism contract's channel discipline applies to
//! tooling too).

use gvf_bench::bench_history::{
    git_short_rev, manifest_used_cell_cache, record, sample_from_manifest,
    sample_is_benchmark_grade, today_utc, History, DEFAULT_HISTORY_PATH, RECOMMENDED_SAMPLES,
};
use gvf_bench::json::Json;

fn main() {
    let mut history_path = DEFAULT_HISTORY_PATH.to_string();
    let mut quiet = false;
    let mut manifests: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--history" => match args.next() {
                Some(p) => history_path = p,
                None => {
                    eprintln!("perf_record: --history needs a path");
                    std::process::exit(2);
                }
            },
            "--quiet" => quiet = true,
            _ => manifests.push(arg),
        }
    }
    if manifests.is_empty() {
        eprintln!("usage: perf_record [--history PATH] [--quiet] MANIFEST...");
        std::process::exit(2);
    }

    let mut samples = Vec::new();
    for path in &manifests {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("perf_record: {path}: {e}");
                std::process::exit(1);
            }
        };
        let doc = match Json::parse(&text) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("perf_record: {path}: {e}");
                std::process::exit(1);
            }
        };
        if manifest_used_cell_cache(&doc) {
            if !quiet {
                eprintln!("perf_record: {path}: skipped — run served cells from the cell cache");
            }
            continue;
        }
        match sample_from_manifest(&doc) {
            Ok(s) => samples.push(s),
            Err(e) => {
                eprintln!("perf_record: {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    let mut history = match History::load(&history_path) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("perf_record: {e}");
            std::process::exit(1);
        }
    };
    let rev = git_short_rev();
    let date = today_utc();
    let appended = record(&mut history, &samples, &rev, &date);
    if let Err(e) = history.save(&history_path) {
        eprintln!("perf_record: {history_path}: {e}");
        std::process::exit(1);
    }
    if quiet {
        return;
    }
    for entry in &appended {
        eprintln!(
            "perf_record: {} @ {} — {:.3e} sim cycles/s over {} sample{} -> {}",
            entry.sample.bin,
            rev,
            entry.sample.sim_cycles_per_sec,
            entry.samples,
            if entry.samples == 1 { "" } else { "s" },
            history_path
        );
        if sample_is_benchmark_grade(&entry.sample) && entry.samples < RECOMMENDED_SAMPLES {
            eprintln!(
                "perf_record: warning: {} recorded from {} sample{} — a \
                 single-machine median wants {RECOMMENDED_SAMPLES} (pass \
                 several manifests of the same config, e.g. run_all.sh \
                 --samples {RECOMMENDED_SAMPLES})",
                entry.sample.bin,
                entry.samples,
                if entry.samples == 1 { "" } else { "s" },
            );
        }
    }
    eprintln!(
        "perf_record: {} entr{} appended ({} total)",
        appended.len(),
        if appended.len() == 1 { "y" } else { "ies" },
        history.entries.len()
    );
}
