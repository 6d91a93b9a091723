//! Appends benchmark run records to the trajectory (`BENCH_gvf.json`).
//!
//! Usage: `perf_record [--history PATH] [--quiet] RECORD...`
//!
//! Each argument is a run record written by `python3 perfbench/run.py`
//! (`.bench_out/runs/<W>-seed<S>-trace<T>.json`); each becomes one
//! trajectory entry, stored member for member with the git rev and UTC
//! date added. Exits non-zero, recording nothing, if any record is
//! unreadable or failed its output check (`correct` not `true`), so a
//! broken pipeline cannot silently record a wrong run or nothing.
//!
//! `--quiet` silences the per-entry and summary chatter; errors still
//! print and exit codes are unchanged. All human-facing output goes to
//! stderr; this binary emits nothing on stdout (the determinism
//! contract's channel discipline applies to tooling too).

use gvf_bench::bench_history::{git_short_rev, record, today_utc, tool_args, History, Record};

fn fail(msg: String) -> ! {
    eprintln!("perf_record: {msg}");
    std::process::exit(1);
}

fn main() {
    let (history_path, quiet, paths) = tool_args("perf_record");
    let records: Vec<Record> = paths
        .iter()
        .map(|p| Record::load(p).unwrap_or_else(|e| fail(e)))
        .collect();
    let mut history = History::load(&history_path).unwrap_or_else(|e| fail(e));
    let rev = git_short_rev();
    record(&mut history, &records, &rev, &today_utc()).unwrap_or_else(|e| fail(e));
    if let Err(e) = history.save(&history_path) {
        fail(format!("{history_path}: {e}"));
    }
    if quiet {
        return;
    }
    for (path, r) in paths.iter().zip(&records) {
        eprintln!(
            "perf_record: {} seed {} @ {rev} <- {path}",
            r.workload(),
            r.seed()
        );
    }
    eprintln!(
        "perf_record: {} entr{} appended ({} total) -> {history_path}",
        records.len(),
        if records.len() == 1 { "y" } else { "ies" },
        history.entries.len()
    );
}
