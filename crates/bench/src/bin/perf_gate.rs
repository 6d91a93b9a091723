//! Regression gate: judges benchmark run records against the recorded
//! trajectory, exit non-zero on regression.
//!
//! Usage: `perf_gate [--history PATH] [--quiet] RECORD...`
//!
//! Each argument is a run record written by `python3 perfbench/run.py`
//! (`.bench_out/runs/<W>-seed<S>-trace<T>.json`). Per (workload, seed),
//! every judged metric the records carry — `cpu_s` and the per-layer
//! `*.ns_per_*` rows — is judged by
//! [`gvf_bench::bench_history::gate`]: the median over the records
//! against the median of earlier `BENCH_gvf.json` entries of the same
//! workload and seed, with the allowed rise widened by the baseline's
//! own MAD. A metric with fewer than three baseline entries is skipped,
//! never failed, so a fresh checkout passes trivially. A record whose
//! output check failed (`correct` not `true`) fails the gate. A FAIL
//! line names its metric, which is the layer that slowed.
//!
//! `--quiet` silences PASS/SKIP chatter; failures (and the summary
//! line accompanying them) still print, and exit codes are unchanged.
//!
//! Exit codes: `0` nothing failed (skips allowed), `1` a regression,
//! a failed output check or an unreadable input, `2` usage error.
//! Verdicts go to stderr. `run_all.sh` gates **before** recording and
//! only records runs that pass — the judged records must never sit
//! inside their own baseline, or their own slowdown widens the
//! tolerance enough to pass.

use gvf_bench::bench_history::{gate, tool_args, History, Record, Verdict};

fn fail(msg: String) -> ! {
    eprintln!("perf_gate: {msg}");
    std::process::exit(1);
}

fn main() {
    let (history_path, quiet, paths) = tool_args("perf_gate");
    let history = History::load(&history_path).unwrap_or_else(|e| fail(e));
    let records: Vec<Record> = paths
        .iter()
        .map(|p| Record::load(p).unwrap_or_else(|e| fail(e)))
        .collect();

    let (mut passes, mut failures, mut skips) = (0usize, 0usize, 0usize);
    for j in gate(&history, &records) {
        let what = format!("{} seed {} {}", j.workload, j.seed, j.metric);
        match j.verdict {
            Verdict::Pass {
                current,
                baseline,
                allowed_rise,
            } => {
                passes += 1;
                if !quiet {
                    eprintln!(
                        "perf_gate: PASS {what} — {current:.4} vs baseline {baseline:.4} \
                         (allowed rise {:.0}%)",
                        allowed_rise * 100.0
                    );
                }
            }
            Verdict::Fail {
                current,
                baseline,
                allowed_rise,
            } => {
                failures += 1;
                eprintln!(
                    "perf_gate: FAIL {what} — {current:.4} vs baseline {baseline:.4}: \
                     {:+.0}%, only +{:.0}% allowed",
                    (current / baseline - 1.0) * 100.0,
                    allowed_rise * 100.0
                );
            }
            Verdict::Incorrect => {
                failures += 1;
                eprintln!("perf_gate: FAIL {what} — a record failed its output check");
            }
            Verdict::Skip { reason } => {
                skips += 1;
                if !quiet {
                    eprintln!("perf_gate: SKIP {what} — {reason}");
                }
            }
        }
    }
    if !quiet || failures > 0 {
        eprintln!(
            "perf_gate: {passes} passed, {failures} failed, {skips} skipped \
             (baseline {history_path}, {} entries)",
            history.entries.len()
        );
    }
    if failures > 0 {
        std::process::exit(1);
    }
}
