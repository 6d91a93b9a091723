//! Regression gate: judges the current run's throughput against the
//! recorded trajectory, exit non-zero on regression.
//!
//! Usage: `perf_gate [--history PATH] [--max-regress F] [--noise-mult F]
//!                   [--min-samples N] [--quiet] MANIFEST...`
//!
//! `--quiet` silences PASS/SKIP chatter; failures (and the summary
//! line accompanying them) still print, and exit codes are unchanged.
//!
//! For each manifest the gate extracts the `hostPerf` throughput sample
//! and compares its simulated-cycles-per-second against the **median**
//! of the matching baseline (same generator, same config) in
//! `BENCH_gvf.json`. The allowed relative slowdown is
//! `max(max_regress, noise_mult × MAD/median)` — a noisy baseline
//! widens its own tolerance. Bins with fewer than `--min-samples`
//! baseline entries are skipped, never failed, so a fresh checkout
//! passes trivially.
//!
//! A failing verdict is followed by up to three `cause N:` lines from
//! [`gvf_bench::rundiff::attributed_causes`] — the failing run's own
//! sibling artifacts (span profile, cycle audit, attribution) naming
//! the hottest span, the dominant cycle class, and the L1 hit rate, so
//! the log explains the regression instead of just measuring it.
//!
//! Exit codes: `0` all judged samples passed (skips allowed), `1` at
//! least one regression, `2` usage error. Verdicts go to stderr; CI
//! runs this as an advisory job (single-machine wall clocks are noisy).
//! `run_all.sh` gates **before** recording and only records runs that
//! pass — the judged sample must never sit inside its own baseline,
//! or the comparison degenerates into "slower than the midpoint of
//! (baseline, me)?", which no regression can ever fail.

use gvf_bench::bench_history::{
    gate, manifest_used_cell_cache, sample_from_manifest, GateConfig, GateVerdict, History,
    DEFAULT_HISTORY_PATH,
};
use gvf_bench::json::Json;

fn parse_flag<T: std::str::FromStr>(name: &str, value: Option<String>) -> T {
    match value.and_then(|v| v.parse().ok()) {
        Some(v) => v,
        None => {
            eprintln!("perf_gate: {name} needs a valid value");
            std::process::exit(2);
        }
    }
}

fn main() {
    let mut history_path = DEFAULT_HISTORY_PATH.to_string();
    let mut cfg = GateConfig::default();
    let mut quiet = false;
    let mut manifests: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--history" => history_path = parse_flag("--history", args.next()),
            "--max-regress" => cfg.max_regress = parse_flag("--max-regress", args.next()),
            "--noise-mult" => cfg.noise_mult = parse_flag("--noise-mult", args.next()),
            "--min-samples" => cfg.min_samples = parse_flag("--min-samples", args.next()),
            "--quiet" => quiet = true,
            _ => manifests.push(arg),
        }
    }
    if manifests.is_empty() {
        eprintln!(
            "usage: perf_gate [--history PATH] [--max-regress F] [--noise-mult F] \
             [--min-samples N] [--quiet] MANIFEST..."
        );
        std::process::exit(2);
    }

    let history = match History::load(&history_path) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("perf_gate: {e}");
            std::process::exit(1);
        }
    };

    let mut failures = 0usize;
    let mut passes = 0usize;
    let mut skips = 0usize;
    for path in &manifests {
        let doc = match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|t| Json::parse(&t).map_err(|e| e.to_string()))
        {
            Ok(d) => d,
            Err(e) => {
                eprintln!("perf_gate: {path}: {e}");
                std::process::exit(1);
            }
        };
        if manifest_used_cell_cache(&doc) {
            // Cached cells take near-zero wall time; judging a cache-served
            // run against a fresh baseline is meaningless either way.
            skips += 1;
            if !quiet {
                eprintln!("perf_gate: SKIP {path} — run served cells from the cell cache");
            }
            continue;
        }
        let sample = match sample_from_manifest(&doc) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("perf_gate: {path}: {e}");
                std::process::exit(1);
            }
        };
        match gate(&history, &sample, &cfg) {
            GateVerdict::Pass {
                current,
                baseline,
                allowed_drop,
            } => {
                passes += 1;
                if !quiet {
                    eprintln!(
                        "perf_gate: PASS {} — {:.3e} vs baseline {:.3e} sim cycles/s \
                         (allowed drop {:.0}%)",
                        sample.bin,
                        current,
                        baseline,
                        allowed_drop * 100.0
                    );
                }
            }
            GateVerdict::Fail {
                current,
                baseline,
                allowed_drop,
            } => {
                failures += 1;
                eprintln!(
                    "perf_gate: FAIL {} — {:.3e} vs baseline {:.3e} sim cycles/s: \
                     {:.0}% below, only {:.0}% allowed",
                    sample.bin,
                    current,
                    baseline,
                    (1.0 - current / baseline) * 100.0,
                    allowed_drop * 100.0
                );
                // Point the log at *why*, not just *how much*: the
                // failing run's own sibling artifacts (span profile,
                // cycle audit, attribution) name the dominant costs.
                for (i, cause) in gvf_bench::rundiff::attributed_causes(path)
                    .iter()
                    .enumerate()
                {
                    eprintln!("  cause {}: {cause}", i + 1);
                }
            }
            GateVerdict::Skip { reason } => {
                skips += 1;
                if !quiet {
                    eprintln!("perf_gate: SKIP {reason}");
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
