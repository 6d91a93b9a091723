//! Unified reproduction report: collates every artifact under the
//! results directory into one human-readable `REPORT.md`.
//!
//! Usage: `report [--results DIR] [--history PATH] [--out PATH] [--quiet]`
//!
//! The collator reads only emitted artifacts — run manifests
//! (`gvf.run-manifest`), Chrome traces (`gvf.timeline`), and the
//! benchmark trajectory (`gvf.bench-trajectory`) — never the simulator
//! itself, so the report is a pure function of `results/` and can be
//! regenerated at any time. Sections:
//!
//! 1. per-figure cell tables (canonical paper order: tables first, then
//!    Figures 6–12, then the repo's own ablations);
//! 2. an attribution section from the `gvf.attribution` documents:
//!    per-strategy coalescing and lookup walk-depth tables, plus the
//!    hard cross-check that every cell's attributed transactions equal
//!    its manifest `Stats` counters (a mismatch exits non-zero);
//! 3. a host-performance summary per run (wall time, throughput, peak
//!    RSS) from each manifest's `hostPerf` section;
//! 4. "Where the host time goes": top exclusive-time spans from the
//!    `gvf.hostprofile` documents — host time per cell and kernel layer;
//! 5. "Fast-forward opportunity" from the `gvf.cycleaudit` documents:
//!    how much simulated time was skippable per cell, with the hard
//!    cross-check that every audit's epoch classes sum to
//!    `sms × auditedCycles` and reconcile against the manifest's
//!    `Stats` cycle counters (a mismatch exits non-zero);
//! 6. a top-K stall-hotspot table aggregated from the probe traces'
//!    `"cat": "stall"` events, keyed by (PC, cause) — the closest thing
//!    the simulated GPU has to a profiler's hot-PC view;
//! 7. a "Run timeline" section from the `gvf.events` telemetry streams
//!    (`*.events.jsonl`): per-sweep cell outcomes, wall time, worker
//!    occupancy and stall warnings — how each run actually unfolded;
//! 8. the recent benchmark trajectory from `BENCH_gvf.json`: the last
//!    run records with their CPU time and engine and kernel cost per
//!    instruction.
//!
//! Unreadable or unrecognized files are reported and skipped — a
//! partial `run_all.sh --keep-going` run still gets a report of
//! whatever succeeded, and each section lists its own absent (missing,
//! empty, or torn) artifacts explicitly rather than silently dropping
//! them. Progress goes to stderr; the report goes to the `--out` file
//! only.

use gvf_bench::bench_history::{History, DEFAULT_HISTORY_PATH};
use gvf_bench::events;
use gvf_bench::json::Json;
use gvf_bench::manifest::{ATTRIB_SCHEMA, CYCLEAUDIT_SCHEMA, HOSTPROFILE_SCHEMA, MANIFEST_SCHEMA};
use gvf_bench::report::markdown_table;
use gvf_sim::TIMELINE_SCHEMA;

/// Canonical presentation order; anything else sorts after, by name.
const ORDER: &[(&str, &str)] = &[
    ("fig1b", "Figure 1b — motivating dispatch overhead"),
    ("table1", "Table 1 — workload characterization"),
    ("table2", "Table 2 — allocator comparison"),
    ("fig6", "Figure 6 — speedup over CUDA vfuncs"),
    ("fig7", "Figure 7 — dispatch latency breakdown"),
    ("fig8", "Figure 8 — memory-traffic reduction"),
    ("fig9", "Figure 9 — cache behaviour"),
    ("fig10", "Figure 10 — chunk-size sensitivity"),
    ("fig11", "Figure 11 — type-count scaling"),
    ("fig12", "Figure 12 — object-count scaling"),
    ("alloc_init", "Allocator initialization cost"),
    ("ablation_lookup", "Ablation — range-lookup strategies"),
    ("generations", "Ablation — generational recycling"),
    ("counters", "Hardware-counter cross-check"),
];

fn fmt_num(x: f64) -> String {
    if !x.is_finite() {
        return "-".to_string();
    }
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else if x.abs() >= 1e6 || (x != 0.0 && x.abs() < 1e-3) {
        format!("{x:.3e}")
    } else {
        format!("{x:.3}")
    }
}

fn scalar(v: &Json) -> String {
    match v {
        Json::Str(s) => s.clone(),
        Json::Num(n) => fmt_num(*n),
        Json::Bool(b) => b.to_string(),
        Json::Null => "-".to_string(),
        other => other.render(),
    }
}

/// Markdown table of a manifest's cells: the cell coordinates (every
/// non-stats member, in first-seen order) plus the headline measures.
fn cells_section(doc: &Json) -> String {
    let Some(cells) = doc.get("cells").and_then(Json::as_arr) else {
        return String::new();
    };
    let mut coord_keys: Vec<String> = Vec::new();
    for cell in cells {
        if let Json::Obj(members) = cell {
            for (k, v) in members {
                if matches!(v, Json::Obj(_) | Json::Arr(_)) {
                    continue; // stats / derived, handled below
                }
                if !coord_keys.contains(k) {
                    coord_keys.push(k.clone());
                }
            }
        }
    }
    let mut headers: Vec<&str> = coord_keys.iter().map(String::as_str).collect();
    headers.extend(["cycles", "IPC", "L1 hit", "vfunc PKI"]);
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|cell| {
            let mut row: Vec<String> = coord_keys
                .iter()
                .map(|k| cell.get(k).map(scalar).unwrap_or_else(|| "-".into()))
                .collect();
            let stat = |k: &str| {
                cell.get("stats")
                    .and_then(|s| s.get(k))
                    .and_then(Json::as_num)
            };
            let derived = |k: &str| {
                cell.get("derived")
                    .and_then(|d| d.get(k))
                    .and_then(Json::as_num)
            };
            row.push(stat("cycles").map(fmt_num).unwrap_or_else(|| "-".into()));
            row.push(derived("ipc").map(fmt_num).unwrap_or_else(|| "-".into()));
            row.push(
                derived("l1_hit_rate")
                    .map(|r| format!("{:.1}%", r * 100.0))
                    .unwrap_or_else(|| "-".into()),
            );
            row.push(
                derived("vfunc_pki")
                    .map(fmt_num)
                    .unwrap_or_else(|| "-".into()),
            );
            row
        })
        .collect();
    // A v2 failure manifest records dead cells alongside the survivors;
    // flag them ahead of the table (their measure columns are "-").
    let failed = cells
        .iter()
        .filter(|c| c.get("status").and_then(Json::as_str) == Some("failed"))
        .count();
    let mut out = String::new();
    if failed > 0 {
        out.push_str(&format!(
            "**{failed} of {} cells FAILED** — see the `status`/`panic` columns below.\n\n",
            cells.len()
        ));
    }
    out.push_str(&markdown_table(&headers, &rows));
    out
}

/// One row of the host-performance summary, from a manifest.
fn host_perf_row(bin: &str, doc: &Json) -> Option<Vec<String>> {
    let host = doc.get("hostPerf")?;
    let throughput = host.get("throughput")?;
    let num = |d: &Json, k: &str| d.get(k).and_then(Json::as_num);
    let rss = match host.get("peak_rss_bytes") {
        Some(Json::Num(b)) => format!("{:.1} MiB", b / (1024.0 * 1024.0)),
        _ => "-".to_string(),
    };
    Some(vec![
        bin.to_string(),
        num(host, "wall_s")
            .map(|s| format!("{s:.2} s"))
            .unwrap_or_else(|| "-".into()),
        num(throughput, "cells").map(fmt_num).unwrap_or_default(),
        num(throughput, "cells_per_sec")
            .map(fmt_num)
            .unwrap_or_default(),
        num(throughput, "sim_cycles_per_sec")
            .map(fmt_num)
            .unwrap_or_default(),
        rss,
    ])
}

/// Pretty-prints a sparse log2 histogram (`[{lo, count}, ...]`) as
/// compact `lo×count` pairs.
fn hist_compact(h: Option<&Json>) -> String {
    let Some(buckets) = h.and_then(Json::as_arr) else {
        return "-".to_string();
    };
    if buckets.is_empty() {
        return "-".to_string();
    }
    buckets
        .iter()
        .map(|b| {
            format!(
                "{}×{}",
                b.get("lo").map(scalar).unwrap_or_default(),
                b.get("count").map(scalar).unwrap_or_default()
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// Cross-checks one attribution document against its manifest: cell
/// coordinates must line up, and for every tag, the attributed
/// transaction total must equal the manifest's `Stats` counter —
/// including tags the attribution omitted (counter must then be zero).
/// Appends one line per violation to `failures`.
fn cross_check_attribution(
    generator: &str,
    adoc: &Json,
    manifest: &Json,
    failures: &mut Vec<String>,
) {
    let acells = adoc.get("cells").and_then(Json::as_arr).unwrap_or(&[]);
    let mcells = manifest.get("cells").and_then(Json::as_arr).unwrap_or(&[]);
    if acells.len() != mcells.len() {
        failures.push(format!(
            "{generator}: attribution has {} cells, manifest has {}",
            acells.len(),
            mcells.len()
        ));
        return;
    }
    for (i, (ac, mc)) in acells.iter().zip(mcells.iter()).enumerate() {
        for key in ["workload", "strategy"] {
            if ac.get(key).and_then(Json::as_str) != mc.get(key).and_then(Json::as_str) {
                failures.push(format!("{generator} cell {i}: {key} coordinate mismatch"));
            }
        }
        let Some(attrib) = ac.get("attribution").filter(|a| **a != Json::Null) else {
            continue;
        };
        let by_tag = attrib
            .get("probe")
            .and_then(|p| p.get("loads"))
            .and_then(|l| l.get("by_tag"));
        let counters = mc
            .get("stats")
            .and_then(|s| s.get("load_transactions_by_tag"));
        let Some(Json::Obj(counters)) = counters else {
            failures.push(format!(
                "{generator} cell {i}: manifest cell lacks load counters"
            ));
            continue;
        };
        for (tag, counted) in counters {
            let counted = counted.as_num().unwrap_or(0.0) as u64;
            let attributed = by_tag
                .and_then(|t| t.get(tag))
                .and_then(|e| e.get("transactions"))
                .and_then(Json::as_num)
                .unwrap_or(0.0) as u64;
            if attributed != counted {
                failures.push(format!(
                    "{generator} cell {i} tag {tag}: attributed {attributed} != counted {counted}"
                ));
            }
        }
    }
}

/// The per-document attribution tables: per-strategy coalescing
/// evidence and per-cell lookup walk depth.
fn attribution_section(adoc: &Json) -> String {
    let cells = adoc.get("cells").and_then(Json::as_arr).unwrap_or(&[]);
    let mut md = String::new();

    // Coalescing, aggregated over workloads: (strategy, tag) →
    // [instructions, lanes, transactions, l1_hits].
    let mut agg: Vec<((String, String), [u64; 4])> = Vec::new();
    for cell in cells {
        let strategy = cell
            .get("strategy")
            .and_then(Json::as_str)
            .unwrap_or("-")
            .to_string();
        let by_tag = cell
            .get("attribution")
            .and_then(|a| a.get("probe"))
            .and_then(|p| p.get("loads"))
            .and_then(|l| l.get("by_tag"));
        let Some(Json::Obj(by_tag)) = by_tag else {
            continue;
        };
        for (tag, e) in by_tag {
            let key = (strategy.clone(), tag.clone());
            let vals = [
                e.get("instructions"),
                e.get("lanes"),
                e.get("transactions"),
                e.get("l1_hits"),
            ]
            .map(|v| v.and_then(Json::as_num).unwrap_or(0.0) as u64);
            match agg.iter_mut().find(|(k, _)| *k == key) {
                Some((_, acc)) => {
                    for (a, v) in acc.iter_mut().zip(vals) {
                        *a += v;
                    }
                }
                None => agg.push((key, vals)),
            }
        }
    }
    if !agg.is_empty() {
        md.push_str("Coalescing by strategy and access tag (summed over cells):\n\n");
        let rows: Vec<Vec<String>> = agg
            .iter()
            .map(|((strategy, tag), [instrs, lanes, txns, hits])| {
                vec![
                    strategy.clone(),
                    tag.clone(),
                    instrs.to_string(),
                    txns.to_string(),
                    if *txns > 0 {
                        format!("{:.2}", *lanes as f64 / *txns as f64)
                    } else {
                        "-".into()
                    },
                    if *instrs > 0 {
                        format!("{:.2}", *txns as f64 / *instrs as f64)
                    } else {
                        "-".into()
                    },
                    if *txns > 0 {
                        format!("{:.1}%", *hits as f64 / *txns as f64 * 100.0)
                    } else {
                        "-".into()
                    },
                ]
            })
            .collect();
        md.push_str(&markdown_table(
            &[
                "strategy",
                "tag",
                "load instrs",
                "transactions",
                "lanes/txn",
                "txn/instr",
                "L1 hit",
            ],
            &rows,
        ));
        md.push('\n');
    }

    // Lookup walk depth, one row per cell that walked a range structure.
    let lookup_rows: Vec<Vec<String>> = cells
        .iter()
        .filter_map(|cell| {
            let l = cell
                .get("attribution")
                .and_then(|a| a.get("lookup"))
                .filter(|l| **l != Json::Null)?;
            Some(vec![
                cell.get("workload").map(scalar).unwrap_or_default(),
                cell.get("strategy").map(scalar).unwrap_or_default(),
                l.get("kind").map(scalar).unwrap_or_default(),
                l.get("num_ranges").map(scalar).unwrap_or_default(),
                l.get("dispatches").map(scalar).unwrap_or_default(),
                hist_compact(l.get("walk_depth")),
                hist_compact(l.get("comparisons")),
            ])
        })
        .collect();
    if !lookup_rows.is_empty() {
        md.push_str(
            "Range-lookup walks (per-dispatch depth and comparison histograms, `value×count`):\n\n",
        );
        md.push_str(&markdown_table(
            &[
                "workload",
                "strategy",
                "lookup",
                "ranges",
                "dispatches",
                "walk depth",
                "comparisons",
            ],
            &lookup_rows,
        ));
        md.push('\n');
    }
    md
}

/// Cross-checks one cycle-audit document against its manifest: cell
/// coordinates must line up, every audit's six epoch classes must sum
/// to `sms × auditedCycles` exactly, and `auditedCycles` must equal
/// the manifest cell's `Stats` cycle counter. Appends one line per
/// violation to `failures`.
fn cross_check_audit(generator: &str, adoc: &Json, manifest: &Json, failures: &mut Vec<String>) {
    let acells = adoc.get("cells").and_then(Json::as_arr).unwrap_or(&[]);
    let mcells = manifest.get("cells").and_then(Json::as_arr).unwrap_or(&[]);
    if acells.len() != mcells.len() {
        failures.push(format!(
            "{generator}: cycle audit has {} cells, manifest has {}",
            acells.len(),
            mcells.len()
        ));
        return;
    }
    for (i, (ac, mc)) in acells.iter().zip(mcells.iter()).enumerate() {
        for key in ["workload", "strategy"] {
            if ac.get(key).and_then(Json::as_str) != mc.get(key).and_then(Json::as_str) {
                failures.push(format!(
                    "{generator} cell {i}: {key} coordinate mismatch (audit)"
                ));
            }
        }
        let Some(audit) = ac.get("audit").filter(|a| **a != Json::Null) else {
            continue;
        };
        let num = |v: &Json, k: &str| v.get(k).and_then(Json::as_num).unwrap_or(0.0) as u64;
        let sms = num(audit, "sms");
        let audited = num(audit, "auditedCycles");
        let classes = audit.get("classes");
        let sum: u64 = gvf_sim::CYCLE_CLASS_LABELS
            .iter()
            .map(|k| classes.map(|c| num(c, k)).unwrap_or(0))
            .sum();
        if sum != sms * audited {
            failures.push(format!(
                "{generator} cell {i}: audit classes sum {sum} != sms {sms} × \
                 auditedCycles {audited}"
            ));
        }
        let counted = mc
            .get("stats")
            .and_then(|s| s.get("cycles"))
            .and_then(Json::as_num)
            .unwrap_or(0.0) as u64;
        if audited != counted {
            failures.push(format!(
                "{generator} cell {i}: auditedCycles {audited} != manifest cycles {counted}"
            ));
        }
    }
}

/// The per-document fast-forward table: one row per audited cell with
/// its epoch-class mix and the skippable-time upper bound.
fn audit_section(adoc: &Json) -> String {
    let cells = adoc.get("cells").and_then(Json::as_arr).unwrap_or(&[]);
    let rows: Vec<Vec<String>> = cells
        .iter()
        .filter_map(|cell| {
            let a = cell.get("audit").filter(|a| **a != Json::Null)?;
            let classes = a.get("classes")?;
            let ff = a.get("fastForward")?;
            let sites = a.get("callSites");
            let class = |k: &str| classes.get(k).map(scalar).unwrap_or_default();
            Some(vec![
                cell.get("workload").map(scalar).unwrap_or_default(),
                cell.get("strategy").map(scalar).unwrap_or_default(),
                a.get("auditedCycles").map(scalar).unwrap_or_default(),
                class("active"),
                class("stalledKnown"),
                class("drained"),
                class("skipped"),
                ff.get("fraction")
                    .and_then(Json::as_num)
                    .map(|f| format!("{:.1}%", f * 100.0))
                    .unwrap_or_else(|| "-".into()),
                ff.get("upperBoundSpeedup")
                    .and_then(Json::as_num)
                    .map(|s| format!("{s:.2}×"))
                    .unwrap_or_else(|| "-".into()),
                sites
                    .map(|s| {
                        format!(
                            "{}m/{}f/{}M",
                            s.get("monomorphic").map(scalar).unwrap_or_default(),
                            s.get("fewTyped").map(scalar).unwrap_or_default(),
                            s.get("megamorphic").map(scalar).unwrap_or_default(),
                        )
                    })
                    .unwrap_or_else(|| "-".into()),
            ])
        })
        .collect();
    if rows.is_empty() {
        return String::new();
    }
    let mut md = String::new();
    md.push_str(&markdown_table(
        &[
            "workload",
            "strategy",
            "cycles",
            "active",
            "stalled-known",
            "drained",
            "skipped",
            "skippable",
            "upper-bound speedup",
            "sites (mono/few/mega)",
        ],
        &rows,
    ));
    md.push('\n');
    md
}

/// The host-profile table: top spans by exclusive time, one table per
/// profiled binary.
fn hostprofile_section(generator: &str, pdoc: &Json) -> String {
    let Some(spans) = pdoc.get("spans").and_then(Json::as_arr) else {
        return String::new();
    };
    if spans.is_empty() {
        return format!("`{generator}`: profile recorded no spans.\n\n");
    }
    let mut ranked: Vec<(&Json, f64)> = spans
        .iter()
        .map(|s| {
            (
                s,
                s.get("exclusiveNs").and_then(Json::as_num).unwrap_or(0.0),
            )
        })
        .collect();
    ranked.sort_by(|(sa, a), (sb, b)| {
        b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal).then(
            sa.get("path")
                .and_then(Json::as_str)
                .cmp(&sb.get("path").and_then(Json::as_str)),
        )
    });
    let total_excl: f64 = ranked.iter().map(|(_, e)| e).sum();
    let rows: Vec<Vec<String>> = ranked
        .iter()
        .take(10)
        .map(|(s, excl)| {
            vec![
                s.get("path").map(scalar).unwrap_or_default(),
                s.get("count").map(scalar).unwrap_or_default(),
                format!(
                    "{:.1} ms",
                    s.get("totalNs").and_then(Json::as_num).unwrap_or(0.0) / 1e6
                ),
                format!("{:.1} ms", excl / 1e6),
                if total_excl > 0.0 {
                    format!("{:.1}%", excl / total_excl * 100.0)
                } else {
                    "-".into()
                },
            ]
        })
        .collect();
    let mut md = format!("### {generator}\n\n");
    md.push_str(&markdown_table(
        &["span", "count", "inclusive", "exclusive", "excl %"],
        &rows,
    ));
    md.push('\n');
    md
}

/// Hotspot accumulator entry: (pc, cause) → (stall count, total cycles).
type Hotspot = ((u64, String), (u64, u64));

/// Which report section a results-dir file feeds, by naming
/// convention (`run_all.sh` suffixes). Used to report unreadable or
/// torn artifacts in the section that would have rendered them,
/// instead of only a stderr note.
fn artifact_family(path: &str) -> &'static str {
    if path.ends_with(".attrib.json") {
        "attribution"
    } else if path.ends_with(".audit.json") {
        "cycle-audit"
    } else if path.ends_with(".profile.json") {
        "host-profile"
    } else if path.ends_with(".trace.json") {
        "trace"
    } else if path.ends_with(".metrics.json") {
        "metrics"
    } else if path.ends_with(".events.jsonl") {
        "events"
    } else {
        "manifest"
    }
}

/// The explicit "artifact absent" note for one family: every file of
/// that family that failed to read or parse, so a torn or truncated
/// artifact degrades to a visible note in its own section rather than
/// silently vanishing from the report.
fn absent_notes(unreadable: &[(String, String)], family: &str) -> String {
    let hits: Vec<&(String, String)> = unreadable
        .iter()
        .filter(|(p, _)| artifact_family(p) == family)
        .collect();
    if hits.is_empty() {
        return String::new();
    }
    let mut md = format!(
        "**{} {family} artifact{} absent from this report** (unreadable or torn):\n\n",
        hits.len(),
        if hits.len() == 1 { "" } else { "s" }
    );
    for (path, err) in hits {
        md.push_str(&format!("- `{path}` — {err}\n"));
    }
    md.push('\n');
    md
}

/// Aggregates a trace's `"cat": "stall"` slices by (pc, cause).
fn accumulate_hotspots(doc: &Json, agg: &mut Vec<Hotspot>) {
    let Some(events) = doc.get("traceEvents").and_then(Json::as_arr) else {
        return;
    };
    for ev in events {
        if ev.get("cat").and_then(Json::as_str) != Some("stall") {
            continue;
        }
        let dur = ev.get("dur").and_then(Json::as_num).unwrap_or(0.0) as u64;
        let args = ev.get("args");
        let pc = args
            .and_then(|a| a.get("pc"))
            .and_then(Json::as_num)
            .unwrap_or(0.0) as u64;
        let cause = args
            .and_then(|a| a.get("cause"))
            .and_then(Json::as_str)
            .or_else(|| ev.get("name").and_then(Json::as_str))
            .unwrap_or("other")
            .to_string();
        let key = (pc, cause);
        match agg.iter_mut().find(|(k, _)| *k == key) {
            Some((_, (count, total))) => {
                *count += 1;
                *total += dur;
            }
            None => agg.push((key, (1, dur))),
        }
    }
}

fn main() {
    let mut results_dir = "results".to_string();
    let mut history_path = DEFAULT_HISTORY_PATH.to_string();
    let mut out_path: Option<String> = None;
    let mut quiet = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| match args.next() {
            Some(v) => v,
            None => {
                eprintln!("report: {name} needs a value");
                std::process::exit(2);
            }
        };
        match arg.as_str() {
            "--results" => results_dir = value("--results"),
            "--history" => history_path = value("--history"),
            "--out" => out_path = Some(value("--out")),
            "--quiet" => quiet = true,
            other => {
                eprintln!("report: unknown argument {other:?}");
                eprintln!("usage: report [--results DIR] [--history PATH] [--out PATH] [--quiet]");
                std::process::exit(2);
            }
        }
    }
    let out_path = out_path.unwrap_or_else(|| format!("{results_dir}/REPORT.md"));

    // Deterministic scan: sorted *.json paths under the results dir.
    let mut paths: Vec<String> = match std::fs::read_dir(&results_dir) {
        Ok(iter) => iter
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .map(|p| p.to_string_lossy().into_owned())
            .collect(),
        Err(e) => {
            eprintln!("report: {results_dir}: {e}");
            std::process::exit(1);
        }
    };
    paths.sort();

    let mut manifests: Vec<(String, Json)> = Vec::new(); // (generator, doc)
    let mut attributions: Vec<(String, Json)> = Vec::new(); // (generator, doc)
    let mut audits: Vec<(String, Json)> = Vec::new(); // (generator, doc)
    let mut profiles: Vec<(String, Json)> = Vec::new(); // (generator, doc)
    let mut hotspots: Vec<Hotspot> = Vec::new();
    let mut unreadable: Vec<(String, String)> = Vec::new(); // (path, error)
    let mut skipped = 0usize;
    for path in &paths {
        let doc = match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|t| {
                if t.trim().is_empty() {
                    Err("empty file".to_string())
                } else {
                    Json::parse(&t).map_err(|e| e.to_string())
                }
            }) {
            Ok(d) => d,
            Err(e) => {
                if !quiet {
                    eprintln!("report: skipping {path}: {e}");
                }
                unreadable.push((path.clone(), e));
                skipped += 1;
                continue;
            }
        };
        let schema = doc
            .get("schema")
            .or_else(|| doc.get("otherData").and_then(|o| o.get("schema")))
            .and_then(Json::as_str)
            .unwrap_or("");
        let generator = doc
            .get("generator")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string();
        if schema == MANIFEST_SCHEMA {
            manifests.push((generator, doc));
        } else if schema == ATTRIB_SCHEMA {
            attributions.push((generator, doc));
        } else if schema == CYCLEAUDIT_SCHEMA {
            audits.push((generator, doc));
        } else if schema == HOSTPROFILE_SCHEMA {
            profiles.push((generator, doc));
        } else if schema == TIMELINE_SCHEMA {
            accumulate_hotspots(&doc, &mut hotspots);
        }
        // Metrics series feed Figure 13-style plots, not this report.
    }
    // Events streams live in their own scan: they are JSONL, not JSON,
    // and run_all names them *.events.jsonl so the `.json` glob above
    // never sees them.
    let mut event_paths: Vec<String> = std::fs::read_dir(&results_dir)
        .map(|iter| {
            iter.filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.to_string_lossy().ends_with(".events.jsonl"))
                .map(|p| p.to_string_lossy().into_owned())
                .collect()
        })
        .unwrap_or_default();
    event_paths.sort();
    let mut timelines: Vec<events::StreamSummary> = Vec::new();
    for path in &event_paths {
        let summary = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|t| events::parse_stream(&t))
            .and_then(|stream| events::validate_stream(&stream));
        match summary {
            Ok(s) => timelines.push(s),
            Err(e) => {
                if !quiet {
                    eprintln!("report: skipping {path}: {e}");
                }
                unreadable.push((path.clone(), e));
                skipped += 1;
            }
        }
    }
    // Canonical order, then alphabetical for strangers.
    manifests.sort_by_key(|(generator, _)| {
        let rank = ORDER
            .iter()
            .position(|(name, _)| name == generator)
            .unwrap_or(ORDER.len());
        (rank, generator.clone())
    });

    let mut md = String::new();
    md.push_str("# gvf reproduction report\n\n");
    md.push_str(
        "Collated by the `report` binary from the run manifests, probe traces, \
         and benchmark trajectory under `results/`. Regenerate with \
         `./run_all.sh` or `cargo run --release --bin report`.\n\n",
    );
    md.push_str(&format!(
        "- manifests: {} ({} file{} skipped)\n",
        manifests.len(),
        skipped,
        if skipped == 1 { "" } else { "s" }
    ));
    let total_cells: usize = manifests
        .iter()
        .filter_map(|(_, d)| d.get("cells").and_then(Json::as_arr).map(<[_]>::len))
        .sum();
    md.push_str(&format!("- grid cells: {total_cells}\n\n"));
    md.push_str(&absent_notes(&unreadable, "metrics"));
    md.push_str(&absent_notes(&unreadable, "trace"));

    md.push_str("## Results\n\n");
    md.push_str(&absent_notes(&unreadable, "manifest"));
    for (generator, doc) in &manifests {
        let title = ORDER
            .iter()
            .find(|(name, _)| name == generator)
            .map(|(_, t)| *t)
            .unwrap_or(generator.as_str());
        md.push_str(&format!("### {title}\n\n"));
        if let Some(config) = doc.get("config") {
            md.push_str(&format!(
                "Config: scale {}, iterations {}, seed {}, smoke {}.\n\n",
                config.get("scale").map(scalar).unwrap_or_default(),
                config.get("iterations").map(scalar).unwrap_or_default(),
                config.get("seed").map(scalar).unwrap_or_default(),
                config.get("smoke").map(scalar).unwrap_or_default(),
            ));
        }
        md.push_str(&cells_section(doc));
        md.push('\n');
    }

    md.push_str("## Attribution\n\n");
    md.push_str(&absent_notes(&unreadable, "attribution"));
    let mut cross_check_failures: Vec<String> = Vec::new();
    if attributions.is_empty() {
        md.push_str("No attribution documents found (run with `--attrib-out` to record).\n\n");
    } else {
        md.push_str(
            "Mechanism evidence from the `gvf.attribution` documents: the \
             allocator, lookup-walk and cache-line behaviour behind each \
             figure. Every cell's attributed per-PC transactions are \
             reconciled exactly against its manifest `Stats` counters; a \
             mismatch fails this report.\n\n",
        );
        attributions.sort_by_key(|(generator, _)| {
            let rank = ORDER
                .iter()
                .position(|(name, _)| name == generator)
                .unwrap_or(ORDER.len());
            (rank, generator.clone())
        });
        for (generator, adoc) in &attributions {
            md.push_str(&format!("### {generator}\n\n"));
            match manifests.iter().find(|(g, _)| g == generator) {
                Some((_, mdoc)) => {
                    let before = cross_check_failures.len();
                    cross_check_attribution(generator, adoc, mdoc, &mut cross_check_failures);
                    let new = &cross_check_failures[before..];
                    if new.is_empty() {
                        md.push_str(
                            "Cross-check: attributed transactions == Stats counters \
                             for every cell and tag. ✓\n\n",
                        );
                    } else {
                        md.push_str(&format!(
                            "**Cross-check FAILED** ({} mismatch{}):\n\n",
                            new.len(),
                            if new.len() == 1 { "" } else { "es" }
                        ));
                        for f in new {
                            md.push_str(&format!("- {f}\n"));
                        }
                        md.push('\n');
                    }
                }
                None => md.push_str("No matching manifest — cross-check skipped.\n\n"),
            }
            md.push_str(&attribution_section(adoc));
        }
    }

    md.push_str("## Host performance\n\n");
    md.push_str(
        "Wall-clock data from each manifest's `hostPerf` section — host-side \
         only, excluded from the determinism diff.\n\n",
    );
    let host_rows: Vec<Vec<String>> = manifests
        .iter()
        .filter_map(|(generator, doc)| host_perf_row(generator, doc))
        .collect();
    md.push_str(&markdown_table(
        &[
            "bin",
            "wall",
            "cells",
            "cells/s",
            "sim cycles/s",
            "peak RSS",
        ],
        &host_rows,
    ));
    md.push('\n');

    md.push_str("## Where the host time goes\n\n");
    md.push_str(&absent_notes(&unreadable, "host-profile"));
    if profiles.is_empty() {
        md.push_str("No host profiles found (run with `--profile-out` to write one).\n\n");
    } else {
        md.push_str(
            "Top spans by exclusive wall time from each binary's \
             `gvf.hostprofile` document, at kernel granularity: each pool \
             cell splits into its kernels' functional pass, timing replay \
             and probe absorption. Paths are `;`-joined span stacks; the \
             `collapsedStacks` member of each profile feeds flamegraph \
             tools directly. The cost of each engine layer below kernel \
             level is the benchmark's per-layer ledger \
             (`python3 perfbench/run.py --trace 1`).\n\n",
        );
        profiles.sort_by_key(|(generator, _)| {
            let rank = ORDER
                .iter()
                .position(|(name, _)| name == generator)
                .unwrap_or(ORDER.len());
            (rank, generator.clone())
        });
        for (generator, pdoc) in &profiles {
            md.push_str(&hostprofile_section(generator, pdoc));
        }
    }

    md.push_str("## Fast-forward opportunity\n\n");
    md.push_str(&absent_notes(&unreadable, "cycle-audit"));
    if audits.is_empty() {
        md.push_str("No cycle audits found (run with `--audit-out` to record).\n\n");
    } else {
        md.push_str(
            "From the `gvf.cycleaudit` documents: every simulated epoch-cycle \
             classified, per cell. `skippable` counts stalled-known plus \
             drained cycles — epochs the engine simulated but whose next \
             event was already known, so a per-SM fast-forward could skip \
             them; the speedup column is the resulting upper bound \
             (1 / (1 − fraction)). Each audit is reconciled exactly against \
             its manifest: classes must sum to sms × auditedCycles and \
             auditedCycles must equal the cell's Stats cycles; a mismatch \
             fails this report.\n\n",
        );
        audits.sort_by_key(|(generator, _)| {
            let rank = ORDER
                .iter()
                .position(|(name, _)| name == generator)
                .unwrap_or(ORDER.len());
            (rank, generator.clone())
        });
        for (generator, adoc) in &audits {
            md.push_str(&format!("### {generator}\n\n"));
            match manifests.iter().find(|(g, _)| g == generator) {
                Some((_, mdoc)) => {
                    let before = cross_check_failures.len();
                    cross_check_audit(generator, adoc, mdoc, &mut cross_check_failures);
                    let new = &cross_check_failures[before..];
                    if new.is_empty() {
                        md.push_str(
                            "Cross-check: classes sum to sms × auditedCycles == Stats \
                             cycles for every cell. ✓\n\n",
                        );
                    } else {
                        md.push_str(&format!(
                            "**Cross-check FAILED** ({} mismatch{}):\n\n",
                            new.len(),
                            if new.len() == 1 { "" } else { "es" }
                        ));
                        for f in new {
                            md.push_str(&format!("- {f}\n"));
                        }
                        md.push('\n');
                    }
                }
                None => md.push_str("No matching manifest — cross-check skipped.\n\n"),
            }
            md.push_str(&audit_section(adoc));
        }
    }

    md.push_str("## Stall hotspots\n\n");
    if hotspots.is_empty() {
        md.push_str("No probe traces found (run with `--trace-out` to record).\n\n");
    } else {
        md.push_str(
            "Top program counters by total stall cycles, aggregated from the \
             probe timelines' `stall` slices.\n\n",
        );
        hotspots.sort_by(|(ka, (_, da)), (kb, (_, db))| db.cmp(da).then(ka.cmp(kb)));
        let rows: Vec<Vec<String>> = hotspots
            .iter()
            .take(10)
            .map(|((pc, cause), (count, total))| {
                vec![
                    format!("0x{pc:04x}"),
                    cause.clone(),
                    count.to_string(),
                    total.to_string(),
                ]
            })
            .collect();
        md.push_str(&markdown_table(
            &["PC", "cause", "stalls", "total cycles"],
            &rows,
        ));
        md.push('\n');
    }

    md.push_str("## Run timeline\n\n");
    md.push_str(&absent_notes(&unreadable, "events"));
    if timelines.is_empty() {
        md.push_str("No telemetry streams found (run with `--events-out` to record).\n\n");
    } else {
        md.push_str(
            "From the `gvf.events` telemetry streams: how each run actually \
             unfolded — per-sweep cell outcomes, wall time, and worker \
             occupancy (each worker's busy time over the sweep's wall time). \
             Wall-clock data, excluded from the determinism diff.\n\n",
        );
        timelines.sort_by_key(|s| {
            let rank = ORDER
                .iter()
                .position(|(name, _)| *name == s.bin)
                .unwrap_or(ORDER.len());
            (rank, s.bin.clone())
        });
        let mut rows: Vec<Vec<String>> = Vec::new();
        for run in &timelines {
            for sweep in &run.sweeps {
                let occupancy = match sweep.wall_ms.filter(|w| *w > 0) {
                    Some(wall) => sweep
                        .worker_busy_ms
                        .values()
                        .map(|busy| format!("{:.0}%", (*busy as f64 / wall as f64) * 100.0))
                        .collect::<Vec<_>>()
                        .join(" "),
                    None => "-".into(),
                };
                rows.push(vec![
                    run.bin.clone(),
                    sweep.label.clone(),
                    sweep.total.to_string(),
                    sweep.finished.len().to_string(),
                    sweep.cached.len().to_string(),
                    sweep.failed.len().to_string(),
                    sweep
                        .wall_ms
                        .map(|w| format!("{:.2} s", w as f64 / 1000.0))
                        .unwrap_or_else(|| "interrupted".into()),
                    occupancy,
                    sweep.stalls.to_string(),
                ]);
            }
        }
        md.push_str(&markdown_table(
            &[
                "bin",
                "sweep",
                "cells",
                "simulated",
                "cached",
                "failed",
                "wall",
                "worker occupancy",
                "stalls",
            ],
            &rows,
        ));
        md.push('\n');
    }

    md.push_str("## Benchmark trajectory\n\n");
    match History::load(&history_path) {
        Ok(history) if !history.entries.is_empty() => {
            md.push_str(&format!(
                "Last {} of {} benchmark run records in `{}` (CPU-clock \
                 metrics from `perfbench/run.py`; blank where a run does \
                 not report the metric).\n\n",
                history.entries.len().min(20),
                history.entries.len(),
                history_path
            ));
            let tail = &history.entries[history.entries.len().saturating_sub(20)..];
            let rows: Vec<Vec<String>> = tail
                .iter()
                .map(|e| {
                    let metric = |name| e.record.metric(name).map(fmt_num).unwrap_or_default();
                    vec![
                        e.date.clone(),
                        e.rev.clone(),
                        e.record.workload().to_string(),
                        metric("cpu_s"),
                        metric("engine.ns_per_instr"),
                        metric("kernel.ns_per_instr"),
                    ]
                })
                .collect();
            md.push_str(&markdown_table(
                &[
                    "date",
                    "rev",
                    "workload",
                    "cpu_s",
                    "engine.ns_per_instr",
                    "kernel.ns_per_instr",
                ],
                &rows,
            ));
            md.push('\n');
        }
        Ok(_) => {
            md.push_str(&format!(
                "No trajectory yet — `perf_record` appends to `{history_path}`.\n\n"
            ));
        }
        Err(e) => {
            eprintln!("report: trajectory unreadable: {e}");
            md.push_str(&format!("Trajectory unreadable: {e}\n\n"));
        }
    }

    if let Err(e) = std::fs::write(&out_path, md.as_bytes()) {
        eprintln!("report: {out_path}: {e}");
        std::process::exit(1);
    }
    if !quiet {
        eprintln!(
            "report: wrote {out_path} ({} manifests, {} attribution docs, {} audits, \
             {} profiles, {} hotspot keys)",
            manifests.len(),
            attributions.len(),
            audits.len(),
            profiles.len(),
            hotspots.len()
        );
    }
    if !cross_check_failures.is_empty() {
        // The hard invariants: per-PC attribution and the cycle audit
        // must reconcile exactly with the Stats counters. A mismatch
        // means a probe lost or double-counted evidence — fail the
        // report.
        for f in &cross_check_failures {
            eprintln!("report: cross-check: {f}");
        }
        std::process::exit(1);
    }
}
