//! Artifact validator: parses each given file with the in-repo JSON
//! reader and checks its schema header, so CI (and `run_all.sh`) can
//! prove every emitted artifact round-trips through the same parser a
//! downstream consumer would use.
//!
//! Usage:
//!
//! - `validate_json FILE...` — exits non-zero on the first file that
//!   fails to parse or carries an unknown/missing schema. Chrome traces
//!   (`gvf.timeline`) keep their schema under `otherData`, the
//!   manifest, metrics, and trajectory documents at top level.
//!   `gvf.events` telemetry streams are JSONL, recognized by their
//!   `runStart` first line, and validated against the full lifecycle
//!   invariants (see [`gvf_bench::events::validate_stream`]).
//! - `validate_json --det-diff A B` — the determinism comparison: both
//!   manifests must parse, and must be **identical after stripping the
//!   `hostPerf` section** (the one intentionally wall-clock-dependent
//!   part of a manifest). This is what CI runs on the serial-vs-parallel
//!   pair instead of a raw byte diff.
//! - `validate_json --events-reconcile EVENTS MANIFEST` — lifecycle
//!   reconciliation: the events stream must validate, and its cell
//!   outcomes must match the run manifest one-to-one (every cell
//!   exactly once; failed index sets equal; cache-hit counts agreeing
//!   with `hostPerf.cellCache`).
//! - `validate_json --list-schemas` — prints every schema id + version
//!   this validator knows (the [`gvf_bench::schemas`] registry), one
//!   `id vN` pair per line. `gvf.rundiff` run-comparison artifacts are
//!   checked via [`gvf_bench::rundiff::check_doc`]: header, per-run
//!   internal consistency (clean flags vs diff lists), and summary
//!   recomputation.
//!
//! For `gvf.attribution` documents the structural check goes beyond the
//! header: for every cell that carries attribution, the per-PC
//! transaction sums must equal the per-tag totals, and the per-tag
//! totals must equal the cell's copied `Stats` load-transaction
//! counters — the profiler's hard cross-check invariant, verifiable
//! from the document alone. `gvf.cycleaudit` documents get the audit's
//! equivalent: the six epoch classes must sum to `sms × auditedCycles`
//! exactly, and `auditedCycles` must equal the cell's copied `Stats`
//! cycle counter. `gvf.cellcache` v3 entries must carry their key
//! material (sim, strategy, config), a model fingerprint, a matching
//! content hash and a decodable result (see
//! [`gvf_bench::cellcache::verify_entry`]).

use gvf_bench::bench_history::TRAJECTORY_SCHEMA;
use gvf_bench::cellcache::{self, CELLCACHE_SCHEMA};
use gvf_bench::events::{self, EVENTS_SCHEMA};
use gvf_bench::hostperf::HOSTPERF_SCHEMA;
use gvf_bench::json::Json;
use gvf_bench::manifest::{
    strip_host_perf, ATTRIB_SCHEMA, CYCLEAUDIT_SCHEMA, HOSTPROFILE_SCHEMA, MANIFEST_SCHEMA,
    MANIFEST_SCHEMA_VERSION, METRICS_SCHEMA,
};
use gvf_bench::{rundiff, schemas};
use gvf_sim::TIMELINE_SCHEMA;

/// Returns the document's schema identifier, looking both at the top
/// level (manifest, metrics, trajectory) and under `otherData` (Chrome
/// trace).
fn schema_of(doc: &Json) -> Option<&str> {
    doc.get("schema")
        .or_else(|| doc.get("otherData").and_then(|o| o.get("schema")))
        .and_then(Json::as_str)
}

/// Structural spot-checks per schema, beyond "it parses".
fn check(doc: &Json, schema: &str) -> Result<(), String> {
    let arr_len = |key: &str| doc.get(key).and_then(Json::as_arr).map(<[_]>::len);
    match schema {
        MANIFEST_SCHEMA => {
            // v1 manifests (pre fault isolation) stay valid; v2 adds
            // `"status": "failed"` entries, which are checked below.
            let version = doc.get("version").and_then(Json::as_num).unwrap_or(0.0) as u32;
            if version == 0 || version > MANIFEST_SCHEMA_VERSION {
                return Err(format!(
                    "manifest version {version} (validator knows 1..={MANIFEST_SCHEMA_VERSION})"
                ));
            }
            let cells = doc
                .get("cells")
                .and_then(Json::as_arr)
                .ok_or("manifest without a cells array")?;
            if cells.is_empty() {
                return Err("manifest with zero cells".into());
            }
            for (i, cell) in cells.iter().enumerate() {
                match cell.get("status").and_then(Json::as_str) {
                    None | Some("ok") => {}
                    Some("failed") => {
                        if version < 2 {
                            return Err(format!("cell {i}: failed entry in a v{version} manifest"));
                        }
                        for key in ["index", "panic", "configFingerprint"] {
                            cell.get(key)
                                .ok_or(format!("failed cell {i} without {key:?}"))?;
                        }
                    }
                    Some(other) => {
                        return Err(format!("cell {i}: unknown status {other:?}"));
                    }
                }
            }
            doc.get("config")
                .ok_or("manifest without a config section")?;
            let host = doc
                .get("hostPerf")
                .ok_or("manifest without a hostPerf section")?;
            if host.get("schema").and_then(Json::as_str) != Some(HOSTPERF_SCHEMA) {
                return Err(format!("hostPerf section is not {HOSTPERF_SCHEMA:?}"));
            }
            host.get("throughput")
                .ok_or("hostPerf without a throughput section")?;
            Ok(())
        }
        METRICS_SCHEMA => {
            arr_len("kernels").ok_or("metrics without a kernels array")?;
            Ok(())
        }
        ATTRIB_SCHEMA => {
            let cells = doc
                .get("cells")
                .and_then(Json::as_arr)
                .ok_or("attribution without a cells array")?;
            if cells.is_empty() {
                return Err("attribution with zero cells".into());
            }
            doc.get("config")
                .ok_or("attribution without a config section")?;
            for (i, cell) in cells.iter().enumerate() {
                check_attrib_cell(cell).map_err(|e| format!("cell {i}: {e}"))?;
            }
            Ok(())
        }
        CYCLEAUDIT_SCHEMA => {
            let cells = doc
                .get("cells")
                .and_then(Json::as_arr)
                .ok_or("cycle audit without a cells array")?;
            if cells.is_empty() {
                return Err("cycle audit with zero cells".into());
            }
            doc.get("config")
                .ok_or("cycle audit without a config section")?;
            for (i, cell) in cells.iter().enumerate() {
                check_audit_cell(cell).map_err(|e| format!("cell {i}: {e}"))?;
            }
            Ok(())
        }
        HOSTPROFILE_SCHEMA => {
            let spans = doc
                .get("spans")
                .and_then(Json::as_arr)
                .ok_or("host profile without a spans array")?;
            doc.get("collapsedStacks")
                .and_then(Json::as_str)
                .ok_or("host profile without collapsedStacks text")?;
            for (i, s) in spans.iter().enumerate() {
                for key in ["path", "count", "totalNs", "exclusiveNs"] {
                    s.get(key).ok_or(format!("span {i} without {key:?}"))?;
                }
            }
            Ok(())
        }
        TIMELINE_SCHEMA => {
            arr_len("traceEvents").ok_or("trace without a traceEvents array")?;
            Ok(())
        }
        CELLCACHE_SCHEMA => cellcache::verify_entry(doc).map(|_| ()),
        EVENTS_SCHEMA => {
            // Reached only for a one-object file: a real stream is
            // JSONL and is detected before whole-file parsing.
            events::validate_stream(std::slice::from_ref(doc)).map(|_| ())
        }
        TRAJECTORY_SCHEMA => gvf_bench::bench_history::History::from_json(doc).map(|_| ()),
        s if s == schemas::RUNDIFF.id => rundiff::check_doc(doc),
        other => Err(format!("unknown schema {other:?}")),
    }
}

/// The attribution invariants checkable from the document alone: for
/// every tag, `sum(per_pc.transactions) == by_tag.transactions ==
/// stats_load_transactions[tag]` (and the same join for instructions,
/// lanes and hits between per_pc and by_tag).
fn check_attrib_cell(cell: &Json) -> Result<(), String> {
    let attrib = cell.get("attribution").ok_or("no attribution member")?;
    if *attrib == Json::Null {
        return Ok(()); // cell ran without attribution recording
    }
    let loads = attrib
        .get("probe")
        .and_then(|p| p.get("loads"))
        .ok_or("attribution without probe.loads")?;
    let per_pc = loads
        .get("per_pc")
        .and_then(Json::as_arr)
        .ok_or("loads without per_pc array")?;
    let by_tag = match loads.get("by_tag") {
        Some(Json::Obj(members)) => members,
        _ => return Err("loads without by_tag object".into()),
    };
    let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_num).unwrap_or(0.0) as u64;
    for (tag, totals) in by_tag {
        let mut sums = [0u64; 4];
        for pc in per_pc {
            if pc.get("tag").and_then(Json::as_str) == Some(tag) {
                for (i, k) in ["instructions", "lanes", "transactions", "l1_hits"]
                    .iter()
                    .enumerate()
                {
                    sums[i] += field(pc, k);
                }
            }
        }
        for (i, k) in ["instructions", "lanes", "transactions", "l1_hits"]
            .iter()
            .enumerate()
        {
            if sums[i] != field(totals, k) {
                return Err(format!(
                    "tag {tag:?}: per_pc {k} sum {} != by_tag total {}",
                    sums[i],
                    field(totals, k)
                ));
            }
        }
        let counted = cell
            .get("stats_load_transactions")
            .and_then(|l| l.get(tag))
            .and_then(Json::as_num)
            .ok_or_else(|| format!("tag {tag:?}: no stats_load_transactions entry"))?
            as u64;
        if sums[2] != counted {
            return Err(format!(
                "tag {tag:?}: attributed transactions {} != Stats counter {counted}",
                sums[2]
            ));
        }
    }
    Ok(())
}

/// The cycle-audit invariants checkable from the document alone: the
/// six epoch classes sum to `sms × auditedCycles` exactly (every
/// simulated cycle of every audited SM is accounted for, once), and
/// `auditedCycles` equals the cell's copied `Stats` cycle counter.
fn check_audit_cell(cell: &Json) -> Result<(), String> {
    let audit = cell.get("audit").ok_or("no audit member")?;
    if *audit == Json::Null {
        return Ok(()); // cell ran without audit recording
    }
    let num = |v: &Json, k: &str| {
        v.get(k)
            .and_then(Json::as_num)
            .map(|n| n as u64)
            .ok_or(format!("audit without {k:?}"))
    };
    let sms = num(audit, "sms")?;
    let audited = num(audit, "auditedCycles")?;
    let classes = audit.get("classes").ok_or("audit without classes")?;
    let mut sum = 0u64;
    for k in gvf_sim::CYCLE_CLASS_LABELS {
        sum += num(classes, k)?;
    }
    if sum != sms * audited {
        return Err(format!(
            "classes sum {sum} != sms {sms} × auditedCycles {audited} = {}",
            sms * audited
        ));
    }
    let stats_cycles = cell
        .get("statsCycles")
        .and_then(Json::as_num)
        .ok_or("cell without statsCycles")? as u64;
    if audited != stats_cycles {
        return Err(format!(
            "auditedCycles {audited} != Stats cycle counter {stats_cycles}"
        ));
    }
    audit
        .get("fastForward")
        .ok_or("audit without fastForward")?;
    Ok(())
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("unreadable: {e}"))?;
    Json::parse(&text).map_err(|e| format!("parse error: {e}"))
}

/// Whether this file is a `gvf.events` JSONL stream: its first line is
/// a JSON object claiming the events schema (whole-file parsing would
/// reject JSONL, so streams are detected before [`load`]).
fn is_events_stream(text: &str) -> bool {
    text.lines()
        .find(|l| !l.trim().is_empty())
        .and_then(|l| Json::parse(l).ok())
        .map(|e| e.get("schema").and_then(Json::as_str) == Some(EVENTS_SCHEMA))
        .unwrap_or(false)
}

/// Full events-stream validation: parse each line, check the lifecycle
/// invariants.
fn check_events(text: &str) -> Result<events::StreamSummary, String> {
    let stream = events::parse_stream(text)?;
    events::validate_stream(&stream)
}

/// `--events-reconcile EVENTS MANIFEST`: the stream validates and its
/// cell outcomes match the manifest one-to-one.
fn events_reconcile(events_path: &str, manifest_path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(events_path)
        .map_err(|e| format!("{events_path}: unreadable: {e}"))?;
    let summary = check_events(&text).map_err(|e| format!("{events_path}: {e}"))?;
    let manifest = load(manifest_path).map_err(|e| format!("{manifest_path}: {e}"))?;
    if schema_of(&manifest) != Some(MANIFEST_SCHEMA) {
        return Err(format!(
            "{manifest_path}: not a {MANIFEST_SCHEMA:?} document"
        ));
    }
    events::reconcile(&summary, &manifest)
}

/// `--det-diff A B`: equality of the two manifests' determinism views.
fn det_diff(a_path: &str, b_path: &str) -> Result<(), String> {
    let a = load(a_path).map_err(|e| format!("{a_path}: {e}"))?;
    let b = load(b_path).map_err(|e| format!("{b_path}: {e}"))?;
    for (path, doc) in [(a_path, &a), (b_path, &b)] {
        if schema_of(doc) != Some(MANIFEST_SCHEMA) {
            return Err(format!("{path}: not a {MANIFEST_SCHEMA:?} document"));
        }
    }
    let a_view = strip_host_perf(&a).render();
    let b_view = strip_host_perf(&b).render();
    if a_view != b_view {
        // Point at the first differing line so the CI log is actionable.
        let line = a_view
            .lines()
            .zip(b_view.lines())
            .position(|(x, y)| x != y)
            .map(|i| i + 1)
            .unwrap_or_else(|| a_view.lines().count().min(b_view.lines().count()) + 1);
        return Err(format!(
            "determinism views differ (first difference at line {line})"
        ));
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--list-schemas") {
        for s in schemas::ALL {
            println!("{} v{}", s.id, s.version);
        }
        return;
    }
    if args.first().map(String::as_str) == Some("--det-diff") {
        match &args[1..] {
            [a, b] => match det_diff(a, b) {
                Ok(()) => {
                    println!("{a} == {b} (modulo hostPerf): ok");
                }
                Err(msg) => {
                    eprintln!("det-diff: {msg}");
                    std::process::exit(1);
                }
            },
            _ => {
                eprintln!("usage: validate_json --det-diff A B");
                std::process::exit(2);
            }
        }
        return;
    }
    if args.first().map(String::as_str) == Some("--events-reconcile") {
        match &args[1..] {
            [ev, mf] => match events_reconcile(ev, mf) {
                Ok(()) => {
                    println!("{ev} reconciles with {mf}: ok");
                }
                Err(msg) => {
                    eprintln!("events-reconcile: {msg}");
                    std::process::exit(1);
                }
            },
            _ => {
                eprintln!("usage: validate_json --events-reconcile EVENTS MANIFEST");
                std::process::exit(2);
            }
        }
        return;
    }
    if args.is_empty() {
        eprintln!(
            "usage: validate_json FILE... | validate_json --det-diff A B | \
             validate_json --events-reconcile EVENTS MANIFEST | validate_json --list-schemas"
        );
        std::process::exit(2);
    }
    for path in &args {
        let fail = |msg: &str| -> ! {
            eprintln!("{path}: INVALID — {msg}");
            std::process::exit(1);
        };
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => fail(&format!("unreadable: {e}")),
        };
        if is_events_stream(&text) {
            if let Err(msg) = check_events(&text) {
                fail(&msg);
            }
            println!("{path}: ok ({EVENTS_SCHEMA})");
            continue;
        }
        let doc = match Json::parse(&text) {
            Ok(d) => d,
            Err(e) => fail(&format!("parse error: {e}")),
        };
        let schema = match schema_of(&doc) {
            Some(s) => s.to_string(),
            None => fail("no schema header"),
        };
        if let Err(msg) = check(&doc, &schema) {
            fail(&msg);
        }
        println!("{path}: ok ({schema})");
    }
}
