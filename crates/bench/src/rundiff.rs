//! Run comparison: explain what changed between two result trees.
//!
//! The harness's artifacts say everything about *one* run; this module
//! says what differs between *two* — the observability a hot-path
//! rewrite or a perf regression actually needs. [`load_tree`] reads a
//! result tree (a directory of artifacts, or one manifest file plus its
//! siblings), [`diff_trees`] pairs runs by generator and cells by their
//! grid coordinates, and the emitted `gvf.rundiff` v1 document
//! classifies every delta into three families:
//!
//! - **semantic drift** — any [`gvf_sim::Stats`] / attribution /
//!   cycle-audit counter difference, reported with the exact counter
//!   path (`cells[3].stats.l1_hits`) and a per-(PC, AccessTag) offender
//!   list from the attribution evidence. During a timing-engine rewrite
//!   this section must be *empty*: the simulation is deterministic, so
//!   any entry here is a behavior change, not noise.
//! - **performance drift** — wall-clock movement attributed by aligning
//!   the two runs' span profiles ([`gvf_sim::align_exclusive`]: per-path
//!   exclusive-time deltas, top-K movers), stall-cause mix shifts from
//!   the cycle audit, and cache-hit-rate movements from attribution.
//! - **coverage drift** — cells added / removed / failed / cache-hit on
//!   one side only, cross-checked against both `gvf.events` streams.
//!
//! Determinism contract: the document contains ratios and deltas, never
//! absolute wall-clock values at stable positions, and every
//! performance list is threshold-gated. Diffing a tree against itself
//! therefore renders byte-identically no matter which `--jobs` value
//! produced the tree — CI's A/A gate holds `diffrun` to that.

use crate::json::Json;
use crate::schemas;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Span movers listed per run pair, by descending |exclusive delta|.
pub const TOP_MOVERS: usize = 8;
/// Minimum |exclusive-time delta| (ns) for a span to count as a mover —
/// gates scheduling jitter out of the A/A self-diff.
pub const SPAN_MOVER_MIN_NS: u64 = 100_000;
/// Minimum |stall-class fraction shift| worth reporting.
pub const STALL_SHIFT_MIN: f64 = 0.001;
/// Minimum |L1 hit-rate movement| worth reporting.
pub const HIT_RATE_MOVE_MIN: f64 = 0.0005;
/// Cap per diff list in the document; `truncated` counts the overflow
/// (clean verdicts always count *all* diffs, truncated or not).
pub const MAX_DIFFS_PER_LIST: usize = 64;

/// The artifact set of one run: the manifest plus whichever optional
/// evidence documents the tree carried for the same generator.
#[derive(Clone, Debug)]
pub struct RunArtifacts {
    /// Generator name (the manifest's `generator` member).
    pub generator: String,
    /// The `gvf.run-manifest` document.
    pub manifest: Json,
    /// The `gvf.attribution` document, when present.
    pub attribution: Option<Json>,
    /// The `gvf.cycleaudit` document, when present.
    pub audit: Option<Json>,
    /// The `gvf.hostprofile` document, when present.
    pub profile: Option<Json>,
    /// Validated `gvf.events` stream summary, when present.
    pub events: Option<crate::events::StreamSummary>,
}

/// One side of a comparison: every run loaded from a result tree.
#[derive(Clone, Debug, Default)]
pub struct RunTree {
    /// Runs sorted by generator name.
    pub runs: Vec<RunArtifacts>,
}

/// Loads a result tree for one side of a diff. `path` is either a
/// directory — every `*.json` artifact is classified by its `schema`
/// member, every `*.events.jsonl` stream is validated and keyed by its
/// `runStart` bin — or a single manifest file, whose siblings
/// (`X.attrib.json`, `X.audit.json`, `X.profile.json`,
/// `X.events.jsonl` for manifest `X.json`) are picked up when present.
/// Unreadable or torn artifacts are hard errors: a differ that silently
/// drops evidence would report clean diffs that aren't.
pub fn load_tree(path: &str) -> Result<RunTree, String> {
    let meta = std::fs::metadata(path).map_err(|e| format!("{path}: {e}"))?;
    if meta.is_dir() {
        load_dir(path)
    } else {
        load_single(path)
    }
}

fn read_doc(path: &std::path::Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn load_dir(dir: &str) -> Result<RunTree, String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map_err(|e| format!("{dir}: {e}"))?
        .filter_map(|e| e.ok())
        .filter(|e| e.file_type().map(|t| t.is_file()).unwrap_or(false))
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    let mut manifests: Vec<(String, Json)> = Vec::new();
    let mut attribs: BTreeMap<String, Json> = BTreeMap::new();
    let mut audits: BTreeMap<String, Json> = BTreeMap::new();
    let mut profiles: BTreeMap<String, Json> = BTreeMap::new();
    let mut events: BTreeMap<String, crate::events::StreamSummary> = BTreeMap::new();
    for name in &names {
        let path = std::path::Path::new(dir).join(name);
        if name.ends_with(".events.jsonl") {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let evs = crate::events::parse_stream(&text)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            let summary = crate::events::validate_stream(&evs)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            events.insert(summary.bin.clone(), summary);
            continue;
        }
        if !name.ends_with(".json") {
            continue;
        }
        let doc = read_doc(&path)?;
        let generator = doc
            .get("generator")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        let schema = doc.get("schema").and_then(Json::as_str).unwrap_or_default();
        let dest = if schema == schemas::RUN_MANIFEST.id {
            if manifests.iter().any(|(g, _)| *g == generator) {
                return Err(format!(
                    "{dir}: two manifests claim generator {generator:?}"
                ));
            }
            manifests.push((generator, doc));
            continue;
        } else if schema == schemas::ATTRIBUTION.id {
            &mut attribs
        } else if schema == schemas::CYCLEAUDIT.id {
            &mut audits
        } else if schema == schemas::HOSTPROFILE.id {
            &mut profiles
        } else {
            // Metrics, timelines, trajectories, earlier rundiffs, …:
            // per-run evidence the diff doesn't consume.
            continue;
        };
        dest.insert(generator, doc);
    }
    if manifests.is_empty() {
        return Err(format!("{dir}: no run manifests found"));
    }
    manifests.sort_by(|a, b| a.0.cmp(&b.0));
    let runs = manifests
        .into_iter()
        .map(|(generator, manifest)| RunArtifacts {
            attribution: attribs.get(&generator).cloned(),
            audit: audits.get(&generator).cloned(),
            profile: profiles.get(&generator).cloned(),
            events: events.get(&generator).cloned(),
            generator,
            manifest,
        })
        .collect();
    Ok(RunTree { runs })
}

fn load_single(file: &str) -> Result<RunTree, String> {
    let manifest = read_doc(std::path::Path::new(file))?;
    if manifest.get("schema").and_then(Json::as_str) != Some(schemas::RUN_MANIFEST.id) {
        return Err(format!(
            "{file}: not a {} document",
            schemas::RUN_MANIFEST.id
        ));
    }
    let generator = manifest
        .get("generator")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string();
    let stem = file.strip_suffix(".json").unwrap_or(file);
    let optional = |suffix: &str| -> Result<Option<Json>, String> {
        let p = format!("{stem}{suffix}");
        if std::path::Path::new(&p).is_file() {
            read_doc(std::path::Path::new(&p)).map(Some)
        } else {
            Ok(None)
        }
    };
    let events_path = format!("{stem}.events.jsonl");
    let events = if std::path::Path::new(&events_path).is_file() {
        let text =
            std::fs::read_to_string(&events_path).map_err(|e| format!("{events_path}: {e}"))?;
        let evs = crate::events::parse_stream(&text).map_err(|e| format!("{events_path}: {e}"))?;
        Some(crate::events::validate_stream(&evs).map_err(|e| format!("{events_path}: {e}"))?)
    } else {
        None
    };
    Ok(RunTree {
        runs: vec![RunArtifacts {
            generator,
            manifest,
            attribution: optional(".attrib.json")?,
            audit: optional(".audit.json")?,
            profile: optional(".profile.json")?,
            events,
        }],
    })
}

// ---------------------------------------------------------------------
// Value diffing

fn json_eq(a: &Json, b: &Json) -> bool {
    a.render_compact() == b.render_compact()
}

/// Recursively diffs two values, recording `(path, baseline, current)`
/// for every leaf that differs. Objects diff over the union of keys
/// (one-sided members diff against `null`); arrays diff their common
/// prefix plus a `.length` marker when the lengths differ.
fn diff_value(path: &str, a: &Json, b: &Json, out: &mut Vec<(String, Json, Json)>) {
    match (a, b) {
        (Json::Obj(members_a), Json::Obj(members_b)) => {
            for (k, va) in members_a {
                match b.get(k) {
                    Some(vb) => diff_value(&format!("{path}.{k}"), va, vb, out),
                    None => out.push((format!("{path}.{k}"), va.clone(), Json::Null)),
                }
            }
            for (k, vb) in members_b {
                if a.get(k).is_none() {
                    out.push((format!("{path}.{k}"), Json::Null, vb.clone()));
                }
            }
        }
        (Json::Arr(items_a), Json::Arr(items_b)) => {
            if items_a.len() != items_b.len() {
                out.push((
                    format!("{path}.length"),
                    Json::num_u64(items_a.len() as u64),
                    Json::num_u64(items_b.len() as u64),
                ));
            }
            for (i, (va, vb)) in items_a.iter().zip(items_b).enumerate() {
                diff_value(&format!("{path}[{i}]"), va, vb, out);
            }
        }
        _ => {
            if !json_eq(a, b) {
                out.push((path.to_string(), a.clone(), b.clone()));
            }
        }
    }
}

/// A deep copy of `v` with every member named `name` removed, at any
/// depth — used to diff attribution cells minus their `per_pc` tables
/// (which get the dedicated offender alignment instead).
fn without_member(v: &Json, name: &str) -> Json {
    match v {
        Json::Obj(members) => Json::Obj(
            members
                .iter()
                .filter(|(k, _)| k != name)
                .map(|(k, val)| (k.clone(), without_member(val, name)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(|x| without_member(x, name)).collect()),
        other => other.clone(),
    }
}

// ---------------------------------------------------------------------
// Cell pairing

/// Members that are measurements or per-run bookkeeping rather than
/// grid coordinates; everything else identifies the cell.
const NON_COORDINATE_MEMBERS: &[&str] = &[
    "stats",
    "derived",
    "status",
    "panic",
    "configFingerprint",
    "worker",
    "queueWaitMs",
    "flightRecorder",
    "stats_load_transactions",
    "attribution",
    "statsCycles",
    "audit",
];

/// A cell's pairing key: the compact rendering of its coordinate
/// members. Cells from the same grid agree on it regardless of which
/// artifact family (manifest / attribution / audit) they came from.
fn cell_key(cell: &Json) -> String {
    let mut key = Json::obj();
    if let Json::Obj(members) = cell {
        for (k, v) in members {
            if !NON_COORDINATE_MEMBERS.contains(&k.as_str()) {
                key.set(k, v.clone());
            }
        }
    }
    key.render_compact()
}

/// Cells of a document keyed for pairing, in document order; duplicate
/// coordinates (shouldn't happen, but a differ must not lie if they do)
/// get a `#n` occurrence suffix so pairing stays positional among
/// duplicates.
fn keyed_cells(doc: &Json) -> Vec<(String, usize, Json)> {
    let mut seen: BTreeMap<String, usize> = BTreeMap::new();
    let mut out = Vec::new();
    if let Some(cells) = doc.get("cells").and_then(Json::as_arr) {
        for (i, cell) in cells.iter().enumerate() {
            let base = cell_key(cell);
            let n = seen.entry(base.clone()).or_insert(0);
            let key = if *n == 0 {
                base.clone()
            } else {
                format!("{base}#{n}")
            };
            *n += 1;
            out.push((key, i, cell.clone()));
        }
    }
    out
}

fn pair_cells<'a>(
    baseline: &'a [(String, usize, Json)],
    current: &'a [(String, usize, Json)],
) -> Vec<(&'a str, usize, &'a Json, usize, &'a Json)> {
    let index: BTreeMap<&str, (usize, &Json)> = current
        .iter()
        .map(|(k, i, c)| (k.as_str(), (*i, c)))
        .collect();
    baseline
        .iter()
        .filter_map(|(k, bi, bc)| {
            index
                .get(k.as_str())
                .map(|(ci, cc)| (k.as_str(), *bi, bc, *ci, *cc))
        })
        .collect()
}

fn is_failed(cell: &Json) -> bool {
    cell.get("status").and_then(Json::as_str) == Some("failed")
}

// ---------------------------------------------------------------------
// Read-back helpers over the artifact documents

/// `(path, exclusiveNs)` rows of a `gvf.hostprofile` document.
fn profile_spans(doc: &Json) -> Vec<(String, u64)> {
    doc.get("spans")
        .and_then(Json::as_arr)
        .map(|rows| {
            rows.iter()
                .filter_map(|r| {
                    let path = r.get("path").and_then(Json::as_str)?;
                    let ns = r.get("exclusiveNs").and_then(Json::as_num)?;
                    Some((path.to_string(), ns as u64))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Six-class cycle totals summed over every cell of a `gvf.cycleaudit`
/// document, in [`gvf_sim::CYCLE_CLASS_LABELS`] order.
fn audit_class_sums(doc: &Json) -> [u64; 6] {
    let mut sums = [0u64; 6];
    if let Some(cells) = doc.get("cells").and_then(Json::as_arr) {
        for cell in cells {
            let Some(classes) = cell.get("audit").and_then(|a| a.get("classes")) else {
                continue;
            };
            for (slot, label) in gvf_sim::CYCLE_CLASS_LABELS.iter().enumerate() {
                sums[slot] += classes.get(label).and_then(Json::as_num).unwrap_or(0.0) as u64;
            }
        }
    }
    sums
}

/// Per-tag `(transactions, l1_hits)` summed over every cell of a
/// `gvf.attribution` document, keyed by tag label.
fn attrib_tag_totals(doc: &Json) -> BTreeMap<String, (u64, u64)> {
    let mut totals: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    if let Some(cells) = doc.get("cells").and_then(Json::as_arr) {
        for cell in cells {
            let Some(Json::Obj(tags)) = cell
                .get("attribution")
                .and_then(|a| a.get("probe"))
                .and_then(|p| p.get("loads"))
                .and_then(|l| l.get("by_tag"))
            else {
                continue;
            };
            for (tag, entry) in tags {
                let txns = entry
                    .get("transactions")
                    .and_then(Json::as_num)
                    .unwrap_or(0.0);
                let hits = entry.get("l1_hits").and_then(Json::as_num).unwrap_or(0.0);
                let t = totals.entry(tag.clone()).or_default();
                t.0 += txns as u64;
                t.1 += hits as u64;
            }
        }
    }
    totals
}

/// The per-(PC, tag) load table of one attribution cell.
fn per_pc_map(cell: &Json) -> BTreeMap<(u64, String), [u64; 4]> {
    let mut m = BTreeMap::new();
    let Some(rows) = cell
        .get("attribution")
        .and_then(|a| a.get("probe"))
        .and_then(|p| p.get("loads"))
        .and_then(|l| l.get("per_pc"))
        .and_then(Json::as_arr)
    else {
        return m;
    };
    for r in rows {
        let pc = r.get("pc").and_then(Json::as_num).unwrap_or(0.0) as u64;
        let tag = r
            .get("tag")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        let mut fields = [0u64; 4];
        for (slot, name) in PC_FIELDS.iter().enumerate() {
            fields[slot] = r.get(name).and_then(Json::as_num).unwrap_or(0.0) as u64;
        }
        m.insert((pc, tag), fields);
    }
    m
}

const PC_FIELDS: [&str; 4] = ["instructions", "lanes", "transactions", "l1_hits"];

fn ratio_json(baseline: f64, current: f64) -> Json {
    if baseline == 0.0 {
        if current == 0.0 {
            Json::Num(1.0)
        } else {
            Json::Null
        }
    } else {
        Json::Num(current / baseline)
    }
}

fn host_num(manifest: &Json, path: &[&str]) -> Option<f64> {
    let mut v = manifest.get("hostPerf")?;
    for p in path {
        v = v.get(p)?;
    }
    v.as_num()
}

// ---------------------------------------------------------------------
// The diff itself

struct DiffList {
    entries: Vec<Json>,
    total: usize,
}

impl DiffList {
    fn new() -> Self {
        DiffList {
            entries: Vec::new(),
            total: 0,
        }
    }

    fn push(&mut self, entry: Json) {
        self.total += 1;
        if self.entries.len() < MAX_DIFFS_PER_LIST {
            self.entries.push(entry);
        }
    }

    fn push_diffs(&mut self, diffs: Vec<(String, Json, Json)>) {
        for (path, baseline, current) in diffs {
            self.push(
                Json::obj()
                    .with("path", Json::str(&path))
                    .with("baseline", baseline)
                    .with("current", current),
            );
        }
    }

    fn truncated(&self) -> usize {
        self.total - self.entries.len()
    }
}

/// Diffs two loaded trees into a `gvf.rundiff` v1 document. Pure and
/// deterministic: no clocks, no filesystem paths, no absolute
/// wall-clock values — see the module docs for the byte-identity
/// contract the A/A CI gate enforces.
pub fn diff_trees(baseline: &RunTree, current: &RunTree) -> Json {
    let base_gens: Vec<&str> = baseline.runs.iter().map(|r| r.generator.as_str()).collect();
    let cur_gens: Vec<&str> = current.runs.iter().map(|r| r.generator.as_str()).collect();
    let baseline_only: Vec<Json> = base_gens
        .iter()
        .filter(|g| !cur_gens.contains(g))
        .map(|g| Json::str(*g))
        .collect();
    let current_only: Vec<Json> = cur_gens
        .iter()
        .filter(|g| !base_gens.contains(g))
        .map(|g| Json::str(*g))
        .collect();

    let mut runs = Vec::new();
    let mut semantic_clean = true;
    let mut coverage_clean = baseline_only.is_empty() && current_only.is_empty();
    let mut semantic_diffs_total = 0usize;
    let mut coverage_drifts_total = baseline_only.len() + current_only.len();
    // (|delta_ns|, cause text) across all run pairs, for the summary.
    let mut causes: Vec<(u64, String)> = Vec::new();

    for b in &baseline.runs {
        let Some(c) = current.runs.iter().find(|c| c.generator == b.generator) else {
            continue;
        };
        let entry = diff_run_pair(b, c, &mut causes);
        let config_changed = entry
            .get("configChanged")
            .and_then(Json::as_bool)
            .unwrap_or(false);
        let sem = entry.get("semantic").expect("semantic section");
        let sem_clean = sem.get("clean").and_then(Json::as_bool).unwrap_or(false);
        let sem_diffs = sem.get("diffs").and_then(Json::as_num).unwrap_or(0.0) as usize;
        // A deliberate config change is expected to move counters; only
        // fingerprint-equal pairs can vote the tree un-clean.
        if !config_changed && !sem_clean {
            semantic_clean = false;
        }
        semantic_diffs_total += sem_diffs;
        let cov = entry.get("coverage").expect("coverage section");
        if !cov.get("clean").and_then(Json::as_bool).unwrap_or(false) {
            coverage_clean = false;
        }
        coverage_drifts_total += cov.get("drifts").and_then(Json::as_num).unwrap_or(0.0) as usize;
        runs.push(entry);
    }

    causes.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    let top_causes: Vec<Json> = causes.iter().take(3).map(|(_, s)| Json::str(s)).collect();

    let paired = runs.len();
    schemas::RUNDIFF
        .header()
        .with(
            "baseline",
            Json::obj().with("runs", Json::num_u64(baseline.runs.len() as u64)),
        )
        .with(
            "current",
            Json::obj().with("runs", Json::num_u64(current.runs.len() as u64)),
        )
        .with("baselineOnly", Json::Arr(baseline_only))
        .with("currentOnly", Json::Arr(current_only))
        .with("runs", Json::Arr(runs))
        .with(
            "summary",
            Json::obj()
                .with("pairedRuns", Json::num_u64(paired as u64))
                .with("semanticClean", Json::Bool(semantic_clean))
                .with("coverageClean", Json::Bool(coverage_clean))
                .with("semanticDiffs", Json::num_u64(semantic_diffs_total as u64))
                .with(
                    "coverageDrifts",
                    Json::num_u64(coverage_drifts_total as u64),
                )
                .with("topCauses", Json::Arr(top_causes)),
        )
}

fn diff_run_pair(b: &RunArtifacts, c: &RunArtifacts, causes: &mut Vec<(u64, String)>) -> Json {
    let fingerprint = |r: &RunArtifacts| -> Option<String> {
        r.manifest
            .get("config")
            .and_then(|cfg| cfg.get("configFingerprint"))
            .and_then(Json::as_str)
            .map(str::to_string)
    };
    let fp_b = fingerprint(b);
    let fp_c = fingerprint(c);
    let config_changed = match (&fp_b, &fp_c) {
        (Some(x), Some(y)) => x != y,
        // Older manifests predate the fingerprint: fall back to the
        // config section itself.
        _ => !json_eq(
            &without_member(
                b.manifest.get("config").unwrap_or(&Json::Null),
                "configFingerprint",
            ),
            &without_member(
                c.manifest.get("config").unwrap_or(&Json::Null),
                "configFingerprint",
            ),
        ),
    };
    let opt_str = |s: &Option<String>| match s {
        Some(v) => Json::str(v),
        None => Json::Null,
    };

    let b_cells = keyed_cells(&b.manifest);
    let c_cells = keyed_cells(&c.manifest);
    let pairs = pair_cells(&b_cells, &c_cells);

    // --- semantic: Stats / derived ---
    let mut stats_diffs = DiffList::new();
    for &(_, bi, bc, _, cc) in &pairs {
        if is_failed(bc) || is_failed(cc) {
            continue; // failed-vs-anything is coverage, not semantics
        }
        let mut diffs = Vec::new();
        for section in ["stats", "derived"] {
            diff_value(
                &format!("cells[{bi}].{section}"),
                bc.get(section).unwrap_or(&Json::Null),
                cc.get(section).unwrap_or(&Json::Null),
                &mut diffs,
            );
        }
        stats_diffs.push_diffs(diffs);
    }

    // --- semantic: attribution counters + per-(PC, tag) offenders ---
    let attrib_compared = b.attribution.is_some() && c.attribution.is_some();
    let mut counter_diffs = DiffList::new();
    let mut offenders = DiffList::new();
    if let (Some(ba), Some(ca)) = (&b.attribution, &c.attribution) {
        let b_acells = keyed_cells(ba);
        let c_acells = keyed_cells(ca);
        for (_, bi, bc, _, cc) in pair_cells(&b_acells, &c_acells) {
            let mut diffs = Vec::new();
            diff_value(
                &format!("cells[{bi}]"),
                &without_member(bc, "per_pc"),
                &without_member(cc, "per_pc"),
                &mut diffs,
            );
            counter_diffs.push_diffs(diffs);
            let b_pcs = per_pc_map(bc);
            let c_pcs = per_pc_map(cc);
            let mut keys: Vec<&(u64, String)> = b_pcs.keys().chain(c_pcs.keys()).collect();
            keys.sort();
            keys.dedup();
            for key in keys {
                let zero = [0u64; 4];
                let bv = b_pcs.get(key).unwrap_or(&zero);
                let cv = c_pcs.get(key).unwrap_or(&zero);
                for (slot, field) in PC_FIELDS.iter().enumerate() {
                    if bv[slot] != cv[slot] {
                        offenders.push(
                            Json::obj()
                                .with("cell", Json::num_u64(bi as u64))
                                .with("pc", Json::num_u64(key.0))
                                .with("tag", Json::str(&key.1))
                                .with("field", Json::str(*field))
                                .with("baseline", Json::num_u64(bv[slot]))
                                .with("current", Json::num_u64(cv[slot])),
                        );
                    }
                }
            }
        }
    }

    // --- semantic: cycle audit ---
    let audit_compared = b.audit.is_some() && c.audit.is_some();
    let mut audit_diffs = DiffList::new();
    if let (Some(ba), Some(ca)) = (&b.audit, &c.audit) {
        let b_acells = keyed_cells(ba);
        let c_acells = keyed_cells(ca);
        for (_, bi, bc, _, cc) in pair_cells(&b_acells, &c_acells) {
            let mut diffs = Vec::new();
            for section in ["statsCycles", "audit"] {
                diff_value(
                    &format!("cells[{bi}].{section}"),
                    bc.get(section).unwrap_or(&Json::Null),
                    cc.get(section).unwrap_or(&Json::Null),
                    &mut diffs,
                );
            }
            audit_diffs.push_diffs(diffs);
        }
    }

    let semantic_total =
        stats_diffs.total + counter_diffs.total + offenders.total + audit_diffs.total;
    let truncated = stats_diffs.truncated()
        + counter_diffs.truncated()
        + offenders.truncated()
        + audit_diffs.truncated();
    let semantic = Json::obj()
        .with("clean", Json::Bool(semantic_total == 0))
        .with("diffs", Json::num_u64(semantic_total as u64))
        .with("truncated", Json::num_u64(truncated as u64))
        .with("statsDiffs", Json::Arr(stats_diffs.entries))
        .with(
            "attribution",
            Json::obj()
                .with("compared", Json::Bool(attrib_compared))
                .with("counterDiffs", Json::Arr(counter_diffs.entries))
                .with("offenders", Json::Arr(offenders.entries)),
        )
        .with(
            "audit",
            Json::obj()
                .with("compared", Json::Bool(audit_compared))
                .with("diffs", Json::Arr(audit_diffs.entries)),
        );

    // --- performance ---
    let wall_clock = match (
        host_num(&b.manifest, &["wall_s"]),
        host_num(&c.manifest, &["wall_s"]),
    ) {
        (Some(bw), Some(cw)) => {
            let phases: Vec<Json> = ["setup_s", "alloc_s", "simulate_s", "report_s"]
                .iter()
                .map(|phase| {
                    let bp = host_num(&b.manifest, &["phases", phase]).unwrap_or(0.0);
                    let cp = host_num(&c.manifest, &["phases", phase]).unwrap_or(0.0);
                    Json::obj()
                        .with("phase", Json::str(*phase))
                        .with("ratio", ratio_json(bp, cp))
                })
                .collect();
            let b_tput =
                host_num(&b.manifest, &["throughput", "sim_cycles_per_sec"]).unwrap_or(0.0);
            let c_tput =
                host_num(&c.manifest, &["throughput", "sim_cycles_per_sec"]).unwrap_or(0.0);
            Json::obj()
                .with("wallRatio", ratio_json(bw, cw))
                .with("simCyclesPerSecRatio", ratio_json(b_tput, c_tput))
                .with("phases", Json::Arr(phases))
        }
        _ => Json::Null,
    };

    let mut span_movers = Vec::new();
    if let (Some(bp), Some(cp)) = (&b.profile, &c.profile) {
        let deltas = gvf_sim::align_exclusive(&profile_spans(bp), &profile_spans(cp));
        for d in deltas
            .iter()
            .filter(|d| d.delta_ns().unsigned_abs() >= SPAN_MOVER_MIN_NS as u128)
            .take(TOP_MOVERS)
        {
            span_movers.push(
                Json::obj()
                    .with("path", Json::str(&d.path))
                    .with("baselineNs", Json::num_u64(d.baseline_ns))
                    .with("currentNs", Json::num_u64(d.current_ns))
                    .with("deltaNs", Json::Num(d.delta_ns() as f64))
                    .with(
                        "ratio",
                        ratio_json(d.baseline_ns as f64, d.current_ns as f64),
                    ),
            );
            let delta_ms = d.delta_ns() as f64 / 1e6;
            causes.push((
                d.delta_ns().unsigned_abs() as u64,
                format!(
                    "{}: span {} {}{:.1}ms exclusive",
                    b.generator,
                    d.path,
                    if delta_ms >= 0.0 { "+" } else { "" },
                    delta_ms
                ),
            ));
        }
    }

    let mut stall_mix = Vec::new();
    if let (Some(ba), Some(ca)) = (&b.audit, &c.audit) {
        let bs = audit_class_sums(ba);
        let cs = audit_class_sums(ca);
        let b_total: u64 = bs.iter().sum();
        let c_total: u64 = cs.iter().sum();
        if b_total > 0 && c_total > 0 {
            for (slot, label) in gvf_sim::CYCLE_CLASS_LABELS.iter().enumerate() {
                let bf = bs[slot] as f64 / b_total as f64;
                let cf = cs[slot] as f64 / c_total as f64;
                if (cf - bf).abs() >= STALL_SHIFT_MIN {
                    stall_mix.push(
                        Json::obj()
                            .with("class", Json::str(*label))
                            .with("baseline", Json::Num(bf))
                            .with("current", Json::Num(cf))
                            .with("shift", Json::Num(cf - bf)),
                    );
                }
            }
        }
    }

    let mut hit_rate_moves = Vec::new();
    if let (Some(ba), Some(ca)) = (&b.attribution, &c.attribution) {
        let bt = attrib_tag_totals(ba);
        let ct = attrib_tag_totals(ca);
        let mut tags: Vec<&String> = bt.keys().chain(ct.keys()).collect();
        tags.sort();
        tags.dedup();
        for tag in tags {
            let (btx, bh) = bt.get(tag).copied().unwrap_or((0, 0));
            let (ctx, ch) = ct.get(tag).copied().unwrap_or((0, 0));
            if btx == 0 || ctx == 0 {
                continue;
            }
            let br = bh as f64 / btx as f64;
            let cr = ch as f64 / ctx as f64;
            if (cr - br).abs() >= HIT_RATE_MOVE_MIN {
                hit_rate_moves.push(
                    Json::obj()
                        .with("tag", Json::str(tag))
                        .with("baseline", Json::Num(br))
                        .with("current", Json::Num(cr))
                        .with("delta", Json::Num(cr - br)),
                );
            }
        }
    }

    let performance = Json::obj()
        .with("wallClock", wall_clock)
        .with("spanMovers", Json::Arr(span_movers))
        .with("stallMix", Json::Arr(stall_mix))
        .with("cacheHitRates", Json::Arr(hit_rate_moves));

    // --- coverage ---
    let b_keys: Vec<&str> = b_cells.iter().map(|(k, _, _)| k.as_str()).collect();
    let c_keys: Vec<&str> = c_cells.iter().map(|(k, _, _)| k.as_str()).collect();
    let added: Vec<Json> = c_keys
        .iter()
        .filter(|k| !b_keys.contains(k))
        .map(|k| Json::str(*k))
        .collect();
    let removed: Vec<Json> = b_keys
        .iter()
        .filter(|k| !c_keys.contains(k))
        .map(|k| Json::str(*k))
        .collect();
    let failed_keys = |cells: &[(String, usize, Json)]| -> Vec<String> {
        cells
            .iter()
            .filter(|(_, _, c)| is_failed(c))
            .map(|(k, _, _)| k.clone())
            .collect()
    };
    let b_failed = failed_keys(&b_cells);
    let c_failed = failed_keys(&c_cells);
    let failed_only = |mine: &[String], theirs: &[String]| -> Vec<Json> {
        mine.iter()
            .filter(|k| !theirs.contains(k))
            .map(Json::str)
            .collect()
    };
    let failed_only_b = failed_only(&b_failed, &c_failed);
    let failed_only_c = failed_only(&c_failed, &b_failed);

    let cached_cells = |r: &RunArtifacts| -> Vec<String> {
        let mut out = Vec::new();
        if let Some(s) = &r.events {
            for sweep in &s.sweeps {
                for i in &sweep.cached {
                    out.push(format!("{}[{}]", sweep.label, i));
                }
            }
        }
        out.sort();
        out
    };
    let b_cached = cached_cells(b);
    let c_cached = cached_cells(c);
    let cached_only_b = failed_only(&b_cached, &c_cached);
    let cached_only_c = failed_only(&c_cached, &b_cached);

    let events_check = |r: &RunArtifacts, fp: &Option<String>| -> (String, bool) {
        let Some(summary) = &r.events else {
            return ("absent".to_string(), false);
        };
        if let Some(fp) = fp {
            if summary.fingerprint != *fp {
                return (
                    format!(
                        "mismatch: events fingerprint {} != manifest {}",
                        summary.fingerprint, fp
                    ),
                    true,
                );
            }
        }
        match crate::events::reconcile(summary, &r.manifest) {
            Ok(()) => ("ok".to_string(), false),
            Err(e) => (format!("mismatch: {e}"), true),
        }
    };
    let (b_events, b_events_bad) = events_check(b, &fp_b);
    let (c_events, c_events_bad) = events_check(c, &fp_c);

    let drifts = added.len()
        + removed.len()
        + failed_only_b.len()
        + failed_only_c.len()
        + cached_only_b.len()
        + cached_only_c.len()
        + usize::from(b_events_bad)
        + usize::from(c_events_bad);
    let coverage = Json::obj()
        .with("clean", Json::Bool(drifts == 0))
        .with("drifts", Json::num_u64(drifts as u64))
        .with("addedCells", Json::Arr(added))
        .with("removedCells", Json::Arr(removed))
        .with("failedOnlyBaseline", Json::Arr(failed_only_b))
        .with("failedOnlyCurrent", Json::Arr(failed_only_c))
        .with("cachedOnlyBaseline", Json::Arr(cached_only_b))
        .with("cachedOnlyCurrent", Json::Arr(cached_only_c))
        .with(
            "events",
            Json::obj()
                .with("baseline", Json::str(&b_events))
                .with("current", Json::str(&c_events)),
        );

    Json::obj()
        .with("generator", Json::str(&b.generator))
        .with(
            "configFingerprint",
            Json::obj()
                .with("baseline", opt_str(&fp_b))
                .with("current", opt_str(&fp_c)),
        )
        .with("configChanged", Json::Bool(config_changed))
        .with(
            "cells",
            Json::obj()
                .with("baseline", Json::num_u64(b_cells.len() as u64))
                .with("current", Json::num_u64(c_cells.len() as u64))
                .with("paired", Json::num_u64(pairs.len() as u64)),
        )
        .with("semantic", semantic)
        .with("performance", performance)
        .with("coverage", coverage)
}

// ---------------------------------------------------------------------
// Validation

/// Structural validation of a `gvf.rundiff` document, called by
/// `validate_json`: header, section presence, and the summary's
/// consistency with the per-run verdicts.
pub fn check_doc(doc: &Json) -> Result<(), String> {
    if !schemas::RUNDIFF.matches(doc) {
        return Err(format!("schema is not {}", schemas::RUNDIFF.id));
    }
    if doc.get("version").and_then(Json::as_num) != Some(schemas::RUNDIFF.version as f64) {
        return Err(format!("version is not {}", schemas::RUNDIFF.version));
    }
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("missing runs array")?;
    let summary = doc.get("summary").ok_or("missing summary")?;
    let paired = summary
        .get("pairedRuns")
        .and_then(Json::as_num)
        .ok_or("summary.pairedRuns missing")? as usize;
    if paired != runs.len() {
        return Err(format!(
            "summary.pairedRuns is {paired} but runs has {} entries",
            runs.len()
        ));
    }
    let mut semantic_clean = true;
    let mut coverage_clean = doc
        .get("baselineOnly")
        .and_then(Json::as_arr)
        .ok_or("missing baselineOnly")?
        .is_empty()
        && doc
            .get("currentOnly")
            .and_then(Json::as_arr)
            .ok_or("missing currentOnly")?
            .is_empty();
    for (i, run) in runs.iter().enumerate() {
        let gen = run
            .get("generator")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("runs[{i}] lacks a generator"))?;
        let sem = run
            .get("semantic")
            .ok_or_else(|| format!("run {gen} lacks a semantic section"))?;
        let clean = sem
            .get("clean")
            .and_then(Json::as_bool)
            .ok_or_else(|| format!("run {gen} semantic.clean missing"))?;
        let diffs = sem
            .get("diffs")
            .and_then(Json::as_num)
            .ok_or_else(|| format!("run {gen} semantic.diffs missing"))?;
        if clean != (diffs == 0.0) {
            return Err(format!(
                "run {gen}: semantic.clean disagrees with its diff count"
            ));
        }
        for section in ["statsDiffs"] {
            for entry in sem
                .get(section)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("run {gen} semantic.{section} missing"))?
            {
                if entry.get("path").and_then(Json::as_str).is_none() {
                    return Err(format!("run {gen}: a {section} entry lacks its path"));
                }
            }
        }
        let config_changed = run
            .get("configChanged")
            .and_then(Json::as_bool)
            .ok_or_else(|| format!("run {gen} configChanged missing"))?;
        if !config_changed && !clean {
            semantic_clean = false;
        }
        run.get("performance")
            .ok_or_else(|| format!("run {gen} lacks a performance section"))?;
        let cov = run
            .get("coverage")
            .ok_or_else(|| format!("run {gen} lacks a coverage section"))?;
        if !cov
            .get("clean")
            .and_then(Json::as_bool)
            .ok_or_else(|| format!("run {gen} coverage.clean missing"))?
        {
            coverage_clean = false;
        }
    }
    if summary.get("semanticClean").and_then(Json::as_bool) != Some(semantic_clean) {
        return Err("summary.semanticClean disagrees with the per-run verdicts".into());
    }
    if summary.get("coverageClean").and_then(Json::as_bool) != Some(coverage_clean) {
        return Err("summary.coverageClean disagrees with the per-run verdicts".into());
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Single-run cause attribution (perf_gate's failure output)

/// Derives the sibling artifact path `X.<suffix>` for manifest `X.json`.
pub fn sibling(manifest_path: &str, suffix: &str) -> String {
    let stem = manifest_path.strip_suffix(".json").unwrap_or(manifest_path);
    format!("{stem}{suffix}")
}

/// Up to three human-readable performance-cause lines for a run, read
/// from the artifacts next to its manifest (span profile, cycle audit,
/// attribution). Used by `perf_gate` so a throughput failure names
/// *where* the time goes instead of only the ratio; absent artifacts
/// simply contribute no line.
pub fn attributed_causes(manifest_path: &str) -> Vec<String> {
    let mut causes = Vec::new();
    let load = |suffix: &str| -> Option<Json> {
        let p = sibling(manifest_path, suffix);
        let text = std::fs::read_to_string(&p).ok()?;
        Json::parse(&text).ok()
    };
    if let Some(profile) = load(".profile.json") {
        let mut spans = profile_spans(&profile);
        spans.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let total: u64 = spans.iter().map(|(_, ns)| ns).sum();
        if let Some((path, ns)) = spans.first() {
            if *ns > 0 && total > 0 {
                causes.push(format!(
                    "hottest host span: {} ({:.2}s exclusive, {:.0}% of profiled time)",
                    path,
                    *ns as f64 / 1e9,
                    100.0 * *ns as f64 / total as f64
                ));
            }
        }
    }
    if let Some(audit) = load(".audit.json") {
        let sums = audit_class_sums(&audit);
        let total: u64 = sums.iter().sum();
        if total > 0 {
            let (slot, &count) = sums
                .iter()
                .enumerate()
                .max_by_key(|(_, &c)| c)
                .expect("six classes");
            causes.push(format!(
                "cycle mix: {} {:.0}% of SM epoch-cycles",
                gvf_sim::CYCLE_CLASS_LABELS[slot],
                100.0 * count as f64 / total as f64
            ));
        }
    }
    if let Some(attrib) = load(".attrib.json") {
        let totals = attrib_tag_totals(&attrib);
        let (txns, hits) = totals
            .values()
            .fold((0u64, 0u64), |(t, h), (tx, hi)| (t + tx, h + hi));
        if txns > 0 {
            causes.push(format!(
                "L1 hit rate: {:.1}% over {txns} load transactions",
                100.0 * hits as f64 / txns as f64
            ));
        }
    }
    causes.truncate(3);
    causes
}

/// One-line-per-run human summary of a rundiff document, shared by
/// `diffrun`'s stderr output and REPORT.md's baseline section.
pub fn human_summary(doc: &Json) -> String {
    let mut out = String::new();
    let empty: Vec<Json> = Vec::new();
    for run in doc.get("runs").and_then(Json::as_arr).unwrap_or(&empty) {
        let gen = run.get("generator").and_then(Json::as_str).unwrap_or("?");
        let sem = run.get("semantic");
        let sem_diffs = sem
            .and_then(|s| s.get("diffs"))
            .and_then(Json::as_num)
            .unwrap_or(0.0) as u64;
        let cov_drifts = run
            .get("coverage")
            .and_then(|c| c.get("drifts"))
            .and_then(Json::as_num)
            .unwrap_or(0.0) as u64;
        let wall = run
            .get("performance")
            .and_then(|p| p.get("wallClock"))
            .and_then(|w| w.get("wallRatio"))
            .and_then(Json::as_num);
        let config_changed = run
            .get("configChanged")
            .and_then(Json::as_bool)
            .unwrap_or(false);
        let _ = write!(
            out,
            "{gen}: semantic {}, coverage {}, wall {}",
            if sem_diffs == 0 {
                "clean".to_string()
            } else {
                format!("{sem_diffs} diff(s)")
            },
            if cov_drifts == 0 {
                "clean".to_string()
            } else {
                format!("{cov_drifts} drift(s)")
            },
            match wall {
                Some(r) => format!("x{r:.2}"),
                None => "n/a".to_string(),
            },
        );
        if config_changed {
            out.push_str(" [config changed]");
        }
        out.push('\n');
    }
    for (label, member) in [("baseline", "baselineOnly"), ("current", "currentOnly")] {
        for g in doc.get(member).and_then(Json::as_arr).unwrap_or(&empty) {
            if let Some(g) = g.as_str() {
                let _ = writeln!(out, "{g}: only in {label} tree");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // `Json::set` appends, so replacing an existing member needs a
    // rebuild.
    fn replace(obj: &Json, key: &str, value: Json) -> Json {
        match obj {
            Json::Obj(members) => Json::Obj(
                members
                    .iter()
                    .map(|(k, v)| {
                        if k == key {
                            (k.clone(), value.clone())
                        } else {
                            (k.clone(), v.clone())
                        }
                    })
                    .collect(),
            ),
            other => other.clone(),
        }
    }

    fn cell(workload: &str, l1_hits: u64) -> Json {
        Json::obj()
            .with("workload", Json::str(workload))
            .with("strategy", Json::str("vtable"))
            .with(
                "stats",
                Json::obj()
                    .with("cycles", Json::num_u64(1000))
                    .with("l1_hits", Json::num_u64(l1_hits)),
            )
            .with("derived", Json::obj().with("ipc", Json::Num(0.5)))
    }

    fn manifest(gen: &str, cells: Vec<Json>, wall_s: f64) -> Json {
        schemas::RUN_MANIFEST
            .header()
            .with("generator", Json::str(gen))
            .with(
                "config",
                Json::obj()
                    .with("scale", Json::num_u64(2))
                    .with("configFingerprint", Json::str("aaaa111122223333")),
            )
            .with("cells", Json::Arr(cells))
            .with(
                "hostPerf",
                Json::obj().with("wall_s", Json::Num(wall_s)).with(
                    "throughput",
                    Json::obj().with("sim_cycles_per_sec", Json::Num(1e6 / wall_s)),
                ),
            )
    }

    fn tree(m: Json) -> RunTree {
        RunTree {
            runs: vec![RunArtifacts {
                generator: m
                    .get("generator")
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_string(),
                manifest: m,
                attribution: None,
                audit: None,
                profile: None,
                events: None,
            }],
        }
    }

    #[test]
    fn self_diff_is_clean_and_wall_independent() {
        let a = tree(manifest(
            "fig7",
            vec![cell("bank", 10), cell("nbody", 20)],
            2.0,
        ));
        // Same semantics, different wall clock — as two --jobs values
        // would produce.
        let b = tree(manifest(
            "fig7",
            vec![cell("bank", 10), cell("nbody", 20)],
            7.5,
        ));
        let aa = diff_trees(&a, &a);
        let bb = diff_trees(&b, &b);
        assert_eq!(
            aa.render(),
            bb.render(),
            "A/A diff must not leak wall clock"
        );
        let summary = aa.get("summary").unwrap();
        assert_eq!(
            summary.get("semanticClean").and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(
            summary.get("coverageClean").and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(
            summary.get("semanticDiffs").and_then(Json::as_num),
            Some(0.0)
        );
        check_doc(&aa).expect("self-diff validates");
    }

    #[test]
    fn mutated_counter_is_flagged_with_its_exact_path() {
        let a = tree(manifest(
            "fig7",
            vec![cell("bank", 10), cell("nbody", 20)],
            2.0,
        ));
        let m = tree(manifest(
            "fig7",
            vec![cell("bank", 99), cell("nbody", 20)],
            2.0,
        ));
        let doc = diff_trees(&a, &m);
        let run = &doc.get("runs").and_then(Json::as_arr).unwrap()[0];
        let diffs = run
            .get("semantic")
            .and_then(|s| s.get("statsDiffs"))
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(diffs.len(), 1);
        assert_eq!(
            diffs[0].get("path").and_then(Json::as_str),
            Some("cells[0].stats.l1_hits")
        );
        assert_eq!(diffs[0].get("baseline").and_then(Json::as_num), Some(10.0));
        assert_eq!(diffs[0].get("current").and_then(Json::as_num), Some(99.0));
        assert_eq!(
            doc.get("summary")
                .and_then(|s| s.get("semanticClean"))
                .and_then(Json::as_bool),
            Some(false)
        );
        check_doc(&doc).expect("drift doc validates");
    }

    #[test]
    fn coverage_sees_added_removed_and_failed_cells() {
        let a = tree(manifest(
            "fig7",
            vec![cell("bank", 10), cell("nbody", 20)],
            2.0,
        ));
        let failed = Json::obj()
            .with("index", Json::num_u64(1))
            .with("status", Json::str("failed"))
            .with("panic", Json::str("boom"));
        let b = tree(manifest(
            "fig7",
            vec![cell("bank", 10), cell("extra", 5), failed],
            2.0,
        ));
        let doc = diff_trees(&a, &b);
        let cov = doc.get("runs").and_then(Json::as_arr).unwrap()[0]
            .get("coverage")
            .unwrap()
            .clone();
        assert_eq!(cov.get("clean").and_then(Json::as_bool), Some(false));
        assert_eq!(
            cov.get("addedCells").and_then(Json::as_arr).unwrap().len(),
            2
        );
        assert_eq!(
            cov.get("removedCells")
                .and_then(Json::as_arr)
                .unwrap()
                .len(),
            1
        );
        assert_eq!(
            cov.get("failedOnlyCurrent")
                .and_then(Json::as_arr)
                .unwrap()
                .len(),
            1
        );
        check_doc(&doc).expect("coverage drift doc validates");
    }

    #[test]
    fn config_change_reports_diffs_but_does_not_vote_unclean() {
        let a = tree(manifest("fig7", vec![cell("bank", 10)], 2.0));
        let m = manifest("fig7", vec![cell("bank", 44)], 2.0);
        let cfg = replace(
            m.get("config").unwrap(),
            "configFingerprint",
            Json::str("ffff000011112222"),
        );
        let b = tree(replace(&m, "config", cfg));
        let doc = diff_trees(&a, &b);
        let run = &doc.get("runs").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(run.get("configChanged").and_then(Json::as_bool), Some(true));
        let sem = run.get("semantic").unwrap();
        assert_eq!(sem.get("clean").and_then(Json::as_bool), Some(false));
        // The deliberate config change keeps the tree-level verdict clean.
        assert_eq!(
            doc.get("summary")
                .and_then(|s| s.get("semanticClean"))
                .and_then(Json::as_bool),
            Some(true)
        );
        check_doc(&doc).expect("doc validates");
    }

    #[test]
    fn span_movers_rank_the_injected_slowdown_first() {
        let profile = |slow_ns: u64| {
            schemas::HOSTPROFILE
                .header()
                .with("generator", Json::str("fig7"))
                .with(
                    "spans",
                    Json::Arr(vec![
                        Json::obj()
                            .with("path", Json::str("pool.cell;kernel.timing"))
                            .with("exclusiveNs", Json::num_u64(50_000_000)),
                        Json::obj()
                            .with("path", Json::str("sweep.slow_cell_injection"))
                            .with("exclusiveNs", Json::num_u64(slow_ns)),
                    ]),
                )
        };
        let mut a = tree(manifest("fig7", vec![cell("bank", 10)], 2.0));
        a.runs[0].profile = Some(profile(0));
        let mut b = tree(manifest("fig7", vec![cell("bank", 10)], 20.0));
        b.runs[0].profile = Some(profile(450_000_000));
        let doc = diff_trees(&a, &b);
        let movers = doc.get("runs").and_then(Json::as_arr).unwrap()[0]
            .get("performance")
            .and_then(|p| p.get("spanMovers"))
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(
            movers[0].get("path").and_then(Json::as_str),
            Some("sweep.slow_cell_injection")
        );
        assert_eq!(
            movers[0].get("deltaNs").and_then(Json::as_num),
            Some(450_000_000.0)
        );
        // The top summary cause names the same span.
        let causes = doc
            .get("summary")
            .and_then(|s| s.get("topCauses"))
            .and_then(Json::as_arr)
            .unwrap();
        assert!(causes[0]
            .as_str()
            .unwrap()
            .contains("sweep.slow_cell_injection"));
    }

    #[test]
    fn check_doc_rejects_inconsistent_summaries() {
        let a = tree(manifest("fig7", vec![cell("bank", 10)], 2.0));
        let doc = diff_trees(&a, &a);
        let summary = replace(
            doc.get("summary").unwrap(),
            "semanticClean",
            Json::Bool(false),
        );
        let doc = replace(&doc, "summary", summary);
        assert!(check_doc(&doc).is_err());
    }
}
