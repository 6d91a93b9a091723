//! `gvf.bench-trajectory` v2 — the repo's host-performance history.
//!
//! `BENCH_gvf.json` at the repo root is an append-only list of
//! benchmark run records. A record is what `python3 perfbench/run.py`
//! leaves in `.bench_out/runs/<W>-seed<S>-trace<T>.json` (see
//! `perfbench/README.md`); `perf_record` stores it member for member
//! and adds the git rev and UTC date it was recorded at, and
//! `perf_gate` judges new records against the stored ones:
//!
//! ```json
//! {
//!   "schema": "gvf.bench-trajectory", "version": 2,
//!   "entries": [{
//!     "rev": "46d07a7", "date": "2026-10-17",
//!     "workload": "micro-dispatch", "seed": 24301, "seconds": 0,
//!     "noise": {"loadavg_before": [..], "loadavg_after": [..], "steal_share": 0.003},
//!     "correct": true, "attempted": 72, "failed": 0,
//!     "metrics": {"engine.ns_per_instr": {"value": 892.1, "unit": "ns"}, ..}
//!   }]
//! }
//! ```
//!
//! Design points:
//!
//! - **One instrument.** The records time each layer on the thread CPU
//!   clock against deterministic work counts. Wall clock on a shared
//!   host varies 2.7× for identical code, so it judges nothing here.
//! - **Per-layer judgement.** The gate judges `cpu_s` and each
//!   `*.ns_per_*` layer row ([`JUDGED_METRICS`]) on its own, so a slowdown
//!   in one layer cannot hide inside a flat total. An untraced
//!   (`--trace 0`) record carries `cpu_s`; a traced one the layer rows.
//! - **Per-metric noise.** Baselines are per (workload, seed, metric).
//!   The allowed rise is the larger of [`MIN_ALLOWED_RISE`] and
//!   [`NOISE_MULT`] × the baseline's relative MAD, so a noisy row such as
//!   `probe.ns_per_instr` widens its own tolerance while a quiet one such
//!   as `engine.ns_per_instr` keeps the floor. The current value is the
//!   median of the records given, which absorbs a single outlier run.
//! - **Only correct runs.** A record whose output check failed
//!   (`correct` not `true`) fails the gate, and [`record`] refuses it.
//! - **Timestamps are provenance, not identity.** `rev` and `date` take
//!   no part in baseline matching or the gate's arithmetic; the
//!   determinism suite pins that down.
//! - **Gate before record.** Records must be judged against a baseline
//!   that does not contain them: folding them in first shifts the median
//!   and MAD towards them fast enough that their own slowdown passes, and
//!   unconditional appending lets a persistent regression become the new
//!   normal. `run_all.sh` therefore runs `perf_gate` first and
//!   `perf_record` only on a pass.
//!
//! The trajectory is per-checkout history, not a cross-hardware
//! database (DESIGN.md "Host performance & trajectory").

use crate::json::Json;
use std::io;

/// Trajectory schema identifier.
pub const TRAJECTORY_SCHEMA: &str = crate::schemas::TRAJECTORY.id;
/// Trajectory schema version; bump on breaking changes.
pub const TRAJECTORY_SCHEMA_VERSION: u32 = crate::schemas::TRAJECTORY.version;
/// Where the trajectory lives, relative to the repo root.
pub const DEFAULT_HISTORY_PATH: &str = "BENCH_gvf.json";

/// The metrics the gate judges, all lower-is-better: the untraced
/// run's CPU time and the traced run's per-layer costs.
pub const JUDGED_METRICS: [&str; 7] = [
    "cpu_s",
    "build.ns_per_object",
    "functional.ns_per_instr",
    "engine.ns_per_instr",
    "probe.ns_per_instr",
    "kernel.ns_per_instr",
    "kernel.ns_per_kcycle",
];
/// Baseline entries below which a metric is skipped, never failed: a
/// thinner baseline has no spread to measure.
pub const MIN_BASELINE: usize = 3;
/// Smallest relative rise the gate tolerates.
pub const MIN_ALLOWED_RISE: f64 = 0.20;
/// How many baseline MADs (relative to the median) of rise to tolerate.
pub const NOISE_MULT: f64 = 4.0;

/// One benchmark run record, checked to hold every member `run.py`
/// writes: `workload`, `seed`, `seconds`, `noise`, `correct`,
/// `attempted`, `failed` and `metrics` (each metric a `value` with its
/// `unit`). Members are kept in their original order, so a stored
/// record renders as it was read.
#[derive(Clone, Debug, PartialEq)]
pub struct Record(Json);

impl Record {
    /// Checks `doc`'s shape and wraps it.
    pub fn from_json(doc: Json) -> Result<Record, String> {
        let member = |key: &str| {
            doc.get(key)
                .ok_or_else(|| format!("record: missing {key:?}"))
        };
        let typed = |key: &str, ok: fn(&Json) -> bool, what: &str| -> Result<(), String> {
            if ok(member(key)?) {
                Ok(())
            } else {
                Err(format!("record: {key:?} is not {what}"))
            }
        };
        typed("workload", |v| v.as_str().is_some(), "a string")?;
        typed(
            "seed",
            |v| v.as_num().is_some_and(|n| n >= 0.0 && n.fract() == 0.0),
            "a seed",
        )?;
        typed("seconds", |v| v.as_num().is_some(), "a number")?;
        typed("noise", |v| matches!(v, Json::Obj(_)), "an object")?;
        typed("correct", |v| v.as_bool().is_some(), "a bool")?;
        typed("attempted", |v| v.as_num().is_some(), "a number")?;
        typed("failed", |v| v.as_num().is_some(), "a number")?;
        let Json::Obj(metrics) = member("metrics")? else {
            return Err("record: \"metrics\" is not an object".into());
        };
        for (name, m) in metrics {
            if m.get("value").and_then(Json::as_num).is_none()
                || m.get("unit").and_then(Json::as_str).is_none()
            {
                return Err(format!(
                    "record: metric {name:?} lacks a numeric value or a unit"
                ));
            }
        }
        Ok(Record(doc))
    }

    /// Reads and checks the record at `path`.
    pub fn load(path: &str) -> Result<Record, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        Record::from_json(doc).map_err(|e| format!("{path}: {e}"))
    }

    /// The record as read.
    fn json(&self) -> &Json {
        &self.0
    }

    /// The benchmark workload (`eval-grid`, `micro-dispatch`, ...).
    pub fn workload(&self) -> &str {
        self.0
            .get("workload")
            .and_then(Json::as_str)
            .expect("checked in from_json")
    }

    /// The workload seed.
    pub fn seed(&self) -> u64 {
        self.0
            .get("seed")
            .and_then(Json::as_num)
            .expect("checked in from_json") as u64
    }

    /// Whether every output check of the run passed.
    pub fn correct(&self) -> bool {
        self.0
            .get("correct")
            .and_then(Json::as_bool)
            .expect("checked in from_json")
    }

    /// A metric's value, if the run reported it.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.0.get("metrics")?.get(name)?.get("value")?.as_num()
    }
}

/// One recorded point of the trajectory: a run record plus provenance.
#[derive(Clone, Debug, PartialEq)]
pub struct TrajectoryEntry {
    /// Git revision the record was taken at (provenance only).
    pub rev: String,
    /// UTC date the record was taken (provenance only).
    pub date: String,
    /// The run record.
    pub record: Record,
}

impl TrajectoryEntry {
    fn to_json(&self) -> Json {
        let Json::Obj(members) = self.record.json() else {
            unreachable!("from_json admits objects only")
        };
        let provenance = [("rev", &self.rev), ("date", &self.date)];
        let provenance = provenance.map(|(k, v)| (k.to_string(), Json::str(v)));
        Json::Obj(
            provenance
                .into_iter()
                .chain(members.iter().cloned())
                .collect(),
        )
    }

    fn from_json(doc: &Json) -> Result<TrajectoryEntry, String> {
        let Json::Obj(members) = doc else {
            return Err("entry: not an object".into());
        };
        let text = |key: &str| {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("entry: {key:?} missing or not a string"))
        };
        let (rev, date) = (text("rev")?, text("date")?);
        let record = Record::from_json(Json::Obj(
            members
                .iter()
                .filter(|(k, _)| k != "rev" && k != "date")
                .cloned()
                .collect(),
        ))?;
        if !record.correct() {
            return Err(format!("entry {rev}: a record with \"correct\": false"));
        }
        Ok(TrajectoryEntry { rev, date, record })
    }
}

/// The whole trajectory file: an append-only list of entries.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct History {
    /// Entries in recording order (oldest first).
    pub entries: Vec<TrajectoryEntry>,
}

impl History {
    /// Serializes to the versioned `gvf.bench-trajectory` document.
    pub fn to_json(&self) -> Json {
        crate::schemas::TRAJECTORY.header().with(
            "entries",
            Json::Arr(self.entries.iter().map(TrajectoryEntry::to_json).collect()),
        )
    }

    /// Parses a `gvf.bench-trajectory` document, checking the header
    /// and every entry.
    pub fn from_json(doc: &Json) -> Result<History, String> {
        let header = |key: &str| doc.get(key).map_or("none".into(), Json::render_compact);
        if doc.get("schema").and_then(Json::as_str) != Some(TRAJECTORY_SCHEMA) {
            return Err(format!(
                "trajectory: unexpected schema {}",
                header("schema")
            ));
        }
        if doc.get("version").and_then(Json::as_num) != Some(TRAJECTORY_SCHEMA_VERSION as f64) {
            return Err(format!(
                "trajectory: unsupported version {}",
                header("version")
            ));
        }
        let entries = doc
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or("trajectory: \"entries\" missing or not an array")?;
        Ok(History {
            entries: entries
                .iter()
                .map(TrajectoryEntry::from_json)
                .collect::<Result<_, _>>()?,
        })
    }

    /// Loads a trajectory file; a missing file is an empty history (the
    /// first recording bootstraps it), any other failure is an error.
    pub fn load(path: &str) -> Result<History, String> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(History::default()),
            Err(e) => return Err(format!("{path}: {e}")),
        };
        let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        History::from_json(&doc).map_err(|e| format!("{path}: {e}"))
    }

    /// Writes the trajectory back (pretty-rendered, diff-friendly).
    /// Atomic: the document lands in a temp file in the same directory
    /// and is renamed over the target, so an interrupted write can
    /// never leave a truncated file behind — `load` treats anything
    /// unparsable (other than a missing file) as a hard error.
    pub fn save(&self, path: &str) -> io::Result<()> {
        let tmp = format!("{path}.tmp");
        std::fs::write(&tmp, self.to_json().render())?;
        std::fs::rename(&tmp, path)
    }

    /// The baseline of one metric: its value in every entry of the same
    /// workload and seed that reports it, oldest first. Provenance plays
    /// no part in the match.
    fn baseline(&self, workload: &str, seed: u64, metric: &str) -> Vec<f64> {
        self.entries
            .iter()
            .filter(|e| e.record.workload() == workload && e.record.seed() == seed)
            .filter_map(|e| e.record.metric(metric))
            .collect()
    }
}

/// The command line `perf_gate` and `perf_record` share:
/// `[--history PATH] [--quiet] RECORD...`. Returns the history path,
/// the quiet flag and the record paths; exits 2 on a usage error.
pub fn tool_args(tool: &str) -> (String, bool, Vec<String>) {
    let usage = || -> ! {
        eprintln!("usage: {tool} [--history PATH] [--quiet] RECORD...");
        std::process::exit(2);
    };
    let (mut history, mut quiet, mut records) =
        (DEFAULT_HISTORY_PATH.to_string(), false, Vec::new());
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--history" => history = args.next().unwrap_or_else(|| usage()),
            "--quiet" => quiet = true,
            _ => records.push(arg),
        }
    }
    if records.is_empty() {
        usage();
    }
    (history, quiet, records)
}

/// Median of `xs`; `0` on empty input. Even-length inputs average the
/// middle pair.
fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Median absolute deviation — the robust spread estimate behind the
/// gate's noise model.
fn mad(xs: &[f64]) -> f64 {
    let med = median(xs);
    median(&xs.iter().map(|x| (x - med).abs()).collect::<Vec<_>>())
}

/// Appends each record to `history` as one entry. Refuses the whole
/// batch, appending nothing, if any record's output check failed: a
/// wrong result's timing is no baseline.
pub fn record(
    history: &mut History,
    records: &[Record],
    rev: &str,
    date: &str,
) -> Result<(), String> {
    if let Some(bad) = records.iter().find(|r| !r.correct()) {
        return Err(format!(
            "{} seed {}: the run failed its output check (\"correct\": false)",
            bad.workload(),
            bad.seed()
        ));
    }
    history
        .entries
        .extend(records.iter().map(|r| TrajectoryEntry {
            rev: rev.to_string(),
            date: date.to_string(),
            record: r.clone(),
        }));
    Ok(())
}

/// What the gate concluded for one (workload, seed, metric).
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    /// Within tolerance of the baseline median.
    Pass {
        /// Median over the records judged.
        current: f64,
        /// Baseline median.
        baseline: f64,
        /// Relative rise that would have been tolerated.
        allowed_rise: f64,
    },
    /// Rose beyond the allowed rise.
    Fail {
        /// Median over the records judged.
        current: f64,
        /// Baseline median.
        baseline: f64,
        /// Relative rise that was tolerated.
        allowed_rise: f64,
    },
    /// A record of this workload and seed failed its output check.
    Incorrect,
    /// Fewer than [`MIN_BASELINE`] baseline entries, or a degenerate
    /// baseline — never a failure.
    Skip {
        /// Why the metric was not judged.
        reason: String,
    },
}

/// One line of the gate's output.
#[derive(Clone, Debug, PartialEq)]
pub struct Judgement {
    /// Benchmark workload.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// The judged metric; `correct` for an output-check failure.
    pub metric: String,
    /// The conclusion.
    pub verdict: Verdict,
}

/// Judges `records` against `history`, per (workload, seed) in
/// first-seen order: one [`Verdict::Incorrect`] per record whose output
/// check failed, then one verdict per judged metric the group's correct
/// records report. The current value is the median over those records;
/// it fails when it exceeds the baseline median by more than
/// `max(MIN_ALLOWED_RISE, NOISE_MULT × MAD/median)`.
pub fn gate(history: &History, records: &[Record]) -> Vec<Judgement> {
    let mut groups: Vec<(&str, u64)> = Vec::new();
    for r in records {
        if !groups.contains(&(r.workload(), r.seed())) {
            groups.push((r.workload(), r.seed()));
        }
    }
    let mut out = Vec::new();
    for (workload, seed) in groups {
        let judgement = |metric: &str, verdict| Judgement {
            workload: workload.to_string(),
            seed,
            metric: metric.to_string(),
            verdict,
        };
        let group: Vec<&Record> = records
            .iter()
            .filter(|r| r.workload() == workload && r.seed() == seed)
            .collect();
        for _ in group.iter().filter(|r| !r.correct()) {
            out.push(judgement("correct", Verdict::Incorrect));
        }
        for metric in JUDGED_METRICS {
            let values: Vec<f64> = group
                .iter()
                .filter(|r| r.correct())
                .filter_map(|r| r.metric(metric))
                .collect();
            if values.is_empty() {
                continue;
            }
            let base = history.baseline(workload, seed, metric);
            let base_median = median(&base);
            let verdict = if base.len() < MIN_BASELINE {
                Verdict::Skip {
                    reason: format!("{} baseline entries (minimum {MIN_BASELINE})", base.len()),
                }
            } else if base_median <= 0.0 {
                Verdict::Skip {
                    reason: "degenerate baseline (median ≤ 0)".into(),
                }
            } else {
                let current = median(&values);
                let allowed_rise = MIN_ALLOWED_RISE.max(NOISE_MULT * mad(&base) / base_median);
                if current > base_median * (1.0 + allowed_rise) {
                    Verdict::Fail {
                        current,
                        baseline: base_median,
                        allowed_rise,
                    }
                } else {
                    Verdict::Pass {
                        current,
                        baseline: base_median,
                        allowed_rise,
                    }
                }
            };
            out.push(judgement(metric, verdict));
        }
    }
    out
}

/// `YYYY-MM-DD` (UTC) for an epoch timestamp — Howard Hinnant's
/// civil-from-days, so the workspace stays dependency-free.
pub fn utc_date_from_epoch(epoch_secs: u64) -> String {
    let days = (epoch_secs / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let year = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = if month <= 2 { year + 1 } else { year };
    format!("{year:04}-{month:02}-{day:02}")
}

/// Short git revision of the working tree: `HEAD`'s short hash, with
/// `-dirty` appended when tracked files differ from `HEAD` (the records
/// then measure uncommitted code on top of it); `"unknown"` when git is
/// unavailable (provenance only — never load-bearing, see [`gate`]).
pub fn git_short_rev() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
    };
    let head = git(&["rev-parse", "--short", "HEAD"]).unwrap_or_default();
    let status = git(&["status", "--porcelain", "--untracked-files=no"]);
    rev_label(head.trim(), status.is_some_and(|s| !s.trim().is_empty()))
}

/// The trajectory's rev label for short hash `head` (empty: unknown)
/// and whether tracked files differ from it.
fn rev_label(head: &str, dirty: bool) -> String {
    match (head.is_empty(), dirty) {
        (true, _) => "unknown".to_string(),
        (false, false) => head.to_string(),
        (false, true) => format!("{head}-dirty"),
    }
}

/// Today's UTC date as `YYYY-MM-DD`.
pub fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    utc_date_from_epoch(secs)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A record shaped like `run.py`'s, with the given metrics.
    fn rec(workload: &str, correct: bool, metrics: &[(&str, f64)]) -> Record {
        let mut m = Json::obj();
        for (name, value) in metrics {
            m.set(
                name,
                Json::obj()
                    .with("value", Json::Num(*value))
                    .with("unit", Json::str("ns")),
            );
        }
        Record::from_json(
            Json::obj()
                .with("workload", Json::str(workload))
                .with("seed", Json::num_u64(24301))
                .with("seconds", Json::Num(0.0))
                .with("noise", Json::obj().with("steal_share", Json::Num(0.0)))
                .with("correct", Json::Bool(correct))
                .with("attempted", Json::num_u64(72))
                .with("failed", Json::num_u64(u64::from(!correct)))
                .with("metrics", m),
        )
        .expect("well-formed record")
    }

    /// A traced and an untraced record of `workload` with every judged
    /// metric at `scale` × a fixed base.
    fn pair(workload: &str, scale: f64) -> Vec<Record> {
        let traced: Vec<(&str, f64)> = JUDGED_METRICS[1..]
            .iter()
            .map(|&m| (m, 100.0 * scale))
            .collect();
        vec![
            rec(workload, true, &[("cpu_s", 4.0 * scale)]),
            rec(workload, true, &traced),
        ]
    }

    fn history_of(runs: &[Vec<Record>]) -> History {
        let mut h = History::default();
        for (i, r) in runs.iter().enumerate() {
            record(&mut h, r, &format!("rev{i}"), "2026-10-17").expect("correct records");
        }
        h
    }

    /// Three recordings of [`pair`] at 1×: the smallest armed baseline.
    fn armed(workload: &str) -> History {
        history_of(&[
            pair(workload, 1.0),
            pair(workload, 1.0),
            pair(workload, 1.0),
        ])
    }

    fn all_skipped(js: &[Judgement]) -> bool {
        js.iter().all(|j| matches!(j.verdict, Verdict::Skip { .. }))
    }

    fn failed_metrics(js: &[Judgement]) -> Vec<&str> {
        js.iter()
            .filter(|j| matches!(j.verdict, Verdict::Fail { .. } | Verdict::Incorrect))
            .map(|j| j.metric.as_str())
            .collect()
    }

    #[test]
    fn rev_label_marks_uncommitted_trees() {
        assert_eq!(rev_label("1709b98", false), "1709b98");
        assert_eq!(rev_label("1709b98", true), "1709b98-dirty");
        assert_eq!(rev_label("", false), "unknown");
        assert_eq!(rev_label("", true), "unknown");
    }

    #[test]
    fn median_and_mad_basics() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[1.0, 9.0]), 5.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(mad(&[5.0, 5.0, 5.0]), 0.0);
        assert_eq!(mad(&[1.0, 5.0, 9.0]), 4.0);
    }

    #[test]
    fn malformed_records_are_rejected() {
        let Json::Obj(members) = rec("eval-grid", true, &[("cpu_s", 1.0)]).json().clone() else {
            unreachable!()
        };
        let without = |drop: &str| -> Json {
            Json::Obj(members.iter().filter(|(k, _)| k != drop).cloned().collect())
        };
        for drop in ["workload", "seed", "correct", "metrics"] {
            assert!(
                Record::from_json(without(drop)).is_err(),
                "accepted a record without {drop}"
            );
        }
        // A metric must carry its value and unit, not a bare number.
        let bare = without("metrics").with("metrics", Json::obj().with("cpu_s", Json::Num(1.0)));
        assert!(Record::from_json(bare).is_err());
    }

    /// Every judged metric ×10 fails on every one of them; the records
    /// the baseline was built from pass.
    #[test]
    fn tenfold_slowdown_fails_every_judged_metric() {
        let h = armed("eval-grid");
        assert!(failed_metrics(&gate(&h, &pair("eval-grid", 1.0))).is_empty());
        let verdicts = gate(&h, &pair("eval-grid", 10.0));
        assert_eq!(verdicts.len(), JUDGED_METRICS.len());
        assert_eq!(failed_metrics(&verdicts), JUDGED_METRICS.to_vec());
    }

    /// +30 % in the engine alone, with `cpu_s` flat, fails on exactly
    /// `engine.ns_per_instr` — the slowdown a whole-run gate lets
    /// through.
    #[test]
    fn engine_only_slowdown_fails_on_its_layer() {
        let engine = |ns: f64| {
            vec![
                rec("micro-dispatch", true, &[("cpu_s", 4.0)]),
                rec(
                    "micro-dispatch",
                    true,
                    &[("engine.ns_per_instr", ns), ("kernel.ns_per_instr", 1000.0)],
                ),
            ]
        };
        let h = history_of(&[engine(880.0), engine(892.0), engine(905.0)]);
        let mut current = engine(892.0 * 1.3);
        current.extend(engine(892.0 * 1.28));
        current.extend(engine(892.0 * 1.32));
        assert_eq!(failed_metrics(&gate(&h, &current)), ["engine.ns_per_instr"]);
    }

    /// A noisy row widens its own tolerance: `probe.ns_per_instr`
    /// spread over 72–140 ns (MAD/median 18 %) passes a +48 % reading
    /// that the 20 % floor alone would fail.
    #[test]
    fn probe_row_inside_a_wide_baseline_mad_passes() {
        let probe = |ns: f64| vec![rec("micro-dispatch", true, &[("probe.ns_per_instr", ns)])];
        let h = history_of(&[probe(72.0), probe(88.0), probe(140.0)]);
        match &gate(&h, &probe(130.0))[..] {
            [Judgement {
                verdict: Verdict::Pass { allowed_rise, .. },
                ..
            }] => {
                assert!((allowed_rise - 4.0 * 16.0 / 88.0).abs() < 1e-9);
            }
            other => panic!("expected one pass, got {other:?}"),
        }
        assert_eq!(
            failed_metrics(&gate(&h, &probe(250.0))),
            ["probe.ns_per_instr"]
        );
    }

    #[test]
    fn incorrect_records_are_refused_by_record_and_failed_by_gate() {
        let mut h = armed("eval-grid");
        let before = h.clone();
        let mut batch = pair("eval-grid", 1.0);
        batch.push(rec("eval-grid", false, &[("cpu_s", 4.0)]));
        assert!(record(&mut h, &batch, "bad", "2026-10-17").is_err());
        assert_eq!(h, before, "a refused batch must append nothing");
        // The gate fails the wrong run even though its timing is fine.
        let verdicts = gate(&h, &batch);
        assert_eq!(failed_metrics(&verdicts), ["correct"]);
        assert!(verdicts
            .iter()
            .any(|j| matches!(j.verdict, Verdict::Pass { .. })));
        // A stored entry claiming a failed run does not decode either.
        let mut doc = h.to_json().render();
        doc = doc.replacen("\"correct\": true", "\"correct\": false", 1);
        assert!(History::from_json(&Json::parse(&doc).expect("parse")).is_err());
    }

    #[test]
    fn thin_baselines_are_skipped_never_failed() {
        let slow = pair("eval-grid", 10.0);
        let mut runs = Vec::new();
        for n in 0..MIN_BASELINE {
            let verdicts = gate(&history_of(&runs), &slow);
            assert!(all_skipped(&verdicts), "{n} baseline entries must skip");
            runs.push(pair("eval-grid", 1.0));
        }
        // The third entry arms the gate.
        assert_eq!(
            failed_metrics(&gate(&history_of(&runs), &slow)).len(),
            JUDGED_METRICS.len()
        );
        // Another workload's or seed's entries are no baseline.
        assert!(all_skipped(&gate(&armed("micro-dispatch"), &slow)));
    }

    #[test]
    fn gate_must_run_before_record_to_catch_regressions() {
        // The pipeline contract run_all.sh relies on: judged against a
        // pristine baseline, three 10× records fail…
        let mut h = armed("eval-grid");
        let slow: Vec<Record> = (0..3).flat_map(|_| pair("eval-grid", 10.0)).collect();
        assert_eq!(failed_metrics(&gate(&h, &slow)).len(), JUDGED_METRICS.len());
        // …but once they are folded into their own baseline, each
        // metric's values are three at 1× and three at 10×: the median
        // sits halfway, the MAD spans the gap, the noise-widened
        // tolerance exceeds 300 % and the identical slowdown sails
        // through. This is why recording happens only after a pass —
        // pin the failure mode so nobody "simplifies" the ordering back.
        record(&mut h, &slow, "regr", "2026-10-18").expect("correct records");
        assert!(failed_metrics(&gate(&h, &slow)).is_empty());
    }

    #[test]
    fn save_is_atomic_and_round_trips() {
        let path = std::env::temp_dir().join(format!(
            "gvf_bench_trajectory_test_{}.json",
            std::process::id()
        ));
        let path = path.to_str().expect("utf-8 temp path").to_string();
        let h = history_of(&[pair("eval-grid", 1.0), pair("micro-dispatch", 2.5)]);
        h.save(&path).expect("save");
        // The temp file must not survive a successful save.
        assert!(!std::path::Path::new(&format!("{path}.tmp")).exists());
        assert_eq!(History::load(&path).expect("load"), h);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn other_versions_are_refused_even_when_empty() {
        for version in [1, 99] {
            let doc = Json::obj()
                .with("schema", Json::str(TRAJECTORY_SCHEMA))
                .with("version", Json::num_u64(version))
                .with("entries", Json::Arr(Vec::new()));
            assert!(
                History::from_json(&doc).is_err(),
                "accepted version {version}"
            );
        }
        assert_eq!(
            History::from_json(&History::default().to_json()),
            Ok(History::default())
        );
    }

    /// The gate's metrics are the benchmark's, and lower is better for
    /// each: `BENCHMARK.json` at the repo root must say so.
    #[test]
    fn judged_metrics_are_lower_is_better_in_benchmark_json() {
        let doc =
            Json::parse(include_str!("../../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let declared: Vec<&Json> = ["end_to_end", "per_layer"]
            .iter()
            .flat_map(|k| doc.get(k).and_then(Json::as_arr).expect("metric lists"))
            .collect();
        for metric in JUDGED_METRICS {
            let m = declared
                .iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some(metric))
                .unwrap_or_else(|| panic!("{metric} is not in BENCHMARK.json"));
            assert_eq!(
                m.get("better").and_then(Json::as_str),
                Some("lower"),
                "{metric}"
            );
        }
    }

    #[test]
    fn civil_dates_are_correct() {
        assert_eq!(utc_date_from_epoch(0), "1970-01-01");
        assert_eq!(utc_date_from_epoch(86_400), "1970-01-02");
        // 2000-02-29 (leap day): 951782400.
        assert_eq!(utc_date_from_epoch(951_782_400), "2000-02-29");
        // 2026-08-05: 1785888000.
        assert_eq!(utc_date_from_epoch(1_785_888_000), "2026-08-05");
    }
}
