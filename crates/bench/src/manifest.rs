//! Versioned, machine-readable run manifests for the figure binaries.
//!
//! Every grid binary can emit three artifacts next to its stdout table
//! (see [`crate::cli::HarnessOpts`]):
//!
//! - `--json-out` — the **run manifest** (`gvf.run-manifest` v2):
//!   generator name, the simulation-relevant config, and one record per
//!   grid cell with its raw [`Stats`] counters plus derived metrics;
//!   sweeps with dead cells instead record `"status": "failed"` entries
//!   per cell (see [`emit_failures`]).
//!   The config section deliberately excludes the host-side `--jobs`
//!   knob, and the only wall-clock data is the `hostPerf` section
//!   ([`crate::hostperf`], schema `gvf.hostperf` v2) — which the
//!   determinism diff **strips** via [`strip_host_perf`], so a serial
//!   and a parallel run of the same grid still compare byte-identical
//!   (`validate_json --det-diff`, the CI gate).
//! - `--trace-out` — a Chrome trace-event / Perfetto timeline
//!   ([`gvf_sim::timeline`]) recorded from the grid's first cell.
//! - `--metrics-out` — the per-epoch metrics time series
//!   (`gvf.metrics` v1) from the first cell: per-bucket IPC, hit rates
//!   and stall mix.
//! - `--attrib-out` — the **mechanism attribution** report
//!   (`gvf.attribution` v1): per-PC load/coalescing/L1 evidence from
//!   the [`gvf_sim::AttributionProbe`], per-set cache contention,
//!   reuse-distance histograms, and the allocator / lookup / tag
//!   introspection snapshots, one entry per grid cell. Each cell also
//!   carries a copy of its [`Stats`] load-transaction counters, so the
//!   document is *self-checking*: summed per-PC transactions must equal
//!   the counter for every tag (`validate_json` and `report` both
//!   enforce this). The document contains no wall-clock data, so serial
//!   and parallel runs emit byte-identical files.
//! - `--audit-out` — the **cycle audit** (`gvf.cycleaudit` v1): per
//!   cell, every simulated epoch-cycle classified as active /
//!   stalled-known / stalled-other / drained / skipped / tail, the
//!   fast-forwardable-gap histogram with an upper-bound speedup
//!   estimate, and per-call-site observed-type-set summaries. Like
//!   attribution it is self-checking — the six classes must sum to
//!   `sms × auditedCycles`, and `auditedCycles` must equal the cell's
//!   [`Stats`] cycle counter — and wall-clock-free: serial and parallel
//!   runs emit byte-identical documents.
//! - `--profile-out` — the **host profile** (`gvf.hostprofile` v2):
//!   the [`gvf_sim::hostperf`] collector's kernel-level wall-time
//!   breakdown of this process, rendered as span paths
//!   ([`hostprofile_doc_from`]: inclusive/exclusive ns per path, plus
//!   a collapsed-stack rendering for flamegraph tools). Wall-clock data
//!   through and through — excluded from determinism diffs exactly
//!   like `hostPerf`.
//!
//! Schema versioning: the `schema`/`version` header is bumped on any
//! breaking field change; consumers must check it (DESIGN.md
//! "Observability").

use crate::cli::HarnessOpts;
use crate::json::Json;
use gvf_core::{LookupAttrib, TagAttrib};
use gvf_sim::{
    write_chrome_trace, AccessTag, AttribReport, CycleAuditReport, EpochSeries, HostPerfSnapshot,
    LayerTime, LineClass, LogHist, ObsReport, PcLoadStats, PoolTelemetry, StallCause, Stats,
};
use gvf_workloads::{AllocAttribSnapshot, AttribBundle, RunResult};
use std::borrow::Cow;
use std::io::{self, Write};

/// Manifest schema identifier (see [`crate::schemas::RUN_MANIFEST`]).
pub const MANIFEST_SCHEMA: &str = crate::schemas::RUN_MANIFEST.id;
/// Manifest schema version; bump on breaking changes.
///
/// v2 adds per-cell fault isolation: a sweep with dead cells records
/// them as `"status": "failed"` entries (index, panic payload, config
/// fingerprint) alongside the surviving cells' full records. A run with
/// no failures emits exactly the v1 body — a lossless v1 view — with
/// only this version number bumped.
pub const MANIFEST_SCHEMA_VERSION: u32 = crate::schemas::RUN_MANIFEST.version;
/// Metrics-series schema identifier.
pub const METRICS_SCHEMA: &str = crate::schemas::METRICS.id;
/// Metrics-series schema version; bump on breaking changes.
pub const METRICS_SCHEMA_VERSION: u32 = crate::schemas::METRICS.version;
/// Attribution-report schema identifier.
pub const ATTRIB_SCHEMA: &str = crate::schemas::ATTRIBUTION.id;
/// Attribution-report schema version; bump on breaking changes.
pub const ATTRIB_SCHEMA_VERSION: u32 = crate::schemas::ATTRIBUTION.version;
/// Host-span-profile schema identifier.
pub const HOSTPROFILE_SCHEMA: &str = crate::schemas::HOSTPROFILE.id;
/// Host-span-profile schema version; bump on breaking changes.
pub const HOSTPROFILE_SCHEMA_VERSION: u32 = crate::schemas::HOSTPROFILE.version;
/// Cycle-audit schema identifier.
pub const CYCLEAUDIT_SCHEMA: &str = crate::schemas::CYCLEAUDIT.id;
/// Cycle-audit schema version; bump on breaking changes.
pub const CYCLEAUDIT_SCHEMA_VERSION: u32 = crate::schemas::CYCLEAUDIT.version;

/// Call sites listed individually in a cycle-audit cell, by descending
/// call count; the rest are summarized in the class counters.
pub const CYCLEAUDIT_TOP_SITES: usize = 16;

/// One grid cell of a figure run: identifying coordinates (workload,
/// strategy, knob values...) plus the measured counters.
#[derive(Clone, Debug)]
pub struct CellRecord {
    /// Cell coordinates and per-cell extras, in display order.
    pub meta: Vec<(&'static str, Json)>,
    /// The cell's raw counters.
    pub stats: Stats,
    /// The cell's mechanism-attribution bundle, when the run recorded
    /// one (`--attrib-out`). Travels with the record so the attribution
    /// document's cells mirror the manifest's cells one-for-one.
    pub attrib: Option<AttribBundle>,
    /// The cell's cycle-audit report, when the run recorded one
    /// (`--audit-out`). Travels with the record for the same reason.
    pub audit: Option<CycleAuditReport>,
}

impl CellRecord {
    /// A record with the two coordinates every figure grid has.
    pub fn new(workload: &str, strategy: &str, stats: &Stats) -> Self {
        CellRecord {
            meta: vec![
                ("workload", Json::str(workload)),
                ("strategy", Json::str(strategy)),
            ],
            stats: stats.clone(),
            attrib: None,
            audit: None,
        }
    }

    /// A record carrying a run's full evidence: its [`Stats`] plus the
    /// attribution bundle and cycle audit when the run recorded them.
    pub fn of(workload: &str, strategy: &str, r: &RunResult) -> Self {
        let mut rec = CellRecord::new(workload, strategy, &r.stats);
        rec.attrib = r.attrib.clone();
        rec.audit = r.audit.clone();
        rec
    }

    /// Appends an extra coordinate / measurement (builder style).
    pub fn with(mut self, key: &'static str, value: Json) -> Self {
        self.meta.push((key, value));
        self
    }
}

/// Serializes every raw counter of [`Stats`]. Tagged arrays become
/// objects keyed by cause label, so the manifest stays readable without
/// the enum definition.
pub fn stats_json(s: &Stats) -> Json {
    let mut stalls = Json::obj();
    let mut loads = Json::obj();
    for cause in StallCause::all() {
        stalls.set(cause.label(), Json::num_u64(s.stall_by_tag[cause.index()]));
        if let StallCause::Access(tag) = cause {
            loads.set(cause.label(), Json::num_u64(s.load_transactions(tag)));
        }
    }
    Json::obj()
        .with("cycles", Json::num_u64(s.cycles))
        .with("instrs_mem", Json::num_u64(s.instrs_mem))
        .with("instrs_compute", Json::num_u64(s.instrs_compute))
        .with("instrs_ctrl", Json::num_u64(s.instrs_ctrl))
        .with(
            "global_load_transactions",
            Json::num_u64(s.global_load_transactions),
        )
        .with(
            "global_store_transactions",
            Json::num_u64(s.global_store_transactions),
        )
        .with("l1_accesses", Json::num_u64(s.l1_accesses))
        .with("l1_hits", Json::num_u64(s.l1_hits))
        .with("l2_accesses", Json::num_u64(s.l2_accesses))
        .with("l2_hits", Json::num_u64(s.l2_hits))
        .with("dram_accesses", Json::num_u64(s.dram_accesses))
        .with("const_accesses", Json::num_u64(s.const_accesses))
        .with("const_hits", Json::num_u64(s.const_hits))
        .with("warps", Json::num_u64(s.warps))
        .with("vfunc_calls", Json::num_u64(s.vfunc_calls))
        .with("stall_by_cause", stalls)
        .with("load_transactions_by_tag", loads)
}

/// The derived metrics the paper's figures plot, computed through the
/// canonical [`Stats`] helpers so manifest and stdout can never
/// disagree.
pub fn derived_json(s: &Stats) -> Json {
    let (a, b, c) = s.dispatch_latency_breakdown();
    Json::obj()
        .with("ipc", Json::Num(s.ipc()))
        .with("l1_hit_rate", Json::Num(s.l1_hit_rate()))
        .with("l2_hit_rate", Json::Num(s.l2_hit_rate()))
        .with("vfunc_pki", Json::Num(s.vfunc_pki()))
        .with(
            "dispatch_latency_breakdown",
            Json::obj()
                .with("vtable_load", Json::Num(a))
                .with("vfunc_load", Json::Num(b))
                .with("indirect_call", Json::Num(c)),
        )
}

/// Removes the wall-clock-dependent `hostPerf` section, producing the
/// canonical **determinism view** of a manifest: two runs of the same
/// grid — serial or parallel, fast machine or slow — must render this
/// view byte-identically. Everything else is untouched.
pub fn strip_host_perf(doc: &Json) -> Json {
    match doc {
        Json::Obj(members) => Json::Obj(
            members
                .iter()
                .filter(|(k, _)| k != "hostPerf")
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    }
}

/// One leaf that differs between two determinism views: its path
/// (`cells[0].stats.l1_hits`) and the value on each side.
pub type PathDiff = (String, Json, Json);

/// Every leaf that differs between the **determinism views** of two
/// documents of the same schema, in document order — what
/// `validate_json --det-diff` prints. A run manifest's view strips
/// `hostPerf` ([`strip_host_perf`]); attribution and cycle-audit
/// documents carry no wall-clock data and are compared whole. Any other
/// schema, or two different ones, is refused.
///
/// Objects compare over the union of their members (a one-sided member
/// diffs against `null`); arrays compare their common prefix, plus a
/// `.length` entry when the lengths differ.
pub fn det_diff(a: &Json, b: &Json) -> Result<Vec<PathDiff>, String> {
    fn schema(doc: &Json) -> &str {
        doc.get("schema").and_then(Json::as_str).unwrap_or("none")
    }
    let (sa, sb) = (schema(a), schema(b));
    if sa != sb {
        return Err(format!("schemas differ: {sa} vs {sb}"));
    }
    let view = |doc: &Json| match sa {
        MANIFEST_SCHEMA => Ok(strip_host_perf(doc)),
        ATTRIB_SCHEMA | CYCLEAUDIT_SCHEMA => Ok(doc.clone()),
        other => Err(format!("no determinism view for schema {other}")),
    };
    let mut out = Vec::new();
    diff_paths("", &view(a)?, &view(b)?, &mut out);
    Ok(out)
}

fn diff_paths(path: &str, a: &Json, b: &Json, out: &mut Vec<PathDiff>) {
    let member = |k: &str| {
        if path.is_empty() {
            k.to_string()
        } else {
            format!("{path}.{k}")
        }
    };
    match (a, b) {
        (Json::Obj(members_a), Json::Obj(members_b)) => {
            for (k, va) in members_a {
                let vb = b.get(k).unwrap_or(&Json::Null);
                diff_paths(&member(k), va, vb, out);
            }
            for (k, vb) in members_b {
                if a.get(k).is_none() {
                    out.push((member(k), Json::Null, vb.clone()));
                }
            }
            // The same members in another order still render another
            // file, and the views must stay byte-identical.
            let order = |m: &[(Cow<'static, str>, Json)]| -> Vec<Json> {
                m.iter().map(|(k, _)| Json::Str(k.clone())).collect()
            };
            let (order_a, order_b) = (order(members_a), order(members_b));
            if order_a != order_b
                && order_a.len() == order_b.len()
                && members_b.iter().all(|(k, _)| a.get(k).is_some())
            {
                out.push((
                    member("(member order)"),
                    Json::Arr(order_a),
                    Json::Arr(order_b),
                ));
            }
        }
        (Json::Arr(items_a), Json::Arr(items_b)) => {
            if items_a.len() != items_b.len() {
                out.push((
                    member("length"),
                    Json::num_u64(items_a.len() as u64),
                    Json::num_u64(items_b.len() as u64),
                ));
            }
            for (i, (va, vb)) in items_a.iter().zip(items_b).enumerate() {
                diff_paths(&format!("{path}[{i}]"), va, vb, out);
            }
        }
        _ if a != b => out.push((path.to_string(), a.clone(), b.clone())),
        _ => {}
    }
}

/// Builds the `gvf.run-manifest` document. The config section contains
/// only simulation-relevant knobs (see the module docs for why);
/// [`emit`] appends the stripped-by-diff `hostPerf` section on top of
/// this deterministic core.
pub fn manifest(generator: &str, opts: &HarnessOpts, cells: &[CellRecord]) -> Json {
    let records: Vec<Json> = cells
        .iter()
        .map(|cell| {
            let mut rec = Json::obj();
            for &(k, ref v) in &cell.meta {
                rec.set(k, v.clone());
            }
            rec.with("stats", stats_json(&cell.stats))
                .with("derived", derived_json(&cell.stats))
        })
        .collect();
    Json::obj()
        .with("schema", Json::str(MANIFEST_SCHEMA))
        .with("version", Json::num_u64(MANIFEST_SCHEMA_VERSION as u64))
        .with("generator", Json::str(generator))
        .with("config", config_json(opts))
        .with("cells", Json::Arr(records))
}

/// The simulation-relevant config section shared by the manifest and
/// the attribution document (host-side knobs deliberately excluded).
///
/// `configFingerprint` is the run-level config-grid fingerprint, taken
/// with probes forced OFF so it matches the `gvf.events` `runStart`
/// fingerprint (probes are applied per-cell and never change results) —
/// a probed and an unprobed run of the same grid fingerprint alike.
/// perfbench's suite ledger reads it to count distinct simulations.
fn config_json(opts: &HarnessOpts) -> Json {
    let mut base = opts.cfg.clone();
    base.probe = gvf_sim::ProbeSpec::OFF;
    Json::obj()
        .with("scale", Json::num_u64(opts.cfg.scale as u64))
        .with("iterations", Json::num_u64(opts.cfg.iterations as u64))
        .with("seed", Json::num_u64(opts.cfg.seed))
        .with("smoke", Json::Bool(opts.smoke))
        .with(
            "configFingerprint",
            Json::str(crate::cellcache::config_fingerprint(&base)),
        )
}

fn series_json(series: &EpochSeries) -> Json {
    let buckets: Vec<Json> = series
        .buckets()
        .iter()
        .map(|b| {
            let width = series.bucket_cycles();
            let mut stalls = Json::obj();
            for cause in StallCause::all() {
                stalls.set(
                    cause.label(),
                    Json::num_u64(b.stall_by_cause[cause.index()]),
                );
            }
            Json::obj()
                .with("instrs", Json::num_u64(b.instrs))
                .with("ipc", Json::Num(b.instrs as f64 / width as f64))
                .with("l1_accesses", Json::num_u64(b.l1_accesses))
                .with("l1_hits", Json::num_u64(b.l1_hits))
                .with("l2_accesses", Json::num_u64(b.l2_accesses))
                .with("l2_hits", Json::num_u64(b.l2_hits))
                .with("dram_accesses", Json::num_u64(b.dram_accesses))
                .with("stall_by_cause", stalls)
        })
        .collect();
    Json::obj()
        .with("bucket_cycles", Json::num_u64(series.bucket_cycles()))
        .with("buckets", Json::Arr(buckets))
}

/// Builds the `gvf.metrics` document from a recorded [`ObsReport`].
pub fn metrics_doc(generator: &str, obs: &ObsReport) -> Json {
    Json::obj()
        .with("schema", Json::str(METRICS_SCHEMA))
        .with("version", Json::num_u64(METRICS_SCHEMA_VERSION as u64))
        .with("generator", Json::str(generator))
        .with(
            "kernels",
            Json::Arr(obs.kernel_series.iter().map(series_json).collect()),
        )
}

/// Sparse rendering of a [`LogHist`]: only populated buckets, each with
/// its index, inclusive lower bound, and count.
fn log_hist_json(h: &LogHist) -> Json {
    Json::Arr(
        h.counts()
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, &c)| {
                Json::obj()
                    .with("bucket", Json::num_u64(i as u64))
                    .with("lo", Json::num_u64(LogHist::bucket_lo(i)))
                    .with("count", Json::num_u64(c))
            })
            .collect(),
    )
}

fn u64_array(v: &[u64]) -> Json {
    Json::Arr(v.iter().map(|&x| Json::num_u64(x)).collect())
}

/// The stable schema label of an access tag (shared with the manifest's
/// `load_transactions_by_tag` keys, so consumers join on one namespace).
fn tag_label(tag: AccessTag) -> &'static str {
    StallCause::Access(tag).label()
}

fn pc_load_fields(mut obj: Json, s: &PcLoadStats) -> Json {
    obj.set("instructions", Json::num_u64(s.instructions));
    obj.set("lanes", Json::num_u64(s.lanes));
    obj.set("transactions", Json::num_u64(s.transactions));
    obj.set("l1_hits", Json::num_u64(s.l1_hits));
    obj
}

/// The probe half of a cell's attribution: per-PC loads, per-tag totals
/// with coalescing ratios, per-set L1 contention, and reuse histograms.
fn attrib_probe_json(r: &AttribReport) -> Json {
    let per_pc: Vec<Json> = r
        .per_pc
        .iter()
        .map(|(&(pc, tag_idx), s)| {
            // Built whole: one allocation per row.
            Json::Obj(vec![
                ("pc".into(), Json::num_u64(pc as u64)),
                (
                    "tag".into(),
                    Json::label(tag_label(AccessTag::ALL[tag_idx])),
                ),
                ("instructions".into(), Json::num_u64(s.instructions)),
                ("lanes".into(), Json::num_u64(s.lanes)),
                ("transactions".into(), Json::num_u64(s.transactions)),
                ("l1_hits".into(), Json::num_u64(s.l1_hits)),
            ])
        })
        .collect();
    let mut by_tag = Json::obj();
    for tag in AccessTag::ALL {
        let t = r.totals_by_tag(tag);
        if t == PcLoadStats::default() {
            continue;
        }
        let mut entry = pc_load_fields(Json::obj(), &t);
        // Coalescing evidence: lanes per transaction (32 = perfectly
        // converged) and transactions per load instruction.
        entry.set(
            "lanes_per_transaction",
            if t.transactions > 0 {
                Json::Num(t.lanes as f64 / t.transactions as f64)
            } else {
                Json::Null
            },
        );
        entry.set(
            "transactions_per_instruction",
            if t.instructions > 0 {
                Json::Num(t.transactions as f64 / t.instructions as f64)
            } else {
                Json::Null
            },
        );
        by_tag.set(tag_label(tag), entry);
    }
    let mut reuse = Json::obj();
    for class in LineClass::ALL {
        reuse.set(
            class.label(),
            Json::obj()
                .with("cold_lines", Json::num_u64(r.cold_lines[class.index()]))
                .with("intervals", log_hist_json(&r.reuse[class.index()])),
        );
    }
    Json::obj()
        .with("sms", Json::num_u64(r.sms))
        .with(
            "loads",
            Json::obj()
                .with("per_pc", Json::Arr(per_pc))
                .with("by_tag", by_tag),
        )
        .with(
            "l1_sets",
            Json::obj()
                .with("accesses", u64_array(&r.set_accesses))
                .with("hits", u64_array(&r.set_hits))
                .with("final_valid_sectors", u64_array(&r.final_set_sectors)),
        )
        .with("reuse", reuse)
}

fn alloc_attrib_json(a: &AllocAttribSnapshot) -> Json {
    let types: Vec<Json> = a
        .types
        .iter()
        .map(|t| {
            Json::obj()
                .with("type", Json::num_u64(t.ty.0 as u64))
                .with("obj_size", Json::num_u64(t.obj_size))
                .with("regions", Json::num_u64(t.regions))
                .with("capacity_objs", Json::num_u64(t.capacity_objs))
                .with("used_objs", Json::num_u64(t.used_objs))
                .with("largest_region_objs", Json::num_u64(t.largest_region_objs))
                .with("next_region_objs", Json::num_u64(t.next_region_objs))
        })
        .collect();
    Json::obj()
        .with("merges", Json::num_u64(a.merges))
        .with("initial_chunk_objs", Json::num_u64(a.initial_chunk_objs))
        .with("types", Json::Arr(types))
}

fn lookup_attrib_json(l: &LookupAttrib) -> Json {
    Json::obj()
        .with("kind", Json::str(l.kind.label()))
        .with("num_ranges", Json::num_u64(l.num_ranges))
        .with("tree_depth", Json::num_u64(l.tree_depth as u64))
        .with("dispatches", Json::num_u64(l.dispatches))
        .with("lanes", Json::num_u64(l.lanes))
        .with("walk_depth", log_hist_json(&l.walk_depth))
        .with("comparisons", log_hist_json(&l.comparisons))
}

fn tag_attrib_json(t: &TagAttrib) -> Json {
    Json::obj()
        .with("tag_mode", Json::str(t.tag_mode.label()))
        .with("hardware_mask", Json::Bool(t.hardware_mask))
        .with("decode_dispatches", Json::num_u64(t.decode_dispatches))
        .with("decode_lanes", Json::num_u64(t.decode_lanes))
        .with("fallback_dispatches", Json::num_u64(t.fallback_dispatches))
        .with("fallback_lanes", Json::num_u64(t.fallback_lanes))
        .with("mask_ops", Json::num_u64(t.mask_ops))
}

fn attrib_bundle_json(b: &AttribBundle) -> Json {
    let opt = |j: Option<Json>| j.unwrap_or(Json::Null);
    Json::obj()
        .with("probe", attrib_probe_json(&b.probe))
        .with("allocator", opt(b.alloc.as_ref().map(alloc_attrib_json)))
        .with("lookup", opt(b.lookup.as_ref().map(lookup_attrib_json)))
        .with("tags", opt(b.tags.as_ref().map(tag_attrib_json)))
}

/// Builds the `gvf.attribution` document. Cells mirror the manifest's
/// cells one-for-one (same coordinates, same order); each carries a
/// copy of its [`Stats`] per-tag load-transaction counters next to the
/// attribution evidence, making the hard cross-check (summed per-PC
/// transactions == counter, per tag) verifiable from this file alone.
/// Deliberately contains no wall-clock data: serial and parallel runs
/// of the same grid emit byte-identical documents.
pub fn attribution_doc(generator: &str, opts: &HarnessOpts, cells: &[CellRecord]) -> Json {
    let records: Vec<Json> = cells
        .iter()
        .map(|cell| {
            let mut rec = Json::obj();
            for &(k, ref v) in &cell.meta {
                rec.set(k, v.clone());
            }
            let mut loads = Json::obj();
            for tag in AccessTag::ALL {
                loads.set(
                    tag_label(tag),
                    Json::num_u64(cell.stats.load_transactions(tag)),
                );
            }
            rec.with("stats_load_transactions", loads).with(
                "attribution",
                match &cell.attrib {
                    Some(b) => attrib_bundle_json(b),
                    None => Json::Null,
                },
            )
        })
        .collect();
    Json::obj()
        .with("schema", Json::str(ATTRIB_SCHEMA))
        .with("version", Json::num_u64(ATTRIB_SCHEMA_VERSION as u64))
        .with("generator", Json::str(generator))
        .with("config", config_json(opts))
        .with("cells", Json::Arr(records))
}

fn audit_cell_json(a: &CycleAuditReport) -> Json {
    let mut classes = Json::obj();
    for (label, count) in a.class_counts() {
        classes.set(label, Json::num_u64(count));
    }
    let fast_forward = Json::obj()
        .with("skippableCycles", Json::num_u64(a.skippable_cycles()))
        .with("fraction", Json::Num(a.skippable_fraction()))
        .with("upperBoundSpeedup", Json::Num(a.upper_bound_speedup()));
    // Individual sites, hottest first; ties broken by trace position so
    // the rendering stays deterministic.
    let mut hot: Vec<_> = a.call_sites.iter().collect();
    hot.sort_by_key(|(&pc, s)| (std::cmp::Reverse(s.calls), pc));
    let top: Vec<Json> = hot
        .iter()
        .take(CYCLEAUDIT_TOP_SITES)
        .map(|(&pc, s)| {
            Json::obj()
                .with("pc", Json::num_u64(pc as u64))
                .with("calls", Json::num_u64(s.calls))
                .with("unknownCalls", Json::num_u64(s.unknown_calls))
                .with("targets", Json::num_u64(s.targets.len() as u64))
                .with("overflowed", Json::Bool(s.overflowed))
                .with("class", Json::label(s.class().label()))
        })
        .collect();
    let (unknown, mono, few, mega) = a.site_class_counts();
    let call_sites = Json::obj()
        .with("sites", Json::num_u64(a.call_sites.len() as u64))
        .with("unknown", Json::num_u64(unknown))
        .with("monomorphic", Json::num_u64(mono))
        .with("fewTyped", Json::num_u64(few))
        .with("megamorphic", Json::num_u64(mega))
        .with("top", Json::Arr(top));
    Json::obj()
        .with("sms", Json::num_u64(a.sms))
        .with("auditedCycles", Json::num_u64(a.audited_cycles))
        .with("classes", classes)
        .with("gapHist", log_hist_json(&a.gap_hist))
        .with("fastForward", fast_forward)
        .with("callSites", call_sites)
}

/// Builds the `gvf.cycleaudit` document. Cells mirror the manifest's
/// cells one-for-one; each carries a copy of its [`Stats`] cycle
/// counter, making the hard cross-check (six classes sum to
/// `sms × auditedCycles`, and `auditedCycles == statsCycles`)
/// verifiable from this file alone. Contains no wall-clock data:
/// serial and parallel runs emit byte-identical documents.
pub fn cycleaudit_doc(generator: &str, opts: &HarnessOpts, cells: &[CellRecord]) -> Json {
    let records: Vec<Json> = cells
        .iter()
        .map(|cell| {
            let mut rec = Json::obj();
            for &(k, ref v) in &cell.meta {
                rec.set(k, v.clone());
            }
            rec.with("statsCycles", Json::num_u64(cell.stats.cycles))
                .with(
                    "audit",
                    match &cell.audit {
                        Some(a) => audit_cell_json(a),
                        None => Json::Null,
                    },
                )
        })
        .collect();
    Json::obj()
        .with("schema", Json::str(CYCLEAUDIT_SCHEMA))
        .with("version", Json::num_u64(CYCLEAUDIT_SCHEMA_VERSION as u64))
        .with("generator", Json::str(generator))
        .with("config", config_json(opts))
        .with("cells", Json::Arr(records))
}

/// Builds the `gvf.hostprofile` document from a host-time snapshot:
/// one entry per span path with call count and inclusive/exclusive
/// wall nanoseconds, plus the collapsed-stack text flamegraph tools
/// consume directly. `pool.cell` is the recorded sweeps' cells and
/// their workers' busy time; its children are the three kernel layers
/// of [`gvf_sim::KernelLayers`]. Paths with a zero count are left out.
/// Wall-clock data: never part of a determinism diff (the artifact
/// exists so "where did the host time go" has a measured answer, not a
/// deterministic one).
pub fn hostprofile_doc_from(generator: &str, snap: &HostPerfSnapshot) -> Json {
    let pools = || snap.sweeps.iter().map(|s| &s.pool);
    let cell = LayerTime {
        count: pools().map(PoolTelemetry::cells).sum(),
        ns: pools().flat_map(|p| &p.workers).map(|w| w.busy_ns).sum(),
    };
    let layers = &snap.layers;
    // (path, time, exclusive ns), sorted by path: exclusive time is
    // inclusive minus the direct children's, and only the root has any.
    let spans = [
        ("pool.cell", cell, cell.ns.saturating_sub(layers.total_ns())),
        ("pool.cell;kernel.absorb", layers.absorb, layers.absorb.ns),
        (
            "pool.cell;kernel.functional",
            layers.functional,
            layers.functional.ns,
        ),
        ("pool.cell;kernel.timing", layers.timing, layers.timing.ns),
    ];
    let spans: Vec<_> = spans.into_iter().filter(|(_, t, _)| t.count > 0).collect();
    let rows: Vec<Json> = spans
        .iter()
        .map(|(path, t, exclusive_ns)| {
            Json::obj()
                .with("path", Json::str(*path))
                .with("count", Json::num_u64(t.count))
                .with("totalNs", Json::num_u64(t.ns))
                .with("exclusiveNs", Json::num_u64(*exclusive_ns))
        })
        .collect();
    let collapsed: String = spans
        .iter()
        .map(|(path, _, exclusive_ns)| format!("{path} {exclusive_ns}\n"))
        .collect();
    Json::obj()
        .with("schema", Json::str(HOSTPROFILE_SCHEMA))
        .with("version", Json::num_u64(HOSTPROFILE_SCHEMA_VERSION as u64))
        .with("generator", Json::str(generator))
        .with("spans", Json::Arr(rows))
        .with("collapsedStacks", Json::str(collapsed))
}

fn write_file(path: &str, contents: &[u8]) -> io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(contents)?;
    eprintln!("wrote {path}");
    Ok(())
}

/// Emits whatever artifacts the flags asked for: the manifest to
/// `--json-out`, the first probed cell's timeline to `--trace-out`, and
/// its metrics series to `--metrics-out`. `obs` is the report taken
/// from the probed cell (`None` when recording was off or nothing
/// fired — the timeline/metrics files are still written, empty, so a
/// pipeline consuming them never sees a missing file). Exits the
/// process with an error on I/O failure: an unwritable artifact path is
/// a fatal misuse, not a degraded run.
pub fn emit(opts: &HarnessOpts, generator: &str, cells: &[CellRecord], obs: Option<&ObsReport>) {
    let run = || -> io::Result<()> {
        if let Some(path) = &opts.json_out {
            let total_sim_cycles: u64 = cells.iter().map(|c| c.stats.cycles).sum();
            let doc = manifest(generator, opts, cells).with(
                "hostPerf",
                crate::hostperf::host_perf_json(total_sim_cycles),
            );
            write_file(path, doc.render().as_bytes())?;
        }
        let empty = ObsReport::default();
        let obs = obs.unwrap_or(&empty);
        if let Some(path) = &opts.trace_out {
            let mut buf = Vec::new();
            write_chrome_trace(&mut buf, &obs.events, obs.events_dropped)?;
            write_file(path, &buf)?;
        }
        if let Some(path) = &opts.metrics_out {
            write_file(path, metrics_doc(generator, obs).render().as_bytes())?;
        }
        if let Some(path) = &opts.attrib_out {
            write_file(
                path,
                attribution_doc(generator, opts, cells).render().as_bytes(),
            )?;
        }
        if let Some(path) = &opts.audit_out {
            write_file(
                path,
                cycleaudit_doc(generator, opts, cells).render().as_bytes(),
            )?;
        }
        if let Some(path) = &opts.profile_out {
            let doc = hostprofile_doc_from(generator, &gvf_sim::hostperf::snapshot());
            write_file(path, doc.render().as_bytes())?;
        }
        Ok(())
    };
    if let Err(e) = run() {
        eprintln!("error: failed to write artifact: {e}");
        std::process::exit(1);
    }
    // All artifacts landed: close the events stream. (The failure path
    // closes it with "failed" before its non-zero exit instead.)
    crate::events::run_end("ok");
}

/// Writes the **failure manifest** of a sweep with dead cells: a v2
/// manifest whose `cells` array records every grid index — surviving
/// cells keep their full stats/derived records (their simulation work
/// is not lost), dead cells become first-class `"status": "failed"`
/// entries carrying the panic payload and config fingerprint. No-op
/// without `--json-out`. The caller ([`crate::sweep::SweepRun`]) exits
/// non-zero afterwards; partial artifacts other than the manifest
/// (attribution, traces) are deliberately not written — their schemas
/// promise cells that mirror a complete grid.
pub fn emit_failures(
    opts: &HarnessOpts,
    generator: &str,
    cells: &[Result<RunResult, crate::sweep::SweepFailure>],
) {
    let Some(path) = &opts.json_out else {
        return;
    };
    let total_sim_cycles: u64 = cells
        .iter()
        .filter_map(|c| c.as_ref().ok())
        .map(|r| r.stats.cycles)
        .sum();
    let doc = failure_manifest(generator, opts, cells).with(
        "hostPerf",
        crate::hostperf::host_perf_json(total_sim_cycles),
    );
    if let Err(e) = write_file(path, doc.render().as_bytes()) {
        eprintln!("error: failed to write failure manifest: {e}");
    }
}

/// The body of a failure manifest: one entry per grid index, `"ok"`
/// cells with full stats/derived records, `"failed"` cells with panic
/// payload, config fingerprint, the worker id and queue wait the pool
/// observed, and the flight-recorder snapshot — the last
/// [`crate::events::FLIGHT_RECORDER_EVENTS`] telemetry events up to and
/// including the cell's `cellFailed` (`null` when the cell did not die
/// under an event-tracked sweep). The per-cell runtime context and the
/// flight recorder are wall-clock data; failure manifests abort the run
/// and never enter a determinism diff, so that is fine.
pub fn failure_manifest(
    generator: &str,
    opts: &HarnessOpts,
    cells: &[Result<RunResult, crate::sweep::SweepFailure>],
) -> Json {
    let records: Vec<Json> = cells
        .iter()
        .enumerate()
        .map(|(i, cell)| match cell {
            Ok(r) => Json::obj()
                .with("index", Json::num_u64(i as u64))
                .with("status", Json::str("ok"))
                .with("stats", stats_json(&r.stats))
                .with("derived", derived_json(&r.stats)),
            Err(f) => {
                let flight = crate::events::flight_recorder(generator, i)
                    .map(Json::Arr)
                    .unwrap_or(Json::Null);
                Json::obj()
                    .with("index", Json::num_u64(i as u64))
                    .with("status", Json::str("failed"))
                    .with("panic", Json::str(&f.payload))
                    .with("configFingerprint", Json::str(&f.fingerprint))
                    .with("worker", Json::num_u64(f.worker as u64))
                    .with("queueWaitMs", Json::num_u64(f.queue_wait_ns / 1_000_000))
                    .with("flightRecorder", flight)
            }
        })
        .collect();
    Json::obj()
        .with("schema", Json::str(MANIFEST_SCHEMA))
        .with("version", Json::num_u64(MANIFEST_SCHEMA_VERSION as u64))
        .with("generator", Json::str(generator))
        .with("config", config_json(opts))
        .with("cells", Json::Arr(records))
}

/// One-call artifact emission for a figure binary: takes the
/// observability report from the grid's first (probed) cell and hands
/// everything to [`emit`]. Replaces the `obs`-take + `emit` pair every
/// binary used to repeat.
pub fn emit_grid(
    opts: &HarnessOpts,
    generator: &str,
    cells: &[CellRecord],
    results: &mut [RunResult],
) {
    let obs = results.first_mut().and_then(|r| r.obs.take());
    emit(opts, generator, cells, obs.as_ref());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats() -> Stats {
        let mut s = Stats::new();
        s.cycles = 1000;
        s.instrs_mem = 100;
        s.instrs_compute = 400;
        s.l1_accesses = 64;
        s.l1_hits = 32;
        s.vfunc_calls = 10;
        s.stall_by_tag[0] = 77;
        s.load_transactions_by_tag[0] = 12;
        s
    }

    #[test]
    fn stats_round_trip_through_parser() {
        let doc = stats_json(&sample_stats());
        let parsed = Json::parse(&doc.render()).expect("parse");
        assert_eq!(parsed, doc);
        assert_eq!(
            parsed
                .get("stall_by_cause")
                .and_then(|s| s.get("vtable-ptr"))
                .and_then(Json::as_num),
            Some(77.0)
        );
    }

    #[test]
    fn derived_uses_canonical_helpers() {
        let s = sample_stats();
        let doc = derived_json(&s);
        assert_eq!(doc.get("ipc").and_then(Json::as_num), Some(s.ipc()));
        assert_eq!(
            doc.get("l1_hit_rate").and_then(Json::as_num),
            Some(s.l1_hit_rate())
        );
    }

    #[test]
    fn strip_host_perf_removes_only_that_section() {
        let core = Json::obj()
            .with("schema", Json::str(MANIFEST_SCHEMA))
            .with("cells", Json::Arr(vec![Json::obj()]));
        let with_perf = core
            .clone()
            .with("hostPerf", Json::obj().with("wall_s", Json::Num(1.25)));
        assert_eq!(strip_host_perf(&with_perf), core);
        assert_eq!(strip_host_perf(&core), core);
        // Non-objects pass through untouched.
        assert_eq!(strip_host_perf(&Json::Null), Json::Null);
    }

    fn sample_manifest(cells: &[CellRecord], wall_s: f64) -> Json {
        manifest("test", &test_opts(), cells)
            .with("hostPerf", Json::obj().with("wall_s", Json::Num(wall_s)))
    }

    #[test]
    fn det_diff_ignores_identical_views_and_host_perf() {
        let cells = [CellRecord::new("GOL", "cuda", &sample_stats())];
        let m = sample_manifest(&cells, 1.0);
        assert_eq!(det_diff(&m, &m), Ok(vec![]));
        assert_eq!(det_diff(&m, &sample_manifest(&cells, 2.5)), Ok(vec![]));
    }

    #[test]
    fn det_diff_names_a_mutated_counter_with_both_values() {
        let mut stats = sample_stats();
        let a = sample_manifest(&[CellRecord::new("GOL", "cuda", &stats)], 1.0);
        stats.l1_hits = 999_999;
        let b = sample_manifest(&[CellRecord::new("GOL", "cuda", &stats)], 1.0);
        let diffs = det_diff(&a, &b).expect("same schema");
        // The counter comes first; derived ratios built on it follow.
        assert_eq!(
            diffs[0],
            (
                "cells[0].stats.l1_hits".to_string(),
                Json::num_u64(32),
                Json::num_u64(999_999)
            )
        );
        assert!(diffs.iter().all(|(p, _, _)| p.starts_with("cells[0].")));
    }

    #[test]
    fn det_diff_reports_reordered_members() {
        let a = sample_manifest(&[], 1.0);
        let Json::Obj(mut members) = a.clone() else {
            unreachable!("a manifest is an object")
        };
        members.swap(0, 1);
        let diffs = det_diff(&a, &Json::Obj(members)).expect("same schema");
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].0, "(member order)");
    }

    #[test]
    fn det_diff_reports_an_added_cell_as_a_length_change() {
        let cell = CellRecord::new("GOL", "cuda", &sample_stats());
        let a = sample_manifest(std::slice::from_ref(&cell), 1.0);
        let b = sample_manifest(&[cell.clone(), cell], 1.0);
        assert_eq!(
            det_diff(&a, &b),
            Ok(vec![(
                "cells.length".to_string(),
                Json::num_u64(1),
                Json::num_u64(2)
            )])
        );
    }

    #[test]
    fn det_diff_indexes_into_attribution_per_pc_rows() {
        let a = attribution_doc("test", &test_opts(), &[attrib_cell(5)]);
        let b = attribution_doc("test", &test_opts(), &[attrib_cell(6)]);
        let diffs = det_diff(&a, &b).expect("same schema");
        assert_eq!(
            diffs[0],
            (
                "cells[0].attribution.probe.loads.per_pc[0].l1_hits".to_string(),
                Json::num_u64(5),
                Json::num_u64(6)
            )
        );
    }

    #[test]
    fn det_diff_refuses_mismatched_or_wall_clock_schemas() {
        let cells = [attrib_cell(5)];
        let m = sample_manifest(&cells, 1.0);
        let attrib = attribution_doc("test", &test_opts(), &cells);
        assert!(det_diff(&m, &attrib).is_err());
        let profile = hostprofile_doc_from("test", &HostPerfSnapshot::default());
        assert!(det_diff(&profile, &profile).is_err());
        assert!(det_diff(&Json::obj(), &Json::obj()).is_err());
    }

    fn test_opts() -> HarnessOpts {
        HarnessOpts {
            cfg: gvf_workloads::WorkloadConfig::tiny(),
            jobs: 1,
            smoke: true,
            quiet: true,
            json_out: None,
            trace_out: None,
            metrics_out: None,
            attrib_out: None,
            profile_out: None,
            audit_out: None,
            no_cache: false,
            cache_dir: None,
            events_out: None,
            fail_cell: None,
        }
    }

    /// A GOL/cuda cell whose attribution holds one vtable-pointer load
    /// PC with `l1_hits` hits.
    fn attrib_cell(l1_hits: u64) -> CellRecord {
        let mut report = AttribReport {
            sms: 1,
            ..AttribReport::default()
        };
        report.per_pc.insert(
            (7, AccessTag::VtablePtr.index()),
            PcLoadStats {
                instructions: 2,
                lanes: 64,
                transactions: 12,
                l1_hits,
            },
        );
        let mut cell = CellRecord::new("GOL", "cuda", &sample_stats());
        cell.attrib = Some(AttribBundle {
            probe: report,
            alloc: None,
            lookup: None,
            tags: None,
        });
        cell
    }

    #[test]
    fn attribution_doc_mirrors_cells_and_self_checks() {
        let doc = attribution_doc("test", &test_opts(), &[attrib_cell(5)]);
        let parsed = Json::parse(&doc.render()).expect("parse");
        assert_eq!(parsed, doc);
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(ATTRIB_SCHEMA)
        );
        let cell0 = &doc.get("cells").and_then(Json::as_arr).expect("cells")[0];
        assert_eq!(cell0.get("workload").and_then(Json::as_str), Some("GOL"));
        // The self-check join: attributed transactions for a tag equal
        // the copied Stats counter (sample_stats sets slot 0 to 12).
        let attributed = cell0
            .get("attribution")
            .and_then(|a| a.get("probe"))
            .and_then(|p| p.get("loads"))
            .and_then(|l| l.get("by_tag"))
            .and_then(|t| t.get("vtable-ptr"))
            .and_then(|e| e.get("transactions"))
            .and_then(Json::as_num);
        let counted = cell0
            .get("stats_load_transactions")
            .and_then(|l| l.get("vtable-ptr"))
            .and_then(Json::as_num);
        assert_eq!(attributed, Some(12.0));
        assert_eq!(attributed, counted);
        // Attribution-less cells serialize as an explicit null.
        let bare = CellRecord::new("GOL", "coal", &sample_stats());
        let doc = attribution_doc("test", &test_opts(), &[bare]);
        let cell0 = &doc.get("cells").and_then(Json::as_arr).expect("cells")[0];
        assert_eq!(cell0.get("attribution"), Some(&Json::Null));
    }

    #[test]
    fn failure_manifest_records_dead_and_surviving_cells() {
        let ok = RunResult {
            stats: sample_stats(),
            checksum: 0,
            alloc_stats: Default::default(),
            init_cycles: 0,
            table2: Default::default(),
            metrics: Vec::new(),
            obs: None,
            attrib: None,
            audit: None,
        };
        let cells = vec![
            Ok(ok),
            Err(crate::sweep::SweepFailure {
                cell: 1,
                payload: "boom".into(),
                fingerprint: "deadbeef".into(),
                worker: 3,
                queue_wait_ns: 2_500_000,
            }),
        ];
        let doc = failure_manifest("fig6", &test_opts(), &cells);
        let parsed = Json::parse(&doc.render()).expect("parse");
        assert_eq!(parsed, doc);
        assert_eq!(
            doc.get("version").and_then(Json::as_num),
            Some(MANIFEST_SCHEMA_VERSION as f64)
        );
        let entries = doc.get("cells").and_then(Json::as_arr).expect("cells");
        assert_eq!(entries[0].get("status").and_then(Json::as_str), Some("ok"));
        assert!(entries[0].get("stats").is_some());
        assert_eq!(
            entries[1].get("status").and_then(Json::as_str),
            Some("failed")
        );
        assert_eq!(entries[1].get("panic").and_then(Json::as_str), Some("boom"));
        assert_eq!(
            entries[1].get("configFingerprint").and_then(Json::as_str),
            Some("deadbeef")
        );
        assert_eq!(entries[1].get("stats"), None, "dead cells carry no stats");
        // The pool's runtime observation rides along on failed entries.
        assert_eq!(entries[1].get("worker").and_then(Json::as_num), Some(3.0));
        assert_eq!(
            entries[1].get("queueWaitMs").and_then(Json::as_num),
            Some(2.0)
        );
        // No event-tracked sweep ran this cell, so no flight recorder.
        assert_eq!(entries[1].get("flightRecorder"), Some(&Json::Null));
    }

    #[test]
    fn cycleaudit_doc_mirrors_cells_and_self_checks() {
        let mut audit = CycleAuditReport {
            sms: 1,
            audited_cycles: 1000,
            active: 300,
            stalled_known: 100,
            stalled_other: 50,
            drained: 50,
            skipped: 400,
            tail: 100,
            ..CycleAuditReport::default()
        };
        audit.gap_hist.record(64);
        audit.call_sites.insert(
            5,
            gvf_sim::CallSiteStats {
                calls: 7,
                unknown_calls: 0,
                targets: [1u64, 2].into_iter().collect(),
                overflowed: false,
            },
        );
        assert!(audit.reconciles());
        let mut cell = CellRecord::new("GOL", "typepointer", &sample_stats());
        cell.audit = Some(audit);
        let doc = cycleaudit_doc("test", &test_opts(), &[cell]);
        let parsed = Json::parse(&doc.render()).expect("parse");
        assert_eq!(parsed, doc);
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(CYCLEAUDIT_SCHEMA)
        );
        let cell0 = &doc.get("cells").and_then(Json::as_arr).expect("cells")[0];
        assert_eq!(cell0.get("workload").and_then(Json::as_str), Some("GOL"));
        // The self-check joins, verifiable from the document alone: the
        // six classes sum to sms × auditedCycles, which equals the
        // copied Stats counter (sample_stats sets cycles = 1000).
        let a = cell0.get("audit").expect("audit");
        let classes = a.get("classes").expect("classes");
        let sum: f64 = [
            "active",
            "stalledKnown",
            "stalledOther",
            "drained",
            "skipped",
            "tail",
        ]
        .iter()
        .map(|k| classes.get(k).and_then(Json::as_num).expect("class"))
        .sum();
        assert_eq!(sum, 1000.0);
        assert_eq!(a.get("auditedCycles").and_then(Json::as_num), Some(1000.0));
        assert_eq!(
            cell0.get("statsCycles").and_then(Json::as_num),
            Some(1000.0)
        );
        let ff = a.get("fastForward").expect("fastForward");
        assert_eq!(
            ff.get("skippableCycles").and_then(Json::as_num),
            Some(150.0)
        );
        let site0 = &a
            .get("callSites")
            .and_then(|c| c.get("top"))
            .and_then(Json::as_arr)
            .expect("top")[0];
        assert_eq!(site0.get("class").and_then(Json::as_str), Some("fewTyped"));
        // Audit-less cells serialize as an explicit null.
        let bare = CellRecord::new("GOL", "coal", &sample_stats());
        let doc = cycleaudit_doc("test", &test_opts(), &[bare]);
        let cell0 = &doc.get("cells").and_then(Json::as_arr).expect("cells")[0];
        assert_eq!(cell0.get("audit"), Some(&Json::Null));
    }

    #[test]
    fn hostprofile_renders_collector_layers_as_spans() {
        use gvf_sim::{KernelLayers, SweepTelemetry, WorkerTelemetry};
        let worker = |busy_ns, cells| WorkerTelemetry {
            busy_ns,
            queue_wait_ns: 0,
            cells,
        };
        let layer = |count, ns| LayerTime { count, ns };
        let snap = HostPerfSnapshot {
            // The layers outlast the cells' busy time, so the root's
            // exclusive time saturates at zero; no launch was probed.
            layers: KernelLayers {
                functional: layer(3, 400),
                timing: layer(3, 500),
                absorb: LayerTime::default(),
            },
            sweeps: vec![SweepTelemetry {
                label: "fig6".into(),
                pool: PoolTelemetry {
                    wall_ns: 1_000,
                    jobs: 2,
                    workers: vec![worker(300, 1), worker(500, 2)],
                },
            }],
            ..HostPerfSnapshot::default()
        };
        let doc = hostprofile_doc_from("test", &snap);
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(HOSTPROFILE_SCHEMA)
        );
        assert_eq!(Json::parse(&doc.render()).expect("parse"), doc);
        let spans = doc.get("spans").and_then(Json::as_arr).expect("spans");
        let field = |s: &Json, k: &str| s.get(k).and_then(Json::as_num).expect(k) as u64;
        let rows: Vec<(&str, u64, u64, u64)> = spans
            .iter()
            .map(|s| {
                (
                    s.get("path").and_then(Json::as_str).expect("path"),
                    field(s, "count"),
                    field(s, "totalNs"),
                    field(s, "exclusiveNs"),
                )
            })
            .collect();
        // The zero-count absorb path is omitted.
        assert_eq!(
            rows,
            [
                ("pool.cell", 3, 800, 0),
                ("pool.cell;kernel.functional", 3, 400, 400),
                ("pool.cell;kernel.timing", 3, 500, 500),
            ]
        );
        // One `path ns` line per span, valued in exclusive time.
        assert_eq!(
            doc.get("collapsedStacks").and_then(Json::as_str),
            Some("pool.cell 0\npool.cell;kernel.functional 400\npool.cell;kernel.timing 500\n")
        );
    }

    #[test]
    fn metrics_doc_has_schema_header() {
        let doc = metrics_doc("test", &ObsReport::default());
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(METRICS_SCHEMA)
        );
        assert_eq!(
            doc.get("kernels").and_then(Json::as_arr).map(<[_]>::len),
            Some(0)
        );
    }
}
