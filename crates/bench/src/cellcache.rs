//! Content-addressed cell cache: every distinct simulation runs once.
//!
//! A grid cell's result is a pure function of what it simulates, its
//! strategy and its configuration — the determinism contract the CI
//! diffs enforce. A completed cell's [`RunResult`] is persisted under
//! a **cell key**, the FNV-1a hash of (cache schema version, workload
//! or micro point, strategy, simulation config incl. probe spec). No
//! binary name or grid index enters the key, so binaries whose grids
//! overlap share entries: fig7 after fig6 simulates nothing. The key
//! excludes what the determinism view excludes — host-perf, wall-clock,
//! `--jobs`, `fast_forward` — so a sweep served from the cache emits
//! **byte-identical** manifests and attribution artifacts; only the
//! `hostPerf` section records how many cells came from the cache.
//!
//! Entries live under `<dir>/.cellcache/<key>.json` (schema
//! `gvf.cellcache` v3), next to the `--json-out` artifact by default.
//! Each records its key material, a `contentHash` over its own
//! rendering (a corrupted or hand-edited entry is re-simulated, and
//! `validate_json` rejects it in CI), and the **model fingerprint**
//! that `build.rs` takes over the sources of the model crates. An
//! entry of another model is a miss and is overwritten, so a stale
//! result is never replayed and reads are on whenever the cache is: an
//! interrupted sweep resumes by re-running the same command.
//!
//! Cells that record timeline or metrics streams (the first cell under
//! `--trace-out` / `--metrics-out`) skip the cache *read*: a re-run must
//! produce those streams fresh. They still *write* their result, which
//! the key and the entry share with the unprobed cell (neither carries
//! the streams), so a later grid reads it back. Attribution and
//! cycle-audit reports are bounded, deterministic counters, so they
//! travel *through* the cache (and are keyed, since they change what a
//! [`RunResult`] carries).

use crate::cli::HarnessOpts;
use crate::json::Json;
use crate::sweep::Sim;
use gvf_alloc::AllocatorKind;
use gvf_alloc::{AllocStats, TypeKey, TypeRegionStats};
use gvf_core::{LookupAttrib, LookupKind, Strategy, TagAttrib, TagMode};
use gvf_sim::{
    AttribReport, CallSiteStats, CycleAuditReport, LogHist, PcLoadStats, LOG_HIST_BUCKETS,
};
use gvf_workloads::{AllocAttribSnapshot, AttribBundle, RunResult, Table2Row, WorkloadConfig};
use std::sync::atomic::{AtomicU64, Ordering};

pub use crate::fnv::fnv1a64;

/// Cell-cache schema identifier.
pub const CELLCACHE_SCHEMA: &str = crate::schemas::CELLCACHE.id;
/// Cell-cache schema version; bump on breaking changes.
/// v2: entries carry the cycle-audit report and key on `cycle_audit`.
/// v3: keyed on what the cell simulates instead of (generator, index);
/// entries record their key material and the model fingerprint.
pub const CELLCACHE_SCHEMA_VERSION: u32 = crate::schemas::CELLCACHE.version;

/// Directory name holding cache entries, under the artifact directory.
pub const CELLCACHE_DIR: &str = ".cellcache";

/// Fingerprint of the model crates' sources, computed by `build.rs`.
pub const MODEL_FINGERPRINT: &str = include_str!(concat!(env!("OUT_DIR"), "/model_fingerprint"));

// Process-wide counters surfaced in the manifest's `hostPerf` section
// (which the determinism diff strips, so they never affect a byte diff).
static CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static SIMULATED: AtomicU64 = AtomicU64::new(0);
static CACHE_WRITES: AtomicU64 = AtomicU64::new(0);

fn opt_u64(v: Option<u64>) -> Json {
    match v {
        Some(n) => Json::num_u64(n),
        None => Json::Null,
    }
}

/// The deterministic config rendering hashed into a cell key (and
/// recorded verbatim in failure entries as the *config fingerprint*).
/// Every simulation-relevant knob appears; host-side knobs (`--jobs`,
/// `fast_forward`) and the observability streams that skip the cache
/// read (timeline, metrics) deliberately do not.
/// Attribution and the cycle audit *are* keyed: they change what a
/// [`RunResult`] carries.
pub fn config_fingerprint_json(cfg: &WorkloadConfig) -> Json {
    let g = &cfg.gpu;
    let gpu = Json::obj()
        .with("num_sms", Json::num_u64(g.num_sms as u64))
        .with("max_warps_per_sm", Json::num_u64(g.max_warps_per_sm as u64))
        .with(
            "schedulers_per_sm",
            Json::num_u64(g.schedulers_per_sm as u64),
        )
        .with("warp_size", Json::num_u64(g.warp_size as u64))
        .with("alu_latency", Json::num_u64(g.alu_latency))
        .with("alu_chain_latency", Json::num_u64(g.alu_chain_latency))
        .with("branch_latency", Json::num_u64(g.branch_latency))
        .with(
            "indirect_call_latency",
            Json::num_u64(g.indirect_call_latency),
        )
        .with("ret_latency", Json::num_u64(g.ret_latency))
        .with("l1_latency", Json::num_u64(g.l1_latency))
        .with("l1_bytes", Json::num_u64(g.l1_bytes))
        .with("l1_ways", Json::num_u64(g.l1_ways as u64))
        .with("l2_latency", Json::num_u64(g.l2_latency))
        .with("l2_bytes", Json::num_u64(g.l2_bytes))
        .with("l2_ways", Json::num_u64(g.l2_ways as u64))
        .with("l2_slices", Json::num_u64(g.l2_slices as u64))
        .with("line_bytes", Json::num_u64(g.line_bytes))
        .with("sector_bytes", Json::num_u64(g.sector_bytes))
        .with("dram_latency", Json::num_u64(g.dram_latency))
        .with("dram_channels", Json::num_u64(g.dram_channels as u64))
        .with("dram_sector_cycles", Json::num_u64(g.dram_sector_cycles))
        .with(
            "max_pending_loads",
            Json::num_u64(g.max_pending_loads as u64),
        )
        .with("mshr_per_sm", Json::num_u64(g.mshr_per_sm as u64))
        .with("l1_queue_cap", Json::num_u64(g.l1_queue_cap))
        .with("const_latency", Json::num_u64(g.const_latency))
        .with("const_miss_latency", Json::num_u64(g.const_miss_latency))
        .with("const_bytes", Json::num_u64(g.const_bytes));
    Json::obj()
        .with("scale", Json::num_u64(cfg.scale as u64))
        .with("iterations", Json::num_u64(cfg.iterations as u64))
        .with("seed", Json::num_u64(cfg.seed))
        .with("initial_chunk_objs", Json::num_u64(cfg.initial_chunk_objs))
        .with(
            "allocator_override",
            match cfg.allocator_override {
                Some(AllocatorKind::Cuda) => Json::str("cuda"),
                Some(AllocatorKind::SharedOa) => Json::str("sharedoa"),
                None => Json::Null,
            },
        )
        .with("tag_mode", Json::str(cfg.tag_mode.label()))
        .with("coal_lookup", Json::str(cfg.coal_lookup.label()))
        .with("tag_budget", opt_u64(cfg.tag_budget))
        .with(
            "device_memory_bytes",
            Json::num_u64(cfg.device_memory_bytes),
        )
        .with("attribution", Json::Bool(cfg.probe.attribution))
        .with("cycle_audit", Json::Bool(cfg.probe.cycle_audit))
        .with("gpu", gpu)
}

/// The short hex fingerprint of a cell's configuration, as recorded in
/// manifest failure entries.
pub fn config_fingerprint(cfg: &WorkloadConfig) -> String {
    format!(
        "{:016x}",
        fnv1a64(config_fingerprint_json(cfg).render().as_bytes())
    )
}

/// The content-addressed key of a cell from its rendered parts: what
/// it simulates ([`crate::sweep::Sim::json`]), the strategy label and
/// the [`config_fingerprint_json`]. A 16-digit hex string, the cache
/// file's basename; [`verify_entry`] re-derives it from an entry.
fn key_of(sim: &Json, strategy: &str, config: &Json) -> String {
    let material = format!(
        "cellcache-v{CELLCACHE_SCHEMA_VERSION}\nsim={}\nstrategy={strategy}\n{}",
        sim.render(),
        config.render(),
    );
    format!("{:016x}", fnv1a64(material.as_bytes()))
}

/// The key of simulating `sim` under `strategy` with `cfg`.
pub fn cell_key(sim: &Sim, strategy: Strategy, cfg: &WorkloadConfig) -> String {
    key_of(&sim.json(), strategy.label(), &config_fingerprint_json(cfg))
}

fn u64_arr(v: &[u64]) -> Json {
    Json::Arr(v.iter().map(|&x| Json::num_u64(x)).collect())
}

fn parse_u64_arr(j: &Json) -> Option<Vec<u64>> {
    j.as_arr()?
        .iter()
        .map(|x| x.as_num().map(|n| n as u64))
        .collect()
}

fn log_hist_counts(h: &LogHist) -> Json {
    u64_arr(h.counts())
}

fn parse_log_hist(j: &Json) -> Option<LogHist> {
    let v = parse_u64_arr(j)?;
    let counts: [u64; LOG_HIST_BUCKETS] = v.try_into().ok()?;
    Some(LogHist::from_counts(counts))
}

fn attrib_json(b: &AttribBundle) -> Json {
    let p = &b.probe;
    let per_pc: Vec<Json> = p
        .per_pc
        .iter()
        .map(|(&(pc, tag), s)| {
            u64_arr(&[
                pc as u64,
                tag as u64,
                s.instructions,
                s.lanes,
                s.transactions,
                s.l1_hits,
            ])
        })
        .collect();
    let probe = Json::obj()
        .with("per_pc", Json::Arr(per_pc))
        .with("set_accesses", u64_arr(&p.set_accesses))
        .with("set_hits", u64_arr(&p.set_hits))
        .with("final_set_sectors", u64_arr(&p.final_set_sectors))
        .with(
            "reuse",
            Json::Arr(p.reuse.iter().map(log_hist_counts).collect()),
        )
        .with("cold_lines", u64_arr(&p.cold_lines))
        .with("sms", Json::num_u64(p.sms));
    let alloc = match &b.alloc {
        Some(a) => Json::obj()
            .with("merges", Json::num_u64(a.merges))
            .with("initial_chunk_objs", Json::num_u64(a.initial_chunk_objs))
            .with(
                "types",
                Json::Arr(
                    a.types
                        .iter()
                        .map(|t| {
                            u64_arr(&[
                                t.ty.0 as u64,
                                t.obj_size,
                                t.regions,
                                t.capacity_objs,
                                t.used_objs,
                                t.largest_region_objs,
                                t.next_region_objs,
                            ])
                        })
                        .collect(),
                ),
            ),
        None => Json::Null,
    };
    let lookup = match &b.lookup {
        Some(l) => Json::obj()
            .with("kind", Json::str(l.kind.label()))
            .with("num_ranges", Json::num_u64(l.num_ranges))
            .with("tree_depth", Json::num_u64(l.tree_depth as u64))
            .with("dispatches", Json::num_u64(l.dispatches))
            .with("lanes", Json::num_u64(l.lanes))
            .with("walk_depth", log_hist_counts(&l.walk_depth))
            .with("comparisons", log_hist_counts(&l.comparisons)),
        None => Json::Null,
    };
    let tags = match &b.tags {
        Some(t) => Json::obj()
            .with("tag_mode", Json::str(t.tag_mode.label()))
            .with("hardware_mask", Json::Bool(t.hardware_mask))
            .with("decode_dispatches", Json::num_u64(t.decode_dispatches))
            .with("decode_lanes", Json::num_u64(t.decode_lanes))
            .with("fallback_dispatches", Json::num_u64(t.fallback_dispatches))
            .with("fallback_lanes", Json::num_u64(t.fallback_lanes))
            .with("mask_ops", Json::num_u64(t.mask_ops)),
        None => Json::Null,
    };
    Json::obj()
        .with("probe", probe)
        .with("alloc", alloc)
        .with("lookup", lookup)
        .with("tags", tags)
}

fn parse_attrib(j: &Json) -> Option<AttribBundle> {
    let get_u64 = |o: &Json, k: &str| o.get(k).and_then(Json::as_num).map(|n| n as u64);
    let p = j.get("probe")?;
    let mut probe = AttribReport {
        set_accesses: parse_u64_arr(p.get("set_accesses")?)?,
        set_hits: parse_u64_arr(p.get("set_hits")?)?,
        final_set_sectors: parse_u64_arr(p.get("final_set_sectors")?)?,
        sms: get_u64(p, "sms")?,
        ..AttribReport::default()
    };
    for row in p.get("per_pc")?.as_arr()? {
        let v = parse_u64_arr(row)?;
        let [pc, tag, instructions, lanes, transactions, l1_hits] = v.try_into().ok()?;
        probe.per_pc.insert(
            (pc as usize, tag as usize),
            PcLoadStats {
                instructions,
                lanes,
                transactions,
                l1_hits,
            },
        );
    }
    let reuse = p.get("reuse")?.as_arr()?;
    if reuse.len() != probe.reuse.len() {
        return None;
    }
    for (slot, j) in probe.reuse.iter_mut().zip(reuse) {
        *slot = parse_log_hist(j)?;
    }
    probe.cold_lines = parse_u64_arr(p.get("cold_lines")?)?.try_into().ok()?;

    let alloc = match j.get("alloc")? {
        Json::Null => None,
        a => Some(AllocAttribSnapshot {
            merges: get_u64(a, "merges")?,
            initial_chunk_objs: get_u64(a, "initial_chunk_objs")?,
            types: a
                .get("types")?
                .as_arr()?
                .iter()
                .map(|row| {
                    let v = parse_u64_arr(row)?;
                    let [ty, obj_size, regions, capacity_objs, used_objs, largest, next] =
                        v.try_into().ok()?;
                    Some(TypeRegionStats {
                        ty: TypeKey(ty as u32),
                        obj_size,
                        regions,
                        capacity_objs,
                        used_objs,
                        largest_region_objs: largest,
                        next_region_objs: next,
                    })
                })
                .collect::<Option<Vec<_>>>()?,
        }),
    };
    let lookup = match j.get("lookup")? {
        Json::Null => None,
        l => Some(LookupAttrib {
            kind: match l.get("kind")?.as_str()? {
                "segment-tree" => LookupKind::SegmentTree,
                "linear-scan" => LookupKind::LinearScan,
                _ => return None,
            },
            num_ranges: get_u64(l, "num_ranges")?,
            tree_depth: get_u64(l, "tree_depth")? as u32,
            dispatches: get_u64(l, "dispatches")?,
            lanes: get_u64(l, "lanes")?,
            walk_depth: parse_log_hist(l.get("walk_depth")?)?,
            comparisons: parse_log_hist(l.get("comparisons")?)?,
        }),
    };
    let tags = match j.get("tags")? {
        Json::Null => None,
        t => Some(TagAttrib {
            tag_mode: match t.get("tag_mode")?.as_str()? {
                "offset" => TagMode::Offset,
                "index" => TagMode::Index,
                _ => return None,
            },
            hardware_mask: t.get("hardware_mask")?.as_bool()?,
            decode_dispatches: get_u64(t, "decode_dispatches")?,
            decode_lanes: get_u64(t, "decode_lanes")?,
            fallback_dispatches: get_u64(t, "fallback_dispatches")?,
            fallback_lanes: get_u64(t, "fallback_lanes")?,
            mask_ops: get_u64(t, "mask_ops")?,
        }),
    };
    Some(AttribBundle {
        probe,
        alloc,
        lookup,
        tags,
    })
}

fn audit_json(a: &CycleAuditReport) -> Json {
    // One row per indirect-call site: [pc, calls, unknown_calls,
    // overflowed, target, target, ...]. Targets are FuncIds (u32-sized),
    // so the f64 JSON number range is never a concern.
    let sites: Vec<Json> = a
        .call_sites
        .iter()
        .map(|(&pc, s)| {
            let mut row = vec![pc as u64, s.calls, s.unknown_calls, s.overflowed as u64];
            row.extend(s.targets.iter().copied());
            u64_arr(&row)
        })
        .collect();
    Json::obj()
        .with(
            "counters",
            u64_arr(&[
                a.sms,
                a.audited_cycles,
                a.active,
                a.stalled_known,
                a.stalled_other,
                a.drained,
                a.skipped,
                a.tail,
            ]),
        )
        .with("gap_hist", log_hist_counts(&a.gap_hist))
        .with("call_sites", Json::Arr(sites))
}

fn parse_audit(j: &Json) -> Option<CycleAuditReport> {
    let c = parse_u64_arr(j.get("counters")?)?;
    let [sms, audited_cycles, active, stalled_known, stalled_other, drained, skipped, tail] =
        c.try_into().ok()?;
    let mut a = CycleAuditReport {
        sms,
        audited_cycles,
        active,
        stalled_known,
        stalled_other,
        drained,
        skipped,
        tail,
        gap_hist: parse_log_hist(j.get("gap_hist")?)?,
        ..CycleAuditReport::default()
    };
    for row in j.get("call_sites")?.as_arr()? {
        let v = parse_u64_arr(row)?;
        if v.len() < 4 {
            return None;
        }
        a.call_sites.insert(
            v[0] as usize,
            CallSiteStats {
                calls: v[1],
                unknown_calls: v[2],
                overflowed: v[3] != 0,
                targets: v[4..].iter().copied().collect(),
            },
        );
    }
    Some(a)
}

fn result_json(r: &RunResult) -> Json {
    let s = &r.stats;
    let stats = Json::obj()
        .with(
            "scalars",
            u64_arr(&[
                s.cycles,
                s.instrs_mem,
                s.instrs_compute,
                s.instrs_ctrl,
                s.global_load_transactions,
                s.global_store_transactions,
                s.l1_accesses,
                s.l1_hits,
                s.l2_accesses,
                s.l2_hits,
                s.dram_accesses,
                s.const_accesses,
                s.const_hits,
                s.warps,
                s.vfunc_calls,
            ]),
        )
        .with("stall_by_tag", u64_arr(&s.stall_by_tag))
        .with(
            "load_transactions_by_tag",
            u64_arr(&s.load_transactions_by_tag),
        );
    Json::obj()
        // A 64-bit digest routinely exceeds 2^53 — unrepresentable in an
        // f64 JSON number, so it travels as a hex string.
        .with("checksum", Json::str(format!("{:016x}", r.checksum)))
        .with("stats", stats)
        .with("init_cycles", Json::num_u64(r.init_cycles))
        .with(
            "alloc_stats",
            u64_arr(&[
                r.alloc_stats.objects,
                r.alloc_stats.used_bytes,
                r.alloc_stats.reserved_bytes,
                r.alloc_stats.regions,
            ]),
        )
        .with(
            "table2",
            Json::obj()
                .with("objects", Json::num_u64(r.table2.objects))
                .with("types", Json::num_u64(r.table2.types as u64))
                .with(
                    "vfunc_entries",
                    Json::num_u64(r.table2.vfunc_entries as u64),
                )
                .with("vfunc_pki", Json::Num(r.table2.vfunc_pki)),
        )
        .with(
            "metrics",
            Json::Arr(
                r.metrics
                    .iter()
                    .map(|&(k, v)| Json::Arr(vec![Json::str(k), Json::Num(v)]))
                    .collect(),
            ),
        )
        .with(
            "attrib",
            match &r.attrib {
                Some(b) => attrib_json(b),
                None => Json::Null,
            },
        )
        .with(
            "audit",
            match &r.audit {
                Some(a) => audit_json(a),
                None => Json::Null,
            },
        )
}

fn parse_result(j: &Json) -> Option<RunResult> {
    let scalars = parse_u64_arr(j.get("stats")?.get("scalars")?)?;
    let [cycles, instrs_mem, instrs_compute, instrs_ctrl, global_load_transactions, global_store_transactions, l1_accesses, l1_hits, l2_accesses, l2_hits, dram_accesses, const_accesses, const_hits, warps, vfunc_calls] =
        scalars.try_into().ok()?;
    let mut stats = gvf_sim::Stats::new();
    stats.cycles = cycles;
    stats.instrs_mem = instrs_mem;
    stats.instrs_compute = instrs_compute;
    stats.instrs_ctrl = instrs_ctrl;
    stats.global_load_transactions = global_load_transactions;
    stats.global_store_transactions = global_store_transactions;
    stats.l1_accesses = l1_accesses;
    stats.l1_hits = l1_hits;
    stats.l2_accesses = l2_accesses;
    stats.l2_hits = l2_hits;
    stats.dram_accesses = dram_accesses;
    stats.const_accesses = const_accesses;
    stats.const_hits = const_hits;
    stats.warps = warps;
    stats.vfunc_calls = vfunc_calls;
    stats.stall_by_tag = parse_u64_arr(j.get("stats")?.get("stall_by_tag")?)?
        .try_into()
        .ok()?;
    stats.load_transactions_by_tag =
        parse_u64_arr(j.get("stats")?.get("load_transactions_by_tag")?)?
            .try_into()
            .ok()?;

    let a = parse_u64_arr(j.get("alloc_stats")?)?;
    let [objects, used_bytes, reserved_bytes, regions] = a.try_into().ok()?;
    let t2 = j.get("table2")?;
    let num = |o: &Json, k: &str| o.get(k).and_then(Json::as_num);
    let metrics = j
        .get("metrics")?
        .as_arr()?
        .iter()
        .map(|pair| {
            let pair = pair.as_arr()?;
            let key = pair.first()?.as_str()?;
            let value = pair.get(1)?.as_num()?;
            // Metric keys are a small closed set per workload; leaking
            // the decoded string restores the `&'static str` the struct
            // carries. Bounded: one leak per distinct key per process.
            Some((&*Box::leak(key.to_string().into_boxed_str()), value))
        })
        .collect::<Option<Vec<_>>>()?;
    Some(RunResult {
        stats,
        checksum: u64::from_str_radix(j.get("checksum")?.as_str()?, 16).ok()?,
        alloc_stats: AllocStats {
            objects,
            used_bytes,
            reserved_bytes,
            regions,
        },
        init_cycles: num(j, "init_cycles")? as u64,
        table2: Table2Row {
            objects: num(t2, "objects")? as u64,
            types: num(t2, "types")? as u32,
            vfunc_entries: num(t2, "vfunc_entries")? as u32,
            vfunc_pki: num(t2, "vfunc_pki")?,
        },
        metrics,
        obs: None,
        attrib: match j.get("attrib")? {
            Json::Null => None,
            b => Some(parse_attrib(b)?),
        },
        audit: match j.get("audit")? {
            Json::Null => None,
            a => Some(parse_audit(a)?),
        },
    })
}

/// Builds the `gvf.cellcache` entry document for one completed cell:
/// its key material, the model fingerprint that produced it, the
/// result, and the content hash sealing all of it.
pub fn entry_doc(
    sim: &Sim,
    strategy: Strategy,
    cfg: &WorkloadConfig,
    model: &str,
    r: &RunResult,
) -> Json {
    let doc = |hash: &str| {
        Json::obj()
            .with("schema", Json::str(CELLCACHE_SCHEMA))
            .with("version", Json::num_u64(CELLCACHE_SCHEMA_VERSION as u64))
            .with("sim", sim.json())
            .with("strategy", Json::str(strategy.label()))
            .with("config", config_fingerprint_json(cfg))
            .with("model", Json::str(model))
            .with("contentHash", Json::str(hash))
            .with("result", result_json(r))
    };
    doc(&content_hash(&doc("")))
}

/// The integrity hash of an entry: FNV-1a over the document's rendering
/// with `contentHash` blanked. Re-derivable by any consumer, so a
/// poisoned entry (edited counters, stale hash) is detectable without
/// re-simulating.
pub fn content_hash(doc: &Json) -> String {
    let blanked = match doc {
        Json::Obj(members) => Json::Obj(
            members
                .iter()
                .map(|(k, v)| {
                    if k == "contentHash" {
                        (k.clone(), Json::str(""))
                    } else {
                        (k.clone(), v.clone())
                    }
                })
                .collect(),
        ),
        other => other.clone(),
    };
    format!("{:016x}", fnv1a64(blanked.render().as_bytes()))
}

/// Structural + integrity validation of a parsed cache entry: the
/// content hash matches and the result decodes. Returns the entry's
/// key, derived from its recorded sim, strategy and config, with the
/// decoded result — or a human-readable reason for the rejection
/// (shared by the cache's reads and `validate_json`). An entry of
/// another model passes: it is well-formed, just not a hit.
pub fn verify_entry(doc: &Json) -> Result<(String, RunResult), String> {
    if doc.get("schema").and_then(Json::as_str) != Some(CELLCACHE_SCHEMA) {
        return Err("schema is not gvf.cellcache".to_string());
    }
    if doc.get("version").and_then(Json::as_num) != Some(CELLCACHE_SCHEMA_VERSION as f64) {
        return Err(format!(
            "unsupported version (want {CELLCACHE_SCHEMA_VERSION})"
        ));
    }
    let field = |name: &str| doc.get(name).ok_or(format!("missing {name}"));
    let string = |name: &str| {
        field(name)?
            .as_str()
            .ok_or(format!("{name} is not a string"))
    };
    let (strategy, recorded) = (string("strategy")?, string("contentHash")?);
    string("model")?;
    let actual = content_hash(doc);
    if recorded != actual {
        return Err(format!(
            "content hash mismatch (recorded {recorded}, actual {actual}) — entry is corrupt or poisoned"
        ));
    }
    let key = key_of(field("sim")?, strategy, field("config")?);
    let result = parse_result(field("result")?).ok_or("result section does not decode")?;
    Ok((key, result))
}

/// The cache directory of one run. A `None` directory disables it —
/// [`CellCache::run`] then always simulates.
pub struct CellCache {
    dir: Option<std::path::PathBuf>,
    quiet: bool,
}

impl CellCache {
    /// A cache rooted at `dir` (`None` = disabled); `quiet` silences
    /// the stderr notes about rejected entries and failed writes.
    pub fn new(dir: Option<&str>, quiet: bool) -> Self {
        CellCache {
            dir: dir.map(Into::into),
            quiet,
        }
    }

    /// The cache of a run: `--cache-dir`, else `.cellcache/` next to the
    /// `--json-out` artifact; disabled by `--no-cache` or when neither
    /// flag gives a directory.
    pub fn for_run(opts: &HarnessOpts) -> Self {
        let dir = opts.cache_dir.clone().or_else(|| {
            opts.json_out.as_ref().map(|p| {
                let parent = std::path::Path::new(p)
                    .parent()
                    .filter(|d| !d.as_os_str().is_empty())
                    .unwrap_or_else(|| std::path::Path::new("."));
                parent.join(CELLCACHE_DIR).to_string_lossy().into_owned()
            })
        });
        CellCache::new(dir.filter(|_| !opts.no_cache).as_deref(), opts.quiet)
    }

    fn note(&self, msg: std::fmt::Arguments) {
        if !self.quiet {
            eprintln!("[cellcache] {msg}");
        }
    }

    fn try_read(&self, path: &std::path::Path, key: &str) -> Option<RunResult> {
        let doc = Json::parse(&std::fs::read_to_string(path).ok()?).ok()?;
        match verify_entry(&doc) {
            Err(reason) => {
                self.note(format_args!("ignoring entry {}: {reason}", path.display()));
                None
            }
            Ok((derived, _)) if derived != key => {
                self.note(format_args!(
                    "ignoring entry {}: filed under another key",
                    path.display()
                ));
                None
            }
            Ok(_) if doc.get("model").and_then(Json::as_str) != Some(MODEL_FINGERPRINT) => {
                self.note(format_args!(
                    "entry {} is from another build of the model; re-simulating",
                    path.display()
                ));
                None
            }
            Ok((_, result)) => Some(result),
        }
    }

    fn write(&self, path: &std::path::Path, doc: &Json) {
        // Atomic publish under a writer-unique temporary name: a
        // concurrent or killed writer never leaves a torn entry under
        // the final name. I/O errors only cost the cache, never the run.
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = path.with_extension(format!(
            "{}.{}.tmp",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let ok = (|| -> std::io::Result<()> {
            if let Some(parent) = path.parent() {
                std::fs::create_dir_all(parent)?;
            }
            std::fs::write(&tmp, doc.render())?;
            std::fs::rename(&tmp, path)
        })();
        match ok {
            Ok(()) => {
                CACHE_WRITES.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                self.note(format_args!(
                    "could not write entry {}: {e}",
                    path.display()
                ));
            }
        }
    }

    /// Produces grid cell `index`'s result: from the cache when a valid
    /// entry of this model exists, otherwise by running `f` (and
    /// persisting its result). Cells whose probe spec records timeline
    /// or metrics streams skip the read but persist their result (see
    /// the module docs); like every cell that runs `f`, they count as
    /// simulated.
    pub fn run(
        &self,
        index: usize,
        sim: &Sim,
        strategy: Strategy,
        cfg: &WorkloadConfig,
        f: impl FnOnce() -> RunResult,
    ) -> RunResult {
        let Some(dir) = self.dir.as_ref() else {
            SIMULATED.fetch_add(1, Ordering::Relaxed);
            return f();
        };
        let observed = cfg.probe.timeline_events_per_sm > 0 || cfg.probe.metrics_bucket_cycles > 0;
        let key = cell_key(sim, strategy, cfg);
        let path = dir.join(format!("{key}.json"));
        let cached = if observed {
            None
        } else {
            self.try_read(&path, &key)
        };
        if let Some(r) = cached {
            CACHE_HITS.fetch_add(1, Ordering::Relaxed);
            // The pool will report this cell finished; the events
            // stream turns that into a cellCacheHit terminal.
            crate::events::note_cache_hit(index, &key);
            return r;
        }
        SIMULATED.fetch_add(1, Ordering::Relaxed);
        let r = f();
        self.write(&path, &entry_doc(sim, strategy, cfg, MODEL_FINGERPRINT, &r));
        r
    }
}

/// This process's cache counters for the manifest's `hostPerf` section:
/// `cachedCells` came from the cache, `simulatedCells` ran (cache
/// misses, probed cells that skip the read and cells of a disabled
/// cache alike), and `entriesWritten` were persisted.
pub fn counters_json() -> Json {
    Json::obj()
        .with(
            "cachedCells",
            Json::num_u64(CACHE_HITS.load(Ordering::Relaxed)),
        )
        .with(
            "simulatedCells",
            Json::num_u64(SIMULATED.load(Ordering::Relaxed)),
        )
        .with(
            "entriesWritten",
            Json::num_u64(CACHE_WRITES.load(Ordering::Relaxed)),
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gvf_workloads::WorkloadConfig;

    fn sample_result() -> RunResult {
        let mut stats = gvf_sim::Stats::new();
        stats.cycles = 12345;
        stats.instrs_mem = 100;
        stats.l1_accesses = 64;
        stats.l1_hits = 32;
        stats.stall_by_tag[0] = 7;
        stats.load_transactions_by_tag[1] = 9;
        let mut walk = LogHist::new();
        walk.record(3);
        walk.record(900);
        let mut probe = AttribReport {
            sms: 2,
            set_accesses: vec![1, 2, 3],
            set_hits: vec![1, 0, 2],
            final_set_sectors: vec![4, 4, 0],
            ..AttribReport::default()
        };
        probe.per_pc.insert(
            (7, 1),
            PcLoadStats {
                instructions: 2,
                lanes: 64,
                transactions: 9,
                l1_hits: 5,
            },
        );
        RunResult {
            stats,
            checksum: u64::MAX - 17, // exercises the > 2^53 hex path
            alloc_stats: AllocStats {
                objects: 10,
                used_bytes: 640,
                reserved_bytes: 1024,
                regions: 2,
            },
            init_cycles: 999,
            table2: Table2Row {
                objects: 10,
                types: 3,
                vfunc_entries: 12,
                vfunc_pki: 1.625,
            },
            metrics: vec![("alive", 42.0), ("level_sum", 7.5)],
            obs: None,
            attrib: Some(AttribBundle {
                probe,
                alloc: Some(AllocAttribSnapshot {
                    merges: 1,
                    initial_chunk_objs: 64,
                    types: vec![TypeRegionStats {
                        ty: TypeKey(3),
                        obj_size: 64,
                        regions: 2,
                        capacity_objs: 128,
                        used_objs: 100,
                        largest_region_objs: 64,
                        next_region_objs: 128,
                    }],
                }),
                lookup: Some(LookupAttrib {
                    kind: LookupKind::SegmentTree,
                    num_ranges: 5,
                    tree_depth: 3,
                    dispatches: 11,
                    lanes: 300,
                    walk_depth: walk,
                    comparisons: walk,
                }),
                tags: Some(TagAttrib {
                    tag_mode: TagMode::Offset,
                    hardware_mask: true,
                    decode_dispatches: 11,
                    decode_lanes: 300,
                    fallback_dispatches: 1,
                    fallback_lanes: 2,
                    mask_ops: 0,
                }),
            }),
            audit: Some({
                let mut a = CycleAuditReport {
                    sms: 2,
                    audited_cycles: 12345,
                    active: 400,
                    stalled_known: 100,
                    stalled_other: 50,
                    drained: 20,
                    skipped: 24000,
                    tail: 120,
                    ..CycleAuditReport::default()
                };
                a.gap_hist.record(7);
                a.gap_hist.record_n(1000, 3);
                a.call_sites.insert(
                    9,
                    CallSiteStats {
                        calls: 12,
                        unknown_calls: 1,
                        targets: [2u64, 5, 6].into_iter().collect(),
                        overflowed: false,
                    },
                );
                a
            }),
        }
    }

    fn results_equal(a: &RunResult, b: &RunResult) {
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.alloc_stats, b.alloc_stats);
        assert_eq!(a.init_cycles, b.init_cycles);
        assert_eq!(a.table2.objects, b.table2.objects);
        assert_eq!(a.table2.types, b.table2.types);
        assert_eq!(a.table2.vfunc_entries, b.table2.vfunc_entries);
        assert_eq!(a.table2.vfunc_pki, b.table2.vfunc_pki);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.attrib, b.attrib);
        assert_eq!(a.audit, b.audit);
        assert!(b.obs.is_none());
    }

    fn gol() -> Sim {
        Sim::Workload(gvf_workloads::WorkloadKind::GameOfLife)
    }

    #[test]
    fn entry_round_trips_losslessly() {
        let r = sample_result();
        let cfg = WorkloadConfig::tiny();
        let doc = entry_doc(&gol(), Strategy::Coal, &cfg, MODEL_FINGERPRINT, &r);
        let parsed = Json::parse(&doc.render()).expect("parse");
        let (key, decoded) = verify_entry(&parsed).expect("verifies");
        assert_eq!(key, cell_key(&gol(), Strategy::Coal, &cfg));
        results_equal(&r, &decoded);
    }

    #[test]
    fn tampering_breaks_the_content_hash() {
        let r = sample_result();
        let cfg = WorkloadConfig::tiny();
        let doc = entry_doc(&gol(), Strategy::Cuda, &cfg, MODEL_FINGERPRINT, &r);
        verify_entry(&doc).expect("fresh entry verifies");
        // Poison a counter without updating the hash.
        let poisoned = Json::parse(&doc.render().replace("12345", "1")).expect("parse");
        let err = verify_entry(&poisoned).expect_err("poisoned entry rejected");
        assert!(err.contains("content hash mismatch"), "{err}");
    }

    #[test]
    fn key_tracks_what_is_simulated_not_where() {
        let cfg = WorkloadConfig::tiny();
        let base = cell_key(&gol(), Strategy::Cuda, &cfg);
        assert_eq!(base, cell_key(&gol(), Strategy::Cuda, &cfg), "stable");
        // No generator and no grid index exist to key on: the key is a
        // function of (sim, strategy, cfg) alone.
        let other_kind = Sim::Workload(gvf_workloads::WorkloadKind::VeBfs);
        assert_ne!(
            base,
            cell_key(&other_kind, Strategy::Cuda, &cfg),
            "workload keyed"
        );
        let micro =
            |n_objects, n_types| Sim::Micro(gvf_workloads::MicroParams { n_objects, n_types });
        let m = cell_key(&micro(1024, 4), Strategy::Cuda, &cfg);
        assert_ne!(m, base, "micro vs workload keyed");
        assert_ne!(
            m,
            cell_key(&micro(2048, 4), Strategy::Cuda, &cfg),
            "n_objects keyed"
        );
        assert_ne!(
            m,
            cell_key(&micro(1024, 8), Strategy::Cuda, &cfg),
            "n_types keyed"
        );
        assert_ne!(
            base,
            cell_key(&gol(), Strategy::Coal, &cfg),
            "strategy keyed"
        );
        let mut other = cfg.clone();
        other.seed ^= 1;
        assert_ne!(
            base,
            cell_key(&gol(), Strategy::Cuda, &other),
            "config keyed"
        );
        let mut chunk = cfg.clone();
        chunk.initial_chunk_objs *= 2;
        assert_ne!(
            base,
            cell_key(&gol(), Strategy::Cuda, &chunk),
            "overrides keyed"
        );
        // Host-side knobs are excluded, like the determinism view.
        let mut no_ff = cfg.clone();
        no_ff.fast_forward = false;
        assert_eq!(
            base,
            cell_key(&gol(), Strategy::Cuda, &no_ff),
            "fast_forward excluded"
        );
        // Attribution and the audit change what a RunResult carries, so
        // the probe spec is keyed.
        let mut audited = cfg.clone();
        audited.probe.cycle_audit = true;
        assert_ne!(
            base,
            cell_key(&gol(), Strategy::Cuda, &audited),
            "cycle_audit keyed"
        );
        let mut attributed = cfg.clone();
        attributed.probe.attribution = true;
        assert_ne!(
            base,
            cell_key(&gol(), Strategy::Cuda, &attributed),
            "attribution keyed"
        );
    }

    fn temp_cache(tag: &str) -> (std::path::PathBuf, CellCache) {
        let dir = std::env::temp_dir().join(format!("gvf-cellcache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = CellCache::new(Some(&dir.to_string_lossy()), true);
        (dir, cache)
    }

    #[test]
    fn cache_round_trips_through_disk() {
        let (dir, cache) = temp_cache("roundtrip");
        let cfg = WorkloadConfig::tiny();
        let ran = std::cell::Cell::new(0);
        let run = |cfg: &WorkloadConfig| {
            cache.run(0, &gol(), Strategy::Cuda, cfg, || {
                ran.set(ran.get() + 1);
                sample_result()
            })
        };
        let r1 = run(&cfg);
        let r2 = run(&cfg);
        results_equal(&r1, &r2);
        // Probed cells skip the read: a cached cell re-simulates.
        let mut probed = cfg.clone();
        probed.probe.timeline_events_per_sm = 16;
        run(&probed);
        assert_eq!(
            ran.get(),
            2,
            "second run came from the cache; observed cell re-simulated"
        );
        // ... but write their result, which an unprobed run reads back.
        let mut fresh = cfg.clone();
        fresh.seed += 1;
        let mut fresh_probed = fresh.clone();
        fresh_probed.probe.metrics_bucket_cycles = 64;
        run(&fresh_probed);
        run(&fresh);
        assert_eq!(
            ran.get(),
            3,
            "the observed cell's entry served the unprobed run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_of_another_model_is_resimulated_and_overwritten() {
        let (dir, cache) = temp_cache("model");
        let cfg = WorkloadConfig::tiny();
        let key = cell_key(&gol(), Strategy::Cuda, &cfg);
        let path = dir.join(format!("{key}.json"));
        std::fs::create_dir_all(&dir).expect("create cache dir");
        let mut stale = sample_result();
        stale.stats.cycles = 1;
        let other_model = "0123456789abcdef";
        assert_ne!(other_model, MODEL_FINGERPRINT);
        let doc = entry_doc(&gol(), Strategy::Cuda, &cfg, other_model, &stale);
        verify_entry(&doc).expect("another model's entry is well-formed");
        std::fs::write(&path, doc.render()).expect("plant stale entry");

        let mut ran = 0;
        let r = cache.run(0, &gol(), Strategy::Cuda, &cfg, || {
            ran += 1;
            sample_result()
        });
        assert_eq!(ran, 1, "stale entry is a miss");
        assert_eq!(r.stats.cycles, sample_result().stats.cycles);
        let rewritten =
            Json::parse(&std::fs::read_to_string(&path).expect("entry")).expect("parse");
        assert_eq!(
            rewritten.get("model").and_then(Json::as_str),
            Some(MODEL_FINGERPRINT),
            "entry overwritten with this model's result"
        );
        let again = cache.run(0, &gol(), Strategy::Cuda, &cfg, || {
            ran += 1;
            sample_result()
        });
        assert_eq!(ran, 1, "the rewritten entry hits");
        results_equal(&r, &again);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_filed_under_another_key_is_not_a_hit() {
        let (dir, cache) = temp_cache("misfiled");
        let cfg = WorkloadConfig::tiny();
        std::fs::create_dir_all(&dir).expect("create cache dir");
        // A well-formed COAL entry under the CUDA cell's key.
        let coal = entry_doc(
            &gol(),
            Strategy::Coal,
            &cfg,
            MODEL_FINGERPRINT,
            &sample_result(),
        );
        let cuda_key = cell_key(&gol(), Strategy::Cuda, &cfg);
        std::fs::write(dir.join(format!("{cuda_key}.json")), coal.render()).expect("plant");
        let mut ran = 0;
        cache.run(0, &gol(), Strategy::Cuda, &cfg, || {
            ran += 1;
            sample_result()
        });
        assert_eq!(ran, 1, "misfiled entry re-simulated");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
