//! Property tests for the run-comparison engine (`gvf_bench::rundiff`)
//! on the in-repo `gvf-prop` harness, pinning the acceptance contract
//! over generated trees rather than one hand-picked example:
//!
//! - **A/A**: diffing any tree against itself is semantically and
//!   coverage-clean, and the rendered `gvf.rundiff` artifact is
//!   byte-identical no matter what wall-clock numbers the tree's
//!   `hostPerf` sections carry (the `--jobs`-independence CI enforces
//!   on real runs);
//! - a mutated `Stats` counter in any cell is flagged as semantic
//!   drift with its exact counter path;
//! - a large injected slowdown on any span is the top-ranked span
//!   mover and names the run in the summary's top causes;
//! - dropping or failing cells on one side is coverage drift with the
//!   right added/removed split;
//! - every document the engine emits passes its own validator
//!   ([`gvf_bench::rundiff::check_doc`]).

use gvf_bench::json::Json;
use gvf_bench::rundiff::{check_doc, diff_trees, RunArtifacts, RunTree};
use gvf_bench::schemas;
use gvf_prop::{props, Rng};

const WORKLOADS: [&str; 4] = ["bank", "nbody", "shapes", "rays"];
const STRATEGIES: [&str; 3] = ["vtable", "typeptr", "sorted"];

/// One generated grid cell: coordinates plus a couple of `Stats`
/// counters and a derived measure, mirroring the real manifest shape.
#[derive(Clone)]
struct CellSpec {
    workload: &'static str,
    strategy: &'static str,
    cycles: u64,
    l1_hits: u64,
}

fn arb_cells(rng: &mut Rng) -> Vec<CellSpec> {
    // Distinct (workload, strategy) coordinates so pairing is exact.
    let mut coords: Vec<(&str, &str)> = Vec::new();
    for w in WORKLOADS {
        for s in STRATEGIES {
            coords.push((w, s));
        }
    }
    let n = rng.range_usize(1, 7);
    (0..n)
        .map(|i| {
            let (workload, strategy) = coords[i];
            CellSpec {
                workload,
                strategy,
                cycles: rng.range_u64(1, 1 << 30),
                l1_hits: rng.range_u64(0, 1 << 20),
            }
        })
        .collect()
}

fn cell_json(c: &CellSpec) -> Json {
    Json::obj()
        .with("workload", Json::str(c.workload))
        .with("strategy", Json::str(c.strategy))
        .with(
            "stats",
            Json::obj()
                .with("cycles", Json::num_u64(c.cycles))
                .with("l1_hits", Json::num_u64(c.l1_hits)),
        )
        .with(
            "derived",
            Json::obj().with("ipc", Json::Num(c.cycles as f64 / 1e9)),
        )
}

/// A manifest over `cells` with the given wall clock — the wall feeds
/// only `hostPerf`, which the A/A property asserts never leaks into
/// the rendered diff.
fn manifest(generator: &str, cells: &[CellSpec], wall_s: f64) -> Json {
    schemas::RUN_MANIFEST
        .header()
        .with("generator", Json::str(generator))
        .with(
            "config",
            Json::obj()
                .with("scale", Json::num_u64(4))
                .with("configFingerprint", Json::str("feedfacecafebeef")),
        )
        .with("cells", Json::Arr(cells.iter().map(cell_json).collect()))
        .with(
            "hostPerf",
            Json::obj().with("wall_s", Json::Num(wall_s)).with(
                "throughput",
                Json::obj().with("sim_cycles_per_sec", Json::Num(1e9 / wall_s)),
            ),
        )
}

fn profile(spans: &[(&str, u64)]) -> Json {
    schemas::HOSTPROFILE
        .header()
        .with(
            "spans",
            Json::Arr(
                spans
                    .iter()
                    .map(|(path, excl)| {
                        Json::obj()
                            .with("path", Json::str(*path))
                            .with("count", Json::num_u64(1))
                            .with("totalNs", Json::num_u64(*excl))
                            .with("exclusiveNs", Json::num_u64(*excl))
                    })
                    .collect(),
            ),
        )
        .with("collapsedStacks", Json::str(""))
}

fn run(generator: &str, manifest: Json, profile: Option<Json>) -> RunArtifacts {
    RunArtifacts {
        generator: generator.to_string(),
        manifest,
        attribution: None,
        audit: None,
        profile,
        events: None,
    }
}

fn tree(runs: Vec<RunArtifacts>) -> RunTree {
    RunTree { runs }
}

fn summary_flag(doc: &Json, key: &str) -> bool {
    doc.get("summary")
        .and_then(|s| s.get(key))
        .and_then(Json::as_bool)
        .unwrap_or(false)
}

#[test]
fn aa_self_diff_is_clean_and_wall_clock_independent() {
    props!(64, |rng| {
        let gens = ["fig7", "fig8", "table1"];
        let n_runs = rng.range_usize(1, 4);
        let specs: Vec<(&str, Vec<CellSpec>)> =
            (0..n_runs).map(|i| (gens[i], arb_cells(rng))).collect();
        let build = |wall_mult: f64| {
            tree(
                specs
                    .iter()
                    .map(|(g, cells)| run(g, manifest(g, cells, 2.0 * wall_mult), None))
                    .collect(),
            )
        };
        let a = build(1.0);
        // The same simulated results at a very different wall clock, as
        // a different --jobs setting would produce.
        let b = build(1.0 + rng.f64() * 7.0);
        let aa = diff_trees(&a, &a);
        let bb = diff_trees(&b, &b);
        assert_eq!(
            aa.render(),
            bb.render(),
            "A/A artifact must be independent of the tree's wall clock"
        );
        assert!(summary_flag(&aa, "semanticClean"));
        assert!(summary_flag(&aa, "coverageClean"));
        check_doc(&aa).expect("self-diff validates");
    });
}

#[test]
fn any_mutated_counter_is_semantic_drift_with_its_exact_path() {
    props!(64, |rng| {
        let cells = arb_cells(rng);
        let idx = rng.range_usize(0, cells.len());
        let mut mutated = cells.clone();
        // Flip one of the two counters in one cell.
        let field = if rng.bool(0.5) {
            mutated[idx].l1_hits = mutated[idx].l1_hits.wrapping_add(1);
            "l1_hits"
        } else {
            mutated[idx].cycles += 1;
            "cycles"
        };
        let a = tree(vec![run("fig7", manifest("fig7", &cells, 2.0), None)]);
        let b = tree(vec![run("fig7", manifest("fig7", &mutated, 2.0), None)]);
        let doc = diff_trees(&a, &b);
        assert!(!summary_flag(&doc, "semanticClean"));
        let runs = doc.get("runs").and_then(Json::as_arr).unwrap();
        let diffs = runs[0]
            .get("semantic")
            .and_then(|s| s.get("statsDiffs"))
            .and_then(Json::as_arr)
            .unwrap();
        let want = format!("cells[{idx}].stats.{field}");
        assert!(
            diffs
                .iter()
                .any(|d| d.get("path").and_then(Json::as_str) == Some(&want)),
            "statsDiffs must name {want}"
        );
        // The derived ipc moved with cycles; nothing else did.
        for d in diffs {
            let path = d.get("path").and_then(Json::as_str).unwrap();
            assert!(
                path.starts_with(&format!("cells[{idx}].")),
                "only the mutated cell may drift, got {path}"
            );
        }
        check_doc(&doc).expect("semantic drift doc validates");
    });
}

#[test]
fn injected_slowdown_tops_the_span_movers_and_causes() {
    props!(64, |rng| {
        let spans = [
            "pool.cell",
            "pool.cell;kernel.timing",
            "pool.cell;sweep.slow_cell_injection",
            "report.render",
        ];
        let base: Vec<(&str, u64)> = spans
            .iter()
            .map(|p| (*p, rng.range_u64(1_000_000, 50_000_000)))
            .collect();
        let slow_idx = rng.range_usize(0, spans.len());
        let current: Vec<(&str, u64)> = base
            .iter()
            .enumerate()
            .map(|(i, (p, ns))| (*p, if i == slow_idx { ns * 10 } else { *ns }))
            .collect();
        let cells = arb_cells(rng);
        let a = tree(vec![run(
            "fig7",
            manifest("fig7", &cells, 2.0),
            Some(profile(&base)),
        )]);
        let b = tree(vec![run(
            "fig7",
            manifest("fig7", &cells, 9.0),
            Some(profile(&current)),
        )]);
        let doc = diff_trees(&a, &b);
        // Pure wall-clock movement: still semantically clean.
        assert!(summary_flag(&doc, "semanticClean"));
        let runs = doc.get("runs").and_then(Json::as_arr).unwrap();
        let movers = runs[0]
            .get("performance")
            .and_then(|p| p.get("spanMovers"))
            .and_then(Json::as_arr)
            .unwrap();
        let top = movers[0].get("path").and_then(Json::as_str).unwrap();
        assert_eq!(top, spans[slow_idx], "top mover must be the slowed span");
        let causes = doc
            .get("summary")
            .and_then(|s| s.get("topCauses"))
            .and_then(Json::as_arr)
            .unwrap();
        let lead = causes[0].as_str().unwrap();
        assert!(
            lead.contains(spans[slow_idx]) && lead.contains("fig7"),
            "top cause must name run and span, got {lead:?}"
        );
        check_doc(&doc).expect("performance drift doc validates");
    });
}

#[test]
fn dropped_cells_are_coverage_drift() {
    props!(64, |rng| {
        let cells = loop {
            let c = arb_cells(rng);
            if c.len() >= 2 {
                break c;
            }
        };
        let keep = rng.range_usize(0, cells.len());
        let kept: Vec<CellSpec> = cells
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != keep)
            .map(|(_, c)| c.clone())
            .collect();
        let a = tree(vec![run("fig7", manifest("fig7", &cells, 2.0), None)]);
        let b = tree(vec![run("fig7", manifest("fig7", &kept, 2.0), None)]);
        let doc = diff_trees(&a, &b);
        assert!(!summary_flag(&doc, "coverageClean"));
        // The drop is pure coverage: the surviving cells still agree.
        assert!(summary_flag(&doc, "semanticClean"));
        let runs = doc.get("runs").and_then(Json::as_arr).unwrap();
        let cov = runs[0].get("coverage").unwrap();
        let arr_len = |k: &str| cov.get(k).and_then(Json::as_arr).map(<[_]>::len);
        assert_eq!(arr_len("removedCells"), Some(1), "one cell removed");
        assert_eq!(arr_len("addedCells"), Some(0));
        // The reverse diff sees the same cell as added.
        let rev = diff_trees(&b, &a);
        let rruns = rev.get("runs").and_then(Json::as_arr).unwrap();
        let rcov = rruns[0].get("coverage").unwrap();
        assert_eq!(
            rcov.get("addedCells")
                .and_then(Json::as_arr)
                .map(<[_]>::len),
            Some(1)
        );
        check_doc(&doc).expect("coverage drift doc validates");
        check_doc(&rev).expect("reverse coverage drift doc validates");
    });
}
