//! Property tests for the `gvf.events` v3 telemetry schema: generated
//! well-formed streams must render compactly (one line per event),
//! survive the render → parse round trip, and pass
//! [`gvf_bench::events::validate_stream`] with a roll-up matching the
//! generation plan; corrupted streams (lifecycle violations) and
//! streams of another version must be rejected; and
//! [`gvf_bench::events::reconcile`] must accept exactly the manifests
//! whose cell outcomes and run status mirror the stream. Runs on the
//! in-repo `gvf-prop` harness.

use gvf_bench::events::{
    parse_stream, reconcile, validate_stream, EVENTS_SCHEMA, EVENTS_SCHEMA_VERSION,
};
use gvf_bench::json::Json;
use gvf_prop::{props, Rng};

/// What the generator decided each cell's fate is.
#[derive(Clone, Copy, PartialEq)]
enum Fate {
    Simulated,
    Cached,
    Failed,
}

struct Plan {
    cells: Vec<Fate>,
    jobs: usize,
}

fn arb_plan(rng: &mut Rng) -> Plan {
    let n = rng.range_usize(1, 12);
    let cells = (0..n)
        .map(|_| match rng.range_usize(0, 10) {
            0..=5 => Fate::Simulated,
            6..=7 => Fate::Cached,
            _ => Fate::Failed,
        })
        .collect();
    Plan {
        cells,
        jobs: rng.range_usize(1, 5),
    }
}

/// A well-formed single-sweep stream following `plan`: header, sweep
/// lifecycle, every cell scheduled then started then exactly one
/// terminal, one shared monotonic clock (so per-worker timestamps are
/// non-decreasing by construction), closing sweepEnd + runEnd.
fn arb_stream(rng: &mut Rng, plan: &Plan) -> Vec<Json> {
    let mut t: u64 = rng.range_u64(0, 50);
    let mut tick = |rng: &mut Rng| {
        t += rng.range_u64(0, 5);
        t
    };
    let mut stream = vec![Json::obj()
        .with("schema", Json::str(EVENTS_SCHEMA))
        .with("version", Json::num_u64(EVENTS_SCHEMA_VERSION as u64))
        .with("ev", Json::str("runStart"))
        .with("tMs", Json::num_u64(tick(rng)))
        .with("bin", Json::str("figX"))
        .with("configFingerprint", Json::str("cafebabe00000000"))
        .with("jobs", Json::num_u64(plan.jobs as u64))
        .with("smoke", Json::Bool(true))];
    let n = plan.cells.len();
    let base = |ev: &str, t: u64| {
        Json::obj()
            .with("ev", Json::str(ev))
            .with("tMs", Json::num_u64(t))
            .with("sweep", Json::str("sweepA"))
    };
    stream.push(
        base("sweepStart", tick(rng))
            .with("cells", Json::num_u64(n as u64))
            .with("jobs", Json::num_u64(plan.jobs as u64)),
    );
    let t_sched = tick(rng);
    for cell in 0..n {
        stream.push(base("cellScheduled", t_sched).with("cell", Json::num_u64(cell as u64)));
    }
    // Random completion order, cells started and terminated back to
    // back — a legal serialization of any concurrent schedule.
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.range_usize(0, i + 1));
    }
    for &cell in &order {
        let worker = rng.range_u64(0, plan.jobs as u64);
        stream.push(
            base("cellStarted", tick(rng))
                .with("cell", Json::num_u64(cell as u64))
                .with("worker", Json::num_u64(worker)),
        );
        let terminal = match plan.cells[cell] {
            Fate::Simulated => base("cellFinished", tick(rng)),
            Fate::Cached => base("cellCacheHit", tick(rng)).with("key", Json::str("deadbeef")),
            Fate::Failed => base("cellFailed", tick(rng)).with("panic", Json::str("boom")),
        };
        stream.push(
            terminal
                .with("cell", Json::num_u64(cell as u64))
                .with("worker", Json::num_u64(worker))
                .with("durationMs", Json::num_u64(rng.range_u64(0, 100)))
                .with("queueWaitMs", Json::num_u64(rng.range_u64(0, 10))),
        );
    }
    let count = |fate: Fate| plan.cells.iter().filter(|f| **f == fate).count() as u64;
    let t_end = tick(rng);
    stream.push(
        base("sweepEnd", t_end)
            .with("cells", Json::num_u64(n as u64))
            .with("finished", Json::num_u64(count(Fate::Simulated)))
            .with("cached", Json::num_u64(count(Fate::Cached)))
            .with("failed", Json::num_u64(count(Fate::Failed)))
            .with("wallMs", Json::num_u64(t_end)),
    );
    stream.push(
        Json::obj()
            .with("ev", Json::str("runEnd"))
            .with("tMs", Json::num_u64(tick(rng)))
            .with(
                "status",
                Json::str(if count(Fate::Failed) > 0 {
                    "failed"
                } else {
                    "ok"
                }),
            ),
    );
    stream
}

/// Object with `key` replaced. ([`Json::set`] appends a member, and
/// [`Json::get`] reads the first one — an appended duplicate would be
/// invisible to the validator, making the mutation a no-op.)
fn replace(obj: &Json, key: &str, value: Json) -> Json {
    let Json::Obj(members) = obj else {
        panic!("replace on a non-object");
    };
    assert!(obj.get(key).is_some(), "no member {key:?} to replace");
    Json::Obj(
        members
            .iter()
            .map(|(k, v)| {
                let v = if k == key { &value } else { v };
                (k.clone(), v.clone())
            })
            .collect(),
    )
}

/// The JSONL text a writer would produce for `stream`.
fn render_jsonl(stream: &[Json]) -> String {
    let mut text = String::new();
    for e in stream {
        text.push_str(&e.render_compact());
        text.push('\n');
    }
    text
}

/// A manifest whose cells mirror `plan` (ok entries for simulated and
/// cached cells, failed entries for failed ones) with a matching
/// `hostPerf.cellCache` counter block.
fn manifest_for(plan: &Plan) -> Json {
    let cells: Vec<Json> = plan
        .cells
        .iter()
        .enumerate()
        .map(|(i, fate)| {
            let rec = Json::obj().with("index", Json::num_u64(i as u64));
            match fate {
                Fate::Failed => rec
                    .with("status", Json::str("failed"))
                    .with("panic", Json::str("boom")),
                _ => rec.with("status", Json::str("ok")),
            }
        })
        .collect();
    let cached = plan.cells.iter().filter(|f| **f == Fate::Cached).count() as u64;
    Json::obj()
        .with("schema", Json::str(gvf_bench::manifest::MANIFEST_SCHEMA))
        .with("version", Json::num_u64(2))
        .with("cells", Json::Arr(cells))
        .with(
            "hostPerf",
            Json::obj().with(
                "cellCache",
                Json::obj().with("cachedCells", Json::num_u64(cached)),
            ),
        )
}

/// Well-formed streams: every line is single-line compact JSON that
/// round-trips, the stream validates, and the roll-up matches the plan.
#[test]
fn generated_streams_validate_and_roll_up() {
    props!(96, |rng| {
        let plan = arb_plan(rng);
        let stream = arb_stream(rng, &plan);
        let text = render_jsonl(&stream);
        for (line, e) in text.lines().zip(&stream) {
            assert!(!line.contains('\n'));
            assert_eq!(&Json::parse(line).expect("line parses"), e);
        }
        let parsed = parse_stream(&text).expect("stream parses");
        assert_eq!(parsed.len(), stream.len());
        let summary = validate_stream(&parsed).expect("stream validates");
        assert_eq!(summary.bin, "figX");
        assert_eq!(summary.jobs, plan.jobs as u64);
        assert_eq!(summary.sweeps.len(), 1);
        let sweep = &summary.sweeps[0];
        assert_eq!(sweep.total, plan.cells.len());
        assert!(sweep.ended);
        assert!(sweep.in_flight.is_empty());
        let count = |fate: Fate| plan.cells.iter().filter(|f| **f == fate).count();
        assert_eq!(sweep.finished.len(), count(Fate::Simulated));
        assert_eq!(sweep.cached.len(), count(Fate::Cached));
        assert_eq!(sweep.failed.len(), count(Fate::Failed));
        // Exactly-once: every cell has exactly one terminal event.
        let mut all: Vec<usize> = sweep
            .finished
            .iter()
            .chain(&sweep.cached)
            .chain(&sweep.failed)
            .copied()
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..plan.cells.len()).collect::<Vec<_>>());
        let failed = count(Fate::Failed) > 0;
        assert_eq!(
            summary.run_status.as_deref(),
            Some(if failed { "failed" } else { "ok" })
        );
    });
}

/// Lifecycle violations are rejected: a corrupted copy of a valid
/// stream must fail validation (each mutation breaks one invariant).
#[test]
fn corrupted_streams_are_rejected() {
    props!(96, |rng| {
        let plan = arb_plan(rng);
        let stream = arb_stream(rng, &plan);
        let mut bad = stream.clone();
        let n = plan.cells.len();
        match rng.range_usize(0, 5) {
            0 => {
                // Header gone: first event must be the runStart.
                bad.remove(0);
            }
            1 => {
                // A scheduled cell vanishes before the first start.
                bad.remove(2 + rng.range_usize(0, n));
            }
            2 => {
                // Duplicate terminal for the first terminated cell.
                let dup = bad[3 + n].clone();
                bad.insert(4 + n, dup);
            }
            3 => {
                // A worker's clock jumps backwards on a terminal.
                bad[3 + n] = replace(&bad[3 + n], "tMs", Json::num_u64(0));
                // Guard: only a violation if its start was later.
                let started = bad[2 + n].get("tMs").and_then(Json::as_num).unwrap_or(0.0);
                if started == 0.0 {
                    bad[2 + n] = replace(&bad[2 + n], "tMs", Json::num_u64(1));
                }
            }
            _ => {
                // sweepEnd lies about the failure count.
                let end = bad.len() - 2;
                let failed = bad[end].get("failed").and_then(Json::as_num).unwrap_or(0.0);
                bad[end] = replace(&bad[end], "failed", Json::num_u64(failed as u64 + 1));
            }
        }
        assert!(
            validate_stream(&bad).is_err(),
            "corruption went undetected (n = {n})"
        );
    });
}

/// Reconciliation: the matching manifest is accepted; a manifest whose
/// failed set or cache counter disagrees is rejected.
#[test]
fn reconcile_accepts_matching_manifests_only() {
    props!(96, |rng| {
        let plan = arb_plan(rng);
        let stream = arb_stream(rng, &plan);
        let summary = validate_stream(&stream).expect("stream validates");
        let manifest = manifest_for(&plan);
        reconcile(&summary, &manifest).expect("matching manifest reconciles");

        // Flip one cell's status: the failed sets now disagree (or the
        // green manifest gains a failure the stream never saw).
        let flip = rng.range_usize(0, plan.cells.len());
        let mut cells: Vec<Json> = manifest
            .get("cells")
            .and_then(Json::as_arr)
            .unwrap()
            .to_vec();
        let flipped = if plan.cells[flip] == Fate::Failed {
            Json::obj()
                .with("index", Json::num_u64(flip as u64))
                .with("status", Json::str("ok"))
        } else {
            Json::obj()
                .with("index", Json::num_u64(flip as u64))
                .with("status", Json::str("failed"))
                .with("panic", Json::str("boom"))
        };
        cells[flip] = flipped;
        let tampered = replace(&manifest, "cells", Json::Arr(cells));
        assert!(
            reconcile(&summary, &tampered).is_err(),
            "flipped cell {flip} went unnoticed"
        );

        // Cache counter off by one: caught whenever the section exists.
        let cached = plan.cells.iter().filter(|f| **f == Fate::Cached).count() as u64;
        let skewed = replace(
            &manifest,
            "hostPerf",
            Json::obj().with(
                "cellCache",
                Json::obj().with("cachedCells", Json::num_u64(cached + 1)),
            ),
        );
        assert!(reconcile(&summary, &skewed).is_err());
    });
}

/// Reconcile is the finished-cleanly check: a green manifest needs a
/// stream ending `runEnd: ok`, a failure manifest one ending
/// `runEnd: failed`, and a stream without `runEnd` never finished.
#[test]
fn reconcile_requires_the_run_end_its_manifest_calls_for() {
    props!(96, |rng| {
        let plan = arb_plan(rng);
        let green: Vec<Fate> = plan
            .cells
            .iter()
            .map(|&f| {
                if f == Fate::Failed {
                    Fate::Simulated
                } else {
                    f
                }
            })
            .collect();
        let mut failing = green.clone();
        let dead = rng.range_usize(0, failing.len());
        failing[dead] = Fate::Failed;
        for (cells, wrong) in [(green, "failed"), (failing, "ok")] {
            let plan = Plan {
                cells,
                jobs: plan.jobs,
            };
            let mut stream = arb_stream(rng, &plan);
            let manifest = manifest_for(&plan);
            let summary = validate_stream(&stream).expect("stream validates");
            reconcile(&summary, &manifest).expect("matching run status reconciles");

            let run_end = stream.pop().expect("stream ends with runEnd");
            let truncated = validate_stream(&stream).expect("a truncated stream validates");
            let err = reconcile(&truncated, &manifest).unwrap_err();
            assert!(err.contains("no runEnd"), "{err}");

            stream.push(replace(&run_end, "status", Json::str(wrong)));
            let mismatched = validate_stream(&stream).expect("stream validates");
            let err = reconcile(&mismatched, &manifest).unwrap_err();
            assert!(err.contains(&format!("runEnd {wrong:?}")), "{err}");
        }
    });
}

/// Only the current version validates: no stream of an older version
/// is kept anywhere, so none is read.
#[test]
fn streams_of_another_version_are_refused() {
    props!(32, |rng| {
        let plan = arb_plan(rng);
        let mut stream = arb_stream(rng, &plan);
        validate_stream(&stream).expect("current version validates");
        let current = EVENTS_SCHEMA_VERSION as u64;
        for version in [0, 1, 2, current + 1] {
            stream[0] = replace(&stream[0], "version", Json::num_u64(version));
            let err = validate_stream(&stream).unwrap_err();
            assert!(err.contains(&format!("events version {version}")), "{err}");
        }
    });
}
