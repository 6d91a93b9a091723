//! Live run telemetry: the `gvf.events` v3 structured event stream,
//! flight recorder and stall watchdog.
//!
//! Every other observability layer in this repo (probes, `hostPerf`
//! and the host profile, the cycle audit) is post-hoc — artifacts written after the
//! sweep. This module emits machine-readable telemetry **while** a
//! sweep runs:
//!
//! - an append-only JSONL stream (`--events-out`): one compact JSON
//!   object per line, flushed per event, so a killed run leaves a valid
//!   prefix (crash-safe at line granularity);
//! - sweep lifecycle (`runStart` with the config-grid fingerprint,
//!   `sweepStart`/`sweepEnd`, throttled `progress` with ETA) and
//!   per-cell lifecycle (`cellScheduled`/`cellStarted` and exactly one
//!   terminal `cellFinished`/`cellCacheHit`/`cellFailed` per started
//!   cell, each carrying worker id, queue wait and duration);
//! - `stall` diagnostics from a watchdog thread that flags any
//!   in-flight cell exceeding [`DEFAULT_STALL_FACTOR`] × the rolling
//!   upper-quartile non-cached cell time ([`stall_baseline_ms`]);
//! - a bounded in-memory ring of the last [`FLIGHT_RECORDER_EVENTS`]
//!   events that doubles as a **flight recorder**: when a cell panics,
//!   the ring is snapshotted and embedded in the failure manifest's
//!   entry for that cell, so dead cells carry their surrounding context
//!   even when no `--events-out` was given.
//!
//! The stderr progress heartbeat of [`crate::sweep::grid`] is one
//! *consumer* of the in-process event dispatch (the JSONL sink is
//! another, only attached when `--events-out` is given). Cache-hit
//! cells complete in microseconds, so folding them into the rate would
//! make the ETA of a sweep served partly from the cache wildly
//! optimistic — [`eta_seconds`] extrapolates from **non-cached**
//! completions only. The written stream has two readers: `report`'s
//! Run timeline, and `validate_json`, whose `--events-reconcile`
//! ([`reconcile`]) is the run-health gate — a run finished cleanly
//! when its stream closes with the `runEnd` status its manifest calls
//! for.
//!
//! Like `hostPerf`, everything here is host-side wall-clock data: it
//! never touches stdout, never feeds back into simulated timing, and
//! the events file is excluded from the determinism view by
//! construction (a separate artifact, not a manifest section). With
//! `--events-out` off, the only residual work is the in-process
//! dispatch (counter updates plus the ring) at per-cell granularity.

use crate::json::Json;
use gvf_sim::CellObservation;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::io::Write;
use std::sync::{Mutex, OnceLock};

/// Schema identifier of the events stream.
pub const EVENTS_SCHEMA: &str = crate::schemas::EVENTS.id;
/// Current schema version.
pub const EVENTS_SCHEMA_VERSION: u32 = crate::schemas::EVENTS.version;

/// Flight-recorder depth: how many trailing events are embedded into a
/// dead cell's failure-manifest entry.
pub const FLIGHT_RECORDER_EVENTS: usize = 32;

/// The stall watchdog's threshold: an in-flight cell is flagged once it
/// exceeds this multiple of the rolling upper-quartile non-cached cell
/// time ([`stall_baseline_ms`]).
pub const DEFAULT_STALL_FACTOR: f64 = 8.0;

/// Minimum milliseconds between progress heartbeats (same throttle the
/// pre-events stderr heartbeat used).
const HEARTBEAT_MS: u64 = 1000;
/// Watchdog wake-up period.
const WATCHDOG_TICK_MS: u64 = 250;
/// Completed non-cached cells needed before the stall baseline is
/// meaningful.
const STALL_MIN_SAMPLES: usize = 3;
/// Floor on the stall threshold, so millisecond-scale smoke cells do
/// not trip the watchdog on scheduling jitter.
const STALL_MIN_THRESHOLD_MS: u64 = 100;

/// Run-scoped header data for the `runStart` event.
#[derive(Clone, Debug)]
pub struct RunInfo {
    /// Binary name (the generator).
    pub bin: String,
    /// Config-grid fingerprint (see
    /// [`crate::cellcache::config_fingerprint`]).
    pub fingerprint: String,
    /// Requested `--jobs` value.
    pub jobs: usize,
    /// Whether `--smoke` shrank the config.
    pub smoke: bool,
}

struct SweepState {
    label: String,
    total: usize,
    quiet: bool,
    start_ms: u64,
    done: usize,
    cached: usize,
    failed: Vec<usize>,
    /// Completions that actually simulated (not cache hits, not
    /// panics) — the only population the ETA extrapolates from.
    noncached_done: usize,
    /// Durations of those completions, for the stall baseline.
    durations_ms: Vec<u64>,
    /// Cells whose closure reported a cache hit (key by cell), consumed
    /// when the pool reports the cell finished.
    pending_hits: HashMap<usize, String>,
    /// In-flight cells: cell → (worker, started-at ms).
    inflight: HashMap<usize, (usize, u64)>,
    /// Cells already flagged by the watchdog (one `stall` event each).
    stalled: HashSet<usize>,
    last_beat_ms: u64,
}

#[derive(Default)]
struct Inner {
    sink: Option<std::fs::File>,
    ring: VecDeque<Json>,
    /// Flight-recorder snapshots: (sweep label, cell) → last-K events
    /// at the moment the cell's failure was dispatched.
    flight: HashMap<(String, usize), Vec<Json>>,
    active: Option<SweepState>,
    run_ended: bool,
}

fn inner() -> &'static Mutex<Inner> {
    static LOG: OnceLock<Mutex<Inner>> = OnceLock::new();
    LOG.get_or_init(|| Mutex::new(Inner::default()))
}

/// Milliseconds since [`gvf_sim::hostperf::process_start`] — every
/// event's `tMs`. One monotonic clock, so each thread's events carry
/// non-decreasing timestamps (the per-worker monotonicity invariant).
fn now_ms() -> u64 {
    gvf_sim::hostperf::elapsed_ns() / 1_000_000
}

fn event(ev: &str, t_ms: u64) -> Json {
    Json::obj()
        .with("ev", Json::str(ev))
        .with("tMs", Json::num_u64(t_ms))
}

/// Appends one event to every consumer: the bounded ring (always) and
/// the JSONL sink (when installed), flushed so a crash never loses
/// acknowledged lines. `stderr_line` is the heartbeat consumer's
/// rendering, already quiet-filtered by the caller.
fn dispatch(inner: &mut Inner, e: Json, stderr_line: Option<String>) {
    if inner.ring.len() >= FLIGHT_RECORDER_EVENTS {
        inner.ring.pop_front();
    }
    inner.ring.push_back(e.clone());
    if let Some(sink) = &mut inner.sink {
        let mut line = e.render_compact();
        line.push('\n');
        // A failed write degrades telemetry, never the run.
        let _ = sink.write_all(line.as_bytes()).and_then(|_| sink.flush());
    }
    if let Some(line) = stderr_line {
        eprintln!("{line}");
    }
}

/// Installs the JSONL sink at `path`, writes the `runStart` header
/// event and spawns the watchdog thread. Called once from flag parsing
/// when `--events-out` is given; exits non-zero on an unwritable path
/// (fatal misuse, like an unwritable `--json-out`).
pub fn init(path: &str, run: &RunInfo) {
    let file = match std::fs::File::create(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: cannot create events file {path}: {e}");
            std::process::exit(1);
        }
    };
    {
        let mut inner = inner().lock().expect("events mutex");
        inner.sink = Some(file);
        let e = run_start_event(run, now_ms());
        dispatch(&mut inner, e, None);
    }
    std::thread::Builder::new()
        .name("events-watchdog".into())
        .spawn(watchdog_loop)
        .expect("spawn events watchdog");
}

/// The `runStart` header that opens every stream.
fn run_start_event(run: &RunInfo, t_ms: u64) -> Json {
    Json::obj()
        .with("schema", Json::str(EVENTS_SCHEMA))
        .with("version", Json::num_u64(EVENTS_SCHEMA_VERSION as u64))
        .with("ev", Json::str("runStart"))
        .with("tMs", Json::num_u64(t_ms))
        .with("bin", Json::str(&run.bin))
        .with("configFingerprint", Json::str(&run.fingerprint))
        .with("jobs", Json::num_u64(run.jobs as u64))
        .with("smoke", Json::Bool(run.smoke))
}

/// Whether a JSONL sink is installed (used by tests and the watchdog).
pub fn sink_installed() -> bool {
    inner().lock().expect("events mutex").sink.is_some()
}

/// Opens a sweep: emits `sweepStart` plus one `cellScheduled` per grid
/// cell. Called by [`crate::sweep::run_cells`] before the pool starts.
pub fn sweep_start(label: &str, total: usize, jobs: usize, quiet: bool) {
    let mut inner = inner().lock().expect("events mutex");
    let t = now_ms();
    let e = event("sweepStart", t)
        .with("sweep", Json::str(label))
        .with("cells", Json::num_u64(total as u64))
        .with("jobs", Json::num_u64(jobs as u64));
    dispatch(&mut inner, e, None);
    for cell in 0..total {
        let e = event("cellScheduled", t)
            .with("sweep", Json::str(label))
            .with("cell", Json::num_u64(cell as u64));
        dispatch(&mut inner, e, None);
    }
    inner.active = Some(SweepState {
        label: label.to_string(),
        total,
        quiet,
        start_ms: t,
        done: 0,
        cached: 0,
        failed: Vec::new(),
        noncached_done: 0,
        durations_ms: Vec::new(),
        pending_hits: HashMap::new(),
        inflight: HashMap::new(),
        stalled: HashSet::new(),
        last_beat_ms: 0,
    });
}

/// A pool worker picked up a cell (fires on that worker's thread).
pub fn cell_started(cell: usize, worker: usize) {
    let mut inner = inner().lock().expect("events mutex");
    let t = now_ms();
    let Some(sweep) = inner.active.as_mut() else {
        return;
    };
    sweep.inflight.insert(cell, (worker, t));
    let label = sweep.label.clone();
    let e = event("cellStarted", t)
        .with("sweep", Json::str(label))
        .with("cell", Json::num_u64(cell as u64))
        .with("worker", Json::num_u64(worker as u64));
    dispatch(&mut inner, e, None);
}

/// The cell cache satisfied this cell from disk (called by
/// [`crate::cellcache::CellCache::run`] on the worker thread, mid-cell).
/// The terminal event becomes `cellCacheHit` instead of `cellFinished`
/// when the pool reports the cell done.
pub fn note_cache_hit(cell: usize, key: &str) {
    let mut inner = inner().lock().expect("events mutex");
    if let Some(sweep) = inner.active.as_mut() {
        sweep.pending_hits.insert(cell, key.to_string());
    }
}

/// A cell completed (fires on its worker's thread): emits the terminal
/// `cellFinished`/`cellCacheHit`/`cellFailed` event, snapshots the
/// flight recorder on failure, and drives the heartbeat consumer
/// (throttled `progress` events; the completion beat always fires).
pub fn cell_done(obs: &CellObservation, done: usize, total: usize) {
    let mut inner = inner().lock().expect("events mutex");
    let t = now_ms();
    let Some(sweep) = inner.active.as_mut() else {
        return;
    };
    sweep.inflight.remove(&obs.index);
    sweep.done = sweep.done.max(done);
    let label = sweep.label.clone();
    let duration_ms = obs.busy_ns / 1_000_000;
    let queue_wait_ms = obs.queue_wait_ns / 1_000_000;
    let base = |ev: &str| {
        event(ev, t)
            .with("sweep", Json::str(&label))
            .with("cell", Json::num_u64(obs.index as u64))
            .with("worker", Json::num_u64(obs.worker as u64))
            .with("durationMs", Json::num_u64(duration_ms))
            .with("queueWaitMs", Json::num_u64(queue_wait_ms))
    };
    let hit = sweep.pending_hits.remove(&obs.index);
    let failed = obs.panic.is_some();
    let e = if let Some(payload) = &obs.panic {
        sweep.failed.push(obs.index);
        base("cellFailed").with("panic", Json::str(payload))
    } else if let Some(key) = hit {
        sweep.cached += 1;
        base("cellCacheHit").with("key", Json::str(key))
    } else {
        sweep.noncached_done += 1;
        sweep.durations_ms.push(duration_ms);
        base("cellFinished")
    };
    dispatch(&mut inner, e, None);
    if failed {
        // Snapshot the ring (which now ends with the cellFailed event)
        // for the failure manifest's flightRecorder section.
        let snapshot: Vec<Json> = inner.ring.iter().cloned().collect();
        inner.flight.insert((label.clone(), obs.index), snapshot);
    }
    // Heartbeat consumer: throttled progress events; the completion
    // beat is unconditional (the last cell must never be swallowed).
    let Some(sweep) = inner.active.as_mut() else {
        return;
    };
    let elapsed_ms = t.saturating_sub(sweep.start_ms);
    if !heartbeat_due(done, total, elapsed_ms, sweep.last_beat_ms) {
        return;
    }
    sweep.last_beat_ms = elapsed_ms;
    let eta = eta_seconds(
        sweep.noncached_done,
        done,
        total,
        elapsed_ms as f64 / 1000.0,
    );
    let quiet = sweep.quiet;
    let e = event("progress", t)
        .with("sweep", Json::str(&label))
        .with("done", Json::num_u64(done as u64))
        .with("total", Json::num_u64(total as u64))
        .with("etaS", eta.map(Json::Num).unwrap_or(Json::Null));
    let line = if quiet {
        None
    } else if done == total {
        Some(format!("[{label}] {done}/{total} cells"))
    } else {
        match eta {
            Some(eta) => Some(format!("[{label}] {done}/{total} cells, ETA {eta:.0}s")),
            None => Some(format!("[{label}] {done}/{total} cells")),
        }
    };
    dispatch(&mut inner, e, line);
}

/// Closes the active sweep with a `sweepEnd` carrying the terminal
/// counts and wall time.
pub fn sweep_end(label: &str) {
    let mut inner = inner().lock().expect("events mutex");
    let t = now_ms();
    let Some(sweep) = inner.active.take() else {
        return;
    };
    let e = event("sweepEnd", t)
        .with("sweep", Json::str(label))
        .with("cells", Json::num_u64(sweep.total as u64))
        .with("finished", Json::num_u64(sweep.noncached_done as u64))
        .with("cached", Json::num_u64(sweep.cached as u64))
        .with("failed", Json::num_u64(sweep.failed.len() as u64))
        .with("wallMs", Json::num_u64(t.saturating_sub(sweep.start_ms)));
    dispatch(&mut inner, e, None);
}

/// Closes the stream with a `runEnd` (`status` is `"ok"` or
/// `"failed"`). Idempotent: only the first call emits, so the failure
/// path and the regular emission path cannot double-close.
pub fn run_end(status: &str) {
    let mut inner = inner().lock().expect("events mutex");
    end_run(&mut inner, status, now_ms());
}

fn end_run(inner: &mut Inner, status: &str, t: u64) {
    if inner.run_ended {
        return;
    }
    inner.run_ended = true;
    let e = event("runEnd", t).with("status", Json::str(status));
    dispatch(inner, e, None);
}

/// The flight-recorder snapshot taken when `(sweep, cell)` failed: the
/// last [`FLIGHT_RECORDER_EVENTS`] events up to and including its
/// `cellFailed`. `None` when the cell did not fail under an active
/// sweep.
pub fn flight_recorder(label: &str, cell: usize) -> Option<Vec<Json>> {
    let inner = inner().lock().expect("events mutex");
    inner.flight.get(&(label.to_string(), cell)).cloned()
}

/// Whether a progress line should be considered at all: the completion
/// beat (`done == total`) is always due — the throttle used to swallow
/// it when the last cell landed inside the window — and intermediate
/// beats are due once the window has elapsed.
fn heartbeat_due(done: usize, total: usize, elapsed_ms: u64, prev_beat_ms: u64) -> bool {
    done == total || elapsed_ms >= prev_beat_ms + HEARTBEAT_MS
}

/// Remaining-time estimate from **non-cached** completions only.
///
/// The skew this avoids: a sweep over a warm cache satisfies most
/// cells from the cache in microseconds; dividing wall time by *all*
/// completions then predicts the remaining (to-be-simulated) cells at
/// cache-hit speed, which is wildly optimistic. Extrapolating the rate
/// from cells that actually simulated is conservative instead — if some
/// remaining cells turn out to be cached too, the sweep finishes early,
/// never late. With zero cache hits this is exactly the old
/// `elapsed / done × remaining`.
///
/// `None` when there is nothing to extrapolate from (no non-cached
/// completion yet, or no measurable elapsed time).
pub fn eta_seconds(
    noncached_done: usize,
    done: usize,
    total: usize,
    elapsed_s: f64,
) -> Option<f64> {
    if noncached_done == 0 || elapsed_s <= 0.0 {
        return None;
    }
    Some(elapsed_s / noncached_done as f64 * total.saturating_sub(done) as f64)
}

/// The watchdog thread: wakes every [`WATCHDOG_TICK_MS`] and flags
/// in-flight cells exceeding [`DEFAULT_STALL_FACTOR`] × the rolling
/// upper-quartile non-cached cell time (each cell at most once). Runs
/// for the life of the process — the sink is flushed per line, so dying
/// with the process loses nothing.
fn watchdog_loop() {
    loop {
        std::thread::sleep(std::time::Duration::from_millis(WATCHDOG_TICK_MS));
        watchdog_tick();
    }
}

fn watchdog_tick() {
    let mut guard = inner().lock().expect("events mutex");
    // The clock is read under the lock, so the tick is ordered after
    // every event already dispatched — `runEnd` included.
    watchdog_tick_at(&mut guard, now_ms());
}

/// One watchdog pass at time `t`. Emits nothing once the run has
/// ended: `runEnd` is the stream's last event.
fn watchdog_tick_at(inner: &mut Inner, t: u64) {
    if inner.run_ended {
        return;
    }
    let Some(sweep) = inner.active.as_mut() else {
        return;
    };
    if sweep.durations_ms.len() < STALL_MIN_SAMPLES {
        return;
    }
    let baseline_ms = stall_baseline_ms(&sweep.durations_ms);
    let threshold_ms =
        ((DEFAULT_STALL_FACTOR * baseline_ms as f64) as u64).max(STALL_MIN_THRESHOLD_MS);
    let label = sweep.label.clone();
    let quiet = sweep.quiet;
    let stuck: Vec<(usize, usize, u64)> = sweep
        .inflight
        .iter()
        .filter(|(cell, (_, started))| {
            t.saturating_sub(*started) > threshold_ms && !sweep.stalled.contains(cell)
        })
        .map(|(cell, (worker, started))| (*cell, *worker, t.saturating_sub(*started)))
        .collect();
    for (cell, _, _) in &stuck {
        sweep.stalled.insert(*cell);
    }
    for (cell, worker, elapsed_ms) in stuck {
        let e = event("stall", t)
            .with("sweep", Json::str(&label))
            .with("cell", Json::num_u64(cell as u64))
            .with("worker", Json::num_u64(worker as u64))
            .with("elapsedMs", Json::num_u64(elapsed_ms))
            .with("baselineMs", Json::num_u64(baseline_ms));
        let line = (!quiet).then(|| {
            format!(
                "[{label}] cell {cell} on worker {worker} stalled: {:.1}s vs baseline {:.1}s",
                elapsed_ms as f64 / 1000.0,
                baseline_ms as f64 / 1000.0,
            )
        });
        dispatch(inner, e, line);
    }
}

/// The stall baseline: the **upper quartile** of completed non-cached
/// cell durations, not the median. With fast-forward on, a sweep's cell
/// durations are bimodal — quiet-heavy configs skip their idle epochs
/// and finish several times faster than busy configs of the same shape.
/// A plain median can land in the fast mode and flag every healthy
/// slow-mode cell as stalled; the upper quartile tracks the slow mode,
/// so only cells abnormal *for the slow mode* trip the watchdog.
fn stall_baseline_ms(durations_ms: &[u64]) -> u64 {
    debug_assert!(!durations_ms.is_empty());
    let mut sorted = durations_ms.to_vec();
    sorted.sort_unstable();
    sorted[((sorted.len() * 3) / 4).min(sorted.len() - 1)]
}

// ---------------------------------------------------------------------
// Stream parsing, validation, reconciliation — shared by
// `validate_json` and `report`.
// ---------------------------------------------------------------------

/// Parses a JSONL events stream into one [`Json`] per line. A torn
/// **final** line (a writer killed mid-`write`) is dropped — crash
/// safety is at line granularity — but any earlier unparsable line is
/// an error.
pub fn parse_stream(text: &str) -> Result<Vec<Json>, String> {
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let mut events = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        match Json::parse(line) {
            Ok(e) => events.push(e),
            Err(err) if i + 1 == lines.len() => {
                let _ = err; // torn final line: the crash-safe contract
                break;
            }
            Err(err) => return Err(format!("line {}: {err}", i + 1)),
        }
    }
    Ok(events)
}

/// Per-sweep roll-up of a validated stream.
#[derive(Clone, Debug, Default)]
pub struct SweepSummary {
    /// Sweep label.
    pub label: String,
    /// Grid cells announced by `sweepStart`.
    pub total: usize,
    /// Cells that finished by simulating.
    pub finished: Vec<usize>,
    /// Cells satisfied from the cell cache.
    pub cached: Vec<usize>,
    /// Cells that died.
    pub failed: Vec<usize>,
    /// Cells started but never terminated (only legal in a truncated
    /// stream).
    pub in_flight: Vec<usize>,
    /// Stall diagnostics emitted for this sweep.
    pub stalls: usize,
    /// Wall time from `sweepEnd`, when the sweep closed.
    pub wall_ms: Option<u64>,
    /// Whether `sweepEnd` was seen.
    pub ended: bool,
    /// Per-worker busy milliseconds (summed terminal `durationMs`).
    pub worker_busy_ms: BTreeMap<u64, u64>,
}

impl SweepSummary {
    /// Cells with exactly one terminal event.
    pub fn terminals(&self) -> usize {
        self.finished.len() + self.cached.len() + self.failed.len()
    }
}

/// Whole-stream roll-up produced by [`validate_stream`].
#[derive(Clone, Debug, Default)]
pub struct StreamSummary {
    /// Generator binary from `runStart`.
    pub bin: String,
    /// Config-grid fingerprint from `runStart`.
    pub fingerprint: String,
    /// `--jobs` from `runStart`.
    pub jobs: u64,
    /// Sweeps in stream order.
    pub sweeps: Vec<SweepSummary>,
    /// `runEnd` status, `None` for a truncated (interrupted) stream.
    pub run_status: Option<String>,
}

fn field_u64(e: &Json, k: &str) -> Result<u64, String> {
    e.get(k)
        .and_then(Json::as_num)
        .map(|n| n as u64)
        .ok_or_else(|| format!("missing numeric {k:?}"))
}

fn field_str<'j>(e: &'j Json, k: &str) -> Result<&'j str, String> {
    e.get(k)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string {k:?}"))
}

/// Validates a parsed `gvf.events` stream against the lifecycle
/// invariants and returns its roll-up:
///
/// - the first event is `runStart` with this schema and the current
///   version (no stream of an older version is kept, so none is read);
/// - every event has a known `ev` and a numeric `tMs`;
/// - timestamps are non-decreasing **per worker** within a sweep;
/// - per sweep: `cellScheduled` covers exactly `0..cells`, every
///   terminal cell was `cellStarted` first, and no cell has more than
///   one terminal event;
/// - once a sweep has ended (`sweepEnd`) every started cell must have
///   terminated in exactly one of finished/cacheHit/failed, and the
///   `sweepEnd` counts must match; a **truncated** stream (interrupted
///   run: no `sweepEnd`/`runEnd`) may leave cells in flight;
/// - `runEnd` appears at most once, last.
pub fn validate_stream(events: &[Json]) -> Result<StreamSummary, String> {
    let Some(first) = events.first() else {
        return Err("empty stream".into());
    };
    if first.get("schema").and_then(Json::as_str) != Some(EVENTS_SCHEMA) {
        return Err(format!(
            "first event is not a {EVENTS_SCHEMA:?} runStart header"
        ));
    }
    let version = field_u64(first, "version")?;
    if version != EVENTS_SCHEMA_VERSION as u64 {
        return Err(format!(
            "events version {version} (validator knows v{EVENTS_SCHEMA_VERSION} only)"
        ));
    }
    if field_str(first, "ev")? != "runStart" {
        return Err("stream does not begin with runStart".into());
    }
    let mut summary = StreamSummary {
        bin: field_str(first, "bin")?.to_string(),
        fingerprint: field_str(first, "configFingerprint")?.to_string(),
        jobs: field_u64(first, "jobs")?,
        ..StreamSummary::default()
    };

    struct OpenSweep {
        summary: SweepSummary,
        scheduled: HashSet<usize>,
        started: HashMap<usize, u64>, // cell -> worker
        terminated: HashSet<usize>,
        worker_last_t: HashMap<u64, u64>,
    }
    let mut open: Option<OpenSweep> = None;
    let mut ended_run = false;

    let close_sweep = |open: &mut Option<OpenSweep>,
                       summary: &mut StreamSummary,
                       truncated: bool|
     -> Result<(), String> {
        let Some(mut s) = open.take() else {
            return Ok(());
        };
        let label = s.summary.label.clone();
        let mut in_flight: Vec<usize> = s
            .started
            .keys()
            .filter(|c| !s.terminated.contains(c))
            .copied()
            .collect();
        in_flight.sort_unstable();
        if !truncated && !in_flight.is_empty() {
            return Err(format!(
                "sweep {label:?}: started cells {in_flight:?} never terminated"
            ));
        }
        if !truncated && s.summary.terminals() != s.summary.total {
            return Err(format!(
                "sweep {label:?}: {} terminal cells for {} scheduled",
                s.summary.terminals(),
                s.summary.total
            ));
        }
        s.summary.in_flight = in_flight;
        summary.sweeps.push(s.summary);
        Ok(())
    };

    for (i, e) in events.iter().enumerate().skip(1) {
        let at = |msg: String| format!("event {}: {msg}", i + 1);
        let ev = field_str(e, "ev").map_err(&at)?;
        let t = field_u64(e, "tMs").map_err(&at)?;
        if ended_run {
            return Err(at(format!("{ev:?} after runEnd")));
        }
        match ev {
            "runStart" => return Err(at("second runStart".into())),
            "sweepStart" => {
                close_sweep(&mut open, &mut summary, true).map_err(&at)?;
                open = Some(OpenSweep {
                    summary: SweepSummary {
                        label: field_str(e, "sweep").map_err(&at)?.to_string(),
                        total: field_u64(e, "cells").map_err(&at)? as usize,
                        ..SweepSummary::default()
                    },
                    scheduled: HashSet::new(),
                    started: HashMap::new(),
                    terminated: HashSet::new(),
                    worker_last_t: HashMap::new(),
                });
            }
            "cellScheduled" => {
                let s = open.as_mut().ok_or_else(|| at("no open sweep".into()))?;
                let cell = field_u64(e, "cell").map_err(&at)? as usize;
                if cell >= s.summary.total || !s.scheduled.insert(cell) {
                    return Err(at(format!("cell {cell} scheduled out of range or twice")));
                }
            }
            "cellStarted" | "cellFinished" | "cellCacheHit" | "cellFailed" => {
                let s = open.as_mut().ok_or_else(|| at("no open sweep".into()))?;
                let cell = field_u64(e, "cell").map_err(&at)? as usize;
                let worker = field_u64(e, "worker").map_err(&at)?;
                if !s.scheduled.contains(&cell) {
                    return Err(at(format!("cell {cell} was never scheduled")));
                }
                let last = s.worker_last_t.entry(worker).or_insert(0);
                if t < *last {
                    return Err(at(format!(
                        "worker {worker} timestamps go backwards ({t} < {last})"
                    )));
                }
                *last = t;
                if ev == "cellStarted" {
                    if s.started.insert(cell, worker).is_some() {
                        return Err(at(format!("cell {cell} started twice")));
                    }
                } else {
                    if !s.started.contains_key(&cell) {
                        return Err(at(format!("{ev} for cell {cell} that never started")));
                    }
                    if !s.terminated.insert(cell) {
                        return Err(at(format!("cell {cell} has more than one terminal event")));
                    }
                    let duration = field_u64(e, "durationMs").map_err(&at)?;
                    *s.summary.worker_busy_ms.entry(worker).or_insert(0) += duration;
                    match ev {
                        "cellFinished" => s.summary.finished.push(cell),
                        "cellCacheHit" => {
                            field_str(e, "key").map_err(&at)?;
                            s.summary.cached.push(cell);
                        }
                        _ => {
                            field_str(e, "panic").map_err(&at)?;
                            s.summary.failed.push(cell);
                        }
                    }
                }
            }
            "progress" => {
                let s = open.as_mut().ok_or_else(|| at("no open sweep".into()))?;
                let done = field_u64(e, "done").map_err(&at)? as usize;
                if done > s.summary.total {
                    return Err(at(format!(
                        "progress done {done} > total {}",
                        s.summary.total
                    )));
                }
            }
            "stall" => {
                if let Some(s) = open.as_mut() {
                    s.summary.stalls += 1;
                }
            }
            "sweepEnd" => {
                let s = open.as_mut().ok_or_else(|| at("no open sweep".into()))?;
                let label = field_str(e, "sweep").map_err(&at)?;
                if label != s.summary.label {
                    return Err(at(format!(
                        "sweepEnd for {label:?} inside sweep {:?}",
                        s.summary.label
                    )));
                }
                for (k, have) in [
                    ("finished", s.summary.finished.len()),
                    ("cached", s.summary.cached.len()),
                    ("failed", s.summary.failed.len()),
                ] {
                    let claimed = field_u64(e, k).map_err(&at)? as usize;
                    if claimed != have {
                        return Err(at(format!(
                            "sweepEnd claims {claimed} {k} cells, stream has {have}"
                        )));
                    }
                }
                s.summary.ended = true;
                s.summary.wall_ms = Some(field_u64(e, "wallMs").map_err(&at)?);
                close_sweep(&mut open, &mut summary, false).map_err(&at)?;
            }
            "runEnd" => {
                close_sweep(&mut open, &mut summary, true).map_err(&at)?;
                summary.run_status = Some(field_str(e, "status").map_err(&at)?.to_string());
                ended_run = true;
            }
            other => return Err(at(format!("unknown event kind {other:?}"))),
        }
        if let Some(s) = open.as_mut() {
            // Scheduled-set completeness is only checkable once cells
            // start; enforce lazily at first start.
            if matches!(ev, "cellStarted") && s.scheduled.len() != s.summary.total {
                return Err(at(format!(
                    "sweep {:?}: {} of {} cells scheduled before first start",
                    s.summary.label,
                    s.scheduled.len(),
                    s.summary.total
                )));
            }
        }
    }
    close_sweep(&mut open, &mut summary, true)?;
    Ok(summary)
}

/// Reconciles a validated stream against its run manifest:
///
/// - the run finished cleanly: the stream closes with `runEnd`, whose
///   status is `"ok"` for a green manifest and `"failed"` for a
///   failure manifest (a missing `runEnd` is an interrupted run);
/// - a **green** manifest (no failed entries): every sweep in the
///   stream must be complete, no cell failed, and the terminal cells
///   must cover the manifest's grid — exactly (`== cells`) for a
///   single-sweep generator; multi-sweep generators may append derived
///   records, so the sum of sweep totals must not exceed the manifest's
///   cell count;
/// - a **failure** manifest: its cells mirror the failing (last) sweep
///   — totals equal, and the failed index sets match exactly;
/// - when the manifest's `hostPerf.cellCache` counters are present, the
///   stream's cache-hit count must equal `cachedCells`.
pub fn reconcile(summary: &StreamSummary, manifest: &Json) -> Result<(), String> {
    if manifest.get("schema").and_then(Json::as_str) != Some(crate::manifest::MANIFEST_SCHEMA) {
        return Err("manifest document has the wrong schema".into());
    }
    let cells = manifest
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or("manifest without cells")?;
    let mut manifest_failed: Vec<usize> = cells
        .iter()
        .enumerate()
        .filter(|(_, c)| c.get("status").and_then(Json::as_str) == Some("failed"))
        .map(|(i, _)| i)
        .collect();
    manifest_failed.sort_unstable();
    let want = if manifest_failed.is_empty() {
        "ok"
    } else {
        "failed"
    };
    match summary.run_status.as_deref() {
        Some(status) if status == want => {}
        Some(status) => {
            return Err(format!(
                "stream ends with runEnd {status:?}, the manifest calls for {want:?}"
            ))
        }
        None => return Err("stream has no runEnd: the run did not finish".into()),
    }
    if summary.sweeps.is_empty() {
        return Err("stream has no sweeps to reconcile".into());
    }
    for s in &summary.sweeps {
        if s.terminals() != s.total {
            return Err(format!(
                "sweep {:?} is incomplete ({} of {} cells terminal) — cannot reconcile",
                s.label,
                s.terminals(),
                s.total
            ));
        }
    }
    if manifest_failed.is_empty() {
        let stream_failed: usize = summary.sweeps.iter().map(|s| s.failed.len()).sum();
        if stream_failed != 0 {
            return Err(format!(
                "stream has {stream_failed} failed cells but the manifest is green"
            ));
        }
        let terminals: usize = summary.sweeps.iter().map(|s| s.terminals()).sum();
        if summary.sweeps.len() == 1 && terminals != cells.len() {
            return Err(format!(
                "stream has {terminals} terminal cells, manifest has {}",
                cells.len()
            ));
        }
        if terminals > cells.len() {
            return Err(format!(
                "stream has {terminals} terminal cells for a {}-cell manifest",
                cells.len()
            ));
        }
    } else {
        let failing = summary
            .sweeps
            .last()
            .expect("non-empty sweeps checked above");
        if failing.total != cells.len() {
            return Err(format!(
                "failure manifest has {} cells, failing sweep {:?} has {}",
                cells.len(),
                failing.label,
                failing.total
            ));
        }
        let mut stream_failed = failing.failed.clone();
        stream_failed.sort_unstable();
        if stream_failed != manifest_failed {
            return Err(format!(
                "failed cells differ: stream {stream_failed:?}, manifest {manifest_failed:?}"
            ));
        }
    }
    if let Some(cached_cells) = manifest
        .get("hostPerf")
        .and_then(|h| h.get("cellCache"))
        .and_then(|c| c.get("cachedCells"))
        .and_then(Json::as_num)
    {
        let stream_cached: usize = summary.sweeps.iter().map(|s| s.cached.len()).sum();
        if stream_cached != cached_cells as usize {
            return Err(format!(
                "stream has {stream_cached} cache hits, manifest hostPerf counts {cached_cells}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eta_guards_degenerate_inputs() {
        assert_eq!(eta_seconds(0, 0, 10, 1.0), None);
        assert_eq!(eta_seconds(5, 5, 10, 0.0), None);
        assert_eq!(eta_seconds(5, 5, 10, -1.0), None);
        let eta = eta_seconds(5, 5, 10, 2.0).expect("well-defined");
        assert!((eta - 2.0).abs() < 1e-9);
        // Finished sweeps extrapolate to zero remaining.
        assert_eq!(eta_seconds(10, 10, 10, 3.0), Some(0.0));
    }

    #[test]
    fn resumed_run_eta_ignores_cache_hits() {
        // The regression (satellite): 50 cache hits and 5 simulated
        // cells done of 100 after 10 s. The old `elapsed / done` rate
        // predicted the remaining 45 cells at cache-hit speed
        // (10/55 × 45 ≈ 8 s); the fixed rate extrapolates from the 5
        // cells that actually simulated (10/5 × 45 = 90 s).
        let eta = eta_seconds(5, 55, 100, 10.0).expect("well-defined");
        assert!((eta - 90.0).abs() < 1e-9);
        let old_skewed = 10.0 / 55.0 * 45.0;
        assert!(
            eta > old_skewed * 5.0,
            "cache hits must not deflate the estimate"
        );
        // Without cache hits the estimate is exactly the old formula.
        let plain = eta_seconds(5, 5, 10, 2.0).expect("well-defined");
        assert!((plain - 2.0).abs() < 1e-9);
    }

    #[test]
    fn stall_baseline_tracks_slow_mode_of_bimodal_sweeps() {
        // The regression (satellite): with fast-forward on, quiet-heavy
        // cells finish several times faster than busy cells, so the
        // duration population is bimodal. A median of this sample lands
        // at 10 ms (fast mode) — an 8× threshold of 80 ms would flag
        // every healthy 2 s slow-mode cell. The upper quartile lands in
        // the slow mode.
        assert_eq!(stall_baseline_ms(&[10, 10, 10, 10, 2000, 2000]), 2000);
        // Even a 75% fast-mode majority must not drag the baseline down.
        assert_eq!(
            stall_baseline_ms(&[10, 10, 10, 10, 10, 10, 2000, 2000]),
            2000
        );
        // Uniform populations behave like the old median.
        assert_eq!(stall_baseline_ms(&[500, 500, 500, 500]), 500);
        assert_eq!(stall_baseline_ms(&[7]), 7);
        // Order-insensitive.
        assert_eq!(stall_baseline_ms(&[2000, 10, 2000, 10, 10, 10]), 2000);
    }

    #[test]
    fn completion_heartbeat_is_never_throttled() {
        // The last cell completing 1 ms after a beat, inside the
        // throttle window, must still be due.
        assert!(heartbeat_due(10, 10, 501, 500));
        assert!(heartbeat_due(10, 10, 0, 0), "instant sweeps too");
        assert!(!heartbeat_due(5, 10, 501, 500));
        assert!(heartbeat_due(5, 10, 500 + HEARTBEAT_MS, 500));
    }

    #[test]
    fn torn_final_line_is_dropped_but_torn_middle_is_an_error() {
        let good = r#"{"a":1}
{"b":2}
{"truncat"#;
        let events = parse_stream(good).expect("torn tail tolerated");
        assert_eq!(events.len(), 2);
        let bad = "{\"a\":1}\n{\"torn\n{\"b\":2}\n";
        assert!(parse_stream(bad).is_err());
    }

    #[test]
    fn watchdog_flags_stalls_with_the_slim_payload_and_stops_at_run_end() {
        let path =
            std::env::temp_dir().join(format!("gvf-events-run-end-{}.jsonl", std::process::id()));
        let mut inner = Inner {
            sink: Some(std::fs::File::create(&path).expect("create stream")),
            ..Inner::default()
        };
        let run = RunInfo {
            bin: "test".into(),
            fingerprint: "0".into(),
            jobs: 1,
            smoke: true,
        };
        dispatch(&mut inner, run_start_event(&run, 0), None);
        // Three 10 ms cells done, so the threshold is the 100 ms floor.
        // Cell 0 has run 200 ms at the first tick; cell 1 only 50 ms.
        inner.active = Some(SweepState {
            label: "s".into(),
            total: 5,
            quiet: true,
            start_ms: 0,
            done: 3,
            cached: 0,
            failed: Vec::new(),
            noncached_done: 3,
            durations_ms: vec![10, 10, 10],
            pending_hits: HashMap::new(),
            inflight: HashMap::from([(0, (0, 0)), (1, (1, 150))]),
            stalled: HashSet::new(),
            last_beat_ms: 0,
        });
        watchdog_tick_at(&mut inner, 200);
        end_run(&mut inner, "ok", 210);
        // Cell 1 is overdue here: only `run_ended` stops its stall.
        watchdog_tick_at(&mut inner, 1000);
        drop(inner);
        let text = std::fs::read_to_string(&path).expect("read stream");
        std::fs::remove_file(&path).ok();
        let stream = parse_stream(&text).expect("stream parses");
        validate_stream(&stream).expect("stream validates");
        let last = stream
            .last()
            .and_then(|e| e.get("ev"))
            .and_then(Json::as_str);
        assert_eq!(last, Some("runEnd"));
        let stalls: Vec<&Json> = stream
            .iter()
            .filter(|e| e.get("ev").and_then(Json::as_str) == Some("stall"))
            .collect();
        assert_eq!(stalls.len(), 1, "one stall before runEnd, none after");
        let Json::Obj(fields) = stalls[0] else {
            panic!("stall event is not an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_ref()).collect();
        assert_eq!(
            keys,
            [
                "ev",
                "tMs",
                "sweep",
                "cell",
                "worker",
                "elapsedMs",
                "baselineMs"
            ]
        );
        assert_eq!(stalls[0].get("cell").and_then(Json::as_num), Some(0.0));
        assert_eq!(
            stalls[0].get("elapsedMs").and_then(Json::as_num),
            Some(200.0)
        );
        assert_eq!(
            stalls[0].get("baselineMs").and_then(Json::as_num),
            Some(10.0)
        );
    }
}
