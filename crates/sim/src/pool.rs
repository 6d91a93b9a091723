//! Inter-kernel fan-out: run independent simulations concurrently.
//!
//! A figure sweep is embarrassingly parallel — every (workload,
//! strategy, configuration) cell owns its [`crate::Gpu`], device memory
//! and RNG stream, so cells share nothing. [`SimPool::run`] distributes
//! the cells over host threads and returns results **in input order**,
//! which together with each cell's own determinism (see the engine's
//! determinism contract) makes a parallel sweep bit-identical to a
//! serial one.
//!
//! With one job the pool degenerates to a plain in-order loop on the
//! calling thread.
//!
//! [`SimPool::run_timed`] additionally self-measures: per-worker busy
//! and queue-wait time plus the pool's wall time come back as a
//! [`PoolTelemetry`] for the host-performance manifest section. The
//! measurement costs two clock reads per *cell* (each cell is a whole
//! simulation), so it cannot perturb results — and telemetry is
//! host-side only, excluded from the determinism contract.
//!
//! **Fault isolation:** every cell runs under
//! [`std::panic::catch_unwind`], so one panicking cell cannot abort the
//! sweep — [`SimPool::run_indexed`] returns `Result<T, CellFailure>`
//! per cell, the failed cell's panic payload travels in the
//! [`CellFailure`], and every other cell still completes and comes back
//! in input order. The surviving cells' outputs are bit-identical to a
//! failure-free run for any job count (cells share nothing, so a
//! neighbour's death cannot perturb them).

use crate::hostperf::{PoolTelemetry, WorkerTelemetry};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// One grid cell's panic, caught by the pool so the rest of the sweep
/// survives. The payload is the panic message (stringified); `index` is
/// the cell's position in the input slice.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellFailure {
    /// Input-order index of the cell that panicked.
    pub index: usize,
    /// The panic payload, stringified (`&str`/`String` payloads
    /// verbatim; anything else becomes a placeholder).
    pub payload: String,
}

impl std::fmt::Display for CellFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cell {} panicked: {}", self.index, self.payload)
    }
}

/// Stringifies a caught panic payload (`&str` and `String` verbatim —
/// the two types `panic!` produces — anything exotic gets a marker).
fn payload_string(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

/// What the pool observed about one completed cell, handed to
/// [`CellHooks::finished`]: which worker ran it, how long it waited in
/// the queue (the cursor fetch preceding it), how long it ran, and how
/// it ended. This is host-side scheduling telemetry — wall-clock data
/// that never reaches stdout or the determinism view.
#[derive(Clone, Debug)]
pub struct CellObservation {
    /// Input-order index of the cell.
    pub index: usize,
    /// Id of the worker that ran it (`0..jobs`; always 0 on the serial
    /// path).
    pub worker: usize,
    /// Nanoseconds spent acquiring this cell from the queue.
    pub queue_wait_ns: u64,
    /// Nanoseconds spent running the cell (including a panicking run).
    pub busy_ns: u64,
    /// The panic payload when the cell died, `None` when it completed.
    pub panic: Option<String>,
}

/// Per-cell lifecycle hooks for [`SimPool::run_observed`]. Callbacks
/// fire on the worker thread that runs the cell, in that cell's own
/// order (`started` strictly before its `finished`); cells on different
/// workers interleave arbitrarily. Default bodies make every hook
/// optional.
pub trait CellHooks: Sync {
    /// A worker picked up cell `index`.
    fn started(&self, index: usize, worker: usize) {
        let _ = (index, worker);
    }
    /// A cell completed (or panicked — see
    /// [`CellObservation::panic`]); `done` of `total` cells have
    /// finished so far. Completion order depends on scheduling, so this
    /// is for telemetry and stderr progress only.
    fn finished(&self, obs: &CellObservation, done: usize, total: usize) {
        let _ = (obs, done, total);
    }
}

/// Adapter: the plain `on_done(done, total)` progress callback of
/// [`SimPool::run_timed`] expressed as [`CellHooks`].
struct DoneHook<D>(D);

impl<D: Fn(usize, usize) + Sync> CellHooks for DoneHook<D> {
    fn finished(&self, _obs: &CellObservation, done: usize, total: usize) {
        (self.0)(done, total)
    }
}

/// Runs one cell under `catch_unwind`. `AssertUnwindSafe` is sound here
/// because `f` is `Fn` over shared references: a panicking cell cannot
/// have left partial writes behind in state another cell observes (each
/// cell owns its simulation), and the caller never reuses the closure's
/// captures mutably.
fn run_cell<I, T, F>(f: &F, i: usize, input: &I) -> Result<T, CellFailure>
where
    F: Fn(usize, &I) -> T + Sync,
{
    let _cell = crate::spans::span("pool.cell");
    catch_unwind(AssertUnwindSafe(|| f(i, input))).map_err(|payload| CellFailure {
        index: i,
        payload: payload_string(payload),
    })
}

/// A fixed-size host thread pool for independent simulation jobs.
///
/// ```
/// use gvf_sim::SimPool;
///
/// let squares = SimPool::new(4).run(&[1u64, 2, 3, 4, 5], |&n| n * n);
/// assert_eq!(squares, vec![1, 4, 9, 16, 25]);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct SimPool {
    jobs: usize,
}

impl SimPool {
    /// Creates a pool running up to `jobs` simulations at once; `0`
    /// picks the machine's available parallelism.
    pub fn new(jobs: usize) -> Self {
        let jobs = if jobs == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            jobs
        };
        SimPool { jobs }
    }

    /// The resolved job count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Applies `f` to every input and returns the outputs in input
    /// order. `f` must be self-contained per input — results are
    /// identical for any job count. A panicking cell re-raises **after**
    /// every other cell has completed (callers that want to survive a
    /// failure use [`run_indexed`](SimPool::run_indexed) and inspect the
    /// per-cell `Result`s).
    pub fn run<I, T, F>(&self, inputs: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(&I) -> T + Sync,
    {
        self.run_indexed(inputs, |_, input| f(input), |_, _| {})
            .into_iter()
            .map(|r| r.unwrap_or_else(|failure| panic!("{failure}")))
            .collect()
    }

    /// [`run`](SimPool::run) with the cell index passed to `f`, a
    /// completion callback, and per-cell fault isolation: `on_done(done,
    /// total)` fires after each cell finishes (panicked or not), with
    /// the number completed so far. Completion order (and hence the
    /// `done` sequence) depends on scheduling, so the callback is for
    /// stderr progress reporting only — outputs are still returned in
    /// input order, a panicking cell becomes an `Err(CellFailure)` in
    /// its own slot, and the surviving cells are bit-identical for any
    /// job count.
    pub fn run_indexed<I, T, F, D>(
        &self,
        inputs: &[I],
        f: F,
        on_done: D,
    ) -> Vec<Result<T, CellFailure>>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
        D: Fn(usize, usize) + Sync,
    {
        self.run_timed(inputs, f, on_done).0
    }

    /// [`run_indexed`](SimPool::run_indexed) plus self-measurement: the
    /// returned [`PoolTelemetry`] carries the pool's wall time and each
    /// worker's busy / queue-wait nanoseconds and cell count. Outputs
    /// are unchanged and still bit-identical for any job count; only
    /// the telemetry (which never reaches stdout or the determinism
    /// diff) depends on scheduling.
    pub fn run_timed<I, T, F, D>(
        &self,
        inputs: &[I],
        f: F,
        on_done: D,
    ) -> (Vec<Result<T, CellFailure>>, PoolTelemetry)
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
        D: Fn(usize, usize) + Sync,
    {
        self.run_observed(inputs, f, &DoneHook(on_done))
    }

    /// [`run_timed`](SimPool::run_timed) with full per-cell lifecycle
    /// hooks ([`CellHooks`]): each cell reports which worker ran it,
    /// its queue wait and duration, and its panic payload if it died —
    /// the substrate of the live-telemetry event stream. Outputs are
    /// unchanged and still bit-identical for any job count.
    pub fn run_observed<I, T, F, H>(
        &self,
        inputs: &[I],
        f: F,
        hooks: &H,
    ) -> (Vec<Result<T, CellFailure>>, PoolTelemetry)
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
        H: CellHooks,
    {
        let start = Instant::now();
        let jobs = self.jobs.min(inputs.len()).max(1);
        if jobs > 1 {
            return run_parallel_observed(inputs, &f, hooks, jobs, start);
        }
        let total = inputs.len();
        let mut worker = WorkerTelemetry::default();
        let out = inputs
            .iter()
            .enumerate()
            .map(|(i, input)| {
                hooks.started(i, 0);
                let cell_start = Instant::now();
                let out = run_cell(&f, i, input);
                let busy_ns = cell_start.elapsed().as_nanos() as u64;
                worker.busy_ns += busy_ns;
                worker.cells += 1;
                hooks.finished(
                    &CellObservation {
                        index: i,
                        worker: 0,
                        queue_wait_ns: 0,
                        busy_ns,
                        panic: out.as_ref().err().map(|e| e.payload.clone()),
                    },
                    i + 1,
                    total,
                );
                out
            })
            .collect();
        let telemetry = PoolTelemetry {
            wall_ns: start.elapsed().as_nanos() as u64,
            jobs: 1,
            workers: vec![worker],
        };
        (out, telemetry)
    }
}

fn run_parallel_observed<I, T, F, H>(
    inputs: &[I],
    f: &F,
    hooks: &H,
    jobs: usize,
    start: Instant,
) -> (Vec<Result<T, CellFailure>>, PoolTelemetry)
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
    H: CellHooks,
{
    use std::sync::atomic::{AtomicUsize, Ordering};

    // Work-stealing by atomic cursor: job runtimes vary wildly across a
    // sweep (scaled configs vs. tiny ones), so static chunking would
    // leave threads idle.
    let cursor = AtomicUsize::new(0);
    let finished = AtomicUsize::new(0);
    let total = inputs.len();
    // Each worker accumulates its (index, result) pairs locally and
    // hands them back through its join handle, so the cursor and the
    // `done` counter are the only shared words — no per-cell mutex
    // round-trip on the result slots.
    let (per_worker, workers) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|w| {
                let cursor = &cursor;
                let finished = &finished;
                let f = &f;
                // Named threads, so a panic message or a debugger says
                // which pool worker it is.
                std::thread::Builder::new()
                    .name(format!("pool-worker-{w}"))
                    .spawn_scoped(scope, move || {
                        let mut telemetry = WorkerTelemetry::default();
                        let mut results: Vec<(usize, Result<T, CellFailure>)> = Vec::new();
                        loop {
                            let fetch_start = Instant::now();
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            let grabbed = inputs.get(i);
                            let queue_wait_ns = fetch_start.elapsed().as_nanos() as u64;
                            telemetry.queue_wait_ns += queue_wait_ns;
                            let Some(input) = grabbed else { break };
                            hooks.started(i, w);
                            let cell_start = Instant::now();
                            let out = run_cell(f, i, input);
                            let busy_ns = cell_start.elapsed().as_nanos() as u64;
                            telemetry.busy_ns += busy_ns;
                            telemetry.cells += 1;
                            let panic = out.as_ref().err().map(|e| e.payload.clone());
                            results.push((i, out));
                            let done = finished.fetch_add(1, Ordering::Relaxed) + 1;
                            hooks.finished(
                                &CellObservation {
                                    index: i,
                                    worker: w,
                                    queue_wait_ns,
                                    busy_ns,
                                    panic,
                                },
                                done,
                                total,
                            );
                        }
                        (results, telemetry)
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        let mut per_worker = Vec::with_capacity(jobs);
        let mut workers = Vec::with_capacity(jobs);
        for handle in handles {
            // A panic here is a bug in the hooks (cell panics are
            // caught by `run_cell`); propagate it like the scope would.
            let (results, telemetry) = handle.join().expect("pool worker panicked");
            per_worker.push(results);
            workers.push(telemetry);
        }
        (per_worker, workers)
    });
    let mut slots: Vec<Option<Result<T, CellFailure>>> = (0..total).map(|_| None).collect();
    for (i, r) in per_worker.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "cell {i} ran twice");
        slots[i] = Some(r);
    }
    let out = slots
        .into_iter()
        .map(|s| s.expect("every job ran"))
        .collect();
    let telemetry = PoolTelemetry {
        wall_ns: start.elapsed().as_nanos() as u64,
        jobs,
        workers,
    };
    (out, telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let inputs: Vec<usize> = (0..100).collect();
        let out = SimPool::new(4).run(&inputs, |&i| i * 3);
        assert_eq!(out, inputs.iter().map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn zero_means_auto() {
        assert!(SimPool::new(0).jobs() >= 1);
    }

    #[test]
    fn serial_and_parallel_agree() {
        let inputs: Vec<u64> = (0..37).collect();
        let f = |&n: &u64| n.wrapping_mul(0x9e37_79b9).rotate_left(13);
        assert_eq!(
            SimPool::new(1).run(&inputs, f),
            SimPool::new(8).run(&inputs, f)
        );
    }

    #[test]
    fn empty_input() {
        let out: Vec<u64> = SimPool::new(4).run(&[], |&n: &u64| n);
        assert!(out.is_empty());
    }

    #[test]
    fn more_jobs_than_inputs() {
        let out = SimPool::new(64).run(&[1, 2], |&n: &i32| n + 1);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn run_timed_accounts_every_cell_to_a_worker() {
        for jobs in [1, 4] {
            let inputs: Vec<u64> = (0..41).collect();
            let (out, telemetry) = SimPool::new(jobs).run_timed(
                &inputs,
                |_, &n| {
                    // Do a little real work so busy time is non-zero.
                    (0..200u64).fold(n, |a, b| a.wrapping_mul(31).wrapping_add(b))
                },
                |_, _| {},
            );
            assert_eq!(out.len(), 41);
            assert_eq!(telemetry.workers.len(), telemetry.jobs);
            let cells: u64 = telemetry.workers.iter().map(|w| w.cells).sum();
            assert_eq!(cells, 41, "every cell attributed to exactly one worker");
            let busy: u64 = telemetry.workers.iter().map(|w| w.busy_ns).sum();
            assert!(busy > 0);
        }
    }

    #[test]
    fn run_indexed_passes_indices_and_reports_progress() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for jobs in [1, 4] {
            let inputs: Vec<u64> = (0..23).collect();
            let calls = AtomicUsize::new(0);
            let out = SimPool::new(jobs).run_indexed(
                &inputs,
                |i, &n| (i as u64) * 100 + n,
                |done, total| {
                    assert!(done >= 1 && done <= total);
                    assert_eq!(total, 23);
                    calls.fetch_add(1, Ordering::Relaxed);
                },
            );
            assert_eq!(calls.load(Ordering::Relaxed), 23);
            let expect: Vec<u64> = (0..23).map(|i| i * 100 + i).collect();
            let out: Vec<u64> = out.into_iter().map(|r| r.expect("no panics")).collect();
            assert_eq!(out, expect);
        }
    }

    #[test]
    fn panicking_cell_is_isolated_for_any_job_count() {
        for jobs in [1, 4] {
            let inputs: Vec<u64> = (0..17).collect();
            let out = SimPool::new(jobs).run_indexed(
                &inputs,
                |_, &n| {
                    assert!(n != 5, "cell five dies");
                    n * 2
                },
                |_, _| {},
            );
            assert_eq!(out.len(), 17);
            for (i, r) in out.iter().enumerate() {
                if i == 5 {
                    let failure = r.as_ref().expect_err("cell 5 panicked");
                    assert_eq!(failure.index, 5);
                    assert!(failure.payload.contains("cell five dies"));
                } else {
                    assert_eq!(*r.as_ref().expect("survivor"), i as u64 * 2);
                }
            }
        }
    }

    #[test]
    fn failed_cells_still_count_toward_progress_and_telemetry() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for jobs in [1, 3] {
            let inputs: Vec<u64> = (0..9).collect();
            let calls = AtomicUsize::new(0);
            let (out, telemetry) = SimPool::new(jobs).run_timed(
                &inputs,
                |_, &n| {
                    assert!(n % 2 == 0, "odd cell");
                    n
                },
                |_, _| {
                    calls.fetch_add(1, Ordering::Relaxed);
                },
            );
            assert_eq!(calls.load(Ordering::Relaxed), 9);
            assert_eq!(out.iter().filter(|r| r.is_err()).count(), 4);
            let cells: u64 = telemetry.workers.iter().map(|w| w.cells).sum();
            assert_eq!(cells, 9, "failed cells are still attributed to a worker");
        }
    }

    #[test]
    fn run_observed_reports_worker_lifecycle_per_cell() {
        use std::sync::Mutex;

        struct Capture {
            started: Mutex<Vec<(usize, usize)>>,
            finished: Mutex<Vec<CellObservation>>,
        }
        impl CellHooks for Capture {
            fn started(&self, index: usize, worker: usize) {
                self.started.lock().unwrap().push((index, worker));
            }
            fn finished(&self, obs: &CellObservation, done: usize, total: usize) {
                assert!(done >= 1 && done <= total);
                self.finished.lock().unwrap().push(obs.clone());
            }
        }

        for jobs in [1, 4] {
            let inputs: Vec<u64> = (0..19).collect();
            let capture = Capture {
                started: Mutex::new(Vec::new()),
                finished: Mutex::new(Vec::new()),
            };
            let (out, telemetry) = SimPool::new(jobs).run_observed(
                &inputs,
                |_, &n| {
                    assert!(n != 7, "seven dies");
                    n
                },
                &capture,
            );
            assert_eq!(out.len(), 19);
            let started = capture.started.into_inner().unwrap();
            let mut finished = capture.finished.into_inner().unwrap();
            assert_eq!(started.len(), 19);
            assert_eq!(finished.len(), 19);
            finished.sort_by_key(|o| o.index);
            let resolved_jobs = telemetry.jobs;
            for (i, obs) in finished.iter().enumerate() {
                assert_eq!(obs.index, i, "every cell observed exactly once");
                assert!(obs.worker < resolved_jobs);
                assert!(
                    started.contains(&(i, obs.worker)),
                    "cell {i} started on the worker that finished it"
                );
                assert_eq!(obs.panic.is_some(), i == 7);
            }
            assert!(finished[7].panic.as_deref().unwrap().contains("seven dies"));
            // The hooks' per-cell accounting reconciles with the
            // aggregate worker telemetry.
            let hook_busy: u64 = finished.iter().map(|o| o.busy_ns).sum();
            let agg_busy: u64 = telemetry.workers.iter().map(|w| w.busy_ns).sum();
            assert!(hook_busy <= agg_busy + 19);
        }
    }

    #[test]
    #[should_panic(expected = "cell 1 panicked")]
    fn run_repanics_on_cell_failure() {
        SimPool::new(1).run(&[1u64, 2, 3], |&n| {
            assert!(n != 2, "two is right out");
            n
        });
    }
}
