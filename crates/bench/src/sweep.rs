//! One grid runner for every figure binary.
//!
//! A figure is a grid of [`Cell`]s, each a plain value: what it
//! simulates ([`Sim`]), the dispatch strategy, and the config knobs it
//! overrides. [`grid`] derives each cell's configuration, serves it
//! from the [`crate::cellcache`] or simulates it on a [`SimPool`], and
//! returns the results in grid order, so stdout is byte-identical for
//! any `--jobs` value. The cache keys on the simulation, not the
//! binary, so overlapping grids (Figs. 6–9 all view [`eval_grid`])
//! share results. Operator feedback — heartbeats and the wall-clock
//! summary — goes to **stderr only**, and `--quiet` suppresses it.
//!
//! **Fault isolation:** a panicking cell no longer aborts the sweep.
//! The pool catches each cell's panic ([`gvf_sim::CellFailure`]); the
//! remaining cells complete, and [`SweepRun::into_results`] turns any
//! failures into first-class `"failed"` manifest entries plus a
//! non-zero exit that lists exactly which cells died — per-cell
//! granularity instead of losing the whole binary's work.
//!
//! **Telemetry:** the sweep's lifecycle flows through
//! [`crate::events`] via the pool's [`gvf_sim::CellHooks`] — per-cell
//! scheduled/started/terminal events with worker id, queue wait and
//! duration, the stderr heartbeat (now an events consumer, with the
//! cache-hit-aware ETA), the flight recorder, and the `--events-out`
//! JSONL stream. Each sweep also self-reports to
//! [`gvf_sim::hostperf`]: the pool's [`gvf_sim::PoolTelemetry`]
//! (per-worker busy/queue-wait time and cell counts) lands in the
//! manifest's `hostPerf` section, which the determinism diff strips
//! (wall-clock numbers differ run to run by design — see `DESIGN.md`
//! "Host performance & trajectory").

use crate::cellcache::CellCache;
use crate::cli::{HarnessOpts, DEFAULT_METRICS_BUCKET_CYCLES, DEFAULT_TRACE_EVENTS_PER_SM};
use crate::json::Json;
use gvf_alloc::AllocatorKind;
use gvf_core::{LookupKind, Strategy};
use gvf_sim::hostperf::{self, SweepTelemetry};
use gvf_sim::{CellFailure, CellHooks, CellObservation, GpuConfig, ProbeSpec, SimPool};
use gvf_workloads::{micro, run_workload, MicroParams, RunResult, WorkloadConfig, WorkloadKind};
use std::sync::Mutex;
use std::time::Instant;

/// What a grid cell simulates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sim {
    /// One of the ported applications ([`run_workload`]).
    Workload(WorkloadKind),
    /// A §8.3 microbenchmark point ([`micro::run`]).
    Micro(MicroParams),
}

impl Sim {
    /// The deterministic rendering that enters the cell-cache key.
    pub(crate) fn json(&self) -> Json {
        match *self {
            Sim::Workload(kind) => Json::obj().with("workload", Json::str(kind.label())),
            Sim::Micro(p) => Json::obj().with(
                "micro",
                Json::obj()
                    .with("n_objects", Json::num_u64(p.n_objects as u64))
                    .with("n_types", Json::num_u64(p.n_types as u64)),
            ),
        }
    }
}

/// One grid cell: what it simulates, the strategy, and the config knobs
/// it overrides (`None` keeps the run's value).
#[derive(Clone, Debug)]
pub struct Cell {
    /// The simulated workload or microbenchmark point.
    pub sim: Sim,
    /// The dispatch strategy.
    pub strategy: Strategy,
    /// Forces an allocator regardless of strategy (Fig. 11).
    pub allocator_override: Option<AllocatorKind>,
    /// SharedOA's initial chunk size in objects (Fig. 10).
    pub initial_chunk_objs: Option<u64>,
    /// The GPU model (GPU-generation robustness check).
    pub gpu: Option<GpuConfig>,
    /// COAL's range-lookup structure (lookup ablation).
    pub coal_lookup: Option<LookupKind>,
    /// TypePointer's tag budget in bytes (§6.1 fallback sweep).
    pub tag_budget: Option<u64>,
}

impl Cell {
    fn new(sim: Sim, strategy: Strategy) -> Self {
        Cell {
            sim,
            strategy,
            allocator_override: None,
            initial_chunk_objs: None,
            gpu: None,
            coal_lookup: None,
            tag_budget: None,
        }
    }

    /// A workload cell with no overrides.
    pub fn workload(kind: WorkloadKind, strategy: Strategy) -> Self {
        Cell::new(Sim::Workload(kind), strategy)
    }

    /// A microbenchmark cell with no overrides.
    pub fn micro(params: MicroParams, strategy: Strategy) -> Self {
        Cell::new(Sim::Micro(params), strategy)
    }

    /// This cell's configuration as grid cell `index` of a run under
    /// `opts`: the run's config, the probes the flags ask for, then the
    /// cell's overrides. Timeline/metrics recording probes the **first
    /// cell only**, keeping those artifacts bounded; attribution and
    /// the cycle audit are bounded counters and probe **every** cell.
    /// Probes never change timing, so they never change [`RunResult::stats`].
    fn config(&self, opts: &HarnessOpts, index: usize) -> WorkloadConfig {
        let mut cfg = opts.cfg.clone();
        let trace = index == 0 && opts.trace_out.is_some();
        let metrics = index == 0 && opts.metrics_out.is_some();
        cfg.probe = ProbeSpec {
            timeline_events_per_sm: if trace {
                DEFAULT_TRACE_EVENTS_PER_SM
            } else {
                0
            },
            metrics_bucket_cycles: if metrics {
                DEFAULT_METRICS_BUCKET_CYCLES
            } else {
                0
            },
            attribution: opts.attrib_out.is_some(),
            cycle_audit: opts.audit_out.is_some(),
        };
        cfg.allocator_override = self.allocator_override.or(cfg.allocator_override);
        cfg.initial_chunk_objs = self.initial_chunk_objs.unwrap_or(cfg.initial_chunk_objs);
        cfg.gpu = self.gpu.clone().unwrap_or(cfg.gpu);
        cfg.coal_lookup = self.coal_lookup.unwrap_or(cfg.coal_lookup);
        cfg.tag_budget = self.tag_budget.or(cfg.tag_budget);
        cfg
    }

    /// Runs the cell's simulation under `cfg`.
    fn simulate(&self, cfg: &WorkloadConfig) -> RunResult {
        match self.sim {
            Sim::Workload(kind) => run_workload(kind, self.strategy, cfg),
            Sim::Micro(params) => micro::run(self.strategy, params, cfg),
        }
    }
}

/// Position of SharedOA in each row of [`eval_rows`]: the baseline
/// Figs. 6–8 normalize to.
pub const EVAL_BASELINE: usize = 2;
const _: () = assert!(matches!(
    Strategy::EVALUATED[EVAL_BASELINE],
    Strategy::SharedOa
));

/// The paper's evaluation grid: every evaluated workload × every
/// evaluated strategy, workload-major.
pub fn eval_grid() -> Vec<Cell> {
    WorkloadKind::EVALUATED
        .into_iter()
        .flat_map(|k| Strategy::EVALUATED.map(|s| Cell::workload(k, s)))
        .collect()
}

/// [`eval_grid`]'s results as rows: each workload with its results in
/// [`Strategy::EVALUATED`] order.
pub fn eval_rows(results: &[RunResult]) -> impl Iterator<Item = (WorkloadKind, &[RunResult])> {
    WorkloadKind::EVALUATED
        .into_iter()
        .zip(results.chunks(Strategy::EVALUATED.len()))
}

/// One dead cell of a sweep: where it died, what the panic said, which
/// worker it was on, how long it queued, and the fingerprint of the
/// configuration that killed it (reproducible via `--seed`/knob flags;
/// see [`crate::cellcache::config_fingerprint`]).
#[derive(Clone, Debug)]
pub struct SweepFailure {
    /// Grid index of the dead cell.
    pub cell: usize,
    /// The panic payload.
    pub payload: String,
    /// Hex fingerprint of the cell's simulation config.
    pub fingerprint: String,
    /// Pool worker the cell died on.
    pub worker: usize,
    /// Nanoseconds the cell waited in the pool queue before starting.
    pub queue_wait_ns: u64,
}

/// The outcome of a sweep: per-cell results in grid order, each either
/// a value or the failure that killed it.
pub struct SweepRun {
    label: String,
    cells: Vec<Result<RunResult, SweepFailure>>,
}

impl SweepRun {
    /// The dead cells, in grid order.
    pub fn failures(&self) -> Vec<&SweepFailure> {
        self.cells.iter().filter_map(|c| c.as_ref().err()).collect()
    }

    /// Every cell outcome in grid order — for callers (tests, the
    /// failure-manifest builder) that need the raw per-cell results
    /// without the exit-on-failure policy of [`SweepRun::into_results`].
    pub fn cells(&self) -> &[Result<RunResult, SweepFailure>] {
        &self.cells
    }

    /// Unwraps every cell, panicking on the first failure — for callers
    /// (tests, benches) that treat any dead cell as fatal.
    pub fn expect_all(self) -> Vec<RunResult> {
        self.cells
            .into_iter()
            .map(|c| c.unwrap_or_else(|f| panic!("cell {} panicked: {}", f.cell, f.payload)))
            .collect()
    }

    /// The figure-binary unwrap: on an all-green sweep, the results in
    /// grid order. Any dead cell instead writes the failure manifest
    /// (`--json-out`, schema v2 with `"status": "failed"` entries — see
    /// [`crate::manifest::emit_failures`]), lists the dead cells on
    /// stderr, closes the events stream with `runEnd: failed`, and
    /// exits non-zero; surviving cells' counters are preserved in the
    /// manifest, so a long sweep's work is not lost.
    pub fn into_results(self, opts: &HarnessOpts) -> Vec<RunResult> {
        if self.failures().is_empty() {
            return self
                .cells
                .into_iter()
                .map(|c| c.unwrap_or_else(|_| unreachable!("no failures")))
                .collect();
        }
        let label = self.label.clone();
        let failed: Vec<usize> = self.failures().iter().map(|f| f.cell).collect();
        crate::manifest::emit_failures(opts, &label, &self.cells);
        for f in self.failures() {
            eprintln!(
                "[{label}] cell {} FAILED: {} (config {})",
                f.cell, f.payload, f.fingerprint
            );
        }
        eprintln!(
            "[{label}] {} of {} cells failed: {failed:?}",
            failed.len(),
            self.cells.len(),
        );
        crate::events::run_end("failed");
        std::process::exit(1);
    }
}

/// Bridges the pool's per-cell lifecycle to [`crate::events`] and
/// records each cell's worker id and queue wait for failure reporting.
struct SweepHooks {
    /// Per-cell (worker, queue-wait ns), filled as cells terminate.
    runtime: Mutex<Vec<(usize, u64)>>,
}

impl CellHooks for SweepHooks {
    fn started(&self, index: usize, worker: usize) {
        crate::events::cell_started(index, worker);
    }

    fn finished(&self, obs: &CellObservation, done: usize, total: usize) {
        {
            let mut runtime = self.runtime.lock().expect("sweep runtime mutex");
            runtime[obs.index] = (obs.worker, obs.queue_wait_ns);
        }
        crate::events::cell_done(obs, done, total);
    }
}

/// Runs a figure's grid on `opts.jobs` threads (`0` = all cores),
/// returning a [`SweepRun`] in grid order. Each cell runs under the
/// run's config plus the probes the flags ask for and its overrides;
/// its result comes from the run's cell cache ([`CellCache::for_run`])
/// or from a fresh simulation.
/// Long sweeps get throttled `k/N cells, ETA` heartbeats on stderr (an
/// events consumer — see [`crate::events`]; the ETA extrapolates from
/// non-cached completions only, and the completion heartbeat always
/// prints); a final wall-clock line also goes to stderr so stdout stays
/// a clean report. `--quiet` silences all of it. The sweep's pool
/// telemetry is recorded for the manifest's `hostPerf` section.
/// `--fail-cell N` makes grid cell `N` panic instead of running — the
/// injected failure takes the real isolation path (pool `catch_unwind`,
/// failure manifest, flight recorder), which CI uses to test the
/// telemetry end to end.
pub fn grid(label: &str, opts: &HarnessOpts, cells: &[Cell]) -> SweepRun {
    let pool = SimPool::new(opts.jobs);
    let cache = CellCache::for_run(opts);
    let quiet = opts.quiet;
    let start = Instant::now();
    crate::events::sweep_start(label, cells.len(), pool.jobs(), quiet);
    let hooks = SweepHooks {
        runtime: Mutex::new(vec![(0, 0); cells.len()]),
    };
    let (out, telemetry) = pool.run_observed(
        cells,
        |i, cell| {
            if opts.fail_cell == Some(i) {
                panic!("injected failure (--fail-cell {i})");
            }
            let cfg = cell.config(opts, i);
            cache.run(i, &cell.sim, cell.strategy, &cfg, || cell.simulate(&cfg))
        },
        &hooks,
    );
    crate::events::sweep_end(label);
    if !quiet {
        eprintln!(
            "[{label}] {} simulations in {:.2}s ({} job{})",
            cells.len(),
            start.elapsed().as_secs_f64(),
            pool.jobs(),
            if pool.jobs() == 1 { "" } else { "s" },
        );
    }
    hostperf::record_sweep(SweepTelemetry {
        label: label.to_string(),
        pool: telemetry,
    });
    let runtime = hooks.runtime.into_inner().expect("sweep runtime mutex");
    let cells = out
        .into_iter()
        .zip(cells)
        .enumerate()
        .map(|(i, (r, cell))| {
            r.map_err(|CellFailure { index, payload }| SweepFailure {
                cell: index,
                payload,
                fingerprint: crate::cellcache::config_fingerprint(&cell.config(opts, i)),
                worker: runtime[i].0,
                queue_wait_ns: runtime[i].1,
            })
        })
        .collect();
    SweepRun {
        label: label.to_string(),
        cells,
    }
}
