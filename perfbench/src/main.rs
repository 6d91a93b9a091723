//! `perfbench`: the in-process half of the repository benchmark.
//!
//! Runs one closed-loop workload for a given time and prints one JSON
//! object with the raw measurements of every pass:
//!
//! - `eval-grid`: the 55 distinct Fig. 6 cells (11 applications × 5
//!   strategies) through [`run_workload`] on [`SimPool::run_timed`], one
//!   pool job per host core, probes off.
//! - `micro-dispatch`: the Fig. 12b types-per-warp population (BRANCH,
//!   CUDA, COAL, TypePointer × 1…32 types per warp), built and launched
//!   here through the public layer calls (`Rig::new`, `Rig::construct`,
//!   `Rig::finalize`, [`gvf_sim::run_kernel`], [`Gpu::execute`]) on the
//!   pool, one job per host core, so each layer is timed on its own.
//! - `layers`: one `micro-dispatch` pass in which every kernel trace is
//!   also replayed through [`Gpu::execute_probed`] with the probes
//!   `run_all.sh` turns on. Every traced run takes the functional,
//!   engine and probe costs per instruction from it.
//!
//! A pass runs the whole population once; passes repeat until the time
//! is up. With `--trace`, untraced and traced passes alternate; a traced
//! pass keeps one span per cell and per layer call in memory, and they
//! are printed with the result. `run.py` builds this binary, takes
//! medians over the passes, checks the digests against `pins.json` and
//! prints the metrics. Layer times are read from the thread CPU clock
//! around each public call; nothing inside the program is instrumented.
//!
//! ```text
//! perfbench <eval-grid|micro-dispatch|layers> --seed N --seconds S [--trace]
//! ```

use gvf_core::{CallSite, FuncId, Strategy, TypeId, TypeRegistry};
use gvf_mem::VirtAddr;
use gvf_sim::{
    lanes_from_fn, recording_probe, AccessTag, Gpu, Lanes, ObsReport, ProbeSpec, SimPool, Stats,
    WarpCtx,
};
use gvf_workloads::util::{lanes_ptrs, splitmix64};
use gvf_workloads::{
    micro, run_workload, Checksum, MicroParams, Rig, WorkloadConfig, WorkloadKind,
};
use std::fmt::Write as _;
use std::time::Instant;

/// `eval-grid` runs the evaluation GPU and workload defaults with the
/// population and iteration count reduced, so one run fits several
/// passes.
const EVAL_SCALE: u32 = 1;
const EVAL_ITERS: u32 = 2;

/// `micro-dispatch` runs a quarter of the Fig. 12b population
/// (`8192 × 16` objects) so that one run fits several passes; the
/// types-per-warp sweep and the strategies are the paper's.
const MICRO_OBJECTS: usize = 8192 * 4;
const MICRO_ITERS: u32 = 1;
const MICRO_STRATEGIES: [Strategy; 4] = [
    Strategy::Branch,
    Strategy::Cuda,
    Strategy::Coal,
    Strategy::TypePointerProto,
];
const MICRO_TYPES: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// Fewest passes a timed run makes, so the reported medians have a
/// middle to take.
const MIN_PASSES: usize = 3;

/// The probes `run_all.sh` turns on for every cell.
const PROBES: ProbeSpec = ProbeSpec {
    attribution: true,
    cycle_audit: true,
    ..ProbeSpec::OFF
};

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!("usage: perfbench <eval-grid|micro-dispatch|layers> --seed N --seconds S [--trace]");
    std::process::exit(2);
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Reads a POSIX CPU-time clock in nanoseconds.
fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on), and
    // both clock ids are defined by POSIX.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time of the calling thread.
fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time of the whole process, threads that have exited included.
fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let bytes = gvf_sim::hostperf::peak_rss_bytes().expect("VmHWM in /proc/self/status");
    bytes as f64 / 1e6
}

/// FNV-1a digest of a cell's complete `Stats` and functional checksum.
fn cell_digest(s: &Stats, checksum: u64) -> u64 {
    let words = [
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
        checksum,
    ];
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let all = words
        .iter()
        .chain(&s.stall_by_tag)
        .chain(&s.load_transactions_by_tag);
    for w in all {
        for b in w.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// A wall-clock and thread-CPU reading, taken together at a layer
/// boundary.
#[derive(Clone, Copy)]
struct Mark {
    wall: Instant,
    cpu: u64,
}

impl Mark {
    fn now() -> Self {
        Mark {
            wall: Instant::now(),
            cpu: thread_cpu_ns(),
        }
    }
}

/// One span the benchmark records around a call into a layer: wall
/// offsets from the start of the run, and the thread CPU time inside.
struct Span {
    name: &'static str,
    /// The cell the call belongs to (empty for pass-level spans).
    cell: String,
    /// Parent span: `cell` for a layer call, `pass` for a cell.
    parent: &'static str,
    pass: usize,
    start_ns: u64,
    end_ns: u64,
    cpu_ns: u64,
}

/// Collects spans of traced passes; inert when tracing is off.
struct Tracer {
    origin: Instant,
    on: bool,
    /// Index of the pass being recorded.
    pass: usize,
    spans: Vec<Span>,
}

impl Tracer {
    fn record(&mut self, name: &'static str, parent: &'static str, cell: &str, a: Mark, b: Mark) {
        if self.on {
            self.spans.push(Span {
                name,
                cell: cell.to_string(),
                parent,
                pass: self.pass,
                start_ns: a.wall.duration_since(self.origin).as_nanos() as u64,
                end_ns: b.wall.duration_since(self.origin).as_nanos() as u64,
                cpu_ns: b.cpu - a.cpu,
            });
        }
    }
}

/// Thread CPU time spent in each model layer, in ns.
#[derive(Default, Clone, Copy)]
struct Layers {
    /// `Rig::new` through `Rig::finalize`: the object graph.
    build: u64,
    /// `begin_kernel` + `gvf_sim::run_kernel`: the functional pass.
    functional: u64,
    /// `Gpu::execute`: the timing engine.
    engine: u64,
    /// Extra time of `execute_probed` (plus absorbing its probes) over
    /// `execute` on the same trace; `layers` passes only.
    probe: u64,
}

impl std::ops::AddAssign for Layers {
    fn add_assign(&mut self, o: Layers) {
        self.build += o.build;
        self.functional += o.functional;
        self.engine += o.engine;
        self.probe += o.probe;
    }
}

/// One simulated cell of a pass.
struct Cell {
    key: String,
    stats: Stats,
    checksum: u64,
    failed: bool,
    objects: u64,
    segtree_walks: u64,
    /// Dynamic warp instructions of the functional traces
    /// (`KernelTrace::dyn_instrs`; `micro-dispatch` only).
    dyn_instrs: u64,
    cpu_ns: u64,
    /// Per-layer split (`micro-dispatch` only).
    layers: Layers,
}

impl Cell {
    fn failed(key: String) -> Self {
        Cell {
            key,
            stats: Stats::new(),
            checksum: 0,
            failed: true,
            objects: 0,
            segtree_walks: 0,
            dyn_instrs: 0,
            cpu_ns: 0,
            layers: Layers::default(),
        }
    }
}

#[derive(Default)]
struct Pass {
    traced: bool,
    cpu_ns: u64,
    wall_ns: u64,
    /// Object-graph build time: the `build` layer (`micro-dispatch`), or
    /// the rigs' alloc phase from `gvf_sim::hostperf` (`eval-grid`).
    setup_ns: u64,
    /// Kernel time: functional pass + timing engine (the rigs' simulate
    /// phase on `eval-grid`).
    kernel_ns: u64,
    layers: Layers,
    busy_ns: u64,
    queue_wait_ns: u64,
    pool_wall_ns: u64,
    jobs: usize,
    cells: Vec<Cell>,
}

/// Runs `run_cell` on every input through `pool`, timing the pass and
/// each cell, and recording a span per cell when `tracer` is on.
fn pool_pass<I: Sync>(
    inputs: &[I],
    pool: SimPool,
    tracer: &mut Tracer,
    key: impl Fn(&I) -> String,
    run_cell: impl Fn(&I) -> Cell + Sync,
) -> Pass {
    let before = gvf_sim::hostperf::snapshot();
    let cpu0 = process_cpu_ns();
    let t0 = Instant::now();
    let (results, telemetry) = pool.run_timed(
        inputs,
        |_, input| {
            let a = Mark::now();
            let cell = run_cell(input);
            (cell, a, Mark::now())
        },
        |_, _| {},
    );
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let cpu_ns = process_cpu_ns() - cpu0;
    let after = gvf_sim::hostperf::snapshot();
    let mut layers = Layers::default();
    let cells: Vec<Cell> = inputs
        .iter()
        .zip(results)
        .map(|(input, r)| match r {
            Ok((mut cell, a, b)) => {
                cell.cpu_ns = b.cpu - a.cpu;
                tracer.record("cell", "pass", &cell.key, a, b);
                layers += cell.layers;
                cell
            }
            Err(failure) => {
                let key = key(input);
                eprintln!("perfbench: {key}: {failure}");
                Cell::failed(key)
            }
        })
        .collect();
    Pass {
        cpu_ns,
        wall_ns,
        setup_ns: after.alloc_ns - before.alloc_ns,
        kernel_ns: after.simulate_ns - before.simulate_ns,
        layers,
        busy_ns: telemetry.workers.iter().map(|w| w.busy_ns).sum(),
        queue_wait_ns: telemetry.workers.iter().map(|w| w.queue_wait_ns).sum(),
        pool_wall_ns: telemetry.wall_ns,
        jobs: telemetry.jobs,
        cells,
        ..Pass::default()
    }
}

fn eval_config(seed: u64) -> WorkloadConfig {
    let mut cfg = WorkloadConfig::eval();
    cfg.scale = EVAL_SCALE;
    cfg.iterations = EVAL_ITERS;
    cfg.seed = seed;
    cfg
}

fn eval_cells() -> Vec<(WorkloadKind, Strategy)> {
    WorkloadKind::EVALUATED
        .into_iter()
        .flat_map(|k| Strategy::EVALUATED.into_iter().map(move |s| (k, s)))
        .collect()
}

fn eval_key(&(kind, strategy): &(WorkloadKind, Strategy)) -> String {
    format!("{}/{}", kind.label(), strategy.label())
}

fn eval_cell(cell: &(WorkloadKind, Strategy), cfg: &WorkloadConfig) -> Cell {
    let r = run_workload(cell.0, cell.1, cfg);
    Cell {
        key: eval_key(cell),
        checksum: r.checksum,
        failed: false,
        objects: r.table2.objects,
        // Lookup walks are only reported with attribution on.
        segtree_walks: r
            .attrib
            .as_ref()
            .and_then(|a| a.lookup.as_ref())
            .map_or(0, |l| l.dispatches),
        dyn_instrs: 0,
        cpu_ns: 0,
        layers: Layers::default(),
        stats: r.stats,
    }
}

fn micro_params(n_types: usize) -> MicroParams {
    MicroParams {
        n_objects: MICRO_OBJECTS,
        n_types,
    }
}

fn micro_config() -> WorkloadConfig {
    let mut cfg = WorkloadConfig::eval();
    cfg.iterations = MICRO_ITERS;
    cfg
}

/// The callee body of the microbenchmark: add the callee's constant to
/// the loaded input and store it (`out[tid] = in + fid + iter`).
fn store_sum(
    w: &mut WarpCtx<'_>,
    out: VirtAddr,
    inputs: &Lanes<u64>,
    fid: FuncId,
    iter: u32,
    n: usize,
) {
    w.alu(1);
    let addrs = lanes_from_fn(|l| {
        (w.is_active(l) && w.thread_id(l) < n).then(|| out.offset(w.thread_id(l) as u64 * 4))
    });
    let vals = lanes_from_fn(|l| inputs[l].map(|v| (v + fid.0 as u64 + iter as u64) & 0xffff_ffff));
    w.st(AccessTag::Other, 4, &addrs, &vals);
}

/// Builds and launches one Fig. 12b point the way `micro::run` does,
/// timing each layer call on the thread CPU clock. With `probes`, every
/// trace is also replayed through `execute_probed` with the `run_all.sh`
/// probes, whose Stats must match the unprobed replay.
fn micro_point(
    strategy: Strategy,
    n_types: usize,
    cfg: &WorkloadConfig,
    probes: bool,
    spans: &mut Vec<(&'static str, Mark, Mark)>,
) -> Cell {
    let n = micro_params(n_types).n_objects;
    let mut reg = TypeRegistry::new();
    let tys: Vec<TypeId> = (0..n_types)
        .map(|t| reg.add_type(&format!("MicroType{t}"), 8, &[FuncId(t as u32)]))
        .collect();
    let gpu = Gpu::new(cfg.gpu.clone());
    let mut layers = Layers::default();

    let b0 = Mark::now();
    let mut rig = Rig::new(&reg, strategy, cfg);
    let mut objs: Vec<VirtAddr> = Vec::new();
    let input = if strategy == Strategy::Branch {
        let a = rig.reserve(n as u64 * 4, 256);
        for i in 0..n {
            rig.mem
                .write_u32(a.offset(i as u64 * 4), i as u32)
                .expect("input write");
        }
        Some(a)
    } else {
        objs = (0..n).map(|i| rig.construct(tys[i % n_types])).collect();
        let hdr = rig.prog.header_bytes();
        for (i, o) in objs.iter().enumerate() {
            rig.mem
                .write_u32(o.strip_tag().offset(hdr), i as u32)
                .expect("field write");
        }
        None
    };
    rig.finalize();
    let out = rig.reserve(n as u64 * 4, 256);
    let b1 = Mark::now();
    layers.build = b1.cpu - b0.cpu;
    spans.push(("build", b0, b1));

    let mut stats = Stats::new();
    let mut dyn_instrs = 0;
    let mut obs = ObsReport::default();
    for iter in 0..cfg.iterations {
        let f0 = Mark::now();
        rig.prog.begin_kernel(&mut rig.mem);
        let prog = &rig.prog;
        let trace = gvf_sim::run_kernel(&mut rig.mem, n, |w| {
            if let Some(input) = input {
                let types = lanes_from_fn(|l| Some(tys[w.thread_id(l) % n_types]));
                prog.branch_call(w, 0, &types, |w, fid| {
                    let in_addrs = lanes_from_fn(|l| {
                        (w.is_active(l) && w.thread_id(l) < n)
                            .then(|| input.offset(w.thread_id(l) as u64 * 4))
                    });
                    let inputs = w.ld(AccessTag::Other, 4, &in_addrs);
                    store_sum(w, out, &inputs, fid, iter, n);
                });
            } else {
                let ptrs = lanes_ptrs(w, &objs);
                prog.vcall(w, &CallSite::new(0), &ptrs, |w, fid| {
                    let inputs = prog.ld_field(w, &ptrs, 0, 4);
                    store_sum(w, out, &inputs, fid, iter, n);
                });
            }
        });
        let f1 = Mark::now();
        let s = gpu.execute(&trace);
        let f2 = Mark::now();
        layers.functional += f1.cpu - f0.cpu;
        layers.engine += f2.cpu - f1.cpu;
        spans.push(("functional", f0, f1));
        spans.push(("engine", f1, f2));
        if probes {
            let (probed, recorded) = gpu.execute_probed(&trace, |sm| recording_probe(sm, PROBES));
            obs.absorb(stats.cycles, probed.cycles, recorded);
            let f3 = Mark::now();
            layers.probe += (f3.cpu - f2.cpu).saturating_sub(f2.cpu - f1.cpu);
            spans.push(("probed_engine", f2, f3));
            // Probes observe without feeding back into timing.
            assert_eq!(probed, s, "probes changed the simulated Stats");
        }
        dyn_instrs += trace.dyn_instrs();
        stats += &s;
    }

    let mut ck = Checksum::new();
    for i in 0..n {
        let v = rig
            .mem
            .read_u32(out.offset(i as u64 * 4))
            .expect("output read");
        ck.push(v as u64);
    }
    Cell {
        key: micro_key(&(strategy, n_types)),
        checksum: ck.value(),
        failed: false,
        objects: rig.objects_built(),
        segtree_walks: rig.prog.lookup_attrib().map_or(0, |l| l.dispatches),
        dyn_instrs,
        cpu_ns: 0,
        layers,
        stats,
    }
}

fn micro_key(&(strategy, n_types): &(Strategy, usize)) -> String {
    format!("t{n_types}/{}", strategy.label())
}

/// The sweep points in the order the seed picks. The population itself
/// is fixed by §8.3; the seed only shuffles the visiting order.
fn micro_points(seed: u64) -> Vec<(Strategy, usize)> {
    let mut points: Vec<(Strategy, usize)> = MICRO_TYPES
        .into_iter()
        .flat_map(|t| MICRO_STRATEGIES.map(|s| (s, t)))
        .collect();
    for i in (1..points.len()).rev() {
        let j = (splitmix64(seed ^ i as u64) % (i as u64 + 1)) as usize;
        points.swap(i, j);
    }
    points
}

fn micro_pass(
    points: &[(Strategy, usize)],
    cfg: &WorkloadConfig,
    probes: bool,
    tracer: &mut Tracer,
) -> Pass {
    // The layer calls of a point run back to back on one worker thread,
    // so their thread CPU times add up to the point's. Two or more jobs
    // spread the host's noise over its cores, as on the grid.
    let layer_spans = std::sync::Mutex::new(Vec::new());
    let mut pass = pool_pass(points, SimPool::new(0), tracer, micro_key, |&(s, t)| {
        let mut spans = Vec::new();
        let cell = micro_point(s, t, cfg, probes, &mut spans);
        let mut all = layer_spans.lock().expect("span list lock");
        all.extend(
            spans
                .into_iter()
                .map(|(name, a, b)| (name, cell.key.clone(), a, b)),
        );
        cell
    });
    for (name, key, a, b) in layer_spans.into_inner().expect("span list lock") {
        tracer.record(name, "cell", &key, a, b);
    }
    pass.setup_ns = pass.layers.build;
    pass.kernel_ns = pass.layers.functional + pass.layers.engine;
    pass
}

/// Runs `micro::run` on every point and lists the points whose checksum
/// or Stats differ from this driver's, so the driver cannot drift from
/// the real workload.
fn micro_oracle(pass: &Pass, points: &[(Strategy, usize)], cfg: &WorkloadConfig) -> Vec<String> {
    points
        .iter()
        .zip(&pass.cells)
        .filter(|(&(s, t), cell)| {
            let r = micro::run(s, micro_params(t), cfg);
            r.checksum != cell.checksum || r.stats != cell.stats
        })
        .map(|(_, cell)| cell.key.clone())
        .collect()
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn cell_json(c: &Cell) -> String {
    let s = &c.stats;
    format!(
        "{{\"key\":\"{}\",\"digest\":\"{:016x}\",\"checksum\":\"{:016x}\",\"failed\":{},\
         \"cpu_s\":{},\"instrs\":{},\"dyn_instrs\":{},\"cycles\":{},\"l1_accesses\":{},\
         \"l2_accesses\":{},\"dram_accesses\":{},\"objects\":{},\"segtree_walks\":{}}}",
        c.key,
        cell_digest(s, c.checksum),
        c.checksum,
        c.failed,
        secs(c.cpu_ns),
        s.total_instrs(),
        c.dyn_instrs,
        s.cycles,
        s.l1_accesses,
        s.l2_accesses,
        s.dram_accesses,
        c.objects,
        c.segtree_walks,
    )
}

fn pass_json(p: &Pass) -> String {
    let cells: Vec<String> = p.cells.iter().map(cell_json).collect();
    format!(
        "{{\"traced\":{},\"cpu_s\":{},\"wall_s\":{},\"setup_s\":{},\"kernel_s\":{},\
         \"functional_s\":{},\"engine_s\":{},\"probe_s\":{},\"busy_s\":{},\
         \"queue_wait_s\":{},\"pool_wall_s\":{},\"jobs\":{},\"cells\":[{}]}}",
        p.traced,
        secs(p.cpu_ns),
        secs(p.wall_ns),
        secs(p.setup_ns),
        secs(p.kernel_ns),
        secs(p.layers.functional),
        secs(p.layers.engine),
        secs(p.layers.probe),
        secs(p.busy_ns),
        secs(p.queue_wait_ns),
        secs(p.pool_wall_ns),
        p.jobs,
        cells.join(",")
    )
}

fn spans_json(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}{{\"name\":\"{}\",\"parent\":\"{}\",\"pass\":{},\"cell\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{},\"cpu_ns\":{}}}",
            s.name, s.parent, s.pass, s.cell, s.start_ns, s.end_ns, s.cpu_ns
        );
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload = args
        .first()
        .cloned()
        .unwrap_or_else(|| usage("missing workload"));
    let mut seed: Option<u64> = None;
    let mut seconds: Option<f64> = None;
    let mut trace = false;
    let mut i = 1;
    while i < args.len() {
        let value = || {
            args.get(i + 1)
                .cloned()
                .unwrap_or_else(|| usage(&format!("{} needs a value", args[i])))
        };
        match args[i].as_str() {
            "--seed" => {
                seed = Some(
                    value()
                        .parse()
                        .unwrap_or_else(|_| usage("--seed takes an integer")),
                );
                i += 2;
            }
            "--seconds" => {
                seconds = Some(
                    value()
                        .parse()
                        .unwrap_or_else(|_| usage("--seconds takes a number")),
                );
                i += 2;
            }
            "--trace" => {
                trace = true;
                i += 1;
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }
    let seed = seed.unwrap_or_else(|| usage("--seed is required"));
    let seconds = seconds.unwrap_or_else(|| usage("--seconds is required"));
    let mut tracer = Tracer {
        origin: Instant::now(),
        on: false,
        pass: 0,
        spans: Vec::new(),
    };

    type RunPass = Box<dyn FnMut(&mut Tracer, bool) -> Pass>;
    let mut run_pass: RunPass = match workload.as_str() {
        "eval-grid" => {
            let cfg = eval_config(seed);
            let cells = eval_cells();
            let pool = SimPool::new(0);
            Box::new(move |tracer, probes| {
                let mut cfg = cfg.clone();
                if probes {
                    cfg.probe = PROBES;
                }
                pool_pass(&cells, pool, tracer, eval_key, |c| eval_cell(c, &cfg))
            })
        }
        "micro-dispatch" | "layers" => {
            let cfg = micro_config();
            let points = micro_points(seed);
            Box::new(move |tracer, probes| micro_pass(&points, &cfg, probes, tracer))
        }
        other => usage(&format!("unknown workload {other}")),
    };

    let mut passes: Vec<Pass> = Vec::new();
    let mut probe_pass = None;
    if workload == "layers" {
        probe_pass = Some(run_pass(&mut tracer, true));
    } else {
        // Closed loop: the next pass starts when the last one ends. A
        // traced run alternates untraced and traced passes, so the
        // tracing overhead is measured under the same conditions.
        let start = Instant::now();
        while passes.len() < MIN_PASSES
            || start.elapsed().as_secs_f64() < seconds
            || (trace && passes.len() < 2 * MIN_PASSES)
        {
            tracer.on = trace && passes.len() % 2 == 1;
            tracer.pass = passes.len();
            let mut p = run_pass(&mut tracer, false);
            p.traced = tracer.on;
            passes.push(p);
        }
        tracer.on = false;
        // On the grid, one pass with the run_all.sh probes on reports
        // the lookup walks and checks that probes leave Stats alone.
        if trace && workload == "eval-grid" {
            probe_pass = Some(run_pass(&mut tracer, true));
        }
    }
    let oracle_mismatches = if workload == "micro-dispatch" {
        micro_oracle(&passes[0], &micro_points(seed), &micro_config())
    } else {
        Vec::new()
    };

    let passes_json: Vec<String> = passes.iter().map(pass_json).collect();
    let mismatches: Vec<String> = oracle_mismatches
        .iter()
        .map(|k| format!("\"{k}\""))
        .collect();
    println!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"peak_rss_mb\":{},\
         \"oracle_mismatches\":[{}],\"probe_pass\":{},\"passes\":[{}],\"spans\":[{}]}}",
        peak_rss_mb(),
        mismatches.join(","),
        probe_pass.as_ref().map_or("null".to_string(), pass_json),
        passes_json.join(","),
        spans_json(&tracer.spans),
    );
}
