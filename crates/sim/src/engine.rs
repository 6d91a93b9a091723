//! The cycle-approximate SIMT timing engine.
//!
//! Warps replay their traces in order. Loads do **not** stall the warp at
//! issue — like a real GPU's scoreboard, they enter a per-warp
//! outstanding-load queue so misses from different reconvergence
//! subgroups overlap. A warp waits only when
//!
//! - an instruction *consumes* an outstanding load, encoded through
//!   access tags: the vFunc-pointer load waits on the vTable-pointer load
//!   or range walk that produced its address, the constant indirection on
//!   the vFunc load, the indirect call on the constant load, and segment
//!   tree levels on each other (the serial chain of paper Fig. 1 /
//!   Algorithm 1); or
//! - the queue exceeds the configured per-warp MLP
//!   ([`GpuConfig::max_pending_loads`]).
//!
//! Memory instructions are coalesced into 32-byte sector transactions
//! that probe a per-SM sectored L1, an address-sliced shared L2, and
//! channel-interleaved DRAM with both latency and bandwidth (service
//! time) costs — so heavily diverged access, cache thrash and bandwidth
//! saturation behave as on hardware, which is where the paper's effects
//! live.
//!
//! # Execution model: epochs and the determinism contract
//!
//! The engine advances in *epochs* (one simulated cycle each, with idle
//! stretches skipped). Every epoch has two phases:
//!
//! 1. **Phase A (per-SM, independent):** each SM runs its warp
//!    schedulers, issues instructions, probes its private L1/constant
//!    caches and MSHR file, and *queues* any traffic that must leave the
//!    SM (L1 miss sectors, stores) instead of touching the shared memory
//!    system. Phase A reads and writes only that SM's state, so SMs can
//!    run in any order.
//! 2. **Phase B (shared, canonical order):** the [`MemSystem`] (L2
//!    slices + DRAM channels) services the queued requests in ascending
//!    `(cycle, sm_id, issue order within the SM)` order, computes each
//!    load's completion time, and posts it back to the issuing warp's
//!    scoreboard.
//!
//! Because phase A is SM-local and phase B consumes requests in a fixed
//! canonical order, a kernel's results depend only on the kernel and
//! the configuration — never on which host thread runs it or what runs
//! beside it, so results are bit-identical for any `--jobs` (see
//! DESIGN.md, "Determinism contract"). Event-driven fast-forward
//! ([`Gpu::with_fast_forward`]) skips quiet epochs without changing a
//! single counter or probe event; plain epoch ticking is the reference
//! that tests compare it against.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::cache::SectoredCache;
use crate::config::GpuConfig;
use crate::instr::{AccessTag, InstrClass, MemOp, Op, Space};
use crate::probe::{NopProbe, Probe, StallCause};
use crate::stats::{Stats, STALL_INDIRECT_CALL};
use crate::trace::{KernelTrace, WarpTrace};

/// The simulated GPU. Construct once, [`execute`](Gpu::execute) many
/// kernels; caches are cold at each kernel boundary.
///
/// Phase A runs SM-by-SM in ascending order on the calling thread;
/// host parallelism lives one level up, in [`SimPool`](crate::SimPool),
/// which runs independent kernels side by side.
#[derive(Clone, Debug)]
pub struct Gpu {
    cfg: GpuConfig,
    fast_forward: bool,
}

/// The tag-encoded dependence chains of virtual dispatch (paper Fig. 1):
/// the vFunc load's address comes from the vTable-pointer load (or the
/// COAL range walk), the constant indirection's from the vFunc load, and
/// the indirect call's target from the constant load. Tree-walk levels
/// chain on each other. Everything else (fields, workload arrays) is
/// overlappable address-independent traffic.
fn dep_tags(tag: AccessTag) -> &'static [AccessTag] {
    match tag {
        AccessTag::VfuncPtr => &[AccessTag::VtablePtr, AccessTag::RangeWalk],
        AccessTag::ConstIndirection => &[AccessTag::VfuncPtr],
        AccessTag::RangeWalk => &[AccessTag::RangeWalk],
        _ => &[],
    }
}

/// One outstanding load in the per-SM pending arena: completion cycle
/// and [`AccessTag::index`] of the access that produced it.
type Pending = (u64, u32);

/// One sector of shared-memory-system traffic queued by phase A.
#[derive(Clone, Copy)]
struct SectorReq {
    sector: u64,
    /// Cycle the sector may enter the L2 (post L1 latency + MSHR wait);
    /// for stores, the issue cycle.
    ready: u64,
}

/// One load or store batch queued by phase A for canonical phase-B
/// servicing. Sector payloads live in `SmState::sectors`
/// (`sec_start..sec_start + sec_len`).
#[derive(Clone, Copy)]
struct MemRequest {
    is_store: bool,
    /// Issuing warp slot (loads only).
    wi: usize,
    /// Kernel-wide warp id of the issuer, for probe attribution (loads
    /// only).
    trace_idx: usize,
    /// Trace position of the issuing op, for probe attribution (loads
    /// only).
    pc: usize,
    /// [`AccessTag::index`] of the access (loads only).
    tag_idx: usize,
    /// Completion lower bound from L1-hit sectors (loads only).
    known_done: u64,
    issue_cycle: u64,
    sec_start: usize,
    sec_len: usize,
}

struct SmState<P: Probe> {
    l1: SectoredCache,
    cmem: SectoredCache,
    l1_free_at: u64,
    /// MSHR model: phase-B fill times of the L1 miss sectors, a
    /// min-heap. When the file is full, new misses wait for the
    /// earliest outstanding one. Completed fills are retired lazily by
    /// [`SmState::load_gate`], so right after a gate query the heap
    /// holds exactly the entries outstanding at that cycle.
    mshr: BinaryHeap<Reverse<u64>>,
    /// Lower-bound placeholder fill times of the misses queued this
    /// epoch; phase B drains them, pushing each sector's real fill
    /// time onto `mshr` instead.
    mshr_new: Vec<u64>,
    /// Resident warp state, structure-of-arrays indexed by slot: the
    /// hot scheduler scan touches only `w_ready`, so a 64-warp SM's
    /// scan walks one dense `u64` array instead of striding through a
    /// `Vec` of multi-word structs. A retired slot with no replacement
    /// warp parks at `u64::MAX`, which no ready-check or min-fold ever
    /// selects — the "done" flag costs no second array.
    w_trace: Vec<u32>,
    w_pc: Vec<u32>,
    w_ready: Vec<u64>,
    /// Set while the slot's current op is a load that was deferred and
    /// has not issued since. Its pending arena can only shrink and its
    /// `w_ready` covered the operand terms, so a re-check needs only
    /// the LSU and MSHR terms (see DESIGN.md, "Hot-path architecture").
    w_settled: Vec<bool>,
    /// Latest warp-retire completion seen on this SM (feeds the
    /// kernel's final cycle count in [`finish`]).
    max_retire: u64,
    /// Outstanding-load arena, fixed stride [`SmState::pend_stride`]
    /// per slot: slot `wi`'s entries occupy
    /// `wi * stride .. wi * stride + pend_len[wi]`. The scoreboard
    /// defers loads at `max_pending_loads` outstanding, so the arena
    /// never overflows and warp replacement never reallocates.
    pend: Vec<Pending>,
    pend_len: Vec<u32>,
    pend_stride: usize,
    pending_warps: Vec<usize>,
    rr: usize,
    /// Scheduler walk tables (see [`sched_tables`]): scheduler `s` owns
    /// slots `s, s + schedulers, …`; `sched_owned[s]` counts them and
    /// `sched_start[rr * schedulers + s]` is the first at or after
    /// `rr`, wrapping to `s`. The slot count is fixed in `setup`.
    sched_owned: Vec<u32>,
    sched_start: Vec<u32>,
    /// Per-scheduler cache of the earliest cycle any of its warps can
    /// issue; `0` forces a rescan. Purely a simulation speed-up.
    sched_next: Vec<u64>,
    /// Fast-forward cache: after a *quiet* epoch (no scheduler chose a
    /// warp, nothing retiring) the SM provably repeats that epoch's
    /// outcome verbatim until `ff_until`, so the execute loop replays
    /// `{live: ff_live, issued: false, min_next: ff_until}` without
    /// running the schedulers. `0` means "must run".
    ff_until: u64,
    ff_live: bool,
    /// Per-SM partial counters, merged deterministically at the end.
    stats: Stats,
    /// Warps whose trace ended this epoch: `(slot, retire cycle)`.
    /// Finalized at the next epoch's prologue, once phase B has posted
    /// the completion of any load issued in the retire cycle.
    retiring: Vec<(usize, u64)>,
    /// Coalescing scratch (reused across epochs).
    scratch: Vec<u64>,
    /// Phase-A → phase-B queues (reused across epochs).
    reqs: Vec<MemRequest>,
    sectors: Vec<SectorReq>,
    /// This SM's observability hooks ([`NopProbe`] unless the caller
    /// asked for recording via [`Gpu::execute_probed`]).
    probe: P,
}

impl<P: Probe> SmState<P> {
    /// Latest completion among slot `wi`'s pending loads whose tag is
    /// in `tags`.
    fn dep_ready(&self, wi: usize, tags: &[AccessTag]) -> u64 {
        let base = wi * self.pend_stride;
        self.pend[base..base + self.pend_len[wi] as usize]
            .iter()
            .filter(|(_, t)| tags.iter().any(|x| x.index() as u32 == *t))
            .map(|(c, _)| *c)
            .max()
            .unwrap_or(0)
    }

    /// Drops slot `wi`'s pending loads that completed at or before
    /// `now`, compacting in place.
    fn prune(&mut self, wi: usize, now: u64) {
        let base = wi * self.pend_stride;
        let len = self.pend_len[wi] as usize;
        let mut keep = 0;
        for k in 0..len {
            let e = self.pend[base + k];
            if e.0 > now {
                self.pend[base + keep] = e;
                keep += 1;
            }
        }
        self.pend_len[wi] = keep as u32;
    }

    /// Earliest completion among slot `wi`'s pending loads (callers
    /// check non-emptiness via `pend_len`).
    fn pend_oldest(&self, wi: usize) -> u64 {
        let base = wi * self.pend_stride;
        self.pend[base..base + self.pend_len[wi] as usize]
            .iter()
            .map(|(c, _)| *c)
            .min()
            .expect("non-empty pending")
    }

    fn pend_push(&mut self, wi: usize, done: u64, tag_idx: usize) {
        let len = self.pend_len[wi] as usize;
        debug_assert!(len < self.pend_stride, "pending arena overflow");
        self.pend[wi * self.pend_stride + len] = (done, tag_idx as u32);
        self.pend_len[wi] = (len + 1) as u32;
    }

    /// Clears slot `wi`'s pending loads, returning the latest
    /// completion among them (`0` if none).
    fn drain_all(&mut self, wi: usize) -> u64 {
        let base = wi * self.pend_stride;
        let max = self.pend[base..base + self.pend_len[wi] as usize]
            .iter()
            .map(|(c, _)| *c)
            .max()
            .unwrap_or(0);
        self.pend_len[wi] = 0;
        max
    }

    /// Installs a fresh warp (trace `trace_idx`, first issue no earlier
    /// than `ready_at`) into slot `wi`.
    fn install(&mut self, wi: usize, trace_idx: usize, ready_at: u64) {
        self.w_trace[wi] = trace_idx as u32;
        self.w_pc[wi] = 0;
        self.w_ready[wi] = ready_at;
        // A warp retires only by issuing its last op, which clears the
        // flag, so a reused slot starts unsettled.
        debug_assert!(!self.w_settled[wi], "settled flag outlived its warp");
        self.pend_len[wi] = 0;
    }

    /// The structural terms of a load's deferral target at `cycle`: LSU
    /// queue back-pressure and, while the MSHR file lacks room for a
    /// full warp of misses, its earliest outstanding completion (an
    /// empty file always admits a load). First retires the fills done
    /// by `cycle`; the clock only advances, so no later query needs them.
    fn load_gate(&mut self, cfg: &GpuConfig, cycle: u64) -> u64 {
        while self.mshr.peek().is_some_and(|&Reverse(c)| c <= cycle) {
            self.mshr.pop();
        }
        let mut until = 0;
        if self.l1_free_at > cycle + cfg.l1_queue_cap {
            until = self.l1_free_at - cfg.l1_queue_cap;
        }
        // Placeholders all complete after `cycle` (see
        // `issue_load_phase_a`), so every entry is outstanding.
        let outstanding = self.mshr.len() + self.mshr_new.len();
        if outstanding > 0 && outstanding + cfg.warp_size as usize > cfg.mshr_per_sm {
            let heap_min = self.mshr.peek().map_or(u64::MAX, |&Reverse(c)| c);
            until = until.max(self.mshr_new.iter().fold(heap_min, |m, &c| m.min(c)));
        }
        until
    }

    /// MSHR entries (fills and placeholders) outstanding at `t`, i.e.
    /// completing after it, and the earliest of their completions
    /// (`u64::MAX` if none), by a plain scan.
    fn mshr_scan(&self, t: u64) -> (usize, u64) {
        let fills = self.mshr.iter().map(|&Reverse(c)| c);
        let live = fills
            .chain(self.mshr_new.iter().copied())
            .filter(|&c| c > t);
        live.fold((0, u64::MAX), |(n, e), c| (n + 1, e.min(c)))
    }

    /// A load's deferral target derived by full scans, reading nothing
    /// memoized: the exactness oracle for [`SmState::load_gate`]'s heap
    /// retirement and for `w_settled`.
    #[cfg(debug_assertions)]
    fn load_defer_reference(&self, cfg: &GpuConfig, wi: usize, tag: AccessTag, cycle: u64) -> u64 {
        let base = wi * self.pend_stride;
        let live = self.pend[base..base + self.pend_len[wi] as usize]
            .iter()
            .filter(|(c, _)| *c > cycle);
        let tags = dep_tags(tag);
        let mut until = live
            .clone()
            .filter(|(_, t)| tags.iter().any(|x| x.index() as u32 == *t))
            .map(|(c, _)| *c)
            .max()
            .unwrap_or(0);
        if live.clone().count() >= cfg.max_pending_loads {
            until = until.max(live.map(|(c, _)| *c).min().expect("non-empty pending"));
        }
        if self.l1_free_at > cycle + cfg.l1_queue_cap {
            until = until.max(self.l1_free_at - cfg.l1_queue_cap);
        }
        let (outstanding, earliest) = self.mshr_scan(cycle);
        if outstanding > 0 && outstanding + cfg.warp_size as usize > cfg.mshr_per_sm {
            until = until.max(earliest);
        }
        until
    }
}

/// [`SmState::sched_owned`] and [`SmState::sched_start`] for `n` warp
/// slots over `s_count` schedulers, so the per-epoch walk divides
/// nothing.
fn sched_tables(n: usize, s_count: usize) -> (Vec<u32>, Vec<u32>) {
    let owned = (0..s_count)
        .map(|s| (s..n).step_by(s_count).count() as u32)
        .collect();
    let mut start = vec![0; n * s_count];
    for s in 0..s_count {
        let mut next = s;
        for rr in (0..n).rev() {
            if rr % s_count == s {
                next = rr;
            }
            start[rr * s_count + s] = next as u32;
        }
    }
    (owned, start)
}

struct MemSystem {
    l2: SectoredCache,
    l2_free_at: Vec<u64>,
    dram_free_at: Vec<u64>,
}

/// Phase-A outcome for one SM and one epoch.
struct EpochOut {
    live: bool,
    issued: bool,
    min_next: u64,
}

impl Gpu {
    /// Creates a GPU with the given configuration.
    pub fn new(cfg: GpuConfig) -> Self {
        Gpu {
            cfg,
            fast_forward: true,
        }
    }

    /// Creates a V100-like GPU.
    pub fn v100() -> Self {
        Gpu::new(GpuConfig::v100())
    }

    /// Enables or disables per-SM event-driven fast-forward (on by
    /// default). When an SM's epoch is *quiet* — no scheduler chose a
    /// warp, nothing retiring — the engine replays the cached epoch
    /// outcome until the SM's earliest wake-up instead of re-running
    /// its schedulers. Simulated results, probe streams and artifacts
    /// are bit-identical either way; turning it off gives the plain
    /// epoch-ticking reference that tests compare fast-forward against.
    pub fn with_fast_forward(mut self, on: bool) -> Self {
        self.fast_forward = on;
        self
    }

    /// Whether event-driven fast-forward is enabled (see
    /// [`with_fast_forward`](Gpu::with_fast_forward)).
    pub fn fast_forward(&self) -> bool {
        self.fast_forward
    }

    /// The configuration in use.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Replays `kernel` through the timing model and returns the
    /// counters. Runs with [`NopProbe`], i.e. the zero-overhead
    /// un-instrumented path.
    pub fn execute(&self, kernel: &KernelTrace) -> Stats {
        self.execute_probed(kernel, |_| NopProbe).0
    }

    /// Like [`execute`](Gpu::execute), but instrumented: `mk` builds
    /// one [`Probe`] per SM (called with the SM id, in ascending
    /// order), and the probes are returned in SM order alongside the
    /// counters. Probes observe without feeding back into timing, so
    /// the returned [`Stats`] are bit-identical to an un-probed run.
    pub fn execute_probed<P: Probe>(
        &self,
        kernel: &KernelTrace,
        mut mk: impl FnMut(usize) -> P,
    ) -> (Stats, Vec<P>) {
        let cfg = &self.cfg;
        let Some((mut sms, mut memsys, base)) = setup(cfg, kernel, &mut mk) else {
            let probes = (0..cfg.num_sms as usize).map(mk).collect();
            return (empty_stats(kernel), probes);
        };
        let mut memstats = Stats::new();
        let mut cycle: u64 = 0;
        let ff = self.fast_forward;
        loop {
            let mut live = false;
            let mut issued = false;
            let mut min_next = u64::MAX;
            for sm in sms.iter_mut() {
                if ff && cycle < sm.ff_until {
                    // Quiet SM asleep until `ff_until`: replay the
                    // cached epoch outcome (and the probe hooks a
                    // ticked epoch would have fired) without running
                    // the schedulers.
                    if !P::IS_NOP {
                        sm.probe.epoch(cycle);
                        sm.probe.epoch_end(cycle, sm.ff_live, false, sm.ff_until);
                    }
                    live |= sm.ff_live;
                    min_next = min_next.min(sm.ff_until);
                    continue;
                }
                let out = sm_epoch(cfg, kernel, sm, cycle);
                live |= out.live;
                issued |= out.issued;
                min_next = min_next.min(out.min_next);
            }
            for sm in sms.iter_mut() {
                if !sm.reqs.is_empty() {
                    mem_phase_b(cfg, &mut memsys, &mut memstats, sm);
                }
            }
            if !live {
                break;
            }
            cycle = next_cycle(cycle, issued, min_next);
        }
        let stats = finish(base, &mut sms, &memsys, &memstats, cycle);
        let probes = sms.into_iter().map(|sm| sm.probe).collect();
        (stats, probes)
    }
}

/// Builds the initial machine state (one probe per SM, from `mk`) and
/// pre-counts the trace-derived statistics; `None` for an empty kernel.
fn setup<P: Probe>(
    cfg: &GpuConfig,
    kernel: &KernelTrace,
    mk: &mut impl FnMut(usize) -> P,
) -> Option<(Vec<SmState<P>>, MemSystem, Stats)> {
    if kernel.warps.is_empty() {
        return None;
    }
    let mut base = Stats::new();
    base.warps = kernel.warps.len() as u64;
    base.vfunc_calls = kernel.vfunc_calls();
    for w in &kernel.warps {
        for class in InstrClass::ALL {
            base.count_instrs(class, w.dyn_instrs_of(class));
        }
    }

    let num_sms = cfg.num_sms as usize;
    let scheds = cfg.schedulers_per_sm as usize;
    let warp_size = cfg.warp_size as usize;
    // Every capacity below is an epoch-level upper bound, so the hot
    // loop never grows a Vec (see `tests/zero_alloc.rs`): at most one
    // issue per scheduler per epoch, each coalescing to at most
    // `warp_size` sectors. Fills are pushed onto the MSHR heap only in
    // an epoch whose gate query retired the completed ones and admitted
    // loads only while a full warp of misses fit (or the file was
    // empty), so it never holds more than `max(mshr_per_sm, warp_size)`.
    let mshr_cap = cfg.mshr_per_sm + (scheds + 2) * warp_size;
    let mut sms: Vec<SmState<P>> = (0..num_sms)
        .map(|i| SmState {
            probe: mk(i),
            l1: SectoredCache::new(cfg.l1_bytes, cfg.l1_ways, cfg.line_bytes, cfg.sector_bytes),
            cmem: SectoredCache::new(cfg.const_bytes, 4, 64, 64),
            l1_free_at: 0,
            mshr: BinaryHeap::with_capacity(mshr_cap),
            mshr_new: Vec::with_capacity(scheds * warp_size),
            w_trace: Vec::new(),
            w_pc: Vec::new(),
            w_ready: Vec::new(),
            w_settled: Vec::new(),
            max_retire: 0,
            pend: Vec::new(),
            pend_len: Vec::new(),
            pend_stride: cfg.max_pending_loads,
            pending_warps: Vec::new(),
            rr: 0,
            sched_owned: Vec::new(),
            sched_start: Vec::new(),
            sched_next: vec![0; scheds],
            ff_until: 0,
            ff_live: false,
            stats: Stats::new(),
            retiring: Vec::with_capacity(scheds),
            scratch: Vec::with_capacity(warp_size),
            reqs: Vec::with_capacity(scheds),
            sectors: Vec::with_capacity(scheds * warp_size),
        })
        .collect();

    // Round-robin warp → SM assignment. Empty traces never occupy a
    // slot.
    for (i, w) in kernel.warps.iter().enumerate() {
        if !w.is_empty() {
            sms[i % num_sms].pending_warps.push(i);
        }
    }
    for sm in &mut sms {
        sm.pending_warps.reverse(); // pop() yields lowest warp id first
        let take = (cfg.max_warps_per_sm as usize).min(sm.pending_warps.len());
        sm.w_trace = Vec::with_capacity(take);
        sm.w_pc = vec![0; take];
        sm.w_ready = vec![0; take];
        sm.w_settled = vec![false; take];
        sm.pend = vec![(0, 0); take * sm.pend_stride];
        sm.pend_len = vec![0; take];
        (sm.sched_owned, sm.sched_start) = sched_tables(take, scheds);
        for _ in 0..take {
            let idx = sm.pending_warps.pop().expect("pending warp");
            sm.w_trace.push(idx as u32);
        }
    }

    let memsys = MemSystem {
        l2: SectoredCache::new(cfg.l2_bytes, cfg.l2_ways, cfg.line_bytes, cfg.sector_bytes),
        l2_free_at: vec![0; cfg.l2_slices as usize],
        dram_free_at: vec![0; cfg.dram_channels as usize],
    };
    Some((sms, memsys, base))
}

fn empty_stats(kernel: &KernelTrace) -> Stats {
    let mut stats = Stats::new();
    stats.warps = kernel.warps.len() as u64;
    stats.vfunc_calls = kernel.vfunc_calls();
    stats
}

/// Computes the next canonical cycle from an epoch's merged outcome.
///
/// `min_next` is the earliest wake-up reported by any SM; when nothing
/// issued anywhere the whole machine jumps there. The `max` with
/// `cycle + 1` is load-bearing, not belt-and-braces: an SM that drained
/// this epoch (or one whose schedulers cached a wake-up that phase B
/// has since overtaken) can report a `min_next` at or before the
/// canonical clock, and without the clamp the machine would re-execute
/// an epoch — wasted work on the tick path, wrong Stats once
/// fast-forward replays cached outcomes. See
/// `epoch_tests::next_cycle_never_moves_backwards`.
fn next_cycle(cycle: u64, issued: bool, min_next: u64) -> u64 {
    let next = if issued || min_next == u64::MAX {
        cycle + 1
    } else {
        (cycle + 1).max(min_next)
    };
    debug_assert!(next > cycle, "canonical clock must strictly advance");
    next
}

/// Epoch prologue for one SM: finalize warps whose trace ended last
/// epoch (their final load completions were posted by phase B since).
fn sm_prologue<P: Probe>(sm: &mut SmState<P>) {
    for k in 0..sm.retiring.len() {
        let (wi, retire_cycle) = sm.retiring[k];
        let drain = sm.drain_all(wi);
        let final_ready = sm.w_ready[wi].max(drain);
        sm.max_retire = sm.max_retire.max(final_ready);
        sm.probe.warp_retire(final_ready, sm.w_trace[wi] as usize);
        if let Some(next) = sm.pending_warps.pop() {
            sm.install(wi, next, final_ready.max(retire_cycle + 1));
        } else {
            // Slot stays empty: park it past any reachable cycle so the
            // scheduler scan skips it without a separate "done" flag.
            sm.w_ready[wi] = u64::MAX;
        }
    }
    sm.retiring.clear();
}

/// Phase A for one SM and one cycle: the warp schedulers. SM-local by
/// construction — shared-memory traffic is queued for phase B.
fn sm_epoch<P: Probe>(
    cfg: &GpuConfig,
    kernel: &KernelTrace,
    sm: &mut SmState<P>,
    cycle: u64,
) -> EpochOut {
    sm.probe.epoch(cycle);
    sm_prologue(sm);
    let mut out = EpochOut {
        live: false,
        issued: false,
        min_next: u64::MAX,
    };
    let n = sm.w_trace.len();
    let s_count = cfg.schedulers_per_sm as usize;
    // Whether any scheduler *chose* a warp this epoch — issued or
    // deferred, either way the SM's picture can change next epoch, so
    // the fast-forward cache must not arm (a deferred choice leaves
    // `sched_next` at 0 with other ready warps possibly unscanned).
    let mut any_chosen = false;

    for sched in 0..s_count {
        if n == 0 {
            continue;
        }
        // Fast path: nothing on this scheduler can issue yet.
        let cached = sm.sched_next[sched];
        if cached > cycle {
            if cached != u64::MAX {
                out.live = true;
                out.min_next = out.min_next.min(cached);
            }
            continue;
        }
        // Scheduler `sched` owns slots `sched, sched + s_count, …`; the
        // strided walk below visits exactly the slots the old full scan
        // `(rr + k) % n` visited after its ownership filter, in the
        // same circular order starting from the first owned slot at or
        // after `rr`.
        let mut chosen: Option<usize> = None;
        let mut sched_min = u64::MAX;
        let owned = sm.sched_owned[sched];
        if owned > 0 {
            let mut wi = sm.sched_start[sm.rr * s_count + sched] as usize;
            for _ in 0..owned {
                let r = sm.w_ready[wi];
                if r <= cycle {
                    out.live = true;
                    chosen = Some(wi);
                    break;
                }
                // Parked (retired) slots sit at `u64::MAX`: they fold
                // into the min as a no-op and never read as live.
                sched_min = sched_min.min(r);
                wi += s_count;
                if wi >= n {
                    wi = sched;
                }
            }
        }
        let Some(wi) = chosen else {
            sm.sched_next[sched] = sched_min;
            if sched_min != u64::MAX {
                out.live = true;
                out.min_next = out.min_next.min(sched_min);
            }
            continue;
        };
        // Chosen: issued or deferred, the picture may change — rescan
        // next cycle.
        any_chosen = true;
        sm.sched_next[sched] = 0;
        sm.rr = if wi + 1 == n { 0 } else { wi + 1 };

        let trace_idx = sm.w_trace[wi] as usize;
        let pc = sm.w_pc[wi] as usize;

        // Scoreboard check: an op whose operands are still in flight
        // (or a load with the MLP queue full) does not issue now — the
        // warp retries once ready, keeping resource reservations
        // causal.
        let defer_until = if sm.w_settled[wi] {
            // A settled warp's op is a load whose operand and MLP-cap
            // terms its `w_ready` covered: only the LSU and MSHR terms
            // can still hold it, and checking them reads no trace.
            sm.load_gate(cfg, cycle)
        } else {
            match &kernel.warps[trace_idx].ops()[pc] {
                Op::IndirectCall { .. } => {
                    sm.dep_ready(wi, &[AccessTag::ConstIndirection, AccessTag::VfuncPtr])
                }
                Op::Mem(m) if !m.is_store => {
                    sm.prune(wi, cycle);
                    let mut until = sm
                        .load_gate(cfg, cycle)
                        .max(sm.dep_ready(wi, dep_tags(m.tag)));
                    if sm.pend_len[wi] as usize >= cfg.max_pending_loads {
                        until = until.max(sm.pend_oldest(wi));
                    }
                    sm.w_settled[wi] = until > cycle;
                    until
                }
                _ => 0,
            }
        };
        // Every load's target, settled or not, against the full scans.
        #[cfg(debug_assertions)]
        match &kernel.warps[trace_idx].ops()[pc] {
            Op::Mem(m) if !m.is_store => debug_assert_eq!(
                defer_until,
                sm.load_defer_reference(cfg, wi, m.tag, cycle),
                "scoreboard check diverged from the full scan"
            ),
            _ => debug_assert!(!sm.w_settled[wi], "settled warp on a non-load op"),
        }
        if defer_until > cycle {
            sm.w_ready[wi] = defer_until;
            out.min_next = out.min_next.min(defer_until);
            continue;
        }
        if sm.w_settled[wi] {
            // A settled load issues: its arena is pruned once, now,
            // before anything is pushed.
            sm.w_settled[wi] = false;
            sm.prune(wi, cycle);
        }
        let op = &kernel.warps[trace_idx].ops()[pc];
        out.issued = true;
        sm.probe.issue(cycle, trace_idx, pc, op);

        let ready_at = match op {
            Op::Alu(nn) => cycle + (*nn as u64) * cfg.alu_chain_latency + cfg.alu_latency,
            Op::Branch | Op::DirectCall => cycle + cfg.branch_latency,
            Op::Ret => cycle + cfg.ret_latency,
            Op::IndirectCall { .. } => {
                sm.stats.stall_by_tag[STALL_INDIRECT_CALL] += cfg.indirect_call_latency;
                sm.probe.stall(
                    trace_idx,
                    pc,
                    StallCause::IndirectCall,
                    cycle,
                    cycle + cfg.indirect_call_latency,
                );
                cycle + cfg.indirect_call_latency
            }
            Op::Mem(m) if m.is_store => {
                issue_store_phase_a(cfg, cycle, m, &kernel.warps[trace_idx], sm)
            }
            Op::Mem(m) => issue_load_phase_a(
                cfg,
                cycle,
                m,
                &kernel.warps[trace_idx],
                sm,
                wi,
                trace_idx,
                pc,
            ),
        };

        sm.w_ready[wi] = ready_at;
        sm.w_pc[wi] += 1;
        if sm.w_pc[wi] as usize >= kernel.warps[trace_idx].ops().len() {
            // Trace ended. Finalization (outstanding-load drain, slot
            // reuse) waits for the next epoch's prologue, after phase B
            // posts the completion of a load issued this very cycle.
            sm.retiring.push((wi, cycle));
        }
    }

    if !sm.pending_warps.is_empty() || !sm.retiring.is_empty() {
        out.live = true;
    }
    for &(_, retire_cycle) in &sm.retiring {
        out.min_next = out.min_next.min(retire_cycle + 1);
    }
    // Arm the fast-forward cache. On a quiet epoch nothing SM-local
    // mutates until `out.min_next` (phase B only posts completions for
    // requests this SM queued this epoch — there are none), so every
    // epoch until then replays this exact outcome.
    sm.ff_until = if !any_chosen && sm.retiring.is_empty() {
        sm.ff_live = out.live;
        out.min_next
    } else {
        0
    };
    sm.probe
        .epoch_end(cycle, out.live, out.issued, out.min_next);
    out
}

/// Coalesces a memory op's lane addresses into deduplicated, ascending
/// sector ids in `scratch` (no allocation — the caller's scratch is
/// sized to the warp width). Lane addresses are overwhelmingly already
/// sorted (linear and strided layouts), so the push loop dedups
/// adjacent repeats inline and tracks sortedness; only genuinely
/// unsorted accesses pay for a sort. Power-of-two sector sizes (every
/// real geometry) divide by shift.
fn coalesce(scratch: &mut Vec<u64>, addrs: &[u64], sector_bytes: u64) {
    scratch.clear();
    // At most one sector id per lane address, and the caller's scratch
    // is pre-sized to the warp width — the pushes below must never
    // reallocate (the steady-state epoch loop is allocation-free; see
    // tests/zero_alloc.rs).
    debug_assert!(
        scratch.capacity() >= addrs.len(),
        "coalesce scratch under-sized: {} < {}",
        scratch.capacity(),
        addrs.len()
    );
    let shift = sector_bytes.trailing_zeros();
    let pow2 = sector_bytes.is_power_of_two();
    let mut sorted = true;
    for &a in addrs {
        let s = if pow2 { a >> shift } else { a / sector_bytes };
        match scratch.last() {
            Some(&last) if last == s => continue,
            Some(&last) if last > s => sorted = false,
            _ => {}
        }
        scratch.push(s);
    }
    if !sorted {
        scratch.sort_unstable();
        scratch.dedup();
    }
}

/// Phase A of a store: count transactions and queue the sectors for the
/// shared system; the warp continues through the store buffer almost
/// immediately.
fn issue_store_phase_a<P: Probe>(
    cfg: &GpuConfig,
    cycle: u64,
    m: &MemOp,
    wt: &WarpTrace,
    sm: &mut SmState<P>,
) -> u64 {
    coalesce(&mut sm.scratch, wt.lanes(m), cfg.sector_bytes);
    sm.stats.global_store_transactions += sm.scratch.len() as u64;
    sm.probe.store_sectors(cycle, sm.scratch.len() as u64);
    let sec_start = sm.sectors.len();
    for k in 0..sm.scratch.len() {
        sm.sectors.push(SectorReq {
            sector: sm.scratch[k],
            ready: cycle,
        });
    }
    sm.reqs.push(MemRequest {
        is_store: true,
        wi: 0,
        trace_idx: 0,
        pc: 0,
        tag_idx: 0,
        known_done: 0,
        issue_cycle: cycle,
        sec_start,
        sec_len: sm.scratch.len(),
    });
    cycle + cfg.alu_latency
}

/// Phase A of a load: coalesce into sectors and walk the SM-local
/// hierarchy (constant cache, L1 port, L1, MSHR file). Sectors that
/// miss are queued for phase B with an MSHR placeholder; pure-hit loads
/// complete immediately. Returns the warp's issue-pipe busy time — a
/// diverged access is replayed one sector per cycle through the LSU, the
/// direct issue-side price of divergence.
#[allow(clippy::too_many_arguments)]
fn issue_load_phase_a<P: Probe>(
    cfg: &GpuConfig,
    cycle: u64,
    m: &MemOp,
    wt: &WarpTrace,
    sm: &mut SmState<P>,
    wi: usize,
    trace_idx: usize,
    pc: usize,
) -> u64 {
    coalesce(&mut sm.scratch, wt.lanes(m), cfg.sector_bytes);
    let tag_idx = m.tag.index();
    match m.space {
        Space::Const => {
            let mut done = cycle;
            for k in 0..sm.scratch.len() {
                let addr = sm.scratch[k] * cfg.sector_bytes;
                let hit = sm.cmem.access(addr).is_hit();
                sm.probe.const_access(cycle, m.tag, hit);
                let lat = if hit {
                    cfg.const_latency
                } else {
                    cfg.const_miss_latency
                };
                done = done.max(cycle + lat);
            }
            sm.stats.stall_by_tag[tag_idx] += done - cycle;
            sm.probe
                .stall(trace_idx, pc, StallCause::Access(m.tag), cycle, done);
            sm.pend_push(wi, done, tag_idx);
        }
        Space::Global => {
            sm.stats.global_load_transactions += sm.scratch.len() as u64;
            sm.stats.load_transactions_by_tag[tag_idx] += sm.scratch.len() as u64;
            sm.probe.load_coalesced(
                cycle,
                pc,
                m.tag,
                m.lane_count() as u64,
                sm.scratch.len() as u64,
            );
            let mut known_done = cycle;
            let sec_start = sm.sectors.len();
            // One batched L1 probe per touched line: `scratch` is
            // sorted, so each line's sectors are one contiguous run.
            // Per-sector timing (LSU port, MSHR) is unchanged — only
            // the tag search is shared. Exotic geometries (> 8 sectors
            // per line) fall back to sector-by-sector probes.
            let spl = cfg.line_bytes / cfg.sector_bytes;
            let batched = spl <= 8;
            let len = sm.scratch.len();
            let mut k = 0;
            while k < len {
                let (group_end, hit_mask) = if batched {
                    let line = sm.scratch[k] / spl;
                    let mut mask = 0u8;
                    let mut j = k;
                    while j < len && sm.scratch[j] / spl == line {
                        mask |= 1 << (sm.scratch[j] % spl);
                        j += 1;
                    }
                    (j, sm.l1.access_sectors(line * cfg.line_bytes, mask))
                } else {
                    (k + 1, 0)
                };
                for i in k..group_end {
                    let s = sm.scratch[i];
                    let addr = s * cfg.sector_bytes;
                    // One sector per cycle through the SM's LSU port.
                    let t1 = sm.l1_free_at.max(cycle);
                    sm.l1_free_at = t1 + 1;
                    let hit = if batched {
                        hit_mask & (1 << (s % spl)) != 0
                    } else {
                        sm.l1.access(addr).is_hit()
                    };
                    sm.probe.l1_access(cycle, m.tag, hit);
                    let (set, line_addr) = sm.l1.set_of(addr);
                    sm.probe.l1_sector(cycle, pc, m.tag, line_addr, set, hit);
                    if hit {
                        known_done = known_done.max(t1 + cfg.l1_latency);
                    } else {
                        // A miss needs an MSHR slot before entering L2/DRAM.
                        // Outstanding entries are a subset of the stored
                        // ones, so only a full store can make it wait.
                        let mut tm = t1 + cfg.l1_latency;
                        if sm.mshr.len() + sm.mshr_new.len() >= cfg.mshr_per_sm {
                            let (outstanding, earliest) = sm.mshr_scan(tm);
                            if outstanding >= cfg.mshr_per_sm {
                                tm = earliest;
                            }
                        }
                        // Lower-bound placeholder until phase B pushes the
                        // real fill; one at or before `cycle` (zero L1 and
                        // L2 latency) is complete for this epoch's checks.
                        if tm + cfg.l2_latency > cycle {
                            sm.mshr_new.push(tm + cfg.l2_latency);
                        }
                        sm.sectors.push(SectorReq {
                            sector: s,
                            ready: tm,
                        });
                    }
                }
                k = group_end;
            }
            let sec_len = sm.sectors.len() - sec_start;
            if sec_len == 0 {
                // Every sector hit L1: the completion is known now.
                sm.stats.stall_by_tag[tag_idx] += known_done - cycle;
                sm.probe
                    .stall(trace_idx, pc, StallCause::Access(m.tag), cycle, known_done);
                sm.pend_push(wi, known_done, tag_idx);
            } else {
                sm.reqs.push(MemRequest {
                    is_store: false,
                    wi,
                    trace_idx,
                    pc,
                    tag_idx,
                    known_done,
                    issue_cycle: cycle,
                    sec_start,
                    sec_len,
                });
            }
        }
    }
    cycle + sm.scratch.len() as u64
}

/// Phase B for one SM's queued requests: the shared L2 slices and DRAM
/// channels service sectors in issue order, then post load completions
/// back to the issuing warps. Callers must invoke this in ascending
/// `sm_id` order every epoch — that, plus phase A's issue ordering, is
/// the canonical arbitration order of the determinism contract.
fn mem_phase_b<P: Probe>(
    cfg: &GpuConfig,
    memsys: &mut MemSystem,
    memstats: &mut Stats,
    sm: &mut SmState<P>,
) {
    for ri in 0..sm.reqs.len() {
        let req = sm.reqs[ri];
        if req.is_store {
            for k in req.sec_start..req.sec_start + req.sec_len {
                let s = sm.sectors[k].sector;
                let addr = s * cfg.sector_bytes;
                let slice = (s % memsys.l2_free_at.len() as u64) as usize;
                let t = memsys.l2_free_at[slice].max(req.issue_cycle);
                memsys.l2_free_at[slice] = t + 1;
                let hit = memsys.l2.access(addr).is_hit();
                sm.probe.l2_access(t, hit);
                if !hit {
                    let chan = ((addr >> 8) % memsys.dram_free_at.len() as u64) as usize;
                    let td = memsys.dram_free_at[chan].max(t);
                    memsys.dram_free_at[chan] = td + cfg.dram_sector_cycles;
                    memstats.dram_accesses += 1;
                    sm.probe.dram_access(td);
                }
            }
        } else {
            let mut done = req.known_done;
            for k in req.sec_start..req.sec_start + req.sec_len {
                let SectorReq { sector, ready } = sm.sectors[k];
                let addr = sector * cfg.sector_bytes;
                let slice = (sector % memsys.l2_free_at.len() as u64) as usize;
                let t2 = memsys.l2_free_at[slice].max(ready);
                memsys.l2_free_at[slice] = t2 + 1;
                let hit = memsys.l2.access(addr).is_hit();
                sm.probe.l2_access(t2, hit);
                let filled = if hit {
                    t2 + cfg.l2_latency
                } else {
                    let chan = ((addr >> 8) % memsys.dram_free_at.len() as u64) as usize;
                    let td = memsys.dram_free_at[chan].max(t2 + cfg.l2_latency);
                    memsys.dram_free_at[chan] = td + cfg.dram_sector_cycles;
                    memstats.dram_accesses += 1;
                    sm.probe.dram_access(td);
                    td + cfg.dram_latency
                };
                debug_assert!(
                    sm.mshr.len() < sm.mshr.capacity(),
                    "MSHR heap would reallocate"
                );
                sm.mshr.push(Reverse(filled));
                done = done.max(filled);
            }
            memstats.stall_by_tag[req.tag_idx] += done.saturating_sub(req.issue_cycle);
            sm.probe.stall(
                req.trace_idx,
                req.pc,
                StallCause::Access(AccessTag::ALL[req.tag_idx]),
                req.issue_cycle,
                done,
            );
            sm.pend_push(req.wi, done, req.tag_idx);
        }
    }
    sm.reqs.clear();
    sm.sectors.clear();
    sm.mshr_new.clear();
}

/// Merges the per-SM partial stats, memory-system stats and cache
/// counters into the final [`Stats`] — ascending SM order, though every
/// counter is an exact integer sum, so the merge is order-independent.
fn finish<P: Probe>(
    base: Stats,
    sms: &mut [SmState<P>],
    memsys: &MemSystem,
    memstats: &Stats,
    cycle: u64,
) -> Stats {
    // Finalize any retirement left from the last epoch (its phase-B
    // completions have been posted) so drain times reach `ready_at`.
    // Also the single end-of-run point where probes may snapshot their
    // SM's L1.
    for sm in sms.iter_mut() {
        sm_prologue(sm);
        sm.probe.cache_final(&sm.l1);
    }
    let mut stats = base;
    for sm in sms.iter() {
        stats += &sm.stats;
        stats.l1_accesses += sm.l1.hits() + sm.l1.misses();
        stats.l1_hits += sm.l1.hits();
        stats.const_accesses += sm.cmem.hits() + sm.cmem.misses();
        stats.const_hits += sm.cmem.hits();
    }
    stats += memstats;
    stats.l2_accesses = memsys.l2.hits() + memsys.l2.misses();
    stats.l2_hits = memsys.l2.hits();
    let last = sms.iter().map(|s| s.max_retire).max().unwrap_or(cycle);
    stats.cycles = last.max(cycle);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{AccessTag, MemOp};
    use crate::trace::WarpTrace;

    fn gpu() -> Gpu {
        Gpu::new(GpuConfig::small())
    }

    fn load(addrs: Vec<u64>, tag: AccessTag) -> Op {
        let mask = (1u64 << addrs.len()).wrapping_sub(1) as u32;
        Op::Mem(MemOp {
            space: Space::Global,
            is_store: false,
            width: 8,
            mask,
            addrs: addrs.into(),
            tag,
        })
    }

    fn one_warp(ops: Vec<Op>) -> KernelTrace {
        let mut w = WarpTrace::new();
        for op in ops {
            w.push(op);
        }
        KernelTrace { warps: vec![w] }
    }

    #[test]
    fn empty_kernel() {
        let s = gpu().execute(&KernelTrace::new());
        assert_eq!(s.cycles, 0);
        assert_eq!(s.total_instrs(), 0);
    }

    #[test]
    fn alu_only_kernel_is_cheap() {
        let s = gpu().execute(&one_warp(vec![Op::Alu(10)]));
        assert!(s.cycles >= 10);
        assert!(s.cycles < 100);
        assert_eq!(s.instrs_compute, 10);
    }

    #[test]
    fn diverged_load_generates_many_transactions() {
        // 32 lanes, each to a different 128B-separated address.
        let addrs: Vec<u64> = (0..32).map(|i| 0x1_0000 + i * 128).collect();
        let s = gpu().execute(&one_warp(vec![load(addrs, AccessTag::VtablePtr)]));
        assert_eq!(s.global_load_transactions, 32);
        assert_eq!(s.l1_accesses, 32);
        assert_eq!(s.l1_hits, 0);
    }

    #[test]
    fn converged_load_is_one_transaction() {
        let addrs: Vec<u64> = vec![0x2_0000; 32];
        let s = gpu().execute(&one_warp(vec![load(addrs, AccessTag::RangeWalk)]));
        assert_eq!(s.global_load_transactions, 1);
    }

    #[test]
    fn adjacent_loads_coalesce() {
        // 32 lanes x 8B consecutive = 256B = 8 sectors.
        let addrs: Vec<u64> = (0..32).map(|i| 0x3_0000 + i * 8).collect();
        let s = gpu().execute(&one_warp(vec![load(addrs, AccessTag::Field)]));
        assert_eq!(s.global_load_transactions, 8);
    }

    #[test]
    fn second_load_hits_l1() {
        let addrs: Vec<u64> = vec![0x4_0000; 32];
        let s = gpu().execute(&one_warp(vec![
            load(addrs.clone(), AccessTag::Field),
            load(addrs, AccessTag::Field),
        ]));
        assert_eq!(s.l1_hits, 1);
        assert!((s.l1_hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn diverged_load_slower_than_converged() {
        let diverged: Vec<u64> = (0..32).map(|i| 0x1_0000 + i * 256).collect();
        let converged: Vec<u64> = vec![0x1_0000; 32];
        let sd = gpu().execute(&one_warp(vec![load(diverged, AccessTag::VtablePtr)]));
        let sc = gpu().execute(&one_warp(vec![load(converged, AccessTag::VtablePtr)]));
        assert!(
            sd.cycles > sc.cycles,
            "diverged {} !> converged {}",
            sd.cycles,
            sc.cycles
        );
    }

    #[test]
    fn multithreading_hides_latency() {
        // One warp doing a cold load vs. 8 warps doing cold loads: the
        // 8-warp version must be far cheaper than 8x the single warp.
        let mk = |i: u64| {
            let mut w = WarpTrace::new();
            w.push(load(
                (0..32).map(|l| 0x10_0000 + i * 0x1000 + l * 32).collect(),
                AccessTag::Field,
            ));
            w
        };
        let one = gpu().execute(&KernelTrace { warps: vec![mk(0)] });
        let eight = gpu().execute(&KernelTrace {
            warps: (0..8).map(mk).collect(),
        });
        assert!(eight.cycles < one.cycles * 4);
    }

    #[test]
    fn stall_attribution_recorded() {
        let addrs: Vec<u64> = (0..32).map(|i| 0x5_0000 + i * 128).collect();
        let s = gpu().execute(&one_warp(vec![
            load(addrs, AccessTag::VtablePtr),
            Op::IndirectCall { target: 0 },
        ]));
        assert!(s.stall(AccessTag::VtablePtr) > 0);
        assert!(s.stall_by_tag[STALL_INDIRECT_CALL] > 0);
        let (a, _b, c) = s.dispatch_latency_breakdown();
        assert!(a > c);
    }

    #[test]
    fn stores_do_not_stall_much() {
        let addrs: Vec<u64> = (0..32).map(|i| 0x6_0000 + i * 32).collect();
        let st = Op::Mem(MemOp {
            space: Space::Global,
            is_store: true,
            width: 8,
            mask: u32::MAX,
            addrs: addrs.into(),
            tag: AccessTag::Other,
        });
        let s = gpu().execute(&one_warp(vec![st]));
        assert_eq!(s.global_store_transactions, 32);
        assert!(s.cycles < 50);
    }

    #[test]
    fn const_cache_hits_after_first() {
        let ldc = |tag| {
            Op::Mem(MemOp {
                space: Space::Const,
                is_store: false,
                width: 8,
                mask: u32::MAX,
                addrs: vec![0x100; 32].into(),
                tag,
            })
        };
        let s = gpu().execute(&one_warp(vec![
            ldc(AccessTag::ConstIndirection),
            ldc(AccessTag::ConstIndirection),
        ]));
        assert_eq!(s.const_accesses, 2);
        assert_eq!(s.const_hits, 1);
    }

    #[test]
    fn more_warps_than_residency_all_complete() {
        let cfg = GpuConfig::small(); // 2 SMs x 8 warps resident
        let warps: Vec<WarpTrace> = (0..64)
            .map(|i| {
                let mut w = WarpTrace::new();
                w.push(Op::Alu(3));
                w.push(load(vec![0x7_0000 + i * 64; 32], AccessTag::Field));
                w
            })
            .collect();
        let s = Gpu::new(cfg).execute(&KernelTrace { warps });
        assert_eq!(s.warps, 64);
        assert_eq!(s.instrs_compute, 64 * 3);
        assert_eq!(s.instrs_mem, 64);
    }

    #[test]
    fn cache_thrash_increases_miss_rate() {
        // Working set far beyond the small L1 (4 KiB): re-touching a big
        // footprint twice should still miss, while a tiny footprint hits.
        let big: Vec<Op> = (0..2)
            .flat_map(|_| {
                (0..64u64).map(|i| load(vec![0x20_0000 + i * 4096; 32], AccessTag::Field))
            })
            .collect();
        let small_ops: Vec<Op> = (0..2)
            .flat_map(|_| (0..4u64).map(|i| load(vec![0x30_0000 + i * 32; 32], AccessTag::Field)))
            .collect();
        let sb = gpu().execute(&one_warp(big));
        let ss = gpu().execute(&one_warp(small_ops));
        assert!(sb.l1_hit_rate() < 0.2);
        assert!(ss.l1_hit_rate() >= 0.5);
    }
}

#[cfg(test)]
mod scoreboard_tests {
    use super::*;
    use crate::instr::MemOp;
    use crate::trace::WarpTrace;

    fn gpu() -> Gpu {
        Gpu::new(GpuConfig::small())
    }

    fn ld(addrs: Vec<u64>, tag: AccessTag) -> Op {
        let mask = if addrs.len() >= 32 {
            u32::MAX
        } else {
            (1u32 << addrs.len()) - 1
        };
        Op::Mem(MemOp {
            space: Space::Global,
            is_store: false,
            width: 8,
            mask,
            addrs: addrs.into(),
            tag,
        })
    }

    fn one(ops: Vec<Op>) -> KernelTrace {
        let mut w = WarpTrace::new();
        for op in ops {
            w.push(op);
        }
        KernelTrace { warps: vec![w] }
    }

    #[test]
    fn independent_loads_overlap() {
        // Two independent cold loads from different lines should cost
        // barely more than one; a dependent A->B chain costs two misses.
        let a = (0..8).map(|i| 0x10_0000 + i * 128).collect::<Vec<_>>();
        let b = (0..8).map(|i| 0x20_0000 + i * 128).collect::<Vec<_>>();
        let both_independent = gpu().execute(&one(vec![
            ld(a.clone(), AccessTag::Field),
            ld(b.clone(), AccessTag::Field),
        ]));
        let chained = gpu().execute(&one(vec![
            ld(a, AccessTag::VtablePtr),
            ld(b, AccessTag::VfuncPtr), // waits for the vtable load
        ]));
        assert!(
            chained.cycles > both_independent.cycles + 50,
            "dependent chain {} must far exceed overlapped pair {}",
            chained.cycles,
            both_independent.cycles
        );
    }

    #[test]
    fn range_walk_levels_serialize() {
        let lvl = |a: u64| ld(vec![a; 32], AccessTag::RangeWalk);
        let serial = gpu().execute(&one(vec![lvl(0x1000), lvl(0x2000), lvl(0x3000)]));
        let free = gpu().execute(&one(vec![
            ld(vec![0x1000; 32], AccessTag::Field),
            ld(vec![0x2000; 32], AccessTag::Field),
            ld(vec![0x3000; 32], AccessTag::Field),
        ]));
        assert!(serial.cycles > free.cycles, "walk levels must chain");
    }

    #[test]
    fn indirect_call_waits_for_const_indirection() {
        let cold_const = Op::Mem(MemOp {
            space: Space::Const,
            is_store: false,
            width: 8,
            mask: u32::MAX,
            addrs: vec![0x9000; 32].into(),
            tag: AccessTag::ConstIndirection,
        });
        let with_wait = gpu().execute(&one(vec![
            cold_const.clone(),
            Op::IndirectCall { target: 0 },
        ]));
        let call_only = gpu().execute(&one(vec![Op::IndirectCall { target: 0 }]));
        let cfg = GpuConfig::small();
        assert!(
            with_wait.cycles >= call_only.cycles + cfg.const_miss_latency / 2,
            "call must wait for its target: {} vs {}",
            with_wait.cycles,
            call_only.cycles
        );
    }

    #[test]
    fn mlp_queue_cap_backpressures() {
        // Far more outstanding loads than the small config's cap (8):
        // issue must throttle, so cycles grow superlinearly past the cap.
        let mk = |n: usize| {
            let ops = (0..n)
                .map(|i| ld(vec![0x40_0000 + i as u64 * 4096], AccessTag::Other))
                .collect();
            gpu().execute(&one(ops)).cycles
        };
        let under = mk(4);
        let over = mk(32);
        assert!(over > under * 3, "cap must throttle: {over} vs {under}");
    }

    #[test]
    fn trace_end_drains_outstanding_loads() {
        // A single cold load as the LAST op: the kernel cannot finish
        // before the load lands.
        let s = gpu().execute(&one(vec![ld(vec![0x50_0000], AccessTag::Other)]));
        let cfg = GpuConfig::small();
        assert!(s.cycles >= cfg.l1_latency + cfg.l2_latency);
    }

    #[test]
    fn mshr_limits_concurrent_misses() {
        // Many warps each firing one diverged miss burst: with a tiny
        // MSHR file the kernel must take longer than with a huge one.
        let warps: Vec<WarpTrace> = (0..16)
            .map(|wi| {
                let mut w = WarpTrace::new();
                w.push(ld(
                    (0..32).map(|l| 0x80_0000 + (wi * 32 + l) * 128).collect(),
                    AccessTag::Field,
                ));
                w.push(Op::Alu(1));
                w
            })
            .collect();
        let mut small_mshr = GpuConfig::small();
        small_mshr.num_sms = 1;
        small_mshr.mshr_per_sm = 33;
        let mut big_mshr = small_mshr.clone();
        big_mshr.mshr_per_sm = 4096;
        let slow = Gpu::new(small_mshr).execute(&KernelTrace {
            warps: warps.clone(),
        });
        let fast = Gpu::new(big_mshr).execute(&KernelTrace { warps });
        assert!(
            slow.cycles > fast.cycles,
            "{} !> {}",
            slow.cycles,
            fast.cycles
        );
    }

    #[test]
    fn mshr_below_warp_size_admits_a_full_burst() {
        // An MSHR file smaller than a warp: the empty file still admits
        // a 32-sector miss burst, and the sectors past the cap wait for
        // the earliest fill (the MSHR scan, not its fast path).
        let burst = |base: u64| ld((0..32).map(|l| base + l * 128).collect(), AccessTag::Field);
        let kernel = one(vec![burst(0x90_0000), burst(0xA0_0000)]);
        let mut cfg = GpuConfig::small();
        cfg.num_sms = 1;
        cfg.mshr_per_sm = 16;
        let capped = Gpu::new(cfg.clone()).execute(&kernel);
        cfg.mshr_per_sm = 64;
        let roomy = Gpu::new(cfg).execute(&kernel);
        assert_eq!(capped.global_load_transactions, 64);
        // Pinned from the unmemoized scoreboard.
        assert_eq!(capped.cycles, 1072);
        assert!(
            capped.cycles > roomy.cycles,
            "{} !> {}",
            capped.cycles,
            roomy.cycles
        );
    }

    #[test]
    fn load_transactions_attributed_to_tags() {
        let s = gpu().execute(&one(vec![
            ld(
                (0..32).map(|i| 0x100_0000 + i * 64).collect(),
                AccessTag::VtablePtr,
            ),
            ld(vec![0x200_0000; 32], AccessTag::RangeWalk),
        ]));
        assert_eq!(s.load_transactions(AccessTag::VtablePtr), 32);
        assert_eq!(s.load_transactions(AccessTag::RangeWalk), 1);
        assert_eq!(s.load_transactions(AccessTag::Field), 0);
        assert_eq!(s.global_load_transactions, 33);
    }
}

#[cfg(test)]
mod epoch_tests {
    use super::*;
    use crate::instr::MemOp;
    use crate::trace::WarpTrace;

    /// A mixed kernel exercising every op class, cache level and the
    /// warp-replacement path (more warps than residency).
    fn mixed_kernel(warps: usize) -> KernelTrace {
        let mk = |wi: usize| {
            let mut w = WarpTrace::new();
            for k in 0..12 {
                match (wi + k) % 5 {
                    0 => w.push(Op::Alu(2 + (k as u16 % 3))),
                    1 => {
                        let addrs: Vec<u64> = (0..32)
                            .map(|l| ((wi * 64 + k * 8 + l) as u64) * 32)
                            .collect();
                        w.push(Op::Mem(MemOp {
                            space: Space::Global,
                            is_store: false,
                            width: 8,
                            mask: u32::MAX,
                            addrs: addrs.into(),
                            tag: AccessTag::VtablePtr,
                        }));
                    }
                    2 => w.push(Op::IndirectCall { target: 0 }),
                    3 => w.push(Op::Mem(MemOp {
                        space: Space::Global,
                        is_store: true,
                        width: 4,
                        mask: u32::MAX,
                        addrs: (0..32u64)
                            .map(|l| 0x40_0000 + (wi as u64 * 32 + l) * 4)
                            .collect::<Vec<_>>()
                            .into(),
                        tag: AccessTag::Other,
                    })),
                    _ => w.push(Op::Mem(MemOp {
                        space: Space::Const,
                        is_store: false,
                        width: 8,
                        mask: u32::MAX,
                        addrs: vec![0x100 + (k as u64 % 4) * 64; 32].into(),
                        tag: AccessTag::ConstIndirection,
                    })),
                }
            }
            w
        };
        KernelTrace {
            warps: (0..warps).map(mk).collect(),
        }
    }

    #[test]
    fn execute_is_deterministic() {
        let k = mixed_kernel(40);
        let a = Gpu::new(GpuConfig::small()).execute(&k);
        let b = Gpu::new(GpuConfig::small()).execute(&k);
        assert_eq!(a, b);
    }

    #[test]
    fn probed_run_matches_unprobed_and_events_cover_stats() {
        use crate::probe::CountingProbe;
        let k = mixed_kernel(40);
        let gpu = Gpu::new(GpuConfig::small());
        let plain = gpu.execute(&k);
        let (probed, probes) = gpu.execute_probed(&k, |_| CountingProbe::new());
        assert_eq!(plain, probed, "probes must not perturb timing");
        // The hook stream reconstructs every event-derived counter; the
        // trace-derived trio is not event-covered, so copy it over.
        let mut view = CountingProbe::merged(probes.iter());
        view.cycles = plain.cycles;
        view.warps = plain.warps;
        view.vfunc_calls = plain.vfunc_calls;
        assert_eq!(view, plain, "aggregated probe view diverged from Stats");
    }

    #[test]
    fn sched_tables_match_division_formulas() {
        // The per-epoch formulas the tables replaced.
        for n in 1..=64 {
            for s_count in 1..=4 {
                let (owned, start) = sched_tables(n, s_count);
                for sched in 0..s_count {
                    let want_owned = if sched < n {
                        (n - 1 - sched) / s_count + 1
                    } else {
                        0
                    };
                    assert_eq!(owned[sched] as usize, want_owned, "n {n} s {s_count}");
                    for rr in 0..n {
                        let want_start = if rr <= sched {
                            sched
                        } else {
                            let next = sched + (rr - sched).div_ceil(s_count) * s_count;
                            if next < n {
                                next
                            } else {
                                sched
                            }
                        };
                        assert_eq!(
                            start[rr * s_count + sched] as usize,
                            want_start,
                            "n {n} s {s_count} sched {sched} rr {rr}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn next_cycle_never_moves_backwards() {
        // A drained SM (or a scheduler cache overtaken by phase B) can
        // report a wake-up at or before the canonical clock; the clamp
        // must still advance strictly.
        assert_eq!(next_cycle(100, false, 5), 101);
        assert_eq!(next_cycle(100, false, 100), 101);
        // An issuing epoch ticks by one even when a later wake-up is on
        // file — the issue may have changed the picture before it.
        assert_eq!(next_cycle(100, true, 500), 101);
        // Quiet machine: jump to the earliest wake-up.
        assert_eq!(next_cycle(100, false, 500), 500);
        // No wake-up anywhere (all-MAX min): plain tick.
        assert_eq!(next_cycle(100, false, u64::MAX), 101);
    }

    #[test]
    fn fast_forward_off_matches_on() {
        // The FF cache is a pure wall-clock optimization: plain epoch
        // ticking must produce bit-identical Stats and probe streams.
        use crate::probe::CountingProbe;
        let k = mixed_kernel(40);
        let on = Gpu::new(GpuConfig::small());
        let off = Gpu::new(GpuConfig::small()).with_fast_forward(false);
        assert!(on.fast_forward() && !off.fast_forward());
        let (s_on, p_on) = on.execute_probed(&k, |_| CountingProbe::new());
        let (s_off, p_off) = off.execute_probed(&k, |_| CountingProbe::new());
        assert_eq!(s_on, s_off, "fast-forward changed Stats");
        for (a, b) in p_on.iter().zip(p_off.iter()) {
            assert_eq!(a.view(), b.view(), "fast-forward changed probe view");
        }
    }
}
