//! Zero-overhead observability hooks for the timing engine.
//!
//! The engine's hot loop is generic over a [`Probe`]: every
//! simulation-visible event — warp issue, stall attribution, cache and
//! DRAM traffic, MSHR pressure, epoch boundaries, warp retirement —
//! calls the matching hook on the issuing SM's probe instance. The
//! default [`NopProbe`] has empty inline hooks, so the un-probed paths
//! monomorphize to exactly the pre-probe machine code: no branches, no
//! buffers, no cycle drift. Probes **observe** and never feed back into
//! timing, so a probed run produces bit-identical [`Stats`] to an
//! un-probed one (property-tested in `tests/prop.rs`).
//!
//! Probes are **per SM**: [`crate::Gpu::execute_probed`] builds one
//! instance per SM from a factory closure, and every hook fires on the
//! SM that owns the event (phase-B memory events are attributed to the
//! *requesting* SM). Phase A only touches SM-local state and phase B
//! runs in canonical order, so each probe records an identical event
//! stream for any `--jobs` and with fast-forward on or off —
//! observability inherits the engine's determinism contract for free.
//!
//! Shipped probes:
//!
//! - [`NopProbe`] — the zero-cost default;
//! - [`CountingProbe`] — rebuilds the event-derived slice of [`Stats`]
//!   purely from hooks (the cross-check used by the property suite);
//! - [`EpochMetricsProbe`] — a bounded, auto-coarsening time series of
//!   per-bucket counter deltas (IPC, hit rates, stall mix over time);
//! - [`crate::TimelineProbe`] — bounded per-SM event buffers exported
//!   as Chrome trace-event / Perfetto JSON (see [`crate::timeline`]).
//!
//! Composition: `(A, B)` and `Option<P>` are probes themselves, so a
//! run can record a timeline and a metrics series at once without a
//! bespoke combined type.

use crate::attrib::{AttribReport, AttributionProbe, LogHist};
use crate::cache::SectoredCache;
use crate::instr::{AccessTag, Op, UNKNOWN_CALL_TARGET};
use crate::stats::{Stats, STALL_INDIRECT_CALL};
use crate::timeline::{TimelineProbe, TraceEvent};
use std::collections::{BTreeMap, BTreeSet};

/// Why a warp stalled, mirroring the indexing of
/// [`Stats::stall_by_tag`]: one slot per [`AccessTag`] plus the
/// indirect call (operation **C** of the paper's Fig. 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StallCause {
    /// Waiting on a memory access with this attribution tag.
    Access(AccessTag),
    /// The indirect-call issue latency itself.
    IndirectCall,
}

/// Number of distinct [`StallCause`] values (array sizing).
pub const STALL_CAUSES: usize = AccessTag::ALL.len() + 1;

impl StallCause {
    /// Compact index, compatible with [`Stats::stall_by_tag`].
    pub const fn index(self) -> usize {
        match self {
            StallCause::Access(tag) => tag.index(),
            StallCause::IndirectCall => STALL_INDIRECT_CALL,
        }
    }

    /// Every cause, in [`index`](StallCause::index) order.
    pub fn all() -> [StallCause; STALL_CAUSES] {
        let mut out = [StallCause::IndirectCall; STALL_CAUSES];
        let mut i = 0;
        while i < AccessTag::ALL.len() {
            out[i] = StallCause::Access(AccessTag::ALL[i]);
            i += 1;
        }
        out
    }

    /// Short machine-readable label (trace/metrics schema field).
    pub fn label(self) -> &'static str {
        match self {
            StallCause::Access(AccessTag::VtablePtr) => "vtable-ptr",
            StallCause::Access(AccessTag::VfuncPtr) => "vfunc-ptr",
            StallCause::Access(AccessTag::ConstIndirection) => "const-indirection",
            StallCause::Access(AccessTag::TypeTag) => "type-tag",
            StallCause::Access(AccessTag::RangeWalk) => "range-walk",
            StallCause::Access(AccessTag::Field) => "field",
            StallCause::Access(AccessTag::Other) => "other",
            StallCause::IndirectCall => "indirect-call",
        }
    }
}

/// Observability hooks called from the engine's hot loop.
///
/// Every method has an empty default body, so an implementation only
/// pays for (and only writes) the events it cares about. Implementors
/// are per-SM — see the module docs for the determinism argument.
/// Hooks mirror the counter updates of [`Stats`] exactly: summing a
/// hook's payloads over a run reproduces the corresponding counter
/// bit-for-bit (this is what [`CountingProbe`] does).
pub trait Probe {
    /// Statically `true` when every hook of this probe type is a no-op
    /// ([`NopProbe`] and compositions of it). The engine's fast-forward
    /// path uses this to elide the per-skipped-epoch hook replay that
    /// keeps instrumented runs byte-identical to epoch-tick runs: when
    /// the hooks provably observe nothing, skipping the calls changes
    /// nothing. Leave this `false` for any probe that records events.
    const IS_NOP: bool = false;

    /// A new epoch begins on this SM at `cycle` (idle stretches are
    /// skipped, so consecutive calls may jump forward).
    #[inline(always)]
    fn epoch(&mut self, _cycle: u64) {}

    /// The epoch at `cycle` finished on this SM: `live` / `issued` /
    /// `min_next` are the SM's phase-A outputs (whether any warp still
    /// has work, whether anything issued this cycle, and the earliest
    /// cycle at which a currently-stalled warp is known to become
    /// ready — `u64::MAX` when unknown). Fired once per
    /// [`epoch`](Probe::epoch), after the schedulers ran.
    #[inline(always)]
    fn epoch_end(&mut self, _cycle: u64, _live: bool, _issued: bool, _min_next: u64) {}

    /// Warp `warp` issued `op` (its `pc`-th trace entry) at `cycle`.
    #[inline(always)]
    fn issue(&mut self, _cycle: u64, _warp: usize, _pc: usize, _op: &Op) {}

    /// A stall interval `[from, until)` charged to `cause`, incurred by
    /// `warp` at trace position `pc` — the generalized Fig. 1b event.
    #[inline(always)]
    fn stall(&mut self, _warp: usize, _pc: usize, _cause: StallCause, _from: u64, _until: u64) {}

    /// One L1 sector probe (a global-load transaction) tagged `tag`.
    #[inline(always)]
    fn l1_access(&mut self, _cycle: u64, _tag: AccessTag, _hit: bool) {}

    /// A global load at trace position `pc` coalesced `lanes`
    /// participating lanes into `sectors` sector transactions. Fires
    /// once per dynamic load instruction, before the per-sector
    /// [`l1_access`](Probe::l1_access)/[`l1_sector`](Probe::l1_sector)
    /// stream it summarizes.
    #[inline(always)]
    fn load_coalesced(
        &mut self,
        _cycle: u64,
        _pc: usize,
        _tag: AccessTag,
        _lanes: u64,
        _sectors: u64,
    ) {
    }

    /// The addressed companion of [`l1_access`](Probe::l1_access): the
    /// same L1 sector probe, carrying the trace position, the cache
    /// line address and the L1 set it mapped to. One call per global
    /// load transaction, in the same order as `l1_access`.
    #[inline(always)]
    fn l1_sector(
        &mut self,
        _cycle: u64,
        _pc: usize,
        _tag: AccessTag,
        _line_addr: u64,
        _set: usize,
        _hit: bool,
    ) {
    }

    /// End-of-run snapshot of this SM's L1, fired once from the
    /// engine's finish path (after the last epoch, before stats
    /// merging).
    #[inline(always)]
    fn cache_final(&mut self, _l1: &SectoredCache) {}

    /// One constant-cache sector probe tagged `tag`.
    #[inline(always)]
    fn const_access(&mut self, _cycle: u64, _tag: AccessTag, _hit: bool) {}

    /// One L2 sector probe (attributed to the requesting SM).
    #[inline(always)]
    fn l2_access(&mut self, _cycle: u64, _hit: bool) {}

    /// One DRAM sector access (attributed to the requesting SM).
    #[inline(always)]
    fn dram_access(&mut self, _cycle: u64) {}

    /// A store issued `sectors` coalesced store transactions.
    #[inline(always)]
    fn store_sectors(&mut self, _cycle: u64, _sectors: u64) {}

    /// Warp `warp` retired (its last outstanding load drained) at
    /// `cycle`.
    #[inline(always)]
    fn warp_retire(&mut self, _cycle: u64, _warp: usize) {}
}

/// The default probe: every hook is an empty `#[inline(always)]` body,
/// so `execute::<NopProbe>` compiles to the same machine code as an
/// engine without hooks. This is the "zero" in zero-overhead.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NopProbe;

impl Probe for NopProbe {
    const IS_NOP: bool = true;
}

/// `Option<P>` is a probe that forwards when `Some` — the building
/// block for runtime-configurable probe stacks.
impl<P: Probe> Probe for Option<P> {
    // Forwarding to a no-op is still a no-op, whether Some or None.
    const IS_NOP: bool = P::IS_NOP;

    #[inline(always)]
    fn epoch(&mut self, cycle: u64) {
        if let Some(p) = self {
            p.epoch(cycle);
        }
    }
    #[inline(always)]
    fn epoch_end(&mut self, cycle: u64, live: bool, issued: bool, min_next: u64) {
        if let Some(p) = self {
            p.epoch_end(cycle, live, issued, min_next);
        }
    }
    #[inline(always)]
    fn issue(&mut self, cycle: u64, warp: usize, pc: usize, op: &Op) {
        if let Some(p) = self {
            p.issue(cycle, warp, pc, op);
        }
    }
    #[inline(always)]
    fn stall(&mut self, warp: usize, pc: usize, cause: StallCause, from: u64, until: u64) {
        if let Some(p) = self {
            p.stall(warp, pc, cause, from, until);
        }
    }
    #[inline(always)]
    fn l1_access(&mut self, cycle: u64, tag: AccessTag, hit: bool) {
        if let Some(p) = self {
            p.l1_access(cycle, tag, hit);
        }
    }
    #[inline(always)]
    fn load_coalesced(&mut self, cycle: u64, pc: usize, tag: AccessTag, lanes: u64, sectors: u64) {
        if let Some(p) = self {
            p.load_coalesced(cycle, pc, tag, lanes, sectors);
        }
    }
    #[inline(always)]
    fn l1_sector(
        &mut self,
        cycle: u64,
        pc: usize,
        tag: AccessTag,
        line_addr: u64,
        set: usize,
        hit: bool,
    ) {
        if let Some(p) = self {
            p.l1_sector(cycle, pc, tag, line_addr, set, hit);
        }
    }
    #[inline(always)]
    fn cache_final(&mut self, l1: &SectoredCache) {
        if let Some(p) = self {
            p.cache_final(l1);
        }
    }
    #[inline(always)]
    fn const_access(&mut self, cycle: u64, tag: AccessTag, hit: bool) {
        if let Some(p) = self {
            p.const_access(cycle, tag, hit);
        }
    }
    #[inline(always)]
    fn l2_access(&mut self, cycle: u64, hit: bool) {
        if let Some(p) = self {
            p.l2_access(cycle, hit);
        }
    }
    #[inline(always)]
    fn dram_access(&mut self, cycle: u64) {
        if let Some(p) = self {
            p.dram_access(cycle);
        }
    }
    #[inline(always)]
    fn store_sectors(&mut self, cycle: u64, sectors: u64) {
        if let Some(p) = self {
            p.store_sectors(cycle, sectors);
        }
    }
    #[inline(always)]
    fn warp_retire(&mut self, cycle: u64, warp: usize) {
        if let Some(p) = self {
            p.warp_retire(cycle, warp);
        }
    }
}

/// A pair of probes fires both halves, in order — composition without a
/// bespoke combined type.
impl<A: Probe, B: Probe> Probe for (A, B) {
    const IS_NOP: bool = A::IS_NOP && B::IS_NOP;

    #[inline(always)]
    fn epoch(&mut self, cycle: u64) {
        self.0.epoch(cycle);
        self.1.epoch(cycle);
    }
    #[inline(always)]
    fn epoch_end(&mut self, cycle: u64, live: bool, issued: bool, min_next: u64) {
        self.0.epoch_end(cycle, live, issued, min_next);
        self.1.epoch_end(cycle, live, issued, min_next);
    }
    #[inline(always)]
    fn issue(&mut self, cycle: u64, warp: usize, pc: usize, op: &Op) {
        self.0.issue(cycle, warp, pc, op);
        self.1.issue(cycle, warp, pc, op);
    }
    #[inline(always)]
    fn stall(&mut self, warp: usize, pc: usize, cause: StallCause, from: u64, until: u64) {
        self.0.stall(warp, pc, cause, from, until);
        self.1.stall(warp, pc, cause, from, until);
    }
    #[inline(always)]
    fn l1_access(&mut self, cycle: u64, tag: AccessTag, hit: bool) {
        self.0.l1_access(cycle, tag, hit);
        self.1.l1_access(cycle, tag, hit);
    }
    #[inline(always)]
    fn load_coalesced(&mut self, cycle: u64, pc: usize, tag: AccessTag, lanes: u64, sectors: u64) {
        self.0.load_coalesced(cycle, pc, tag, lanes, sectors);
        self.1.load_coalesced(cycle, pc, tag, lanes, sectors);
    }
    #[inline(always)]
    fn l1_sector(
        &mut self,
        cycle: u64,
        pc: usize,
        tag: AccessTag,
        line_addr: u64,
        set: usize,
        hit: bool,
    ) {
        self.0.l1_sector(cycle, pc, tag, line_addr, set, hit);
        self.1.l1_sector(cycle, pc, tag, line_addr, set, hit);
    }
    #[inline(always)]
    fn cache_final(&mut self, l1: &SectoredCache) {
        self.0.cache_final(l1);
        self.1.cache_final(l1);
    }
    #[inline(always)]
    fn const_access(&mut self, cycle: u64, tag: AccessTag, hit: bool) {
        self.0.const_access(cycle, tag, hit);
        self.1.const_access(cycle, tag, hit);
    }
    #[inline(always)]
    fn l2_access(&mut self, cycle: u64, hit: bool) {
        self.0.l2_access(cycle, hit);
        self.1.l2_access(cycle, hit);
    }
    #[inline(always)]
    fn dram_access(&mut self, cycle: u64) {
        self.0.dram_access(cycle);
        self.1.dram_access(cycle);
    }
    #[inline(always)]
    fn store_sectors(&mut self, cycle: u64, sectors: u64) {
        self.0.store_sectors(cycle, sectors);
        self.1.store_sectors(cycle, sectors);
    }
    #[inline(always)]
    fn warp_retire(&mut self, cycle: u64, warp: usize) {
        self.0.warp_retire(cycle, warp);
        self.1.warp_retire(cycle, warp);
    }
}

/// Rebuilds the event-derived slice of [`Stats`] purely from probe
/// hooks. Used by the property suite to prove the hook stream is
/// complete and exact; [`view`](CountingProbe::view) leaves the
/// trace-derived fields (`cycles`, `warps`, `vfunc_calls`) at zero
/// because no event carries them.
#[derive(Clone, Debug, Default)]
pub struct CountingProbe {
    view: Stats,
}

impl CountingProbe {
    /// A fresh, zeroed counting probe.
    pub fn new() -> Self {
        CountingProbe::default()
    }

    /// The counters reconstructed so far.
    pub fn view(&self) -> &Stats {
        &self.view
    }

    /// Sums the views of a set of per-SM counting probes.
    pub fn merged<'a>(probes: impl IntoIterator<Item = &'a CountingProbe>) -> Stats {
        Stats::merged(probes.into_iter().map(|p| &p.view))
    }
}

impl Probe for CountingProbe {
    fn issue(&mut self, _cycle: u64, _warp: usize, _pc: usize, op: &Op) {
        self.view.count_instrs(op.class(), op.dyn_count());
    }
    fn stall(&mut self, _warp: usize, _pc: usize, cause: StallCause, from: u64, until: u64) {
        self.view.stall_by_tag[cause.index()] += until.saturating_sub(from);
    }
    fn l1_access(&mut self, _cycle: u64, tag: AccessTag, hit: bool) {
        self.view.l1_accesses += 1;
        self.view.l1_hits += hit as u64;
        self.view.global_load_transactions += 1;
        self.view.load_transactions_by_tag[tag.index()] += 1;
    }
    fn const_access(&mut self, _cycle: u64, _tag: AccessTag, hit: bool) {
        self.view.const_accesses += 1;
        self.view.const_hits += hit as u64;
    }
    fn l2_access(&mut self, _cycle: u64, hit: bool) {
        self.view.l2_accesses += 1;
        self.view.l2_hits += hit as u64;
    }
    fn dram_access(&mut self, _cycle: u64) {
        self.view.dram_accesses += 1;
    }
    fn store_sectors(&mut self, _cycle: u64, sectors: u64) {
        self.view.global_store_transactions += sectors;
    }
}

/// One bucket of the [`EpochMetricsProbe`] time series: counter deltas
/// over a span of `bucket_cycles` simulated cycles.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetricsBucket {
    /// Dynamic warp instructions issued (IPC = `instrs / bucket_cycles`).
    pub instrs: u64,
    /// L1 sector probes.
    pub l1_accesses: u64,
    /// L1 sector hits.
    pub l1_hits: u64,
    /// L2 sector probes.
    pub l2_accesses: u64,
    /// L2 sector hits.
    pub l2_hits: u64,
    /// DRAM sector accesses.
    pub dram_accesses: u64,
    /// Stall cycles charged per [`StallCause::index`].
    pub stall_by_cause: [u64; STALL_CAUSES],
}

impl MetricsBucket {
    fn absorb(&mut self, other: &MetricsBucket) {
        self.instrs += other.instrs;
        self.l1_accesses += other.l1_accesses;
        self.l1_hits += other.l1_hits;
        self.l2_accesses += other.l2_accesses;
        self.l2_hits += other.l2_hits;
        self.dram_accesses += other.dram_accesses;
        for (d, s) in self
            .stall_by_cause
            .iter_mut()
            .zip(other.stall_by_cause.iter())
        {
            *d += *s;
        }
    }

    /// `true` when every counter is zero.
    pub fn is_empty(&self) -> bool {
        *self == MetricsBucket::default()
    }
}

/// A bounded time series of [`MetricsBucket`]s indexed by simulated
/// cycle. When the series would exceed its bucket cap, adjacent pairs
/// are coalesced and the bucket width doubles — memory stays bounded
/// for any kernel length while early buckets keep their (coarsened)
/// history, like a streaming histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EpochSeries {
    bucket_cycles: u64,
    max_buckets: usize,
    buckets: Vec<MetricsBucket>,
}

impl EpochSeries {
    /// A series with `bucket_cycles`-wide buckets, holding at most
    /// `max_buckets` before coarsening. Both are clamped to ≥ 1 (≥ 2
    /// for the cap, so coalescing can always make progress).
    pub fn new(bucket_cycles: u64, max_buckets: usize) -> Self {
        EpochSeries {
            bucket_cycles: bucket_cycles.max(1),
            max_buckets: max_buckets.max(2),
            buckets: Vec::new(),
        }
    }

    /// Current bucket width in cycles (grows by doubling).
    pub fn bucket_cycles(&self) -> u64 {
        self.bucket_cycles
    }

    /// The buckets, oldest first.
    pub fn buckets(&self) -> &[MetricsBucket] {
        &self.buckets
    }

    fn at(&mut self, cycle: u64) -> &mut MetricsBucket {
        let mut idx = (cycle / self.bucket_cycles) as usize;
        while idx >= self.max_buckets {
            // Coalesce pairs and double the width.
            let halved = self.buckets.len().div_ceil(2);
            for i in 0..halved {
                let mut merged = self.buckets[2 * i];
                if let Some(b) = self.buckets.get(2 * i + 1) {
                    merged.absorb(b);
                }
                self.buckets[i] = merged;
            }
            self.buckets.truncate(halved);
            self.bucket_cycles *= 2;
            idx = (cycle / self.bucket_cycles) as usize;
        }
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, MetricsBucket::default());
        }
        &mut self.buckets[idx]
    }

    /// Folds `other` in. If widths differ, the narrower side is
    /// coarsened to the wider one first, so merging per-SM series with
    /// different coalescing histories is well-defined.
    pub fn merge(&mut self, other: &EpochSeries) {
        let width = self.bucket_cycles.max(other.bucket_cycles);
        self.rescale_to(width);
        let mut rhs = other.clone();
        rhs.rescale_to(width);
        if rhs.buckets.len() > self.buckets.len() {
            self.buckets
                .resize(rhs.buckets.len(), MetricsBucket::default());
        }
        for (d, s) in self.buckets.iter_mut().zip(rhs.buckets.iter()) {
            d.absorb(s);
        }
    }

    fn rescale_to(&mut self, width: u64) {
        while self.bucket_cycles < width {
            let halved = self.buckets.len().div_ceil(2);
            for i in 0..halved {
                let mut merged = self.buckets[2 * i];
                if let Some(b) = self.buckets.get(2 * i + 1) {
                    merged.absorb(b);
                }
                self.buckets[i] = merged;
            }
            self.buckets.truncate(halved);
            self.bucket_cycles *= 2;
        }
    }
}

/// Records per-bucket [`Stats`] deltas over simulated time — IPC, hit
/// rates and the stall mix as a time series rather than one end-of-run
/// aggregate. One instance per SM; merge with
/// [`EpochSeries::merge`] for a whole-GPU view.
#[derive(Clone, Debug)]
pub struct EpochMetricsProbe {
    series: EpochSeries,
}

/// Default metrics bucket width in cycles.
pub const DEFAULT_METRICS_BUCKET_CYCLES: u64 = 256;

/// Default cap on buckets per SM before coarsening.
pub const DEFAULT_METRICS_MAX_BUCKETS: usize = 512;

impl EpochMetricsProbe {
    /// A probe bucketing at `bucket_cycles` with the default cap.
    pub fn new(bucket_cycles: u64) -> Self {
        EpochMetricsProbe {
            series: EpochSeries::new(bucket_cycles, DEFAULT_METRICS_MAX_BUCKETS),
        }
    }

    /// The recorded series.
    pub fn series(&self) -> &EpochSeries {
        &self.series
    }

    /// Consumes the probe, returning its series.
    pub fn into_series(self) -> EpochSeries {
        self.series
    }
}

impl Probe for EpochMetricsProbe {
    fn issue(&mut self, cycle: u64, _warp: usize, _pc: usize, op: &Op) {
        self.series.at(cycle).instrs += op.dyn_count();
    }
    fn stall(&mut self, _warp: usize, _pc: usize, cause: StallCause, from: u64, until: u64) {
        self.series.at(from).stall_by_cause[cause.index()] += until.saturating_sub(from);
    }
    fn l1_access(&mut self, cycle: u64, _tag: AccessTag, hit: bool) {
        let b = self.series.at(cycle);
        b.l1_accesses += 1;
        b.l1_hits += hit as u64;
    }
    fn l2_access(&mut self, cycle: u64, hit: bool) {
        let b = self.series.at(cycle);
        b.l2_accesses += 1;
        b.l2_hits += hit as u64;
    }
    fn dram_access(&mut self, cycle: u64) {
        self.series.at(cycle).dram_accesses += 1;
    }
}

/// How one simulated epoch was spent on one SM, derived from the
/// phase-A outputs at [`Probe::epoch_end`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EpochClass {
    /// At least one warp issued this cycle.
    Active,
    /// Nothing issued, but every stalled warp's completion cycle is
    /// known (`min_next != u64::MAX`) — the epoch an event-driven
    /// engine could fast-forward over.
    StalledKnown,
    /// Nothing issued and at least one warp's wake-up is unknown
    /// (waiting on phase-B arbitration still in flight).
    StalledOther,
    /// This SM has no work left while another SM keeps the clock
    /// running.
    Drained,
}

impl EpochClass {
    /// Machine-readable label (audit artifact field name).
    pub fn label(self) -> &'static str {
        match self {
            EpochClass::Active => "active",
            EpochClass::StalledKnown => "stalledKnown",
            EpochClass::StalledOther => "stalledOther",
            EpochClass::Drained => "drained",
        }
    }
}

/// Cap on distinct [`Op::IndirectCall`] targets remembered per call
/// site; beyond it the site sets
/// [`overflowed`](CallSiteStats::overflowed) and is megamorphic by
/// definition.
pub const CALL_SITE_TARGET_CAP: usize = 32;

/// Observed-type-set classification of an indirect-call site, after
/// the inline-cache literature.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallSiteClass {
    /// No resolved target was ever observed (all calls carried
    /// [`UNKNOWN_CALL_TARGET`]).
    Unknown,
    /// Exactly one target — a direct-call / speculative
    /// devirtualization candidate.
    Monomorphic,
    /// 2–4 targets — an inline-cache / guarded-dispatch candidate.
    FewTyped,
    /// 5 or more targets (or the target set overflowed its cap).
    Megamorphic,
}

impl CallSiteClass {
    /// Machine-readable label (audit artifact field name).
    pub fn label(self) -> &'static str {
        match self {
            CallSiteClass::Unknown => "unknown",
            CallSiteClass::Monomorphic => "monomorphic",
            CallSiteClass::FewTyped => "fewTyped",
            CallSiteClass::Megamorphic => "megamorphic",
        }
    }
}

/// Per-call-site counters: how many dynamic indirect calls a trace
/// position issued and which callees they resolved to. Sites are keyed
/// by trace position (the engine's `pc`), aggregated across warps and
/// SMs — a positional proxy for the static call site.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CallSiteStats {
    /// Dynamic indirect calls observed at this position.
    pub calls: u64,
    /// Calls whose target was [`UNKNOWN_CALL_TARGET`].
    pub unknown_calls: u64,
    /// Distinct resolved targets, capped at [`CALL_SITE_TARGET_CAP`].
    pub targets: BTreeSet<u64>,
    /// `true` once the target set hit its cap and stopped admitting.
    pub overflowed: bool,
}

impl CallSiteStats {
    fn observe(&mut self, target: u64) {
        self.calls += 1;
        if target == UNKNOWN_CALL_TARGET {
            self.unknown_calls += 1;
        } else if !self.targets.contains(&target) {
            if self.targets.len() < CALL_SITE_TARGET_CAP {
                self.targets.insert(target);
            } else {
                self.overflowed = true;
            }
        }
    }

    fn absorb(&mut self, other: &CallSiteStats) {
        self.calls += other.calls;
        self.unknown_calls += other.unknown_calls;
        self.overflowed |= other.overflowed;
        for &t in &other.targets {
            if self.targets.len() < CALL_SITE_TARGET_CAP {
                self.targets.insert(t);
            } else if !self.targets.contains(&t) {
                self.overflowed = true;
            }
        }
    }

    /// The site's observed-type-set class.
    pub fn class(&self) -> CallSiteClass {
        if self.overflowed || self.targets.len() >= 5 {
            CallSiteClass::Megamorphic
        } else {
            match self.targets.len() {
                0 => CallSiteClass::Unknown,
                1 => CallSiteClass::Monomorphic,
                _ => CallSiteClass::FewTyped,
            }
        }
    }
}

/// The deterministic cycle audit of a run: every per-SM epoch-cycle of
/// the simulated timeline classified, a histogram of fast-forwardable
/// gap lengths, and per-call-site type profiles. Wall-clock-free —
/// byte-identical for any `--jobs`.
///
/// Accounting model: each SM sees the same epoch cycles `c_0 < … <
/// c_n`. Epoch `i < n` covers `[c_i, c_{i+1})`: one cycle in its
/// [`EpochClass`] plus `c_{i+1} − c_i − 1` cycles the engine's global
/// fast-forward already [`skipped`](CycleAuditReport::skipped). The
/// final epoch's coverage `[c_n, cycles)` is the
/// [`tail`](CycleAuditReport::tail). Hence the hard invariant checked
/// by [`reconciles`](CycleAuditReport::reconciles): the six counters
/// sum to `sms × audited_cycles` exactly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CycleAuditReport {
    /// SMs audited (constant across the run's kernels).
    pub sms: u64,
    /// Simulated cycles audited: the sum of every launched kernel's
    /// `Stats::cycles` — each SM's timeline is this long.
    pub audited_cycles: u64,
    /// Epoch-cycles where the SM issued at least one instruction.
    pub active: u64,
    /// Epoch-cycles with nothing issued and every wake-up known — the
    /// per-SM fast-forward opportunity.
    pub stalled_known: u64,
    /// Epoch-cycles with nothing issued and some wake-up unknown.
    pub stalled_other: u64,
    /// Epoch-cycles on an SM with no remaining work.
    pub drained: u64,
    /// Cycles the engine's global all-SM fast-forward already skipped
    /// (no epoch was simulated for them).
    pub skipped: u64,
    /// Cycles after each kernel's last simulated epoch (drain window up
    /// to `Stats::cycles`).
    pub tail: u64,
    /// Log₂ histogram of `min_next − cycle` gap lengths over
    /// stalled-known epochs.
    pub gap_hist: LogHist,
    /// Per-trace-position indirect-call-site profiles.
    pub call_sites: BTreeMap<usize, CallSiteStats>,
}

/// Stable JSON member names of the six epoch-cycle classes, in the
/// order [`CycleAuditReport::class_counts`] reports them. Every
/// consumer that serializes or validates a cycle-audit `classes`
/// object (manifest emitter, `validate_json`, REPORT.md cross-checks)
/// iterates this list instead of hand-repeating the keys.
pub const CYCLE_CLASS_LABELS: [&str; 6] = [
    "active",
    "stalledKnown",
    "stalledOther",
    "drained",
    "skipped",
    "tail",
];

impl CycleAuditReport {
    /// The six epoch-cycle class counters paired with their stable JSON
    /// labels, in [`CYCLE_CLASS_LABELS`] order — the read-back helper
    /// for serializers and differs.
    pub fn class_counts(&self) -> [(&'static str, u64); 6] {
        [
            (CYCLE_CLASS_LABELS[0], self.active),
            (CYCLE_CLASS_LABELS[1], self.stalled_known),
            (CYCLE_CLASS_LABELS[2], self.stalled_other),
            (CYCLE_CLASS_LABELS[3], self.drained),
            (CYCLE_CLASS_LABELS[4], self.skipped),
            (CYCLE_CLASS_LABELS[5], self.tail),
        ]
    }

    /// Sum of all six epoch-cycle classes.
    pub fn classes_total(&self) -> u64 {
        self.active
            + self.stalled_known
            + self.stalled_other
            + self.drained
            + self.skipped
            + self.tail
    }

    /// The hard invariant: classified cycles cover each SM's timeline
    /// exactly once.
    pub fn reconciles(&self) -> bool {
        self.classes_total() == self.sms * self.audited_cycles
    }

    /// Cycles an event-driven engine could skip outright: stalled with
    /// a known completion, or on a drained SM.
    pub fn skippable_cycles(&self) -> u64 {
        self.stalled_known + self.drained
    }

    /// `skippable / (sms × audited)` — the fraction of per-SM
    /// epoch-cycles that are fast-forwardable; `0.0` when nothing was
    /// audited.
    pub fn skippable_fraction(&self) -> f64 {
        let denom = self.sms * self.audited_cycles;
        if denom == 0 {
            0.0
        } else {
            self.skippable_cycles() as f64 / denom as f64
        }
    }

    /// Amdahl-style upper bound on engine speedup if every skippable
    /// epoch-cycle cost nothing: `1 / (1 − fraction)`.
    pub fn upper_bound_speedup(&self) -> f64 {
        let f = self.skippable_fraction();
        if f >= 1.0 {
            f64::INFINITY
        } else {
            1.0 / (1.0 - f)
        }
    }

    /// Call-site counts by class, in
    /// `(unknown, monomorphic, few-typed, megamorphic)` order.
    pub fn site_class_counts(&self) -> (u64, u64, u64, u64) {
        let mut c = (0, 0, 0, 0);
        for s in self.call_sites.values() {
            match s.class() {
                CallSiteClass::Unknown => c.0 += 1,
                CallSiteClass::Monomorphic => c.1 += 1,
                CallSiteClass::FewTyped => c.2 += 1,
                CallSiteClass::Megamorphic => c.3 += 1,
            }
        }
        c
    }
}

/// Per-SM collector behind [`CycleAuditReport`]. Classification is
/// deferred by one epoch: [`Probe::epoch`] at `c_{i+1}` commits epoch
/// `i`'s class and the skipped gap, and the kernel's trailing epoch is
/// folded into the report tail by `ObsReport::absorb`, which knows the
/// kernel's final cycle count.
#[derive(Clone, Debug, Default)]
pub struct CycleAuditProbe {
    pending: Option<(u64, EpochClass)>,
    active: u64,
    stalled_known: u64,
    stalled_other: u64,
    drained: u64,
    skipped: u64,
    gap_hist: LogHist,
    sites: BTreeMap<usize, CallSiteStats>,
}

impl CycleAuditProbe {
    /// A fresh, zeroed audit collector.
    pub fn new() -> Self {
        CycleAuditProbe::default()
    }

    fn commit(&mut self, class: EpochClass) {
        match class {
            EpochClass::Active => self.active += 1,
            EpochClass::StalledKnown => self.stalled_known += 1,
            EpochClass::StalledOther => self.stalled_other += 1,
            EpochClass::Drained => self.drained += 1,
        }
    }

    /// Folds this SM's audit into `report`, closing the books at
    /// `kernel_cycles` (the launch's `Stats::cycles`): the last epoch's
    /// coverage becomes tail, and this SM's timeline accounts for
    /// exactly `kernel_cycles` cycles.
    pub fn finalize_into(mut self, kernel_cycles: u64, report: &mut CycleAuditReport) {
        let tail = match self.pending.take() {
            Some((last_cycle, _)) => kernel_cycles.saturating_sub(last_cycle),
            None => kernel_cycles,
        };
        report.active += self.active;
        report.stalled_known += self.stalled_known;
        report.stalled_other += self.stalled_other;
        report.drained += self.drained;
        report.skipped += self.skipped;
        report.tail += tail;
        report.gap_hist.merge(&self.gap_hist);
        for (pc, s) in &self.sites {
            report.call_sites.entry(*pc).or_default().absorb(s);
        }
    }
}

impl Probe for CycleAuditProbe {
    fn epoch(&mut self, cycle: u64) {
        if let Some((prev, class)) = self.pending.take() {
            self.commit(class);
            self.skipped += cycle.saturating_sub(prev + 1);
        }
    }

    fn epoch_end(&mut self, cycle: u64, live: bool, issued: bool, min_next: u64) {
        let class = if issued {
            EpochClass::Active
        } else if !live {
            EpochClass::Drained
        } else if min_next != u64::MAX {
            self.gap_hist.record(min_next.saturating_sub(cycle));
            EpochClass::StalledKnown
        } else {
            EpochClass::StalledOther
        };
        self.pending = Some((cycle, class));
    }

    fn issue(&mut self, _cycle: u64, _warp: usize, pc: usize, op: &Op) {
        if let Op::IndirectCall { target } = op {
            self.sites.entry(pc).or_default().observe(*target);
        }
    }
}

/// What a [`crate::Gpu`] run should record. `OFF` (the default) keeps
/// the engine on the [`NopProbe`] fast path; any enabled field routes
/// execution through [`recording_probe`].
///
/// Lives in the simulator so workload configuration can carry it
/// without the harness depending on probe internals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProbeSpec {
    /// Timeline event cap per SM per kernel (`0` = no timeline).
    pub timeline_events_per_sm: usize,
    /// Metrics bucket width in cycles (`0` = no metrics series).
    pub metrics_bucket_cycles: u64,
    /// Record per-PC / cache-line / reuse attribution evidence
    /// (see [`crate::attrib`]).
    pub attribution: bool,
    /// Record the deterministic cycle audit (epoch classification,
    /// fast-forward gaps, call-site type profiles).
    pub cycle_audit: bool,
}

impl ProbeSpec {
    /// Record nothing (the zero-overhead default).
    pub const OFF: ProbeSpec = ProbeSpec {
        timeline_events_per_sm: 0,
        metrics_bucket_cycles: 0,
        attribution: false,
        cycle_audit: false,
    };

    /// `true` when no probe is requested.
    pub fn is_off(&self) -> bool {
        *self == ProbeSpec::OFF
    }
}

/// The concrete probe stack built from a [`ProbeSpec`]: an optional
/// timeline, an optional metrics series, an optional attribution
/// collector and an optional cycle audit, composed through the
/// `Option` / tuple [`Probe`] impls.
pub type RecordingProbe = (
    Option<TimelineProbe>,
    (
        Option<EpochMetricsProbe>,
        (Option<AttributionProbe>, Option<CycleAuditProbe>),
    ),
);

/// Builds the [`RecordingProbe`] for SM `sm` according to `spec`.
pub fn recording_probe(sm: usize, spec: ProbeSpec) -> RecordingProbe {
    let timeline = (spec.timeline_events_per_sm > 0)
        .then(|| TimelineProbe::new(sm, spec.timeline_events_per_sm));
    let metrics = (spec.metrics_bucket_cycles > 0)
        .then(|| EpochMetricsProbe::new(spec.metrics_bucket_cycles));
    let attrib = spec.attribution.then(AttributionProbe::new);
    let audit = spec.cycle_audit.then(CycleAuditProbe::new);
    (timeline, (metrics, (attrib, audit)))
}

/// Observability artifacts accumulated over one or more kernel
/// launches: a flattened timeline (timestamps offset so launches read
/// as one continuous run) and one merged metrics series per kernel.
#[derive(Clone, Debug, Default)]
pub struct ObsReport {
    /// Timeline events across all launches, absolute timestamps.
    pub events: Vec<TraceEvent>,
    /// Events discarded by the per-SM buffer caps.
    pub events_dropped: u64,
    /// One whole-GPU metrics series per kernel launch.
    pub kernel_series: Vec<EpochSeries>,
    /// Merged attribution evidence across all SMs and launches, when
    /// attribution was requested.
    pub attribution: Option<AttribReport>,
    /// Merged cycle audit across all SMs and launches, when the audit
    /// was requested.
    pub audit: Option<CycleAuditReport>,
}

impl ObsReport {
    /// Folds the per-SM probes of one kernel launch in. `cycle_base` is
    /// the cumulative simulated-cycle offset of this launch (the sum of
    /// all previous launches' cycles), applied to timeline timestamps;
    /// `kernel_cycles` is this launch's own `Stats::cycles`, which
    /// closes the cycle audit's books (tail accounting). Probes arrive
    /// in ascending-SM order from both engine paths, so every merge
    /// below is order-deterministic.
    pub fn absorb(&mut self, cycle_base: u64, kernel_cycles: u64, probes: Vec<RecordingProbe>) {
        let mut merged: Option<EpochSeries> = None;
        let mut audit_sms: u64 = 0;
        for (timeline, (metrics, (attrib, audit))) in probes {
            if let Some(t) = timeline {
                self.events_dropped += t.dropped();
                self.events.extend(t.into_events().into_iter().map(|mut e| {
                    e.start += cycle_base;
                    e
                }));
            }
            if let Some(m) = metrics {
                match &mut merged {
                    Some(acc) => acc.merge(m.series()),
                    None => merged = Some(m.into_series()),
                }
            }
            if let Some(a) = attrib {
                match &mut self.attribution {
                    Some(acc) => acc.merge(a.report()),
                    None => self.attribution = Some(a.into_report()),
                }
            }
            if let Some(a) = audit {
                let acc = self.audit.get_or_insert_with(CycleAuditReport::default);
                a.finalize_into(kernel_cycles, acc);
                audit_sms += 1;
            }
        }
        if audit_sms > 0 {
            let acc = self.audit.as_mut().expect("audit report exists");
            // One kernel's worth of timeline per SM; the SM count is
            // constant across launches on the same GPU.
            acc.sms = audit_sms;
            acc.audited_cycles += kernel_cycles;
        }
        if let Some(series) = merged {
            self.kernel_series.push(series);
        }
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
            && self.kernel_series.is_empty()
            && self.events_dropped == 0
            && self.attribution.is_none()
            && self.audit.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_cause_indices_cover_stats_slots() {
        let mut seen = std::collections::HashSet::new();
        for c in StallCause::all() {
            assert!(c.index() < STALL_CAUSES);
            assert!(seen.insert(c.index()));
        }
        assert_eq!(seen.len(), STALL_CAUSES);
        assert_eq!(StallCause::IndirectCall.index(), STALL_INDIRECT_CALL);
    }

    #[test]
    fn counting_probe_accumulates() {
        let mut p = CountingProbe::new();
        p.l1_access(0, AccessTag::VtablePtr, false);
        p.l1_access(1, AccessTag::VtablePtr, true);
        p.stall(0, 0, StallCause::Access(AccessTag::VtablePtr), 10, 25);
        p.store_sectors(2, 4);
        let v = p.view();
        assert_eq!(v.l1_accesses, 2);
        assert_eq!(v.l1_hits, 1);
        assert_eq!(v.global_load_transactions, 2);
        assert_eq!(v.load_transactions_by_tag[AccessTag::VtablePtr.index()], 2);
        assert_eq!(v.stall_by_tag[AccessTag::VtablePtr.index()], 15);
        assert_eq!(v.global_store_transactions, 4);
    }

    #[test]
    fn epoch_series_coarsens_under_cap() {
        let mut s = EpochSeries::new(1, 4);
        for cycle in 0..64 {
            s.at(cycle).instrs += 1;
        }
        assert!(s.buckets().len() <= 4);
        assert!(s.bucket_cycles() >= 16);
        let total: u64 = s.buckets().iter().map(|b| b.instrs).sum();
        assert_eq!(total, 64, "coarsening must not lose counts");
    }

    #[test]
    fn epoch_series_merges_mismatched_widths() {
        let mut a = EpochSeries::new(1, 4);
        for cycle in 0..40 {
            a.at(cycle).instrs += 2;
        }
        let mut b = EpochSeries::new(1, 1024);
        b.at(0).instrs = 5;
        a.merge(&b);
        let total: u64 = a.buckets().iter().map(|x| x.instrs).sum();
        assert_eq!(total, 85);
    }

    #[test]
    fn probe_spec_off_by_default() {
        assert!(ProbeSpec::default().is_off());
        let (t, (m, (a, au))) = recording_probe(0, ProbeSpec::OFF);
        assert!(t.is_none() && m.is_none() && a.is_none() && au.is_none());
        let (t, (m, (a, au))) = recording_probe(
            1,
            ProbeSpec {
                timeline_events_per_sm: 8,
                metrics_bucket_cycles: 16,
                attribution: true,
                cycle_audit: true,
            },
        );
        assert!(t.is_some() && m.is_some() && a.is_some() && au.is_some());
    }

    #[test]
    fn cycle_audit_accounting_covers_the_timeline() {
        // Hand-drive the hook sequence of one SM: epochs at cycles
        // 0 (issued), 1 (stalled, wake known at 5), 5 (issued),
        // 6 (drained), with the kernel finishing at cycle 10.
        let mut p = CycleAuditProbe::new();
        p.epoch(0);
        p.epoch_end(0, true, true, u64::MAX);
        p.epoch(1);
        p.epoch_end(1, true, false, 5);
        p.epoch(5);
        p.epoch_end(5, true, true, u64::MAX);
        p.epoch(6);
        p.epoch_end(6, false, false, u64::MAX);
        let mut r = CycleAuditReport::default();
        p.finalize_into(10, &mut r);
        r.sms = 1;
        r.audited_cycles = 10;
        assert_eq!(r.active, 2);
        assert_eq!(r.stalled_known, 1);
        assert_eq!(r.stalled_other, 0);
        // Epoch at 6 is the last: its class is never committed; its
        // coverage [6, 10) is the tail.
        assert_eq!(r.drained, 0);
        assert_eq!(r.skipped, 3, "cycles 2,3,4 were globally fast-forwarded");
        assert_eq!(r.tail, 4);
        assert!(r.reconciles());
        assert_eq!(r.skippable_cycles(), 1);
        assert_eq!(r.gap_hist.total(), 1);
    }

    #[test]
    fn cycle_audit_empty_probe_is_all_tail() {
        let p = CycleAuditProbe::new();
        let mut r = CycleAuditReport::default();
        p.finalize_into(7, &mut r);
        r.sms = 1;
        r.audited_cycles = 7;
        assert_eq!(r.tail, 7);
        assert!(r.reconciles());
        // And the zero-kernel case sums to zero.
        let z = CycleAuditReport::default();
        assert!(z.reconciles());
        assert_eq!(z.skippable_fraction(), 0.0);
    }

    #[test]
    fn call_sites_classify_by_observed_targets() {
        let mut p = CycleAuditProbe::new();
        let call = |t: u64| Op::IndirectCall { target: t };
        p.issue(0, 0, 3, &call(1));
        p.issue(0, 0, 3, &call(1));
        p.issue(0, 1, 4, &call(1));
        p.issue(0, 1, 4, &call(2));
        for t in 0..6 {
            p.issue(0, 2, 5, &call(t));
        }
        p.issue(0, 3, 6, &call(UNKNOWN_CALL_TARGET));
        let mut r = CycleAuditReport::default();
        p.finalize_into(0, &mut r);
        assert_eq!(r.call_sites[&3].class(), CallSiteClass::Monomorphic);
        assert_eq!(r.call_sites[&4].class(), CallSiteClass::FewTyped);
        assert_eq!(r.call_sites[&5].class(), CallSiteClass::Megamorphic);
        assert_eq!(r.call_sites[&6].class(), CallSiteClass::Unknown);
        assert_eq!(r.call_sites[&6].unknown_calls, 1);
        assert_eq!(r.site_class_counts(), (1, 1, 1, 1));
    }

    #[test]
    fn call_site_target_cap_overflows_to_megamorphic() {
        let mut s = CallSiteStats::default();
        for t in 0..(CALL_SITE_TARGET_CAP as u64 + 3) {
            s.observe(t);
        }
        assert!(s.overflowed);
        assert_eq!(s.targets.len(), CALL_SITE_TARGET_CAP);
        assert_eq!(s.class(), CallSiteClass::Megamorphic);
        assert_eq!(s.calls, CALL_SITE_TARGET_CAP as u64 + 3);
    }

    #[test]
    fn option_and_tuple_probes_forward() {
        let mut p: (Option<CountingProbe>, Option<CountingProbe>) =
            (Some(CountingProbe::new()), None);
        p.dram_access(3);
        p.l2_access(3, true);
        assert_eq!(p.0.as_ref().unwrap().view().dram_accesses, 1);
        assert_eq!(p.0.as_ref().unwrap().view().l2_hits, 1);
    }
}
