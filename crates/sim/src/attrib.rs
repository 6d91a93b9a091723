//! Mechanism attribution: per-PC access evidence from the caches.
//!
//! The probes in [`crate::probe`] see the pipeline (stalls, IPC over
//! time); this module sees the *mechanisms* the paper's figures are
//! explained by. An [`AttributionProbe`] listens to the engine's
//! per-instruction and per-sector hooks and accumulates, per SM:
//!
//! - **per-PC load attribution** — for every `(trace position, access
//!   tag)` pair: instructions issued, lanes participating, sector
//!   transactions generated and L1 hits. Transactions-per-instruction
//!   is the paper's "loads per virtual call" evidence; lanes per
//!   transaction is coalescing efficiency (32 = perfectly converged,
//!   1 = fully diverged).
//! - **per-set L1 contention** — accesses and hits per cache set, plus
//!   a final-occupancy snapshot (valid sectors per set at the end of
//!   the run), showing whether vtable/lookup lines concentrate in a
//!   few hot sets.
//! - **reuse-interval histograms** per line class (vtable metadata vs.
//!   range-lookup vs. object data), measuring, for each re-access of a
//!   cache line, how many L1 sector accesses happened on that SM since
//!   the line was last touched. Short intervals explain why converged
//!   structures hit in L1 (§5); first-ever touches are counted
//!   separately as cold accesses.
//!
//! Everything is an exact integer counter or a [`LogHist`], so per-SM
//! reports merge associatively and the merged whole-GPU report is
//! byte-identical for any `--jobs` — attribution inherits the
//! engine's determinism contract just like the other probes.

use crate::cache::SectoredCache;
use crate::instr::AccessTag;
use crate::probe::Probe;
use std::collections::{BTreeMap, HashMap};

/// Number of buckets in a [`LogHist`]: one for zero, one per power of
/// two up to `2^32`, and one overflow bucket for everything larger.
pub const LOG_HIST_BUCKETS: usize = 35;

/// A log2-bucketed histogram of `u64` samples.
///
/// Bucket 0 counts the value `0`; bucket `k` (for `1 <= k <= 33`)
/// counts values in `[2^(k-1), 2^k)`; the last bucket counts values
/// `>= 2^33`. Merging is element-wise addition, so it is associative
/// and commutative — the property the determinism suite checks.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct LogHist {
    counts: [u64; LOG_HIST_BUCKETS],
}

impl LogHist {
    /// An empty histogram.
    pub const fn new() -> Self {
        LogHist {
            counts: [0; LOG_HIST_BUCKETS],
        }
    }

    /// The bucket index `value` falls into.
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (64 - value.leading_zeros() as usize).min(LOG_HIST_BUCKETS - 1)
        }
    }

    /// Inclusive lower bound of bucket `i` (`0`, then `2^(i-1)`).
    pub fn bucket_lo(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_of(value)] += 1;
    }

    /// Records `n` samples of the same value.
    pub fn record_n(&mut self, value: u64, n: u64) {
        self.counts[Self::bucket_of(value)] += n;
    }

    /// Element-wise addition of `other`.
    pub fn merge(&mut self, other: &LogHist) {
        for (d, s) in self.counts.iter_mut().zip(other.counts.iter()) {
            *d += *s;
        }
    }

    /// Total number of samples recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `true` when no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// The raw bucket counts, in [`bucket_lo`](Self::bucket_lo) order.
    pub fn counts(&self) -> &[u64; LOG_HIST_BUCKETS] {
        &self.counts
    }

    /// Rebuild a histogram from raw bucket counts (the inverse of
    /// [`LogHist::counts`]); used when decoding persisted attribution data.
    pub const fn from_counts(counts: [u64; LOG_HIST_BUCKETS]) -> Self {
        LogHist { counts }
    }
}

impl Default for LogHist {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for LogHist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Print only the populated buckets; 35 mostly-zero entries
        // drown test failure output otherwise.
        let mut m = f.debug_map();
        for (i, &c) in self.counts.iter().enumerate() {
            if c != 0 {
                m.entry(&Self::bucket_lo(i), &c);
            }
        }
        m.finish()
    }
}

/// The cache-line classes reuse intervals are attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LineClass {
    /// vTable metadata: the embedded vTable pointer, vFunc-pointer slots
    /// and Concord's type tags (also constant-table indirections, which
    /// normally stay in the constant cache).
    Vtable,
    /// COAL's range-lookup structures (segment-tree nodes and leaves,
    /// linear-table entries).
    Lookup,
    /// Object member data (and untyped traffic).
    Object,
}

/// Number of [`LineClass`] values (array sizing).
pub const LINE_CLASSES: usize = 3;

impl LineClass {
    /// Every class, in [`index`](Self::index) order.
    pub const ALL: [LineClass; LINE_CLASSES] =
        [LineClass::Vtable, LineClass::Lookup, LineClass::Object];

    /// Compact index for array storage.
    pub const fn index(self) -> usize {
        match self {
            LineClass::Vtable => 0,
            LineClass::Lookup => 1,
            LineClass::Object => 2,
        }
    }

    /// Short machine-readable label (attribution schema field).
    pub fn label(self) -> &'static str {
        match self {
            LineClass::Vtable => "vtable",
            LineClass::Lookup => "lookup",
            LineClass::Object => "object",
        }
    }

    /// The class an access tag's lines belong to.
    pub fn of(tag: AccessTag) -> LineClass {
        match tag {
            AccessTag::VtablePtr
            | AccessTag::VfuncPtr
            | AccessTag::TypeTag
            | AccessTag::ConstIndirection => LineClass::Vtable,
            AccessTag::RangeWalk => LineClass::Lookup,
            AccessTag::Field | AccessTag::Other => LineClass::Object,
        }
    }
}

/// Accumulated load evidence for one `(trace position, tag)` pair.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PcLoadStats {
    /// Dynamic load instructions issued at this PC.
    pub instructions: u64,
    /// Lanes that participated (sum over instructions).
    pub lanes: u64,
    /// Coalesced sector transactions generated (sums to the matching
    /// [`crate::Stats::load_transactions_by_tag`] slot — the hard
    /// cross-check invariant).
    pub transactions: u64,
    /// Transactions that hit in L1.
    pub l1_hits: u64,
}

impl PcLoadStats {
    fn merge(&mut self, other: &PcLoadStats) {
        self.instructions += other.instructions;
        self.lanes += other.lanes;
        self.transactions += other.transactions;
        self.l1_hits += other.l1_hits;
    }
}

/// The merged attribution evidence of a run (or of one SM before
/// merging). All fields are exact integers, so [`merge`](Self::merge)
/// is associative and commutative and the whole-GPU report is
/// independent of merge order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AttribReport {
    /// Per-`(trace position, tag index)` load attribution, in
    /// deterministic key order.
    pub per_pc: BTreeMap<(usize, usize), PcLoadStats>,
    /// L1 accesses per cache set, summed over SMs (contention evidence;
    /// index = set).
    pub set_accesses: Vec<u64>,
    /// L1 hits per cache set, summed over SMs.
    pub set_hits: Vec<u64>,
    /// Valid sectors per L1 set at the end of the run, summed over SMs
    /// (occupancy snapshot).
    pub final_set_sectors: Vec<u64>,
    /// Reuse-interval histogram per [`LineClass`]: L1 sector accesses
    /// on the same SM between touches of the same cache line.
    pub reuse: [LogHist; LINE_CLASSES],
    /// First-ever touches of a line per [`LineClass`] (cold accesses,
    /// excluded from the interval histograms).
    pub cold_lines: [u64; LINE_CLASSES],
    /// Number of per-SM reports merged in.
    pub sms: u64,
}

fn add_at(v: &mut Vec<u64>, idx: usize, amount: u64) {
    if idx >= v.len() {
        v.resize(idx + 1, 0);
    }
    v[idx] += amount;
}

impl AttribReport {
    /// Folds `other` in (element-wise addition everywhere).
    pub fn merge(&mut self, other: &AttribReport) {
        for (k, s) in &other.per_pc {
            self.per_pc.entry(*k).or_default().merge(s);
        }
        for (i, &a) in other.set_accesses.iter().enumerate() {
            add_at(&mut self.set_accesses, i, a);
        }
        for (i, &h) in other.set_hits.iter().enumerate() {
            add_at(&mut self.set_hits, i, h);
        }
        for (i, &s) in other.final_set_sectors.iter().enumerate() {
            add_at(&mut self.final_set_sectors, i, s);
        }
        for (d, s) in self.reuse.iter_mut().zip(other.reuse.iter()) {
            d.merge(s);
        }
        for (d, s) in self.cold_lines.iter_mut().zip(other.cold_lines.iter()) {
            *d += *s;
        }
        self.sms += other.sms;
    }

    /// Total sector transactions attributed to `tag` across all PCs —
    /// must equal the matching [`crate::Stats`] load-transaction
    /// counter (the cross-check the report enforces).
    pub fn transactions_by_tag(&self, tag: AccessTag) -> u64 {
        let idx = tag.index();
        self.per_pc
            .iter()
            .filter(|((_, t), _)| *t == idx)
            .map(|(_, s)| s.transactions)
            .sum()
    }

    /// Sums `(instructions, lanes, transactions, l1_hits)` for `tag`.
    pub fn totals_by_tag(&self, tag: AccessTag) -> PcLoadStats {
        let idx = tag.index();
        let mut out = PcLoadStats::default();
        for ((_, t), s) in &self.per_pc {
            if *t == idx {
                out.merge(s);
            }
        }
        out
    }

    /// `true` when nothing was recorded (not even an SM report).
    pub fn is_empty(&self) -> bool {
        *self == AttribReport::default()
    }
}

/// Per-SM probe accumulating the evidence of an [`AttribReport`].
///
/// Costs a handful of counter updates per load instruction and a hash
/// lookup per sector — cheap enough to enable on every grid cell, and,
/// like every probe, invisible to timing: [`crate::Stats`] and stdout
/// are byte-identical with or without it.
#[derive(Clone, Debug, Default)]
pub struct AttributionProbe {
    report: AttribReport,
    /// Line address -> index of the last sector access that touched it
    /// (for reuse intervals, measured in sector accesses on this SM).
    last_touch: HashMap<u64, u64>,
    accesses: u64,
}

impl AttributionProbe {
    /// A fresh probe for one SM.
    pub fn new() -> Self {
        AttributionProbe {
            report: AttribReport {
                sms: 1,
                ..AttribReport::default()
            },
            last_touch: HashMap::new(),
            accesses: 0,
        }
    }

    /// The evidence recorded so far.
    pub fn report(&self) -> &AttribReport {
        &self.report
    }

    /// Consumes the probe, returning its report.
    pub fn into_report(self) -> AttribReport {
        self.report
    }
}

impl Probe for AttributionProbe {
    fn load_coalesced(
        &mut self,
        _cycle: u64,
        pc: usize,
        tag: AccessTag,
        lanes: u64,
        _sectors: u64,
    ) {
        let e = self.report.per_pc.entry((pc, tag.index())).or_default();
        e.instructions += 1;
        e.lanes += lanes;
    }

    fn l1_sector(
        &mut self,
        _cycle: u64,
        pc: usize,
        tag: AccessTag,
        line_addr: u64,
        set: usize,
        hit: bool,
    ) {
        let e = self.report.per_pc.entry((pc, tag.index())).or_default();
        e.transactions += 1;
        e.l1_hits += hit as u64;
        add_at(&mut self.report.set_accesses, set, 1);
        add_at(&mut self.report.set_hits, set, hit as u64);
        let class = LineClass::of(tag).index();
        match self.last_touch.insert(line_addr, self.accesses) {
            Some(prev) => self.report.reuse[class].record(self.accesses - prev),
            None => self.report.cold_lines[class] += 1,
        }
        self.accesses += 1;
    }

    fn cache_final(&mut self, l1: &SectoredCache) {
        let occ = l1.per_set_valid_sectors();
        for (i, &s) in occ.iter().enumerate() {
            add_at(&mut self.report.final_set_sectors, i, s as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_hist_bucket_boundaries() {
        assert_eq!(LogHist::bucket_of(0), 0);
        assert_eq!(LogHist::bucket_of(1), 1);
        assert_eq!(LogHist::bucket_of(2), 2);
        assert_eq!(LogHist::bucket_of(3), 2);
        assert_eq!(LogHist::bucket_of(4), 3);
        assert_eq!(LogHist::bucket_of(u64::MAX), LOG_HIST_BUCKETS - 1);
        for i in 1..LOG_HIST_BUCKETS - 1 {
            assert_eq!(LogHist::bucket_of(LogHist::bucket_lo(i)), i, "bucket {i}");
        }
    }

    #[test]
    fn log_hist_counts_and_merges() {
        let mut a = LogHist::new();
        a.record(0);
        a.record_n(5, 3);
        let mut b = LogHist::new();
        b.record(1u64 << 40);
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba, "merge is commutative");
        assert_eq!(ab.total(), 5);
        assert!(!ab.is_empty());
        assert_eq!(ab.counts()[LOG_HIST_BUCKETS - 1], 1, "overflow bucket");
    }

    #[test]
    fn line_classes_cover_all_tags() {
        for tag in AccessTag::ALL {
            let c = LineClass::of(tag);
            assert!(c.index() < LINE_CLASSES);
            assert_eq!(LineClass::ALL[c.index()], c);
        }
        assert_eq!(LineClass::of(AccessTag::VtablePtr), LineClass::Vtable);
        assert_eq!(LineClass::of(AccessTag::RangeWalk), LineClass::Lookup);
        assert_eq!(LineClass::of(AccessTag::Field), LineClass::Object);
    }

    #[test]
    fn probe_attributes_loads_and_reuse() {
        let mut p = AttributionProbe::new();
        p.load_coalesced(0, 7, AccessTag::VtablePtr, 32, 2);
        p.l1_sector(0, 7, AccessTag::VtablePtr, 0x100, 2, false);
        p.l1_sector(0, 7, AccessTag::VtablePtr, 0x100, 2, true);
        p.l1_sector(1, 9, AccessTag::Field, 0x200, 4, false);
        let r = p.report();
        let vt = r.per_pc[&(7, AccessTag::VtablePtr.index())];
        assert_eq!(vt.instructions, 1);
        assert_eq!(vt.lanes, 32);
        assert_eq!(vt.transactions, 2);
        assert_eq!(vt.l1_hits, 1);
        assert_eq!(r.transactions_by_tag(AccessTag::VtablePtr), 2);
        assert_eq!(r.transactions_by_tag(AccessTag::Field), 1);
        assert_eq!(r.set_accesses[2], 2);
        assert_eq!(r.set_hits[2], 1);
        // Line 0x100 was touched twice: one cold touch, one reuse at
        // interval 1. Line 0x200: cold.
        assert_eq!(r.cold_lines[LineClass::Vtable.index()], 1);
        assert_eq!(r.cold_lines[LineClass::Object.index()], 1);
        assert_eq!(r.reuse[LineClass::Vtable.index()].total(), 1);
    }

    #[test]
    fn report_merge_is_commutative_and_order_free() {
        let mk = |pc: usize, set: usize| {
            let mut p = AttributionProbe::new();
            p.load_coalesced(0, pc, AccessTag::Field, 4, 1);
            p.l1_sector(0, pc, AccessTag::Field, pc as u64 * 64, set, pc % 2 == 0);
            p.into_report()
        };
        let (a, b, c) = (mk(1, 0), mk(2, 3), mk(3, 1));
        let mut abc = a.clone();
        abc.merge(&b);
        abc.merge(&c);
        let mut cba = c.clone();
        cba.merge(&b);
        cba.merge(&a);
        assert_eq!(abc, cba);
        assert_eq!(abc.sms, 3);
    }

    #[test]
    fn cache_final_snapshots_occupancy() {
        let mut l1 = SectoredCache::new(512, 2, 128, 32);
        l1.access(0x0);
        l1.access(0x20);
        l1.access(0x80);
        let mut p = AttributionProbe::new();
        p.cache_final(&l1);
        let r = p.report();
        assert_eq!(r.final_set_sectors[0], 2);
        assert_eq!(r.final_set_sectors[1], 1);
    }
}
