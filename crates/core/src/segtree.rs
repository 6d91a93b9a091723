//! The COAL range-lookup structures: a balanced segment tree
//! (paper Algorithm 1) and a linear-scan alternative used as an ablation.

use gvf_mem::{DeviceMemory, VirtAddr};
use gvf_sim::{lanes_from_fn, AccessTag, Lanes, LogHist, WarpCtx, WARP_SIZE};
use std::cell::Cell;

/// One row of the virtual range table, resolved to a vTable address.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResolvedRange {
    /// First byte of the range.
    pub lo: u64,
    /// One past the last byte.
    pub hi: u64,
    /// Address of the vTable shared by every object in the range.
    pub vtable: VirtAddr,
}

/// The segment tree COAL's compiler-generated lookup walks (§5).
///
/// Leaves hold one `(base, range)` per allocator region; internal nodes
/// hold the address boundaries of their two children, laid out as an
/// implicit binary heap in device memory (32 bytes per node, one cache
/// sector). Because the tree is padded to a power of two, every lookup
/// walks exactly `ceil(log2(K))` levels — the `O(log2 K)` of Algorithm 1.
///
/// The tree is tiny and shared by *all* threads, which is the crux of
/// COAL: lookup loads are converged and hit in L1, unlike the per-object
/// diverged vTable-pointer load they replace.
#[derive(Clone, Debug)]
pub struct SegmentTree {
    node_base: VirtAddr,
    leaf_base: VirtAddr,
    internal_count: usize,
    depth: u32,
    host_ranges: Vec<ResolvedRange>,
    /// Host mirror of node contents: (llo, lhi, rlo, rhi).
    host_nodes: Vec<[u64; 4]>,
    /// Host mirror of leaf vTable addresses (0 = padding leaf).
    host_leaves: Vec<u64>,
    /// Dispatches that walked the tree ([`emit_walk`](Self::emit_walk)
    /// calls with ≥ 1 participating lane). Interior-mutable so the
    /// read-only emit path can count itself.
    walks: Cell<u64>,
    /// Lanes that participated across all walks.
    walk_lanes: Cell<u64>,
}

impl SegmentTree {
    /// Bytes per internal node in device memory.
    pub const NODE_BYTES: u64 = 32;
    /// Bytes per leaf entry in device memory.
    pub const LEAF_BYTES: u64 = 8;

    /// Builds and materializes the tree over `ranges` (need not be
    /// sorted; must be non-overlapping and non-empty).
    ///
    /// # Panics
    /// Panics if `ranges` is empty or contains overlapping entries.
    pub fn build(mem: &mut DeviceMemory, ranges: &[ResolvedRange]) -> Self {
        assert!(!ranges.is_empty(), "segment tree over zero ranges");
        let mut sorted = ranges.to_vec();
        sorted.sort_by_key(|r| r.lo);
        for w in sorted.windows(2) {
            assert!(
                w[0].hi <= w[1].lo,
                "overlapping ranges {:?} / {:?}",
                w[0],
                w[1]
            );
        }

        let leaf_count = sorted.len().next_power_of_two();
        let depth = leaf_count.trailing_zeros();
        let internal_count = leaf_count - 1;

        // Coverage of conceptual heap node i (leaves are nodes
        // internal_count..internal_count+leaf_count).
        let total = internal_count + leaf_count;
        let mut cover = vec![(u64::MAX, u64::MAX); total]; // empty
        let mut host_leaves = vec![0u64; leaf_count];
        for (k, r) in sorted.iter().enumerate() {
            cover[internal_count + k] = (r.lo, r.hi);
            host_leaves[k] = r.vtable.raw();
        }
        let mut host_nodes = vec![[u64::MAX, u64::MAX, u64::MAX, u64::MAX]; internal_count];
        for i in (0..internal_count).rev() {
            let l = cover[2 * i + 1];
            let r = cover[2 * i + 2];
            host_nodes[i] = [l.0, l.1, r.0, r.1];
            let lo = l.0.min(r.0);
            let hi = if l.1 == u64::MAX && r.1 == u64::MAX {
                u64::MAX
            } else {
                let lh = if l.1 == u64::MAX { 0 } else { l.1 };
                let rh = if r.1 == u64::MAX { 0 } else { r.1 };
                lh.max(rh)
            };
            cover[i] = (lo, hi);
        }

        let node_base = mem.reserve((internal_count.max(1) as u64) * Self::NODE_BYTES, 256);
        let leaf_base = mem.reserve(leaf_count as u64 * Self::LEAF_BYTES, 256);
        for (i, n) in host_nodes.iter().enumerate() {
            let a = node_base.offset(i as u64 * Self::NODE_BYTES);
            for (j, v) in n.iter().enumerate() {
                mem.write_u64(a.offset(j as u64 * 8), *v)
                    .expect("tree node write");
            }
        }
        for (k, v) in host_leaves.iter().enumerate() {
            mem.write_u64(leaf_base.offset(k as u64 * Self::LEAF_BYTES), *v)
                .expect("tree leaf write");
        }

        SegmentTree {
            node_base,
            leaf_base,
            internal_count,
            depth,
            host_ranges: sorted,
            host_nodes,
            host_leaves,
            walks: Cell::new(0),
            walk_lanes: Cell::new(0),
        }
    }

    /// Dispatches that walked the tree since construction. Every walk
    /// visits exactly [`depth`](Self::depth) levels (the tree is padded
    /// to a power of two), so per-dispatch walk-depth and
    /// comparison-count histograms are fully determined by this counter
    /// and the depth.
    pub fn walks(&self) -> u64 {
        self.walks.get()
    }

    /// Total participating lanes across all walks.
    pub fn walk_lanes(&self) -> u64 {
        self.walk_lanes.get()
    }

    /// Number of real (non-padding) ranges.
    pub fn num_ranges(&self) -> usize {
        self.host_ranges.len()
    }

    /// Walk depth (`ceil(log2(K))` for `K` padded leaves).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Host-side lookup (reference implementation for validation).
    pub fn lookup(&self, addr: VirtAddr) -> Option<VirtAddr> {
        let a = addr.canonical();
        let mut node = 0usize;
        if self.internal_count == 0 {
            let r = self.host_ranges.first()?;
            return (a >= r.lo && a < r.hi).then_some(r.vtable);
        }
        loop {
            let [llo, lhi, rlo, rhi] = self.host_nodes[node];
            let next = if a >= llo && a < lhi {
                2 * node + 1
            } else if a >= rlo && a < rhi {
                2 * node + 2
            } else {
                return None;
            };
            if next >= self.internal_count {
                let leaf = next - self.internal_count;
                let v = self.host_leaves[leaf];
                return (v != 0).then_some(VirtAddr::new(v));
            }
            node = next;
        }
    }

    /// Emits the device-side walk for all active lanes with a `Some`
    /// address, returning each lane's vTable address.
    ///
    /// Per level this issues the node fetch (one vectorized access to
    /// the 32-byte node — a single sector), the two range compares, and
    /// the loop branch; then the leaf fetch. Lanes walking
    /// different paths still touch the same small arrays, which is why
    /// these loads coalesce and hit (§5, Fig. 9).
    ///
    /// # Panics
    /// Panics if any participating lane's address is outside every range
    /// (the NULL return of Algorithm 1 — a broken allocator/tree).
    pub fn emit_walk(&self, ctx: &mut WarpCtx<'_>, objs: &Lanes<VirtAddr>) -> Lanes<VirtAddr> {
        let mut node: [usize; WARP_SIZE] = [0; WARP_SIZE];
        let participating: Vec<usize> = (0..WARP_SIZE)
            .filter(|&i| ctx.is_active(i) && objs[i].is_some())
            .collect();
        if !participating.is_empty() {
            self.walks.set(self.walks.get() + 1);
            self.walk_lanes
                .set(self.walk_lanes.get() + participating.len() as u64);
        }

        if self.internal_count > 0 {
            for _level in 0..self.depth {
                // Node fetch: one vectorized access covering the 32-byte
                // node (a single sector transaction).
                let node_addrs = lanes_from_fn(|i| {
                    (ctx.is_active(i) && objs[i].is_some())
                        .then(|| self.node_base.offset(node[i] as u64 * Self::NODE_BYTES))
                });
                ctx.ld(AccessTag::RangeWalk, 8, &node_addrs);
                ctx.alu(4); // next-node address math + two in-range tests
                ctx.branch(); // loop/descend branch
                for &i in &participating {
                    let a = objs[i].expect("participating lane").canonical();
                    let [llo, lhi, rlo, rhi] = self.host_nodes[node[i]];
                    node[i] = if a >= llo && a < lhi {
                        2 * node[i] + 1
                    } else if a >= rlo && a < rhi {
                        2 * node[i] + 2
                    } else {
                        panic!("address {a:#x} outside every range (NULL lookup)")
                    };
                }
            }
        }

        // Leaf fetch: the range's vTable pointer.
        let leaf_addrs = lanes_from_fn(|i| {
            (ctx.is_active(i) && objs[i].is_some()).then(|| {
                let leaf = if self.internal_count == 0 {
                    0
                } else {
                    node[i] - self.internal_count
                };
                self.leaf_base.offset(leaf as u64 * Self::LEAF_BYTES)
            })
        });
        let vt = ctx.ld(AccessTag::RangeWalk, 8, &leaf_addrs);
        lanes_from_fn(|i| {
            vt[i].map(|v| {
                assert_ne!(v, 0, "padding leaf reached (NULL lookup)");
                VirtAddr::new(v)
            })
        })
    }
}

/// Linear-scan alternative to [`SegmentTree`]: tests the object address
/// against each range in turn. `O(K)` — the ablation showing why the
/// paper organizes ranges as a tree.
#[derive(Clone, Debug)]
pub struct LinearRangeTable {
    entry_base: VirtAddr,
    host_ranges: Vec<ResolvedRange>,
    /// Dispatches that scanned the table (≥ 1 participating lane).
    scans: Cell<u64>,
    /// Lanes that participated across all scans.
    scan_lanes: Cell<u64>,
    /// Histogram of entries examined per scan — data-dependent, unlike
    /// the tree's constant depth (the `O(K)` the ablation measures).
    entries_scanned: Cell<LogHist>,
}

impl LinearRangeTable {
    /// Bytes per table entry (lo, hi, vtable, pad).
    pub const ENTRY_BYTES: u64 = 32;

    /// Materializes the table over `ranges`.
    ///
    /// # Panics
    /// Panics if `ranges` is empty.
    pub fn build(mem: &mut DeviceMemory, ranges: &[ResolvedRange]) -> Self {
        assert!(!ranges.is_empty(), "linear table over zero ranges");
        let mut sorted = ranges.to_vec();
        sorted.sort_by_key(|r| r.lo);
        let entry_base = mem.reserve(sorted.len() as u64 * Self::ENTRY_BYTES, 256);
        for (k, r) in sorted.iter().enumerate() {
            let a = entry_base.offset(k as u64 * Self::ENTRY_BYTES);
            mem.write_u64(a, r.lo).expect("entry write");
            mem.write_u64(a.offset(8), r.hi).expect("entry write");
            mem.write_u64(a.offset(16), r.vtable.raw())
                .expect("entry write");
        }
        LinearRangeTable {
            entry_base,
            host_ranges: sorted,
            scans: Cell::new(0),
            scan_lanes: Cell::new(0),
            entries_scanned: Cell::new(LogHist::new()),
        }
    }

    /// Number of table entries.
    pub fn num_ranges(&self) -> usize {
        self.host_ranges.len()
    }

    /// Dispatches that scanned the table since construction.
    pub fn scans(&self) -> u64 {
        self.scans.get()
    }

    /// Total participating lanes across all scans.
    pub fn scan_lanes(&self) -> u64 {
        self.scan_lanes.get()
    }

    /// Histogram of entries examined per scan (early exit once every
    /// lane matched).
    pub fn entries_scanned(&self) -> LogHist {
        self.entries_scanned.get()
    }

    /// Host-side lookup.
    pub fn lookup(&self, addr: VirtAddr) -> Option<VirtAddr> {
        let a = addr.canonical();
        self.host_ranges
            .iter()
            .find(|r| a >= r.lo && a < r.hi)
            .map(|r| r.vtable)
    }

    /// Emits the device-side scan; entries are tested in order until
    /// every lane has matched.
    ///
    /// # Panics
    /// Panics if a participating lane matches no range.
    pub fn emit_scan(&self, ctx: &mut WarpCtx<'_>, objs: &Lanes<VirtAddr>) -> Lanes<VirtAddr> {
        let mut out = gvf_sim::lanes_none();
        let mut remaining: u32 = 0;
        for i in 0..WARP_SIZE {
            if ctx.is_active(i) && objs[i].is_some() {
                remaining |= 1 << i;
            }
        }
        if remaining != 0 {
            self.scans.set(self.scans.get() + 1);
            self.scan_lanes
                .set(self.scan_lanes.get() + remaining.count_ones() as u64);
        }
        let mut examined: u64 = 0;
        for (k, r) in self.host_ranges.iter().enumerate() {
            if remaining == 0 {
                break;
            }
            examined += 1;
            let a = self.entry_base.offset(k as u64 * Self::ENTRY_BYTES);
            let addrs = lanes_from_fn(|i| ((remaining >> i) & 1 == 1).then_some(a));
            ctx.ld(AccessTag::RangeWalk, 8, &addrs);
            ctx.ld(
                AccessTag::RangeWalk,
                8,
                &lanes_from_fn(|i| addrs[i].map(|x| x.offset(8))),
            );
            ctx.alu(2);
            ctx.branch();
            for i in 0..WARP_SIZE {
                if (remaining >> i) & 1 == 0 {
                    continue;
                }
                let oa = objs[i].expect("participating lane").canonical();
                if oa >= r.lo && oa < r.hi {
                    out[i] = Some(r.vtable);
                    remaining &= !(1 << i);
                }
            }
        }
        assert_eq!(remaining, 0, "lanes left unmatched by range scan");
        if examined > 0 {
            let mut h = self.entries_scanned.get();
            h.record(examined);
            self.entries_scanned.set(h);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gvf_sim::run_kernel;

    fn ranges() -> Vec<ResolvedRange> {
        vec![
            ResolvedRange {
                lo: 0x1000,
                hi: 0x2000,
                vtable: VirtAddr::new(0xa0),
            },
            ResolvedRange {
                lo: 0x3000,
                hi: 0x3800,
                vtable: VirtAddr::new(0xb0),
            },
            ResolvedRange {
                lo: 0x5000,
                hi: 0x9000,
                vtable: VirtAddr::new(0xc0),
            },
        ]
    }

    #[test]
    fn host_lookup_matches_ranges() {
        let mut mem = DeviceMemory::with_capacity(1 << 20);
        let t = SegmentTree::build(&mut mem, &ranges());
        assert_eq!(t.lookup(VirtAddr::new(0x1000)), Some(VirtAddr::new(0xa0)));
        assert_eq!(t.lookup(VirtAddr::new(0x1fff)), Some(VirtAddr::new(0xa0)));
        assert_eq!(t.lookup(VirtAddr::new(0x3400)), Some(VirtAddr::new(0xb0)));
        assert_eq!(t.lookup(VirtAddr::new(0x8fff)), Some(VirtAddr::new(0xc0)));
        assert_eq!(t.lookup(VirtAddr::new(0x2800)), None); // gap
        assert_eq!(t.lookup(VirtAddr::new(0x9000)), None); // one past end
    }

    #[test]
    fn single_range_tree() {
        let mut mem = DeviceMemory::with_capacity(1 << 20);
        let only = vec![ResolvedRange {
            lo: 0x100,
            hi: 0x200,
            vtable: VirtAddr::new(0x42),
        }];
        let t = SegmentTree::build(&mut mem, &only);
        assert_eq!(t.depth(), 0);
        assert_eq!(t.lookup(VirtAddr::new(0x150)), Some(VirtAddr::new(0x42)));
        assert_eq!(t.lookup(VirtAddr::new(0x250)), None);
    }

    #[test]
    fn depth_is_log2() {
        let mut mem = DeviceMemory::with_capacity(1 << 20);
        let rs: Vec<ResolvedRange> = (0..5)
            .map(|i| ResolvedRange {
                lo: 0x1000 * (i + 1),
                hi: 0x1000 * (i + 1) + 0x800,
                vtable: VirtAddr::new(0x10 + i),
            })
            .collect();
        let t = SegmentTree::build(&mut mem, &rs);
        assert_eq!(t.num_ranges(), 5);
        assert_eq!(t.depth(), 3); // padded to 8 leaves
    }

    #[test]
    fn emitted_walk_matches_host_lookup() {
        let mut mem = DeviceMemory::with_capacity(1 << 20);
        let t = SegmentTree::build(&mut mem, &ranges());
        let probe: Vec<u64> = (0..32)
            .map(|i| [0x1100, 0x3100, 0x5100, 0x1e00][i % 4] + (i as u64) * 8)
            .collect();
        let expected: Vec<Option<VirtAddr>> =
            probe.iter().map(|&a| t.lookup(VirtAddr::new(a))).collect();
        assert!(expected.iter().all(|e| e.is_some()));
        run_kernel(&mut mem, 32, |w| {
            let objs = lanes_from_fn(|i| Some(VirtAddr::new(probe[i])));
            let got = t.emit_walk(w, &objs);
            for i in 0..32 {
                assert_eq!(got[i], expected[i], "lane {i}");
            }
        });
    }

    #[test]
    fn walk_emits_log_levels_of_loads() {
        let mut mem = DeviceMemory::with_capacity(1 << 20);
        let t = SegmentTree::build(&mut mem, &ranges()); // depth 2
        let k = run_kernel(&mut mem, 32, |w| {
            let objs = lanes_from_fn(|_| Some(VirtAddr::new(0x1100)));
            t.emit_walk(w, &objs);
        });
        // 1 node load per level x 2 levels + 1 leaf load = 3 memory ops.
        assert_eq!(k.warps[0].dyn_instrs_of(gvf_sim::InstrClass::Mem), 3);
    }

    #[test]
    #[should_panic(expected = "NULL lookup")]
    fn walk_panics_on_unowned_address() {
        let mut mem = DeviceMemory::with_capacity(1 << 20);
        let t = SegmentTree::build(&mut mem, &ranges());
        run_kernel(&mut mem, 32, |w| {
            let objs = lanes_from_fn(|_| Some(VirtAddr::new(0x2800)));
            t.emit_walk(w, &objs);
        });
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn overlapping_ranges_rejected() {
        let mut mem = DeviceMemory::with_capacity(1 << 20);
        let bad = vec![
            ResolvedRange {
                lo: 0x1000,
                hi: 0x2000,
                vtable: VirtAddr::new(1),
            },
            ResolvedRange {
                lo: 0x1800,
                hi: 0x2800,
                vtable: VirtAddr::new(2),
            },
        ];
        SegmentTree::build(&mut mem, &bad);
    }

    #[test]
    fn linear_scan_agrees_with_tree() {
        let mut mem = DeviceMemory::with_capacity(1 << 20);
        let t = SegmentTree::build(&mut mem, &ranges());
        let l = LinearRangeTable::build(&mut mem, &ranges());
        for a in [0x1000u64, 0x1abc, 0x3400, 0x37ff, 0x5000, 0x8123] {
            assert_eq!(
                t.lookup(VirtAddr::new(a)),
                l.lookup(VirtAddr::new(a)),
                "{a:#x}"
            );
        }
        run_kernel(&mut mem, 32, |w| {
            let objs = lanes_from_fn(|i| Some(VirtAddr::new(0x5000 + i as u64 * 16)));
            let got = l.emit_scan(w, &objs);
            assert!(got.iter().take(32).all(|v| *v == Some(VirtAddr::new(0xc0))));
        });
    }

    #[test]
    fn walk_and_scan_counters_accumulate() {
        let mut mem = DeviceMemory::with_capacity(1 << 20);
        let t = SegmentTree::build(&mut mem, &ranges());
        let l = LinearRangeTable::build(&mut mem, &ranges());
        assert_eq!((t.walks(), t.walk_lanes()), (0, 0));
        assert_eq!((l.scans(), l.scan_lanes()), (0, 0));
        assert!(l.entries_scanned().is_empty());
        run_kernel(&mut mem, 32, |w| {
            let objs = lanes_from_fn(|i| (i < 7).then_some(VirtAddr::new(0x1100)));
            t.emit_walk(w, &objs);
            t.emit_walk(w, &objs);
            l.emit_scan(w, &objs);
            // 0x5100 lives in the *last* sorted range: full scan.
            let far = lanes_from_fn(|i| (i < 2).then_some(VirtAddr::new(0x5100)));
            l.emit_scan(w, &far);
        });
        assert_eq!(t.walks(), 2);
        assert_eq!(t.walk_lanes(), 14);
        assert_eq!(l.scans(), 2);
        assert_eq!(l.scan_lanes(), 9);
        let h = l.entries_scanned();
        assert_eq!(h.total(), 2);
        // First scan matched in entry 1, second needed all 3 entries.
        assert_eq!(h.counts()[LogHist::bucket_of(1)], 1);
        assert_eq!(h.counts()[LogHist::bucket_of(3)], 1);
    }

    #[test]
    fn tagged_addresses_resolve_canonically() {
        let mut mem = DeviceMemory::with_capacity(1 << 20);
        let t = SegmentTree::build(&mut mem, &ranges());
        let tagged = VirtAddr::new(0x3100).with_tag(99);
        assert_eq!(t.lookup(tagged), Some(VirtAddr::new(0xb0)));
    }
}
