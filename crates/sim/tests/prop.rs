//! Property tests for the simulator's structural invariants (on the
//! in-repo `gvf-prop` harness; the workspace builds offline).

use gvf_mem::DeviceMemory;
use gvf_prop::{gen, props, Rng};
use gvf_sim::{
    lanes_from_fn, run_kernel, AccessTag, Gpu, GpuConfig, KernelTrace, MemOp, Op, SectoredCache,
    SimPool, Space, Stats, WarpTrace,
};

fn mem_op(addrs: Vec<u64>, tag: AccessTag) -> Op {
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

/// Coalescing: transactions per load are between 1 and the lane count,
/// and equal the number of distinct sectors.
#[test]
fn coalescer_counts_distinct_sectors() {
    props!(48, |rng| {
        let addrs = gen::vec(gen::range_u64(0, 1_000_000), 1..32)(rng);
        let mut distinct: Vec<u64> = addrs.iter().map(|a| a / 32).collect();
        distinct.sort_unstable();
        distinct.dedup();
        let mut w = WarpTrace::new();
        w.push(mem_op(addrs.clone(), AccessTag::Field));
        let s = Gpu::new(GpuConfig::small()).execute(&KernelTrace { warps: vec![w] });
        assert_eq!(s.global_load_transactions, distinct.len() as u64);
        assert!(s.global_load_transactions >= 1);
        assert!(s.global_load_transactions <= addrs.len() as u64);
    });
}

/// Monotonicity: appending work never reduces simulated cycles, and
/// cycles are always positive for non-empty kernels.
#[test]
fn more_work_never_faster() {
    props!(48, |rng| {
        let n_alu = rng.range_u64(1, 200) as u16;
        let extra = rng.range_u64(1, 200) as u16;
        let mk = |n: u16| {
            let mut w = WarpTrace::new();
            w.push(Op::Alu(n));
            Gpu::new(GpuConfig::small())
                .execute(&KernelTrace { warps: vec![w] })
                .cycles
        };
        let a = mk(n_alu);
        let b = mk(n_alu + extra);
        assert!(a > 0);
        assert!(b >= a);
    });
}

/// Instruction accounting: the engine reports exactly the dynamic
/// instructions present in the trace, for any op mix.
#[test]
fn instruction_accounting_exact() {
    props!(48, |rng| {
        let ops = gen::vec(gen::range_usize(0, 5), 1..64)(rng);
        let mut w = WarpTrace::new();
        let mut expect = 0u64;
        for (i, k) in ops.iter().enumerate() {
            match k {
                0 => {
                    w.push(Op::Alu(3));
                    expect += 3;
                }
                1 => {
                    w.push(Op::Branch);
                    expect += 1;
                }
                2 => {
                    w.push(mem_op(vec![i as u64 * 64], AccessTag::Other));
                    expect += 1;
                }
                3 => {
                    w.push(Op::IndirectCall { target: 0 });
                    expect += 1;
                }
                _ => {
                    w.push(Op::Ret);
                    expect += 1;
                }
            }
        }
        let s = Gpu::new(GpuConfig::small()).execute(&KernelTrace {
            warps: vec![w.clone()],
        });
        assert_eq!(s.total_instrs(), expect);
        assert_eq!(s.total_instrs(), w.dyn_instrs());
    });
}

/// The cache never reports more hits than accesses, regardless of the
/// access stream.
#[test]
fn cache_hits_bounded() {
    props!(48, |rng| {
        let stream = gen::vec(gen::range_u64(0, 4096), 1..512)(rng);
        let mut c = SectoredCache::new(1024, 2, 128, 32);
        for a in stream {
            c.access(a);
        }
        assert!(c.hits() + c.misses() > 0);
        assert!(c.hit_rate() <= 1.0);
        // Re-touching the same address immediately must hit.
        c.access(12345);
        let h = c.hits();
        c.access(12345);
        assert_eq!(c.hits(), h + 1);
    });
}

/// An arbitrary counter set, every field populated.
fn arb_stats(rng: &mut Rng) -> Stats {
    let mut s = Stats::new();
    s.cycles = rng.range_u64(0, 1 << 40);
    s.instrs_mem = rng.next_u64() >> 20;
    s.instrs_compute = rng.next_u64() >> 20;
    s.instrs_ctrl = rng.next_u64() >> 20;
    s.global_load_transactions = rng.next_u64() >> 20;
    s.global_store_transactions = rng.next_u64() >> 20;
    s.l1_accesses = rng.next_u64() >> 20;
    s.l1_hits = rng.next_u64() >> 20;
    s.l2_accesses = rng.next_u64() >> 20;
    s.l2_hits = rng.next_u64() >> 20;
    s.dram_accesses = rng.next_u64() >> 20;
    s.const_accesses = rng.next_u64() >> 20;
    s.const_hits = rng.next_u64() >> 20;
    for slot in s.stall_by_tag.iter_mut() {
        *slot = rng.next_u64() >> 20;
    }
    for slot in s.load_transactions_by_tag.iter_mut() {
        *slot = rng.next_u64() >> 20;
    }
    s.warps = rng.range_u64(0, 1 << 20);
    s.vfunc_calls = rng.next_u64() >> 20;
    s
}

/// `Stats::merged` is order-independent and associative — the property
/// the deterministic parallel merge rests on.
#[test]
fn stats_merge_order_independent() {
    props!(48, |rng| {
        let parts: Vec<Stats> = gen::vec(arb_stats, 1..12)(rng);
        let merged = Stats::merged(&parts);
        let mut reversed: Vec<Stats> = parts.clone();
        reversed.reverse();
        assert_eq!(merged, Stats::merged(&reversed));
        // Associativity: fold a random split pairwise.
        let cut = rng.range_usize(0, parts.len());
        let left = Stats::merged(&parts[..cut]);
        let right = Stats::merged(&parts[cut..]);
        assert_eq!(merged, Stats::merged([&left, &right]));
        // Merging matches sequential AddAssign accumulation.
        let mut acc = Stats::new();
        for p in &parts {
            acc += p;
        }
        assert_eq!(merged, acc);
    });
}

/// Merging with zeroed counters is the identity, and per-field totals
/// are exact sums.
#[test]
fn stats_merge_identity_and_sums() {
    props!(48, |rng| {
        let parts: Vec<Stats> = gen::vec(arb_stats, 1..8)(rng);
        let merged = Stats::merged(&parts);
        let mut with_zero = parts.clone();
        with_zero.push(Stats::new());
        assert_eq!(merged, Stats::merged(&with_zero));
        let total: u64 = parts.iter().map(|p| p.cycles).sum();
        assert_eq!(merged.cycles, total);
        let l1: u64 = parts.iter().map(|p| p.l1_hits).sum();
        assert_eq!(merged.l1_hits, l1);
    });
}

/// A `SimPool` sweep merges to the same totals for any job count.
#[test]
fn pool_sweep_merge_deterministic() {
    props!(8, |rng| {
        let seeds = gen::vec(gen::any_u64(), 2..6)(rng);
        let sweep = |jobs: usize| -> Stats {
            let results = SimPool::new(jobs).run(&seeds, |&seed| {
                let mut w = WarpTrace::new();
                let addrs: Vec<u64> = (0..32).map(|l| (seed % 4096) * 64 + l * 40).collect();
                w.push(mem_op(addrs, AccessTag::VtablePtr));
                w.push(Op::Alu((seed % 7) as u16 + 1));
                Gpu::new(GpuConfig::small()).execute(&KernelTrace { warps: vec![w] })
            });
            Stats::merged(&results)
        };
        assert_eq!(sweep(1), sweep(4));
    });
}

/// Functional layer: masked stores only write active lanes, whatever
/// the mask.
#[test]
fn masked_stores_respect_mask() {
    props!(48, |rng| {
        let mask = rng.range_u64(1, u32::MAX as u64 + 1) as u32;
        let mut mem = DeviceMemory::with_capacity(1 << 20);
        let base = mem.reserve(256, 8);
        run_kernel(&mut mem, 32, |w| {
            let addrs = lanes_from_fn(|i| Some(base.offset(i as u64 * 8)));
            let vals = lanes_from_fn(|_| Some(7u64));
            w.with_mask(mask, |w| w.st(AccessTag::Other, 8, &addrs, &vals));
        });
        for i in 0..32 {
            let v = mem.read_u64(base.offset(i as u64 * 8)).unwrap();
            let expect = if (mask >> i) & 1 == 1 { 7 } else { 0 };
            assert_eq!(v, expect, "lane {i}");
        }
    });
}

/// Generates a random multi-warp kernel mixing ALU, control, dispatch
/// and tagged memory ops (loads, stores, constant-space walks).
fn arb_kernel(rng: &mut Rng) -> KernelTrace {
    let n_warps = rng.range_usize(1, 20);
    let mut warps = Vec::with_capacity(n_warps);
    for _ in 0..n_warps {
        let mut w = WarpTrace::new();
        for _ in 0..rng.range_usize(1, 20) {
            match rng.range_usize(0, 6) {
                0 => w.push(Op::Alu(rng.range_u64(1, 8) as u16)),
                1 => w.push(Op::Branch),
                2 => w.push(Op::IndirectCall {
                    target: rng.range_u64(0, 6),
                }),
                3 => {
                    let tag = AccessTag::ALL[rng.range_usize(0, AccessTag::ALL.len())];
                    let addrs = gen::vec(gen::range_u64(0, 1 << 16), 1..32)(rng);
                    w.push(mem_op(addrs, tag));
                }
                4 => {
                    let addrs = gen::vec(gen::range_u64(0, 1 << 16), 1..32)(rng);
                    let mask = (1u32 << addrs.len().min(31)) - 1;
                    w.push(Op::Mem(MemOp {
                        space: Space::Global,
                        is_store: true,
                        width: 8,
                        mask: mask.max(1),
                        addrs: addrs.into(),
                        tag: AccessTag::Field,
                    }));
                }
                _ => {
                    let addrs = gen::vec(gen::range_u64(0, 4096), 1..32)(rng);
                    let mask = (1u32 << addrs.len().min(31)) - 1;
                    w.push(Op::Mem(MemOp {
                        space: Space::Const,
                        is_store: false,
                        width: 8,
                        mask: mask.max(1),
                        addrs: addrs.into(),
                        tag: AccessTag::VfuncPtr,
                    }));
                }
            }
        }
        warps.push(w);
    }
    KernelTrace { warps }
}

/// Generates a kernel that floods the MSHR file: every global load
/// touches 32 distinct lines spread over 4 MiB, so it mostly misses
/// L1 with a full warp of sectors, and chained tags keep operand
/// deferrals in the mix.
fn arb_mshr_flood(rng: &mut Rng) -> KernelTrace {
    const TAGS: [AccessTag; 4] = [
        AccessTag::VtablePtr,
        AccessTag::VfuncPtr,
        AccessTag::RangeWalk,
        AccessTag::Field,
    ];
    let n_warps = rng.range_usize(4, 24);
    let mut warps = Vec::with_capacity(n_warps);
    for _ in 0..n_warps {
        let mut w = WarpTrace::new();
        for _ in 0..rng.range_usize(2, 12) {
            match rng.range_usize(0, 6) {
                0 => w.push(Op::Alu(rng.range_u64(1, 4) as u16)),
                1 => w.push(Op::IndirectCall { target: 0 }),
                _ => {
                    let base = rng.range_u64(0, 1 << 22) & !127;
                    let stride = 128 * rng.range_u64(1, 256);
                    let addrs = (0..32).map(|l| base + l * stride).collect();
                    w.push(mem_op(addrs, TAGS[rng.range_usize(0, TAGS.len())]));
                }
            }
        }
        warps.push(w);
    }
    KernelTrace { warps }
}

/// The scoreboard's MSHR fill heap, settled-warp re-checks and the
/// MSHR admission fast path under sustained back-pressure, with MSHR
/// files below, just above and well above a warp of misses. Debug
/// builds re-derive every load's deferral target with full scans inside
/// the engine; here fast-forward must also match plain epoch ticking.
#[test]
fn mshr_saturating_kernels_match_tick_reference() {
    props!(8, |rng| {
        let kernel = arb_mshr_flood(rng);
        for mshr_per_sm in [16, 33, 48, 64] {
            let mut cfg = GpuConfig::small();
            cfg.mshr_per_sm = mshr_per_sm;
            let tick = Gpu::new(cfg.clone())
                .with_fast_forward(false)
                .execute(&kernel);
            let ff = Gpu::new(cfg).execute(&kernel);
            assert_eq!(ff, tick, "mshr_per_sm {mshr_per_sm}: fast-forward diverged");
        }
    });
}

/// Attribution histograms merge associatively and commutatively with
/// exact totals — the algebra the thread-count-independent merged
/// report rests on.
#[test]
fn log_hist_merge_associative_commutative() {
    use gvf_sim::LogHist;
    props!(48, |rng| {
        let mk = |rng: &mut Rng| {
            let mut h = LogHist::new();
            for _ in 0..rng.range_usize(0, 20) {
                h.record(rng.next_u64() >> rng.range_u64(0, 64));
            }
            h
        };
        let (a, b, c) = (mk(rng), mk(rng), mk(rng));
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba, "merge is commutative");
        let mut ab_c = ab;
        ab_c.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut a_bc = a;
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "merge is associative");
        assert_eq!(ab_c.total(), a.total() + b.total() + c.total());
    });
}

/// Attribution inherits the engine's determinism contract: on arbitrary
/// kernels, probing never perturbs `Stats`, the merged
/// [`AttribReport`] is identical for any merge order, and the
/// attributed per-tag transaction totals reconcile exactly with the
/// `Stats` load-transaction counters (the profiler's hard cross-check
/// invariant).
#[test]
fn attribution_reconciles_in_any_merge_order() {
    use gvf_sim::{AttribReport, AttributionProbe};
    props!(12, |rng| {
        let kernel = arb_kernel(rng);
        let cfg = GpuConfig::small();
        let plain = Gpu::new(cfg.clone()).execute(&kernel);
        let (stats, probes) =
            Gpu::new(cfg.clone()).execute_probed(&kernel, |_| AttributionProbe::new());
        assert_eq!(stats, plain, "attribution probe perturbed Stats");
        let mut reports: Vec<AttribReport> = probes
            .into_iter()
            .map(AttributionProbe::into_report)
            .collect();
        let mut forward = AttribReport::default();
        for r in &reports {
            forward.merge(r);
        }
        for tag in AccessTag::ALL {
            assert_eq!(
                forward.transactions_by_tag(tag),
                plain.load_transactions_by_tag[tag.index()],
                "attribution does not reconcile for {tag:?}"
            );
        }
        // Merge in reverse SM order: commutativity must make the
        // whole-GPU report insensitive to it.
        reports.reverse();
        let mut backward = AttribReport::default();
        for r in &reports {
            backward.merge(r);
        }
        assert_eq!(backward, forward, "attribution depends on merge order");
    });
}

/// Merged cycle audit of one probed run; asserts the audit probe left
/// `Stats` untouched.
fn audit_of(gpu: &Gpu, kernel: &KernelTrace, plain: &Stats) -> gvf_sim::CycleAuditReport {
    use gvf_sim::{CycleAuditProbe, CycleAuditReport};
    let (stats, probes) = gpu.execute_probed(kernel, |_| CycleAuditProbe::new());
    assert_eq!(&stats, plain, "audit probe perturbed Stats");
    let mut report = CycleAuditReport {
        sms: probes.len() as u64,
        audited_cycles: stats.cycles,
        ..CycleAuditReport::default()
    };
    for p in probes {
        p.finalize_into(stats.cycles, &mut report);
    }
    report
}

/// Cycle-audit invariants: (1) the audit probe never perturbs `Stats`;
/// (2) the epoch-class accounting covers each SM's timeline exactly —
/// `active + stalledKnown + stalledOther + drained + skipped + tail ==
/// sms × Stats::cycles` — on arbitrary kernels.
#[test]
fn cycle_audit_reconciles() {
    props!(12, |rng| {
        let kernel = arb_kernel(rng);
        let cfg = GpuConfig::small();
        let plain = Gpu::new(cfg.clone()).execute(&kernel);
        let audit = audit_of(&Gpu::new(cfg), &kernel, &plain);
        assert!(
            audit.reconciles(),
            "audit classes {} != {} sms x {} cycles",
            audit.classes_total(),
            audit.sms,
            audit.audited_cycles
        );
        assert_eq!(audit.audited_cycles, plain.cycles);
    });
}

/// Fast-forward in property form: over random programs, the default
/// fast-forwarding engine ≡ plain epoch ticking
/// ([`Gpu::with_fast_forward`]`(false)`, the tick reference). All three
/// determinism-checked artifacts must agree — [`Stats`], the merged
/// attribution report and the merged cycle-audit report. The structs
/// compared here are exactly what the harness serializes, and the
/// serializer is deterministic, so struct equality is artifact
/// byte-equality.
#[test]
fn fast_forward_matches_tick_reference() {
    use gvf_sim::{AttribReport, AttributionProbe, CycleAuditReport};

    fn artifacts(gpu: &Gpu, kernel: &KernelTrace) -> (Stats, AttribReport, CycleAuditReport) {
        let stats = gpu.execute(kernel);
        let (s2, aprobes) = gpu.execute_probed(kernel, |_| AttributionProbe::new());
        assert_eq!(stats, s2, "attribution probe perturbed Stats");
        let mut attrib = AttribReport::default();
        for p in aprobes {
            attrib.merge(p.report());
        }
        let audit = audit_of(gpu, kernel, &stats);
        (stats, attrib, audit)
    }

    props!(8, |rng| {
        let kernel = arb_kernel(rng);
        let cfg = GpuConfig::small();
        let tick = artifacts(&Gpu::new(cfg.clone()).with_fast_forward(false), &kernel);
        let ff = artifacts(&Gpu::new(cfg), &kernel);
        assert_eq!(ff, tick, "fast-forward diverged from the tick reference");
    });
}

/// Observability invariant: probes never perturb the run (`Stats` from
/// a probed execution are bit-identical to the un-probed `NopProbe`
/// path), and the hook stream is *complete* — a [`CountingProbe`]
/// reconstructs every event-derived counter exactly, on arbitrary
/// kernels.
#[test]
fn probe_events_reconstruct_stats() {
    use gvf_sim::CountingProbe;
    props!(12, |rng| {
        let kernel = arb_kernel(rng);
        let gpu = Gpu::new(GpuConfig::small());
        let plain = gpu.execute(&kernel);
        let (s, probes) = gpu.execute_probed(&kernel, |_| CountingProbe::new());
        assert_eq!(s, plain, "probed Stats diverged");
        let mut view = CountingProbe::merged(&probes);
        // The trace-derived trio is carried by no event; copy it over
        // and demand everything else match exactly.
        view.cycles = plain.cycles;
        view.warps = plain.warps;
        view.vfunc_calls = plain.vfunc_calls;
        assert_eq!(view, plain, "event stream incomplete");
    });
}

/// One planned memory op of the functional-path property: its kind,
/// width, active mask and per-lane raw addresses and store values.
struct PlannedOp {
    kind: usize,
    width: u8,
    mask: u32,
    addrs: [Option<u64>; 32],
    values: [u64; 32],
}

/// Lane addresses inside `[base, base + 4 pages)`: the warp is cut into
/// up to four segments, each uniform, contiguous, strided, scattered
/// (with repeats) or contiguous across a page boundary; some lanes carry
/// no address, and with `tagged` some segments carry a random tag.
fn arb_lane_addrs(rng: &mut Rng, base: u64, width: u8, tagged: bool) -> [Option<u64>; 32] {
    use gvf_mem::{VirtAddr, MAX_TAG, PAGE_SIZE};
    let w = width as u64;
    let mut addrs = [None; 32];
    let mut lane = 0;
    while lane < 32 {
        let end = (lane + rng.range_usize(1, 33)).min(32);
        let tag = if tagged && rng.bool(0.5) {
            rng.range_u64(1, MAX_TAG as u64 + 1) as u16
        } else {
            0
        };
        let start = base + rng.range_u64(0, 4 * PAGE_SIZE - 32 * 64 - 8);
        let kind = rng.range_usize(0, 5);
        let stride = w * rng.range_u64(2, 9);
        // Starts at most one segment's worth of values before a page
        // boundary, so the segment's contiguous run crosses it.
        let page = base + PAGE_SIZE * rng.range_u64(1, 4);
        let straddle = page - w * rng.range_u64(1, (end - lane) as u64 + 1) - rng.range_u64(0, w);
        for (k, slot) in addrs[lane..end].iter_mut().enumerate() {
            let k = k as u64;
            let a = match kind {
                0 => start,
                1 => start + k * w,
                2 => start + k * stride,
                3 => base + rng.range_u64(0, 4 * PAGE_SIZE - 8),
                _ => straddle + k * w,
            };
            *slot = Some(VirtAddr::new(a).with_tag(tag).raw());
        }
        // Scattered repeats copy the previous lane's address.
        if kind == 3 {
            for l in lane + 1..end {
                if rng.bool(0.3) {
                    addrs[l] = addrs[l - 1];
                }
            }
        }
        lane = end;
    }
    for slot in addrs.iter_mut() {
        if rng.bool(0.15) {
            *slot = None;
        }
    }
    addrs
}

/// Functional memory path: for any lane pattern (uniform, contiguous,
/// strided, scattered, page-straddling; partial masks, lanes without an
/// address, widths 1/2/4/8, repeated store addresses with different
/// values), `ld`/`st` match per-lane `read_bytes`/`write_bytes` applied
/// in lane order, and the recorded trace — consecutive repeat addresses
/// interned once — times exactly like the same ops hand-built with one
/// address per lane, under fast-forward and plain ticking alike.
#[test]
fn functional_runs_match_per_lane_reference() {
    use gvf_mem::{MmuMode, VirtAddr, PAGE_SIZE};
    use gvf_sim::{Lanes, WARP_SIZE};
    props!(48, |rng| {
        let tagged = rng.bool(0.25);
        let mode = if tagged {
            MmuMode::IgnoreTagBits
        } else {
            MmuMode::Strict
        };
        let mut mem = DeviceMemory::with_capacity(1 << 20);
        let mut reference = DeviceMemory::with_capacity(1 << 20);
        let base = mem.reserve(4 * PAGE_SIZE, PAGE_SIZE);
        assert_eq!(reference.reserve(4 * PAGE_SIZE, PAGE_SIZE), base);
        let fill: Vec<u8> = (0..4 * PAGE_SIZE).map(|_| rng.next_u64() as u8).collect();
        for m in [&mut mem, &mut reference] {
            m.write_bytes(base, &fill).unwrap();
            m.mmu_mut().set_mode(mode);
        }
        let n_warps = rng.range_usize(1, 4);
        let plan: Vec<Vec<PlannedOp>> = (0..n_warps)
            .map(|_| {
                (0..rng.range_usize(2, 7))
                    .map(|_| {
                        let width = *rng.pick(&[1u8, 2, 4, 8]);
                        PlannedOp {
                            kind: rng.range_usize(0, 3),
                            width,
                            mask: if rng.bool(0.5) {
                                u32::MAX
                            } else {
                                rng.next_u32()
                            },
                            addrs: arb_lane_addrs(rng, base.raw(), width, tagged),
                            values: std::array::from_fn(|_| rng.next_u64()),
                        }
                    })
                    .collect()
            })
            .collect();
        let lanes = |op: &PlannedOp| -> Lanes<VirtAddr> {
            std::array::from_fn(|l| op.addrs[l].map(VirtAddr::new))
        };

        let mut loaded: Vec<Lanes<u64>> = Vec::new();
        let recorded = run_kernel(&mut mem, n_warps * WARP_SIZE, |w| {
            for op in &plan[w.warp_id()] {
                let addrs = lanes(op);
                w.with_mask(op.mask, |w| match op.kind {
                    0 => {
                        let vals = std::array::from_fn(|l| Some(op.values[l]));
                        w.st(AccessTag::Field, op.width, &addrs, &vals);
                    }
                    1 => loaded.push(w.ld(AccessTag::Field, op.width, &addrs)),
                    _ => loaded.push(w.ldc(AccessTag::VfuncPtr, op.width, &addrs)),
                });
                w.alu(1);
            }
        });

        // Per-lane reference, in warp, op and lane order.
        let mut expect: Vec<Lanes<u64>> = Vec::new();
        let mut hand = KernelTrace::new();
        for ops in &plan {
            let mut t = WarpTrace::new();
            for op in ops {
                let w = op.width as usize;
                let active: Vec<usize> = (0..WARP_SIZE)
                    .filter(|&l| (op.mask >> l) & 1 == 1 && op.addrs[l].is_some())
                    .collect();
                let at = |l: usize| VirtAddr::new(op.addrs[l].unwrap());
                if op.kind == 0 {
                    for &l in &active {
                        reference
                            .write_bytes(at(l), &op.values[l].to_le_bytes()[..w])
                            .unwrap();
                    }
                } else if op.mask != 0 {
                    let mut got = [None; WARP_SIZE];
                    for &l in &active {
                        let mut buf = [0u8; 8];
                        reference.read_bytes(at(l), &mut buf[..w]).unwrap();
                        got[l] = Some(u64::from_le_bytes(buf));
                    }
                    expect.push(got);
                }
                if !active.is_empty() {
                    t.push(Op::Mem(MemOp {
                        space: if op.kind == 2 {
                            Space::Const
                        } else {
                            Space::Global
                        },
                        is_store: op.kind == 0,
                        width: op.width,
                        mask: active.iter().fold(0, |m, &l| m | 1 << l),
                        addrs: active
                            .iter()
                            .map(|&l| at(l).canonical())
                            .collect::<Vec<_>>()
                            .into(),
                        tag: match op.kind {
                            2 => AccessTag::VfuncPtr,
                            _ => AccessTag::Field,
                        },
                    }));
                }
                if op.mask != 0 {
                    t.push(Op::Alu(1));
                }
            }
            hand.warps.push(t);
        }
        assert_eq!(loaded, expect, "loaded values");
        let mut got = vec![0u8; fill.len()];
        let mut want = vec![0u8; fill.len()];
        mem.read_bytes(base, &mut got).unwrap();
        reference.read_bytes(base, &mut want).unwrap();
        assert!(got == want, "memory after stores");

        // The recorded addresses are the hand-built ones minus
        // consecutive repeats; everything else about each op is equal.
        for (r, h) in recorded.warps.iter().zip(&hand.warps) {
            assert_eq!(r.ops().len(), h.ops().len());
            assert_eq!(r.dyn_instrs(), h.dyn_instrs());
            for (ro, ho) in r.ops().iter().zip(h.ops()) {
                match (ro, ho) {
                    (Op::Mem(rm), Op::Mem(hm)) => {
                        let mut deduped = h.lanes(hm).to_vec();
                        deduped.dedup();
                        assert_eq!(r.lanes(rm), &deduped[..]);
                        assert_eq!(
                            (rm.space, rm.is_store, rm.width, rm.mask, rm.tag),
                            (hm.space, hm.is_store, hm.width, hm.mask, hm.tag)
                        );
                    }
                    _ => assert_eq!(ro, ho),
                }
            }
        }
        for ff in [true, false] {
            let gpu = Gpu::new(GpuConfig::small()).with_fast_forward(ff);
            assert_eq!(
                gpu.execute(&recorded),
                gpu.execute(&hand),
                "fast-forward {ff}: recorded trace times differently"
            );
        }
    });
}
