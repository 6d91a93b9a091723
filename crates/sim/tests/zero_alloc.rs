//! Steady-state allocation audit for the timing engine.
//!
//! The per-epoch loop (schedulers, coalescing, MSHR bookkeeping, phase
//! B) must not touch the heap: every buffer is either sized at setup or
//! reaches its high-water mark within the first few epochs. The test
//! pins that property with a counting global allocator — a long kernel
//! and a short kernel with the same per-epoch structure must cost the
//! engine *exactly* the same number of allocations, i.e. the marginal
//! allocation cost of an epoch is zero. The `run_all.sh` probe stack
//! (attribution and cycle audit) is held to the same standard per
//! probe event: its tables grow with the trace positions and lines a
//! launch touches, never with the sectors or epochs.

use gvf_sim::{
    recording_probe, AccessTag, Gpu, GpuConfig, KernelTrace, MemOp, ObsReport, Op, ProbeSpec,
    Space, WarpTrace,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Forwards to the system allocator, counting every allocation path
/// that can hand out a new block (alloc, alloc_zeroed, realloc).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The counter is process-wide and tests run on parallel threads, so
/// each measuring test holds this lock.
static SERIAL: Mutex<()> = Mutex::new(());

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

/// A kernel of `reps` identical rounds per warp: loads that hit and
/// miss, a diverged store, constant traffic and ALU work — every hot
/// path the epoch loop has. More rounds means more epochs with the
/// same per-epoch structure.
fn kernel(warps: usize, reps: usize) -> KernelTrace {
    let mk = |wi: usize| {
        let mut w = WarpTrace::new();
        for k in 0..reps {
            w.push(Op::Alu(3));
            let addrs: Vec<u64> = (0..32)
                .map(|l| ((wi * 64 + (k % 7) * 8 + l) as u64) * 32)
                .collect();
            w.push(Op::Mem(MemOp {
                space: Space::Global,
                is_store: false,
                width: 8,
                mask: u32::MAX,
                addrs: addrs.into(),
                tag: AccessTag::VtablePtr,
            }));
            w.push(Op::IndirectCall { target: 0 });
            w.push(Op::Mem(MemOp {
                space: Space::Global,
                is_store: true,
                width: 4,
                mask: u32::MAX,
                addrs: (0..32u64)
                    .map(|l| 0x40_0000 + (wi as u64 * 32 + l) * 4)
                    .collect::<Vec<_>>()
                    .into(),
                tag: AccessTag::Other,
            }));
            w.push(Op::Mem(MemOp {
                space: Space::Const,
                is_store: false,
                width: 8,
                mask: u32::MAX,
                addrs: vec![0x100 + (k as u64 % 4) * 64; 32].into(),
                tag: AccessTag::ConstIndirection,
            }));
        }
        w
    };
    KernelTrace {
        warps: (0..warps).map(mk).collect(),
    }
}

#[test]
fn epoch_loop_is_allocation_free() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let gpu = Gpu::new(GpuConfig::small());
    let short = kernel(40, 8);
    let long = kernel(40, 32);
    // Warm-up: let lazy one-time allocations (rayon-free, but e.g.
    // stdio locks or TLS inits) happen outside the measured windows.
    gpu.execute(&short);
    let a_short = allocs_during(|| {
        gpu.execute(&short);
    });
    let a_long = allocs_during(|| {
        gpu.execute(&long);
    });
    // 4× the epochs, identical per-epoch structure: any marginal
    // allocation per epoch would show up as a_long > a_short.
    assert_eq!(
        a_long, a_short,
        "per-epoch allocation detected: long run cost {a_long} allocations, short run {a_short}"
    );
    // Sanity: the longer kernel really did simulate more cycles.
    let s = gpu.execute(&short);
    let l = gpu.execute(&long);
    assert!(l.cycles > s.cycles);
}

/// `warps` warps of `reps` rounds that all load the same lines at the
/// same trace positions, with indirect calls to a few targets: more
/// warps means more sectors and more epochs, but no new position, line
/// or call target.
fn shared_lines_kernel(warps: usize, reps: usize) -> KernelTrace {
    let mk = |wi: usize| {
        let mut w = WarpTrace::new();
        for k in 0..reps {
            w.push(Op::Alu(3));
            let addrs: Vec<u64> = (0..32)
                .map(|l| ((k % 7) * 64 + l * 3) as u64 * 32)
                .collect();
            w.push(Op::Mem(MemOp {
                space: Space::Global,
                is_store: false,
                width: 8,
                mask: u32::MAX,
                addrs: addrs.into(),
                tag: if k % 2 == 0 {
                    AccessTag::VtablePtr
                } else {
                    AccessTag::Field
                },
            }));
            w.push(Op::IndirectCall {
                target: (wi % 3) as u64,
            });
        }
        w
    };
    KernelTrace {
        warps: (0..warps).map(mk).collect(),
    }
}

#[test]
fn run_all_probe_stack_allocates_per_launch_not_per_event() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let gpu = Gpu::new(GpuConfig::small());
    let spec = ProbeSpec {
        attribution: true,
        cycle_audit: true,
        ..ProbeSpec::OFF
    };
    let run = |k: &KernelTrace| {
        let (stats, probes) = gpu.execute_probed(k, |sm| recording_probe(sm, spec));
        let mut obs = ObsReport::default();
        obs.absorb(0, stats.cycles, probes);
        obs
    };
    let few = shared_lines_kernel(40, 8);
    let many = shared_lines_kernel(160, 8);
    // Warm-up: the first launches size the tables the later ones reuse.
    run(&few);
    run(&many);
    // The engine's own setup grows with the warp count, so the probe
    // stack's share is the probed launch minus the unprobed one.
    let probe_allocs = |k: &KernelTrace| {
        let probed = allocs_during(|| {
            run(k);
        });
        let plain = allocs_during(|| {
            gpu.execute(k);
        });
        probed - plain
    };
    let (a_few, a_many) = (probe_allocs(&few), probe_allocs(&many));
    assert_eq!(
        a_many, a_few,
        "per-event allocation in the probe stack: 4x the sectors and epochs cost {a_many} allocations, 1x {a_few}"
    );
    // Sanity: the larger kernel really fed the probes more events.
    let (f, m) = (run(&few), run(&many));
    let sectors = |o: &ObsReport| {
        let a = o.attribution.as_ref().expect("attribution recorded");
        a.per_pc.values().map(|s| s.transactions).sum::<u64>()
    };
    assert_eq!(sectors(&m), 4 * sectors(&f));
    let (fa, ma) = (f.audit.expect("audit"), m.audit.expect("audit"));
    assert!(ma.active + ma.stalled_known > fa.active + fa.stalled_known);
    assert_eq!(ma.call_sites.len(), fa.call_sites.len());
}
