//! Steady-state allocation audit for the timing engine.
//!
//! The per-epoch loop (schedulers, coalescing, MSHR bookkeeping, phase
//! B) must not touch the heap: every buffer is either sized at setup or
//! reaches its high-water mark within the first few epochs. The test
//! pins that property with a counting global allocator — a long kernel
//! and a short kernel with the same per-epoch structure must cost the
//! engine *exactly* the same number of allocations, i.e. the marginal
//! allocation cost of an epoch is zero.

use gvf_sim::{AccessTag, Gpu, GpuConfig, KernelTrace, MemOp, Op, Space, WarpTrace};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

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
