//! Functional SIMT execution layer.
//!
//! Workload kernels are written against [`WarpCtx`]: warp-granular code
//! that performs *functional* loads/stores on the simulated
//! [`DeviceMemory`] while simultaneously recording the warp-level
//! instruction trace consumed by the timing engine. Control-flow
//! divergence is expressed with explicit lane masks ([`WarpCtx::with_mask`],
//! [`WarpCtx::branch_if`]), mirroring SIMT reconvergence-stack semantics.

use crate::instr::{AccessTag, Op, Space};
use crate::trace::{KernelTrace, WarpTrace};
use gvf_mem::{DeviceMemory, VirtAddr};

/// Threads per warp (fixed at 32, as on every NVIDIA GPU).
pub const WARP_SIZE: usize = 32;

/// A per-lane value vector: one optional value per warp lane.
/// `None` marks lanes that do not participate in an operation.
pub type Lanes<T> = [Option<T>; WARP_SIZE];

/// Creates a [`Lanes`] array from a function of the lane index.
pub fn lanes_from_fn<T: Copy>(f: impl FnMut(usize) -> Option<T>) -> Lanes<T> {
    std::array::from_fn(f)
}

/// A [`Lanes`] with every lane empty.
pub fn lanes_none<T: Copy>() -> Lanes<T> {
    [None; WARP_SIZE]
}

/// Execution context for one warp inside a kernel.
///
/// Every method that touches memory both performs the access on the
/// backing [`DeviceMemory`] *and* appends the corresponding warp
/// instruction to the trace, so the timing model sees exactly the
/// addresses the functional run used.
#[derive(Debug)]
pub struct WarpCtx<'m> {
    mem: &'m mut DeviceMemory,
    trace: WarpTrace,
    mask: u32,
    warp_id: usize,
}

impl<'m> WarpCtx<'m> {
    /// Creates a context for warp `warp_id` with initial active `mask`.
    pub fn new(mem: &'m mut DeviceMemory, warp_id: usize, mask: u32) -> Self {
        WarpCtx {
            mem,
            trace: WarpTrace::new(),
            warp_id,
            mask,
        }
    }

    /// This warp's index within the kernel launch.
    pub fn warp_id(&self) -> usize {
        self.warp_id
    }

    /// Global thread id of `lane`.
    pub fn thread_id(&self, lane: usize) -> usize {
        self.warp_id * WARP_SIZE + lane
    }

    /// Current active-lane mask.
    pub fn mask(&self) -> u32 {
        self.mask
    }

    /// Whether `lane` is currently active.
    pub fn is_active(&self, lane: usize) -> bool {
        lane < WARP_SIZE && (self.mask >> lane) & 1 == 1
    }

    /// Iterator over currently active lane indices.
    pub fn active_lanes(&self) -> impl Iterator<Item = usize> + '_ {
        let mask = self.mask;
        (0..WARP_SIZE).filter(move |&i| (mask >> i) & 1 == 1)
    }

    /// Direct access to the device memory (for host-side setup code that
    /// should not be traced).
    pub fn mem_untraced(&mut self) -> &mut DeviceMemory {
        self.mem
    }

    /// Finishes the warp, returning its trace.
    pub fn into_trace(self) -> WarpTrace {
        self.trace
    }

    /// Records `n` back-to-back arithmetic instructions.
    pub fn alu(&mut self, n: u16) {
        if self.mask != 0 && n > 0 {
            self.trace.push(Op::Alu(n));
        }
    }

    /// Records a direct branch / predicate op.
    pub fn branch(&mut self) {
        if self.mask != 0 {
            self.trace.push(Op::Branch);
        }
    }

    /// Records an indirect call (operation **C**) with an unknown
    /// callee — use [`indirect_call_to`](Self::indirect_call_to) when
    /// the dispatch target is known, so call-site type profiling can
    /// classify the site.
    pub fn indirect_call(&mut self) {
        self.indirect_call_to(crate::instr::UNKNOWN_CALL_TARGET);
    }

    /// Records an indirect call resolving to `target` (the dispatcher's
    /// function id). The target never affects timing; it only feeds the
    /// cycle-audit's per-call-site observed-type-set counters.
    pub fn indirect_call_to(&mut self, target: u64) {
        if self.mask != 0 {
            self.trace.push(Op::IndirectCall { target });
        }
    }

    /// Records a direct call.
    pub fn direct_call(&mut self) {
        if self.mask != 0 {
            self.trace.push(Op::DirectCall);
        }
    }

    /// Records a return.
    pub fn ret(&mut self) {
        if self.mask != 0 {
            self.trace.push(Op::Ret);
        }
    }

    /// Notes one dynamic virtual-function call site (Table 2 accounting).
    pub fn note_vfunc_call(&mut self) {
        if self.mask != 0 {
            self.trace.note_vfunc_call();
        }
    }

    /// Runs `f` with the active mask narrowed to `mask & self.mask()`
    /// (SIMT nested predication), restoring the previous mask afterwards.
    /// `f` is skipped entirely when the narrowed mask is empty.
    pub fn with_mask<R: Default>(&mut self, mask: u32, f: impl FnOnce(&mut Self) -> R) -> R {
        let narrowed = self.mask & mask;
        if narrowed == 0 {
            return R::default();
        }
        let saved = self.mask;
        self.mask = narrowed;
        let r = f(self);
        self.mask = saved;
        r
    }

    /// SIMT if/else: emits one branch instruction, then runs `then_f`
    /// with the lanes in `pred` and `else_f` with the rest. Either side
    /// is skipped if no lane takes it (branch-not-diverged fast path).
    pub fn branch_if(
        &mut self,
        pred: u32,
        then_f: impl FnOnce(&mut Self),
        else_f: impl FnOnce(&mut Self),
    ) {
        self.branch();
        self.with_mask(pred, then_f);
        self.with_mask(!pred, else_f);
    }

    /// Gathers the active lanes that carry an address and records the
    /// memory op in the trace.
    fn emit_mem(
        &mut self,
        space: Space,
        is_store: bool,
        width: u8,
        tag: AccessTag,
        addrs: &Lanes<VirtAddr>,
    ) -> LaneRuns {
        let mut lanes = LaneRuns {
            n: 0,
            lane: [0; WARP_SIZE],
            addr: [0; WARP_SIZE],
        };
        let mut mask = 0u32;
        let mut active = self.mask;
        while active != 0 {
            let lane = active.trailing_zeros() as usize;
            active &= active - 1;
            if let Some(a) = addrs[lane] {
                mask |= 1 << lane;
                lanes.lane[lanes.n] = lane as u8;
                lanes.addr[lanes.n] = a.raw();
                lanes.n += 1;
            }
        }
        if mask != 0 {
            // The addresses go straight into the trace's lane arena —
            // recording a memory op never heap-allocates.
            self.trace.push_mem(
                space,
                is_store,
                width,
                mask,
                tag,
                lanes.addr[..lanes.n]
                    .iter()
                    .map(|&a| VirtAddr::new(a).canonical()),
            );
        }
        lanes
    }

    /// Per-lane load of `width` (1–8) bytes, zero-extended to `u64`.
    ///
    /// Inactive lanes and `None` addresses yield `None`.
    ///
    /// # Panics
    /// Panics on an MMU fault — the simulated equivalent of a device-side
    /// trap (e.g. dereferencing a TypePointer-tagged address on a strict
    /// MMU).
    pub fn ld(&mut self, tag: AccessTag, width: u8, addrs: &Lanes<VirtAddr>) -> Lanes<u64> {
        self.ld_in(Space::Global, tag, width, addrs)
    }

    /// Like [`ld`](Self::ld) but from constant memory (the per-kernel
    /// virtual-function tables of paper §2 live there).
    pub fn ldc(&mut self, tag: AccessTag, width: u8, addrs: &Lanes<VirtAddr>) -> Lanes<u64> {
        self.ld_in(Space::Const, tag, width, addrs)
    }

    fn ld_in(
        &mut self,
        space: Space,
        tag: AccessTag,
        width: u8,
        addrs: &Lanes<VirtAddr>,
    ) -> Lanes<u64> {
        assert!((1..=8).contains(&width), "load width must be 1..=8 bytes");
        let lanes = self.emit_mem(space, false, width, tag, addrs);
        // Dense values, one per entry of `lanes`: one device call per
        // run, and a uniform run reads once and broadcasts.
        let mut vals = [0u64; WARP_SIZE];
        let mut i = 0;
        while i < lanes.n {
            let (end, uniform) = lanes.run_from(i, width);
            let read_end = if uniform { i + 1 } else { end };
            self.mem
                .read_run(VirtAddr::new(lanes.addr[i]), width, &mut vals[i..read_end])
                .unwrap_or_else(|e| panic!("device trap on load at lane {}: {e}", lanes.lane[i]));
            if uniform {
                let v = vals[i];
                vals[i + 1..end].fill(v);
            }
            i = end;
        }
        let mut out = lanes_none();
        for k in 0..lanes.n {
            out[lanes.lane[k] as usize] = Some(vals[k]);
        }
        if cfg!(debug_assertions) {
            // Oracle: every loaded lane re-read through the byte path.
            for k in 0..lanes.n {
                let mut buf = [0u8; 8];
                self.mem
                    .read_bytes(VirtAddr::new(lanes.addr[k]), &mut buf[..width as usize])
                    .expect("run read succeeded, byte read must too");
                debug_assert_eq!(vals[k], u64::from_le_bytes(buf), "lane {}", lanes.lane[k]);
            }
        }
        out
    }

    /// Per-lane store of the low `width` bytes of each value.
    ///
    /// Lanes that share an address store in lane order, so the last
    /// such lane's value is the one left in memory.
    ///
    /// # Panics
    /// Panics on an MMU fault, like [`ld`](Self::ld).
    pub fn st(&mut self, tag: AccessTag, width: u8, addrs: &Lanes<VirtAddr>, values: &Lanes<u64>) {
        assert!((1..=8).contains(&width), "store width must be 1..=8 bytes");
        let lanes = self.emit_mem(Space::Global, true, width, tag, addrs);
        let mut vals = [0u64; WARP_SIZE];
        for k in 0..lanes.n {
            vals[k] = values[lanes.lane[k] as usize].expect("store value for active lane");
        }
        let mut i = 0;
        while i < lanes.n {
            let (end, uniform) = lanes.run_from(i, width);
            // A uniform run is one write of its last lane's value: the
            // last writer in lane order wins.
            let run = if uniform {
                &vals[end - 1..end]
            } else {
                &vals[i..end]
            };
            self.mem
                .write_run(VirtAddr::new(lanes.addr[i]), width, run)
                .unwrap_or_else(|e| panic!("device trap on store at lane {}: {e}", lanes.lane[i]));
            i = end;
        }
    }

    /// Convenience: 8-byte loads returning pointers.
    ///
    /// # Panics
    /// Panics on an MMU fault.
    pub fn ld_ptr(&mut self, tag: AccessTag, addrs: &Lanes<VirtAddr>) -> Lanes<VirtAddr> {
        let raw = self.ld(tag, 8, addrs);
        lanes_from_fn(|i| raw[i].map(VirtAddr::new))
    }

    /// Convenience: 4-byte loads reinterpreted as `f32`.
    ///
    /// # Panics
    /// Panics on an MMU fault.
    pub fn ld_f32(&mut self, tag: AccessTag, addrs: &Lanes<VirtAddr>) -> Lanes<f32> {
        let raw = self.ld(tag, 4, addrs);
        lanes_from_fn(|i| raw[i].map(|v| f32::from_bits(v as u32)))
    }

    /// Convenience: 4-byte stores of `f32` values.
    ///
    /// # Panics
    /// Panics on an MMU fault.
    pub fn st_f32(&mut self, tag: AccessTag, addrs: &Lanes<VirtAddr>, values: &Lanes<f32>) {
        let raw = lanes_from_fn(|i| values[i].map(|v| v.to_bits() as u64));
        self.st(tag, 4, addrs, &raw);
    }
}

/// The active lanes of one memory op that carry an address, in lane
/// order, with their raw (tagged) addresses.
struct LaneRuns {
    /// Number of such lanes.
    n: usize,
    /// Lane index of each entry.
    lane: [u8; WARP_SIZE],
    /// Raw address of each entry.
    addr: [u64; WARP_SIZE],
}

impl LaneRuns {
    /// The run starting at entry `i`: its end (exclusive) and whether it
    /// is warp-uniform (every entry the same address) rather than
    /// contiguous (each address `width` bytes past the previous one). A
    /// single entry is a contiguous run of one. Equality is on raw
    /// addresses, so a run never mixes tags.
    #[inline]
    fn run_from(&self, i: usize, width: u8) -> (usize, bool) {
        let a = &self.addr[..self.n];
        let mut end = i + 1;
        if end < a.len() && a[end] == a[i] {
            while end < a.len() && a[end] == a[i] {
                end += 1;
            }
            return (end, true);
        }
        while end < a.len() && a[end] == a[end - 1].wrapping_add(width as u64) {
            end += 1;
        }
        (end, false)
    }
}

/// Runs a kernel of `n_threads` threads, executing `body` once per warp,
/// and returns the recorded trace.
///
/// The final partial warp (if `n_threads` is not a multiple of 32) starts
/// with only its valid lanes active, exactly like a guard
/// `if (tid < n) return;` in CUDA.
pub fn run_kernel(
    mem: &mut DeviceMemory,
    n_threads: usize,
    mut body: impl FnMut(&mut WarpCtx<'_>),
) -> KernelTrace {
    let n_warps = n_threads.div_ceil(WARP_SIZE);
    let mut kernel = KernelTrace::new();
    for w in 0..n_warps {
        let remaining = n_threads - w * WARP_SIZE;
        let mask = if remaining >= WARP_SIZE {
            u32::MAX
        } else {
            (1u32 << remaining) - 1
        };
        let mut ctx = WarpCtx::new(mem, w, mask);
        body(&mut ctx);
        kernel.warps.push(ctx.into_trace());
    }
    kernel
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::InstrClass;

    fn mem() -> DeviceMemory {
        DeviceMemory::with_capacity(1 << 20)
    }

    #[test]
    fn partial_warp_mask() {
        let mut m = mem();
        let k = run_kernel(&mut m, 40, |w| {
            if w.warp_id() == 0 {
                assert_eq!(w.mask(), u32::MAX);
            } else {
                assert_eq!(w.mask().count_ones(), 8);
            }
            w.alu(1);
        });
        assert_eq!(k.warps.len(), 2);
    }

    #[test]
    fn load_store_roundtrip_with_trace() {
        let mut m = mem();
        let base = m.reserve(256, 8);
        let mut k = run_kernel(&mut m, 32, |w| {
            let addrs = lanes_from_fn(|i| Some(base.offset(i as u64 * 8)));
            let vals = lanes_from_fn(|i| Some(i as u64 * 3));
            w.st(AccessTag::Other, 8, &addrs, &vals);
            let got = w.ld(AccessTag::Other, 8, &addrs);
            for i in 0..WARP_SIZE {
                assert_eq!(got[i], Some(i as u64 * 3));
            }
        });
        let w = k.warps.pop().unwrap();
        assert_eq!(w.dyn_instrs_of(InstrClass::Mem), 2);
    }

    #[test]
    fn inactive_lanes_do_not_access() {
        let mut m = mem();
        let base = m.reserve(256, 8);
        run_kernel(&mut m, 32, |w| {
            let addrs = lanes_from_fn(|i| Some(base.offset(i as u64 * 8)));
            w.with_mask(0b1, |w| {
                let got = w.ld(AccessTag::Other, 8, &addrs);
                assert!(got[0].is_some());
                assert!(got[1].is_none());
            });
        });
    }

    #[test]
    fn with_mask_restores() {
        let mut m = mem();
        run_kernel(&mut m, 32, |w| {
            assert_eq!(w.mask(), u32::MAX);
            w.with_mask(0xff, |w| {
                assert_eq!(w.mask(), 0xff);
                w.with_mask(0xf0f, |w| assert_eq!(w.mask(), 0x0f));
            });
            assert_eq!(w.mask(), u32::MAX);
        });
    }

    #[test]
    fn empty_mask_skips_closure() {
        let mut m = mem();
        run_kernel(&mut m, 32, |w| {
            let mut ran = false;
            w.with_mask(0, |_| ran = true);
            assert!(!ran);
        });
    }

    #[test]
    fn branch_if_covers_both_sides() {
        let mut m = mem();
        let base = m.reserve(256, 8);
        run_kernel(&mut m, 32, |w| {
            let addrs = lanes_from_fn(|i| Some(base.offset(i as u64 * 8)));
            let pred = 0x0000_ffff;
            w.branch_if(
                pred,
                |w| {
                    let ones = lanes_from_fn(|_| Some(1u64));
                    w.st(AccessTag::Other, 8, &addrs, &ones)
                },
                |w| {
                    let twos = lanes_from_fn(|_| Some(2u64));
                    w.st(AccessTag::Other, 8, &addrs, &twos)
                },
            );
        });
        assert_eq!(m.read_u64(base).unwrap(), 1);
        assert_eq!(m.read_u64(base.offset(31 * 8)).unwrap(), 2);
    }

    #[test]
    fn f32_roundtrip() {
        let mut m = mem();
        let base = m.reserve(128, 4);
        run_kernel(&mut m, 32, |w| {
            let addrs = lanes_from_fn(|i| Some(base.offset(i as u64 * 4)));
            let vals = lanes_from_fn(|i| Some(i as f32 * 0.5));
            w.st_f32(AccessTag::Field, &addrs, &vals);
            let got = w.ld_f32(AccessTag::Field, &addrs);
            assert_eq!(got[7], Some(3.5));
        });
    }

    #[test]
    fn alu_zero_or_masked_is_silent() {
        let mut m = mem();
        let k = run_kernel(&mut m, 32, |w| {
            w.alu(0);
            w.with_mask(0, |w| w.alu(5));
        });
        assert_eq!(k.dyn_instrs(), 0);
    }

    /// Runs `f` and returns its panic message.
    fn trap(f: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("access must trap");
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => p.downcast_ref::<&str>().unwrap_or(&"").to_string(),
        }
    }

    /// A tagged address under a strict MMU traps at the first faulting
    /// lane whether it sits in a uniform run, a contiguous run or a
    /// scattered op, for loads and stores alike; with the tag bits
    /// ignored, the same lanes read through the tag.
    #[test]
    fn strict_mmu_traps_at_first_tagged_lane_in_any_run() {
        use gvf_mem::MmuMode;
        let mut m = mem();
        let base = m.reserve(4096, 4096);
        for i in 0..512 {
            m.write_u64(base.offset(i * 8), 1000 + i).unwrap();
        }
        let at = |i: u64| base.offset(i * 8);
        let cases: [(&str, Lanes<VirtAddr>, usize); 5] = [
            // Lanes 0..13 share one address; lane 13 tags it.
            (
                "uniform",
                lanes_from_fn(|l| Some(if l == 13 { at(3).with_tag(5) } else { at(3) })),
                13,
            ),
            // A whole uniform run of tagged lanes from lane 8.
            (
                "tagged uniform run",
                lanes_from_fn(|l| Some(if l < 8 { at(3) } else { at(9).with_tag(2) })),
                8,
            ),
            // One contiguous run; lane 20 tags its own slot.
            (
                "contiguous",
                lanes_from_fn(|l| {
                    let a = at(l as u64);
                    Some(if l == 20 { a.with_tag(5) } else { a })
                }),
                20,
            ),
            // A tagged contiguous run from lane 4.
            (
                "tagged contiguous run",
                lanes_from_fn(|l| {
                    let a = at(l as u64);
                    Some(if l >= 4 { a.with_tag(7) } else { a })
                }),
                4,
            ),
            // Scattered lanes; lanes 9 and 30 tagged.
            (
                "scattered",
                lanes_from_fn(|l| {
                    let a = at((l as u64 * 37) % 512);
                    Some(if l == 9 || l == 30 { a.with_tag(1) } else { a })
                }),
                9,
            ),
        ];
        for (name, addrs, lane) in &cases {
            let got = trap(|| {
                run_kernel(&mut m, 32, |w| {
                    w.ld(AccessTag::Field, 8, addrs);
                });
            });
            assert!(
                got.starts_with(&format!("device trap on load at lane {lane}:")),
                "{name}: {got}"
            );
            let got = trap(|| {
                run_kernel(&mut m, 32, |w| {
                    w.st(AccessTag::Field, 8, addrs, &lanes_from_fn(|_| Some(0)));
                });
            });
            assert!(
                got.starts_with(&format!("device trap on store at lane {lane}:")),
                "{name}: {got}"
            );
            // With the first faulting lane masked off, the next one traps.
            if *name == "scattered" {
                let got = trap(|| {
                    run_kernel(&mut m, 32, |w| {
                        w.with_mask(!(1 << 9), |w| {
                            w.ld(AccessTag::Field, 8, addrs);
                        });
                    });
                });
                assert!(got.starts_with("device trap on load at lane 30:"), "{got}");
            }
        }
        m.mmu_mut().set_mode(MmuMode::IgnoreTagBits);
        for (name, addrs, _) in &cases {
            let mut got = lanes_none();
            run_kernel(&mut m, 32, |w| got = w.ld(AccessTag::Field, 8, addrs));
            for l in 0..WARP_SIZE {
                let a = addrs[l].unwrap().strip_tag();
                assert_eq!(got[l], Some(m.read_u64(a).unwrap()), "{name} lane {l}");
            }
        }
    }

    #[test]
    fn thread_ids() {
        let mut m = mem();
        run_kernel(&mut m, 96, |w| {
            if w.warp_id() == 2 {
                assert_eq!(w.thread_id(5), 69);
            }
        });
    }
}
