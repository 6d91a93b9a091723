//! Kernel traces: the interface between functional execution and timing.

use crate::instr::{AccessTag, InstrClass, LaneAddrs, MemOp, Op, Space};

/// The instruction stream of a single warp.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WarpTrace {
    ops: Vec<Op>,
    /// Shared arena for [`LaneAddrs::Interned`] spans: one flat buffer
    /// instead of one boxed slice per memory op, so recording a trace
    /// allocates O(log n) times instead of O(ops).
    lane_arena: Vec<u64>,
    /// Dynamic instructions per [`InstrClass`], counted as ops are
    /// recorded (indexed by [`InstrClass::index`]).
    class_instrs: [u64; InstrClass::ALL.len()],
    vfunc_calls: u64,
}

impl WarpTrace {
    /// An empty trace.
    pub fn new() -> Self {
        WarpTrace::default()
    }

    /// Appends an op, fusing consecutive ALU runs.
    pub fn push(&mut self, op: Op) {
        self.class_instrs[op.class().index()] += op.dyn_count();
        if let (Some(Op::Alu(prev)), Op::Alu(n)) = (self.ops.last_mut(), &op) {
            if let Some(sum) = prev.checked_add(*n) {
                *prev = sum;
                return;
            }
        }
        self.ops.push(op);
    }

    /// Appends a memory op whose lane addresses come from `lane_addrs`
    /// (one per mask bit, in mask-bit order), interning them straight
    /// into the warp's lane arena — the allocation-free path the
    /// functional pass records through. Consecutive repeats are interned
    /// once: the coalescer skips an adjacent repeat before it can affect
    /// anything, so the op's sectors are unchanged, and a warp-uniform
    /// load costs one arena slot instead of 32.
    pub fn push_mem(
        &mut self,
        space: Space,
        is_store: bool,
        width: u8,
        mask: u32,
        tag: AccessTag,
        lane_addrs: impl IntoIterator<Item = u64>,
    ) {
        let start = self.lane_arena.len() as u32;
        let mut last = None;
        for a in lane_addrs {
            if last != Some(a) {
                self.lane_arena.push(a);
                last = Some(a);
            }
        }
        let len = self.lane_arena.len() as u32 - start;
        debug_assert!(
            (1..=mask.count_ones()).contains(&len),
            "1..=popcount(mask) addresses per op"
        );
        self.class_instrs[InstrClass::Mem.index()] += 1;
        self.ops.push(Op::Mem(MemOp {
            space,
            is_store,
            width,
            mask,
            addrs: LaneAddrs::Interned { start, len },
            tag,
        }));
    }

    /// Resolves a memory op's dense lane addresses. Interned ops must
    /// belong to this warp trace.
    pub fn lanes<'a>(&'a self, m: &'a MemOp) -> &'a [u64] {
        match &m.addrs {
            LaneAddrs::Owned(b) => b,
            LaneAddrs::Interned { start, len } => {
                &self.lane_arena[*start as usize..(*start + *len) as usize]
            }
        }
    }

    /// Records that one dynamic virtual-function call site executed
    /// (for Table 2's `vFuncPKI`).
    pub fn note_vfunc_call(&mut self) {
        self.vfunc_calls += 1;
    }

    /// Virtual-function calls noted on this warp.
    pub fn vfunc_calls(&self) -> u64 {
        self.vfunc_calls
    }

    /// The ops in program order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Total dynamic instructions (ALU runs expanded).
    pub fn dyn_instrs(&self) -> u64 {
        self.class_instrs.iter().sum()
    }

    /// Dynamic instructions of one class.
    pub fn dyn_instrs_of(&self, class: InstrClass) -> u64 {
        self.class_instrs[class.index()]
    }

    /// `true` when no ops were recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// A whole kernel: one trace per warp, in warp-id order.
#[derive(Clone, Debug, Default)]
pub struct KernelTrace {
    /// Per-warp instruction streams.
    pub warps: Vec<WarpTrace>,
}

impl KernelTrace {
    /// A kernel with no warps.
    pub fn new() -> Self {
        KernelTrace::default()
    }

    /// Total dynamic warp instructions across all warps.
    pub fn dyn_instrs(&self) -> u64 {
        self.warps.iter().map(WarpTrace::dyn_instrs).sum()
    }

    /// Total dynamic virtual-function calls across all warps.
    pub fn vfunc_calls(&self) -> u64 {
        self.warps.iter().map(WarpTrace::vfunc_calls).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{AccessTag, LaneAddrs, MemOp, Space};

    #[test]
    fn alu_fusion() {
        let mut t = WarpTrace::new();
        t.push(Op::Alu(2));
        t.push(Op::Alu(3));
        assert_eq!(t.ops().len(), 1);
        assert_eq!(t.dyn_instrs(), 5);
        t.push(Op::Branch);
        t.push(Op::Alu(1));
        assert_eq!(t.ops().len(), 3);
        assert_eq!(t.dyn_instrs(), 7);
    }

    #[test]
    fn alu_fusion_saturates() {
        let mut t = WarpTrace::new();
        t.push(Op::Alu(u16::MAX));
        t.push(Op::Alu(1));
        assert_eq!(t.ops().len(), 2);
        assert_eq!(t.dyn_instrs(), u16::MAX as u64 + 1);
    }

    #[test]
    fn class_counting() {
        let mut t = WarpTrace::new();
        t.push(Op::Alu(4));
        t.push(Op::Mem(MemOp {
            space: Space::Global,
            is_store: false,
            width: 8,
            mask: 1,
            addrs: vec![0].into(),
            tag: AccessTag::Field,
        }));
        t.push(Op::IndirectCall { target: 0 });
        t.push(Op::Ret);
        assert_eq!(t.dyn_instrs_of(InstrClass::Compute), 4);
        assert_eq!(t.dyn_instrs_of(InstrClass::Mem), 1);
        assert_eq!(t.dyn_instrs_of(InstrClass::Ctrl), 2);
    }

    #[test]
    fn push_mem_interns_into_arena() {
        let mut t = WarpTrace::new();
        t.push_mem(Space::Global, false, 8, 0b101, AccessTag::Field, [128, 256]);
        t.push_mem(Space::Global, true, 4, 0b1, AccessTag::Other, [512]);
        let [Op::Mem(a), Op::Mem(b)] = t.ops() else {
            panic!("expected two mem ops");
        };
        assert!(matches!(a.addrs, LaneAddrs::Interned { start: 0, len: 2 }));
        assert_eq!(t.lanes(a), &[128, 256]);
        assert_eq!(t.lanes(b), &[512]);
        // Consecutive repeats are interned once; the mask keeps the
        // lane count.
        t.push_mem(
            Space::Global,
            false,
            8,
            0b1111,
            AccessTag::Field,
            [64, 64, 72, 64],
        );
        let Op::Mem(c) = &t.ops()[2] else {
            panic!("expected a mem op");
        };
        assert_eq!(t.lanes(c), &[64, 72, 64]);
        assert_eq!(c.lane_count(), 4);
        assert_eq!(t.dyn_instrs_of(InstrClass::Mem), 3);
        // Owned ops resolve through the same accessor.
        let owned = MemOp {
            space: Space::Global,
            is_store: false,
            width: 8,
            mask: 0b11,
            addrs: vec![8, 16].into(),
            tag: AccessTag::Field,
        };
        assert_eq!(t.lanes(&owned), &[8, 16]);
    }

    #[test]
    fn kernel_totals() {
        let mut k = KernelTrace::new();
        let mut w = WarpTrace::new();
        w.push(Op::Alu(10));
        w.note_vfunc_call();
        k.warps.push(w.clone());
        k.warps.push(w);
        assert_eq!(k.dyn_instrs(), 20);
        assert_eq!(k.vfunc_calls(), 2);
    }
}
