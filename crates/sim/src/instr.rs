//! Warp-level instruction events consumed by the timing model.

use std::fmt;

/// Memory space of an access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Space {
    /// Global (device) memory, cached in L1/L2.
    Global,
    /// Constant memory, served by the per-SM constant cache (the paper's
    /// per-kernel virtual-function tables live here, §2).
    Const,
}

/// Semantic tag identifying *why* an access happens, used for the
/// Fig. 1b-style latency attribution and Table 1 accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AccessTag {
    /// Operation **A**: load of the object's embedded vTable pointer
    /// (CUDA dispatch) — the diverged, per-object load.
    VtablePtr,
    /// Operation **B**: load of the virtual function pointer from the
    /// vTable (converged per type).
    VfuncPtr,
    /// The per-kernel constant-memory indirection between B and C (§2).
    ConstIndirection,
    /// Concord's load of the type tag embedded in the object.
    TypeTag,
    /// COAL's walk of the virtual range table / segment tree.
    RangeWalk,
    /// Ordinary object member access from workload code.
    Field,
    /// Anything else (workload arrays, outputs, ...).
    Other,
}

impl AccessTag {
    /// All tags, in display order.
    pub const ALL: [AccessTag; 7] = [
        AccessTag::VtablePtr,
        AccessTag::VfuncPtr,
        AccessTag::ConstIndirection,
        AccessTag::TypeTag,
        AccessTag::RangeWalk,
        AccessTag::Field,
        AccessTag::Other,
    ];

    /// Compact index for counter arrays.
    pub const fn index(self) -> usize {
        match self {
            AccessTag::VtablePtr => 0,
            AccessTag::VfuncPtr => 1,
            AccessTag::ConstIndirection => 2,
            AccessTag::TypeTag => 3,
            AccessTag::RangeWalk => 4,
            AccessTag::Field => 5,
            AccessTag::Other => 6,
        }
    }
}

impl fmt::Display for AccessTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AccessTag::VtablePtr => "vtable-ptr (A)",
            AccessTag::VfuncPtr => "vfunc-ptr (B)",
            AccessTag::ConstIndirection => "const-indirection",
            AccessTag::TypeTag => "type-tag",
            AccessTag::RangeWalk => "range-walk",
            AccessTag::Field => "field",
            AccessTag::Other => "other",
        };
        f.write_str(s)
    }
}

/// Sentinel [`Op::IndirectCall`] target for producers that cannot name
/// the callee (hand-built test traces, legacy entry points).
pub const UNKNOWN_CALL_TARGET: u64 = u64::MAX;

/// Instruction class, matching the paper's Fig. 7 breakdown.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InstrClass {
    /// Loads and stores (global + constant).
    Mem,
    /// Arithmetic / logic.
    Compute,
    /// Branches, calls, returns.
    Ctrl,
}

impl InstrClass {
    /// All classes, in [`index`](Self::index) order.
    pub(crate) const ALL: [InstrClass; 3] =
        [InstrClass::Mem, InstrClass::Compute, InstrClass::Ctrl];

    /// Compact index for counter arrays.
    pub(crate) const fn index(self) -> usize {
        match self {
            InstrClass::Mem => 0,
            InstrClass::Compute => 1,
            InstrClass::Ctrl => 2,
        }
    }
}

/// Dense lane addresses of a [`MemOp`].
///
/// Hand-built ops own their address list; ops recorded by the
/// functional pass are interned into the owning warp trace's shared
/// lane arena (one growable buffer per warp), so trace construction
/// performs no per-instruction heap allocation. Either form resolves
/// to a `&[u64]` through `WarpTrace::lanes`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LaneAddrs {
    /// Self-contained address list.
    Owned(Box<[u64]>),
    /// `len` addresses starting at index `start` of the owning warp
    /// trace's lane arena.
    Interned {
        /// First index in the arena.
        start: u32,
        /// Number of addresses.
        len: u32,
    },
}

impl From<Vec<u64>> for LaneAddrs {
    fn from(v: Vec<u64>) -> Self {
        LaneAddrs::Owned(v.into_boxed_slice())
    }
}

impl From<Box<[u64]>> for LaneAddrs {
    fn from(b: Box<[u64]>) -> Self {
        LaneAddrs::Owned(b)
    }
}

/// A memory operation by one warp: up to 32 lane addresses.
///
/// `mask` says which lanes participate. `addrs` holds their addresses
/// in lane order, either one per set mask bit (hand-built ops) or, as
/// the functional pass records them, with consecutive repeats dropped:
/// `1 <= addrs.len() <= mask.count_ones()`. Timing reads only the set
/// of touched sectors, which a consecutive repeat cannot change, and
/// the lane count comes from the mask.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemOp {
    /// Memory space.
    pub space: Space,
    /// `true` for stores.
    pub is_store: bool,
    /// Access width in bytes (1–8).
    pub width: u8,
    /// Active-lane mask.
    pub mask: u32,
    /// Canonical lane byte addresses in lane order (see above).
    pub addrs: LaneAddrs,
    /// Attribution tag.
    pub tag: AccessTag,
}

impl MemOp {
    /// Number of participating lanes.
    pub fn lane_count(&self) -> u32 {
        self.mask.count_ones()
    }
}

/// One warp-level instruction event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// `n` back-to-back arithmetic instructions (fused for trace
    /// compactness; counts as `n` dynamic instructions).
    Alu(u16),
    /// A load or store.
    Mem(MemOp),
    /// A direct branch / predicate evaluation / reconvergence point.
    Branch,
    /// An indirect call through a register (operation **C**). `target`
    /// is the resolved callee identity (the registry's function id) for
    /// call-site type profiling, or [`UNKNOWN_CALL_TARGET`] when the
    /// producer does not know it. Timing never reads the target.
    IndirectCall {
        /// Resolved callee, or [`UNKNOWN_CALL_TARGET`].
        target: u64,
    },
    /// A direct call (Concord's statically-known targets).
    DirectCall,
    /// Return from a (virtual) function body.
    Ret,
}

impl Op {
    /// Instruction class of this op.
    pub fn class(&self) -> InstrClass {
        match self {
            Op::Alu(_) => InstrClass::Compute,
            Op::Mem(_) => InstrClass::Mem,
            Op::Branch | Op::IndirectCall { .. } | Op::DirectCall | Op::Ret => InstrClass::Ctrl,
        }
    }

    /// Number of dynamic instructions this event represents.
    pub fn dyn_count(&self) -> u64 {
        match self {
            Op::Alu(n) => *n as u64,
            _ => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes() {
        assert_eq!(Op::Alu(3).class(), InstrClass::Compute);
        assert_eq!(Op::Branch.class(), InstrClass::Ctrl);
        assert_eq!(
            Op::IndirectCall {
                target: UNKNOWN_CALL_TARGET
            }
            .class(),
            InstrClass::Ctrl
        );
        let m = MemOp {
            space: Space::Global,
            is_store: false,
            width: 8,
            mask: 0b101,
            addrs: vec![0, 64].into(),
            tag: AccessTag::Field,
        };
        assert_eq!(m.lane_count(), 2);
        assert_eq!(Op::Mem(m).class(), InstrClass::Mem);
    }

    #[test]
    fn dyn_counts() {
        assert_eq!(Op::Alu(5).dyn_count(), 5);
        assert_eq!(Op::Ret.dyn_count(), 1);
    }

    #[test]
    fn class_indices_match_all() {
        for (i, c) in InstrClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn tag_indices_unique() {
        let mut seen = std::collections::HashSet::new();
        for t in AccessTag::ALL {
            assert!(seen.insert(t.index()));
        }
    }
}
