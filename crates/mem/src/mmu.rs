//! The simulated memory management unit.

use crate::addr::{PhysAddr, VirtAddr, PAGE_SHIFT};
use crate::error::{MemFault, MemResult};
use crate::page::PageTable;

/// Slots in the MMU's direct-mapped software TLB (must be a power of
/// two). 64 entries cover 256 KiB of working set — enough that the
/// translations of a warp-wide access almost always hit.
const TLB_SLOTS: usize = 64;

/// Tag-bit policy of the MMU (paper §6.3).
///
/// A stock GPU raises an exception when the unused upper 15 bits of a
/// virtual address are non-zero ([`Strict`](MmuMode::Strict)). TypePointer's
/// proposed hardware change makes the MMU ignore those bits
/// ([`IgnoreTagBits`](MmuMode::IgnoreTagBits)); the paper notes this can be
/// guarded by an enable flag, which is what selecting the mode models.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum MmuMode {
    /// Fault on any non-canonical address — today's hardware.
    #[default]
    Strict,
    /// Mask the tag bits before translation — the TypePointer MMU change.
    IgnoreTagBits,
}

/// The memory management unit: page table + tag policy + demand paging.
#[derive(Debug, Clone)]
pub struct Mmu {
    page_table: PageTable,
    mode: MmuMode,
    demand_paging: bool,
    non_canonical_faults: u64,
    /// Direct-mapped `(vpn, pfn)` lookaside over the page table, keyed
    /// by `vpn % TLB_SLOTS`. A pure software accelerator, not an
    /// architectural model: pages are never unmapped so entries cannot
    /// go stale, and the tag policy is applied before the lookup, so
    /// `non_canonical_faults` and the page table's `faults_served`
    /// advance exactly as without it.
    tlb: Box<[(u64, u64); TLB_SLOTS]>,
}

impl Mmu {
    /// Creates an MMU over `phys_bytes` of simulated DRAM.
    ///
    /// Demand paging is enabled by default, matching CUDA 9+ unified
    /// memory with GPU page-fault support (paper Fig. 2).
    pub fn new(phys_bytes: u64, mode: MmuMode) -> Self {
        Mmu {
            page_table: PageTable::new(phys_bytes),
            mode,
            demand_paging: true,
            non_canonical_faults: 0,
            // u64::MAX can never be a vpn (addresses are 52-bit pages),
            // so fresh slots never false-hit.
            tlb: Box::new([(u64::MAX, 0); TLB_SLOTS]),
        }
    }

    /// Current tag policy.
    pub fn mode(&self) -> MmuMode {
        self.mode
    }

    /// Switches the tag policy (the TypePointer "enable flag").
    pub fn set_mode(&mut self, mode: MmuMode) {
        self.mode = mode;
    }

    /// Enables or disables demand paging.
    pub fn set_demand_paging(&mut self, on: bool) {
        self.demand_paging = on;
    }

    /// Translates `addr`, enforcing the tag policy and serving demand
    /// faults if enabled.
    ///
    /// # Errors
    /// [`MemFault::NonCanonical`] in strict mode with tag bits set;
    /// [`MemFault::Unmapped`] when the page is absent and demand paging is
    /// off; [`MemFault::OutOfMemory`] when no frame is available.
    pub fn translate(&mut self, addr: VirtAddr) -> MemResult<PhysAddr> {
        let canonical = self.canonicalize(addr)?;
        self.translate_canonical(canonical)
    }

    /// Applies the tag policy alone: the canonical address, or (strict
    /// mode, tag bits set) a counted [`MemFault::NonCanonical`].
    ///
    /// # Errors
    /// [`MemFault::NonCanonical`] in strict mode with tag bits set.
    #[inline]
    pub(crate) fn canonicalize(&mut self, addr: VirtAddr) -> MemResult<VirtAddr> {
        match self.mode {
            MmuMode::Strict if !addr.is_canonical() => {
                self.non_canonical_faults += 1;
                Err(MemFault::NonCanonical { addr })
            }
            MmuMode::Strict => Ok(addr),
            MmuMode::IgnoreTagBits => Ok(addr.strip_tag()),
        }
    }

    /// Translates an address that already passed
    /// [`canonicalize`](Self::canonicalize), serving demand faults if
    /// enabled.
    ///
    /// # Errors
    /// [`MemFault::Unmapped`] when the page is absent and demand paging
    /// is off; [`MemFault::OutOfMemory`] when no frame is available.
    pub(crate) fn translate_canonical(&mut self, canonical: VirtAddr) -> MemResult<PhysAddr> {
        debug_assert!(canonical.is_canonical(), "tag policy not applied");
        let vpn = canonical.vpn();
        let slot = vpn as usize & (TLB_SLOTS - 1);
        let (cached_vpn, cached_pfn) = self.tlb[slot];
        if cached_vpn == vpn {
            return Ok(PhysAddr::new(
                (cached_pfn << PAGE_SHIFT) | canonical.page_offset(),
            ));
        }
        let pa = match self.page_table.translate(canonical) {
            Ok(pa) => pa,
            Err(MemFault::Unmapped { .. }) if self.demand_paging => {
                self.page_table.map_page(canonical)?
            }
            Err(e) => return Err(e),
        };
        self.tlb[slot] = (vpn, pa.pfn());
        Ok(pa)
    }

    /// Pre-maps every page overlapping `[base, base + len)`, enforcing
    /// the same tag policy as [`translate`](Self::translate).
    ///
    /// # Errors
    /// [`MemFault::NonCanonical`] in strict mode with tag bits set;
    /// [`MemFault::OutOfMemory`] when no frame is available.
    pub fn map_range(&mut self, base: VirtAddr, len: u64) -> MemResult<()> {
        let base = self.canonicalize(base)?;
        self.page_table.map_range(base, len)
    }

    /// Read access to the underlying page table.
    pub fn page_table(&self) -> &PageTable {
        &self.page_table
    }

    /// Number of non-canonical faults raised so far.
    pub fn non_canonical_faults(&self) -> u64 {
        self.non_canonical_faults
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_mode_faults_on_tag() {
        let mut mmu = Mmu::new(1 << 20, MmuMode::Strict);
        let tagged = VirtAddr::new(0x1000).with_tag(3);
        let err = mmu.translate(tagged).unwrap_err();
        assert!(matches!(err, MemFault::NonCanonical { .. }));
        assert_eq!(mmu.non_canonical_faults(), 1);
    }

    #[test]
    fn strict_map_range_faults_on_tag() {
        let mut mmu = Mmu::new(1 << 20, MmuMode::Strict);
        let tagged = VirtAddr::new(0x1000).with_tag(3);
        let err = mmu.map_range(tagged, 0x1000).unwrap_err();
        assert!(matches!(err, MemFault::NonCanonical { .. }));
        assert_eq!(mmu.non_canonical_faults(), 1);
        // A canonical base still maps.
        assert!(mmu.map_range(VirtAddr::new(0x1000), 0x1000).is_ok());
    }

    #[test]
    fn ignore_mode_map_range_masks_tag() {
        let mut mmu = Mmu::new(1 << 20, MmuMode::IgnoreTagBits);
        mmu.set_demand_paging(false);
        let tagged = VirtAddr::new(0x1000).with_tag(0x7fff);
        mmu.map_range(tagged, 0x1000).unwrap();
        // The mapping landed at the canonical address.
        assert!(mmu.translate(VirtAddr::new(0x1000)).is_ok());
        assert_eq!(mmu.non_canonical_faults(), 0);
    }

    #[test]
    fn ignore_mode_masks_tag() {
        let mut mmu = Mmu::new(1 << 20, MmuMode::IgnoreTagBits);
        let plain = mmu.translate(VirtAddr::new(0x1000)).unwrap();
        let tagged = mmu
            .translate(VirtAddr::new(0x1000).with_tag(0x7fff))
            .unwrap();
        assert_eq!(plain, tagged);
    }

    #[test]
    fn demand_paging_toggles() {
        let mut mmu = Mmu::new(1 << 20, MmuMode::Strict);
        mmu.set_demand_paging(false);
        assert!(matches!(
            mmu.translate(VirtAddr::new(0x2000)),
            Err(MemFault::Unmapped { .. })
        ));
        mmu.set_demand_paging(true);
        assert!(mmu.translate(VirtAddr::new(0x2000)).is_ok());
    }

    #[test]
    fn strict_accepts_canonical() {
        let mut mmu = Mmu::new(1 << 20, MmuMode::Strict);
        assert!(mmu.translate(VirtAddr::new(0x3000)).is_ok());
    }
}
