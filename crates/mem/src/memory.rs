//! Byte-addressable simulated device memory behind the MMU.

use crate::addr::{VirtAddr, PAGE_SIZE};
use crate::error::MemResult;
use crate::mmu::{Mmu, MmuMode};

const FRAME_BYTES: usize = PAGE_SIZE as usize;

/// The CPU–GPU shared memory space: an [`Mmu`] plus physical frames.
///
/// All workload data — object images, vTables, range tables — lives here,
/// so every functional access can also be observed by the timing model.
///
/// ```
/// use gvf_mem::{DeviceMemory, VirtAddr};
/// let mut mem = DeviceMemory::with_capacity(1 << 20);
/// let p = mem.reserve(64, 8);
/// mem.write_u64(p, 0xfeed).unwrap();
/// assert_eq!(mem.read_u64(p).unwrap(), 0xfeed);
/// ```
#[derive(Debug)]
pub struct DeviceMemory {
    mmu: Mmu,
    frames: Vec<Box<[u8; FRAME_BYTES]>>,
    brk: u64,
    /// One-entry `(vpn, pfn)` page memo in front of the MMU, for the
    /// page the last access resolved to. Pages are never unmapped, so
    /// it cannot go stale; the tag policy is applied before it on every
    /// access, so faults and fault counters are unchanged.
    last_page: (u64, usize),
}

impl DeviceMemory {
    /// Default simulated DRAM capacity (4 GiB, the heap limit the paper
    /// sets via `cudaLimitMallocHeapSize`, §7).
    pub const DEFAULT_CAPACITY: u64 = 4 << 30;

    /// Creates a memory with [`DEFAULT_CAPACITY`](Self::DEFAULT_CAPACITY)
    /// and a strict MMU.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Creates a memory with an explicit physical capacity in bytes.
    pub fn with_capacity(phys_bytes: u64) -> Self {
        DeviceMemory {
            mmu: Mmu::new(phys_bytes, MmuMode::Strict),
            frames: Vec::new(),
            // Skip the zero page so that null pointers stay invalid.
            brk: PAGE_SIZE,
            // u64::MAX is never a vpn, so the empty memo never hits.
            last_page: (u64::MAX, 0),
        }
    }

    /// Access to the MMU (for mode switches and counters).
    pub fn mmu(&self) -> &Mmu {
        &self.mmu
    }

    /// Mutable access to the MMU.
    pub fn mmu_mut(&mut self) -> &mut Mmu {
        &mut self.mmu
    }

    /// Reserves `len` bytes of fresh virtual address space aligned to
    /// `align` (power of two) and returns the base address. No pages are
    /// mapped until first touch (demand paging).
    ///
    /// # Panics
    /// Panics if `align` is not a power of two.
    pub fn reserve(&mut self, len: u64, align: u64) -> VirtAddr {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let base = (self.brk + align - 1) & !(align - 1);
        self.brk = base + len.max(1);
        VirtAddr::new(base)
    }

    /// Current top of the reserved virtual address space.
    pub fn brk(&self) -> VirtAddr {
        VirtAddr::new(self.brk)
    }

    /// Resolves `addr` to its frame index and in-page offset: the tag
    /// policy on every call, then the page memo, then the MMU. Frames
    /// are materialised on first resolution.
    #[inline]
    fn locate(&mut self, addr: VirtAddr) -> MemResult<(usize, usize)> {
        let canonical = self.mmu.canonicalize(addr)?;
        let vpn = canonical.vpn();
        if vpn != self.last_page.0 {
            let pfn = self.mmu.translate_canonical(canonical)?.pfn() as usize;
            while self.frames.len() <= pfn {
                self.frames.push(Box::new([0u8; FRAME_BYTES]));
            }
            self.last_page = (vpn, pfn);
        }
        Ok((self.last_page.1, canonical.page_offset() as usize))
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// # Errors
    /// Propagates MMU faults ([`MemFault`](crate::MemFault)).
    pub fn read_bytes(&mut self, addr: VirtAddr, buf: &mut [u8]) -> MemResult<()> {
        let mut done = 0usize;
        while done < buf.len() {
            let (pfn, off) = self.locate(addr.offset(done as u64))?;
            let n = (FRAME_BYTES - off).min(buf.len() - done);
            buf[done..done + n].copy_from_slice(&self.frames[pfn][off..off + n]);
            done += n;
        }
        Ok(())
    }

    /// Writes `buf` starting at `addr`.
    ///
    /// # Errors
    /// Propagates MMU faults.
    pub fn write_bytes(&mut self, addr: VirtAddr, buf: &[u8]) -> MemResult<()> {
        let mut done = 0usize;
        while done < buf.len() {
            let (pfn, off) = self.locate(addr.offset(done as u64))?;
            let n = (FRAME_BYTES - off).min(buf.len() - done);
            self.frames[pfn][off..off + n].copy_from_slice(&buf[done..done + n]);
            done += n;
        }
        Ok(())
    }

    /// Reads `out.len()` consecutive little-endian values of `width`
    /// (1–8) bytes starting at `addr`, zero-extended — one contiguous
    /// run of a warp's lanes. Within one page the values are decoded
    /// straight from the frame after a single translation (a run inside
    /// a page shares its tag bits, so one tag check covers it); a run
    /// that straddles a page takes the byte path, value by value.
    ///
    /// # Errors
    /// Propagates MMU faults.
    ///
    /// # Panics
    /// Panics if `width` is not in `1..=8`.
    pub fn read_run(&mut self, addr: VirtAddr, width: u8, out: &mut [u64]) -> MemResult<()> {
        let w = width as usize;
        let len = out.len() * w;
        if addr.page_offset() as usize + len > FRAME_BYTES {
            for (k, v) in out.iter_mut().enumerate() {
                let mut buf = [0u8; 8];
                self.read_bytes(addr.offset((k * w) as u64), &mut buf[..w])?;
                *v = u64::from_le_bytes(buf);
            }
            return Ok(());
        }
        let (pfn, off) = self.locate(addr)?;
        let bytes = &self.frames[pfn][off..off + len];
        match width {
            1 => decode::<1>(bytes, out),
            2 => decode::<2>(bytes, out),
            3 => decode::<3>(bytes, out),
            4 => decode::<4>(bytes, out),
            5 => decode::<5>(bytes, out),
            6 => decode::<6>(bytes, out),
            7 => decode::<7>(bytes, out),
            8 => decode::<8>(bytes, out),
            _ => panic!("run width must be 1..=8 bytes"),
        }
        Ok(())
    }

    /// Writes the low `width` (1–8) bytes of each of `values`,
    /// little-endian, back to back from `addr` — the store side of
    /// [`read_run`](Self::read_run), with the same page rules.
    ///
    /// # Errors
    /// Propagates MMU faults.
    ///
    /// # Panics
    /// Panics if `width` is not in `1..=8`.
    pub fn write_run(&mut self, addr: VirtAddr, width: u8, values: &[u64]) -> MemResult<()> {
        let w = width as usize;
        let len = values.len() * w;
        if addr.page_offset() as usize + len > FRAME_BYTES {
            for (k, v) in values.iter().enumerate() {
                self.write_bytes(addr.offset((k * w) as u64), &v.to_le_bytes()[..w])?;
            }
            return Ok(());
        }
        let (pfn, off) = self.locate(addr)?;
        let bytes = &mut self.frames[pfn][off..off + len];
        match width {
            1 => encode::<1>(values, bytes),
            2 => encode::<2>(values, bytes),
            3 => encode::<3>(values, bytes),
            4 => encode::<4>(values, bytes),
            5 => encode::<5>(values, bytes),
            6 => encode::<6>(values, bytes),
            7 => encode::<7>(values, bytes),
            8 => encode::<8>(values, bytes),
            _ => panic!("run width must be 1..=8 bytes"),
        }
        Ok(())
    }

    /// Fills `len` bytes at `addr` with `value`.
    ///
    /// # Errors
    /// Propagates MMU faults.
    pub fn fill(&mut self, addr: VirtAddr, len: u64, value: u8) -> MemResult<()> {
        const CHUNK: usize = 4096;
        let chunk = [value; CHUNK];
        let mut done = 0u64;
        while done < len {
            let n = (len - done).min(CHUNK as u64) as usize;
            self.write_bytes(addr.offset(done), &chunk[..n])?;
            done += n as u64;
        }
        Ok(())
    }
}

/// Decodes `W`-byte little-endian values from `bytes` into `out`; a
/// const width turns each value's copy into fixed-size moves.
#[inline]
fn decode<const W: usize>(bytes: &[u8], out: &mut [u64]) {
    for (v, chunk) in out.iter_mut().zip(bytes.chunks_exact(W)) {
        let mut buf = [0u8; 8];
        buf[..W].copy_from_slice(chunk);
        *v = u64::from_le_bytes(buf);
    }
}

/// Encodes the low `W` bytes of each value, little-endian, into `bytes`.
#[inline]
fn encode<const W: usize>(values: &[u64], bytes: &mut [u8]) {
    for (v, chunk) in values.iter().zip(bytes.chunks_exact_mut(W)) {
        chunk.copy_from_slice(&v.to_le_bytes()[..W]);
    }
}

impl Default for DeviceMemory {
    fn default() -> Self {
        Self::new()
    }
}

macro_rules! typed_access {
    ($read:ident, $write:ident, $ty:ty) => {
        impl DeviceMemory {
            #[doc = concat!("Reads a little-endian `", stringify!($ty), "` at `addr`.")]
            ///
            /// # Errors
            /// Propagates MMU faults.
            pub fn $read(&mut self, addr: VirtAddr) -> MemResult<$ty> {
                let mut buf = [0u8; std::mem::size_of::<$ty>()];
                self.read_bytes(addr, &mut buf)?;
                Ok(<$ty>::from_le_bytes(buf))
            }

            #[doc = concat!("Writes a little-endian `", stringify!($ty), "` at `addr`.")]
            ///
            /// # Errors
            /// Propagates MMU faults.
            pub fn $write(&mut self, addr: VirtAddr, value: $ty) -> MemResult<()> {
                self.write_bytes(addr, &value.to_le_bytes())
            }
        }
    };
}

typed_access!(read_u8, write_u8, u8);
typed_access!(read_u16, write_u16, u16);
typed_access!(read_u32, write_u32, u32);
typed_access!(read_u64, write_u64, u64);
typed_access!(read_i32, write_i32, i32);
typed_access!(read_i64, write_i64, i64);
typed_access!(read_f32, write_f32, f32);
typed_access!(read_f64, write_f64, f64);

impl DeviceMemory {
    /// Reads a pointer-sized value as a [`VirtAddr`].
    ///
    /// # Errors
    /// Propagates MMU faults.
    pub fn read_ptr(&mut self, addr: VirtAddr) -> MemResult<VirtAddr> {
        Ok(VirtAddr::new(self.read_u64(addr)?))
    }

    /// Writes a [`VirtAddr`] as a pointer-sized value.
    ///
    /// # Errors
    /// Propagates MMU faults.
    pub fn write_ptr(&mut self, addr: VirtAddr, value: VirtAddr) -> MemResult<()> {
        self.write_u64(addr, value.raw())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::MemFault;

    #[test]
    fn reserve_respects_alignment() {
        let mut mem = DeviceMemory::with_capacity(1 << 20);
        let a = mem.reserve(10, 1);
        let b = mem.reserve(16, 256);
        assert_eq!(b.raw() % 256, 0);
        assert!(b.raw() >= a.raw() + 10);
    }

    #[test]
    fn null_page_never_reserved() {
        let mut mem = DeviceMemory::with_capacity(1 << 20);
        let a = mem.reserve(8, 8);
        assert!(a.raw() >= PAGE_SIZE);
    }

    #[test]
    fn rw_roundtrip_typed() {
        let mut mem = DeviceMemory::with_capacity(1 << 20);
        let p = mem.reserve(64, 8);
        mem.write_u32(p, 0xdead_beef).unwrap();
        mem.write_f64(p.offset(8), 3.25).unwrap();
        mem.write_i32(p.offset(16), -7).unwrap();
        assert_eq!(mem.read_u32(p).unwrap(), 0xdead_beef);
        assert_eq!(mem.read_f64(p.offset(8)).unwrap(), 3.25);
        assert_eq!(mem.read_i32(p.offset(16)).unwrap(), -7);
    }

    #[test]
    fn rw_across_page_boundary() {
        let mut mem = DeviceMemory::with_capacity(1 << 20);
        let p = VirtAddr::new(2 * PAGE_SIZE - 4);
        mem.write_u64(p, 0x0123_4567_89ab_cdef).unwrap();
        assert_eq!(mem.read_u64(p).unwrap(), 0x0123_4567_89ab_cdef);
    }

    #[test]
    fn tagged_pointer_faults_then_works_in_ignore_mode() {
        let mut mem = DeviceMemory::with_capacity(1 << 20);
        let p = mem.reserve(8, 8);
        mem.write_u64(p, 42).unwrap();
        let tagged = p.with_tag(5);
        assert!(matches!(
            mem.read_u64(tagged),
            Err(MemFault::NonCanonical { .. })
        ));
        mem.mmu_mut().set_mode(MmuMode::IgnoreTagBits);
        assert_eq!(mem.read_u64(tagged).unwrap(), 42);
    }

    #[test]
    fn fill_and_read_back() {
        let mut mem = DeviceMemory::with_capacity(1 << 20);
        let p = mem.reserve(10_000, 8);
        mem.fill(p, 10_000, 0xab).unwrap();
        let mut buf = vec![0u8; 10_000];
        mem.read_bytes(p, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0xab));
    }

    #[test]
    fn fresh_memory_is_zeroed() {
        let mut mem = DeviceMemory::with_capacity(1 << 20);
        let p = mem.reserve(128, 8);
        assert_eq!(mem.read_u64(p.offset(64)).unwrap(), 0);
    }
}
