//! Sparse physical memory with a per-page attribute table.
//!
//! A live patch writes only a few kilobytes of a machine: the kernel
//! image at boot, trampolines in text, bodies at the start of `mem_X`,
//! the `mem_RW` key area, and the SMRAM save area and journal. Memory is
//! therefore backed by *written extents* only: a map from a page-aligned
//! base to a buffer of whole pages. Extents never overlap or touch; a
//! write that reaches or bridges extents merges them into one. Bytes
//! that were never written read as zero. Booting a machine costs the
//! size of what boot writes, not the size of installed memory, and
//! cloning a machine (a power-loss snapshot) copies the extents only.
//!
//! The page-attribute table, the SMRAM window and its lock, and the
//! bounds checks do not depend on the backing: they cover all of
//! installed memory, written or not.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::ops::Bound::{Excluded, Included};

use crate::attrs::{Access, PageAttrs};
use crate::error::MachineError;

/// Page size in bytes (matches x86 4 KiB pages).
pub const PAGE_SIZE: u64 = 4096;

/// Longest never-written range [`PhysMemory::slice`] can borrow (from a
/// shared static zero buffer).
pub const ZERO_SLICE_MAX: usize = 1 << 20;

static ZEROS: [u8; ZERO_SLICE_MAX] = [0; ZERO_SLICE_MAX];

/// Installed physical memory plus its page attribute table and the SMRAM
/// window descriptor.
///
/// `PhysMemory` itself performs *raw* bounds-checked access; permission
/// checks live in [`crate::Machine`], which knows the privilege context.
#[derive(Debug, Clone)]
pub struct PhysMemory {
    size: u64,
    /// Written extents: page-aligned base → whole pages. No two extents
    /// overlap or touch.
    extents: BTreeMap<u64, Vec<u8>>,
    attrs: Vec<PageAttrs>,
    smram: Option<SmramWindow>,
}

/// The SMRAM range and its lock bit (D_LCK analogue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmramWindow {
    /// Base physical address (page-aligned).
    pub base: u64,
    /// Size in bytes (page-aligned).
    pub size: u64,
    /// Whether the firmware has locked the configuration.
    pub locked: bool,
}

impl SmramWindow {
    /// Whether `addr..addr+len` overlaps this window.
    pub fn overlaps(&self, addr: u64, len: usize) -> bool {
        let end = addr.saturating_add(len as u64);
        addr < self.base + self.size && end > self.base
    }
}

impl PhysMemory {
    /// Install `size` bytes of zero-reading RAM with default kernel-owned
    /// `RW` attributes on every page. Nothing is backed until written.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not page-aligned (a configuration error;
    /// [`crate::MemLayout::validate`] rejects such layouts first).
    pub fn new(size: u64) -> Self {
        assert_eq!(size % PAGE_SIZE, 0, "memory size must be page aligned");
        let pages = (size / PAGE_SIZE) as usize;
        Self {
            size,
            extents: BTreeMap::new(),
            attrs: vec![PageAttrs::RW; pages],
            smram: None,
        }
    }

    /// Installed memory size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// The written extents as `(base, len)` pairs in address order.
    pub fn extents(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.extents.iter().map(|(&b, e)| (b, e.len() as u64))
    }

    /// The SMRAM window, if configured.
    pub fn smram(&self) -> Option<SmramWindow> {
        self.smram
    }

    /// Configure the SMRAM window. May only happen while unlocked.
    ///
    /// # Errors
    ///
    /// [`MachineError::SmramLocked`] if already locked;
    /// [`MachineError::OutOfRange`] if the window exceeds installed memory.
    pub fn configure_smram(&mut self, base: u64, size: u64) -> Result<(), MachineError> {
        if let Some(w) = self.smram {
            if w.locked {
                return Err(MachineError::SmramLocked);
            }
        }
        self.check_range(base, size as usize)?;
        self.smram = Some(SmramWindow {
            base: base - base % PAGE_SIZE,
            size: size.div_ceil(PAGE_SIZE) * PAGE_SIZE,
            locked: false,
        });
        Ok(())
    }

    /// Lock the SMRAM configuration (firmware D_LCK). Idempotent.
    ///
    /// # Errors
    ///
    /// [`MachineError::SmramUnconfigured`] if SMRAM was never configured.
    pub fn lock_smram(&mut self) -> Result<(), MachineError> {
        match &mut self.smram {
            Some(w) => {
                w.locked = true;
                Ok(())
            }
            None => Err(MachineError::SmramUnconfigured),
        }
    }

    /// Set page attributes for the page-aligned range `base..base+size`.
    ///
    /// # Errors
    ///
    /// [`MachineError::OutOfRange`] for ranges beyond installed memory.
    pub fn set_attrs(
        &mut self,
        base: u64,
        size: u64,
        attrs: PageAttrs,
    ) -> Result<(), MachineError> {
        self.check_range(base, size as usize)?;
        let first = (base / PAGE_SIZE) as usize;
        let last = (base + size).div_ceil(PAGE_SIZE) as usize;
        for page in &mut self.attrs[first..last] {
            *page = attrs;
        }
        Ok(())
    }

    /// Attributes of the page containing `addr`.
    ///
    /// # Errors
    ///
    /// [`MachineError::OutOfRange`] if `addr` is beyond installed memory.
    pub fn attrs_at(&self, addr: u64) -> Result<PageAttrs, MachineError> {
        self.check_range(addr, 1)?;
        Ok(self.attrs[(addr / PAGE_SIZE) as usize])
    }

    /// Verify that every page overlapped by `addr..addr+len` permits
    /// `access`.
    ///
    /// # Errors
    ///
    /// [`MachineError::AccessViolation`] naming the first offending page.
    pub fn check_attrs(&self, addr: u64, len: usize, access: Access) -> Result<(), MachineError> {
        self.check_range(addr, len)?;
        if len == 0 {
            return Ok(());
        }
        let first = addr / PAGE_SIZE;
        let last = (addr + len as u64 - 1) / PAGE_SIZE;
        for page in first..=last {
            if !self.attrs[page as usize].allows(access.required()) {
                return Err(MachineError::AccessViolation {
                    addr: page * PAGE_SIZE,
                    access,
                    ctx: "kernel",
                    reason: "page attributes",
                });
            }
        }
        Ok(())
    }

    fn check_range(&self, addr: u64, len: usize) -> Result<(), MachineError> {
        let end = addr.checked_add(len as u64);
        match end {
            Some(end) if end <= self.size => Ok(()),
            _ => Err(MachineError::OutOfRange {
                addr,
                len,
                mem_size: self.size,
            }),
        }
    }

    /// The last extent starting at or below `addr`, as `(base, bytes)`.
    fn extent_at_or_below(&self, addr: u64) -> Option<(u64, &[u8])> {
        self.extents
            .range(..=addr)
            .next_back()
            .map(|(&b, e)| (b, e.as_slice()))
    }

    /// Raw read with bounds check only (no permission check).
    /// Never-written bytes read as zero.
    pub fn read_raw(&self, addr: u64, out: &mut [u8]) -> Result<(), MachineError> {
        self.check_range(addr, out.len())?;
        let end = addr + out.len() as u64;
        let first = match self.extent_at_or_below(addr) {
            Some((base, ext)) if end <= base + ext.len() as u64 => {
                let off = (addr - base) as usize;
                out.copy_from_slice(&ext[off..off + out.len()]);
                return Ok(());
            }
            Some((base, _)) => base,
            None => addr,
        };
        out.fill(0);
        for (&base, ext) in self.extents.range(first..end) {
            let lo = base.max(addr);
            let hi = (base + ext.len() as u64).min(end);
            if lo < hi {
                out[(lo - addr) as usize..(hi - addr) as usize]
                    .copy_from_slice(&ext[(lo - base) as usize..(hi - base) as usize]);
            }
        }
        Ok(())
    }

    /// Raw write with bounds check only (no permission check).
    pub fn write_raw(&mut self, addr: u64, data: &[u8]) -> Result<(), MachineError> {
        self.check_range(addr, data.len())?;
        if data.is_empty() {
            return Ok(());
        }
        let (base, ext) = self.materialise(addr, addr + data.len() as u64);
        let off = (addr - base) as usize;
        ext[off..off + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// The extent that backs `addr..end` (in bounds, non-empty), created
    /// or grown to the range's whole pages. Every extent the grown range
    /// overlaps or touches is merged into it, so extents stay disjoint
    /// and non-adjacent.
    fn materialise(&mut self, addr: u64, end: u64) -> (u64, &mut [u8]) {
        let lo = addr - addr % PAGE_SIZE;
        let hi = end.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        let below = self
            .extent_at_or_below(lo)
            .map(|(b, e)| (b, b + e.len() as u64))
            .filter(|&(_, ext_end)| ext_end >= lo);
        let (start, mut buf) = match below {
            Some((b, ext_end)) if ext_end >= hi => {
                let ext = self.extents.get_mut(&b).expect("extent just looked up");
                return (b, ext.as_mut_slice());
            }
            Some((b, _)) => (b, self.extents.remove(&b).expect("extent just looked up")),
            None => (lo, Vec::new()),
        };
        buf.resize((hi - start) as usize, 0);
        while let Some((&b, _)) = self.extents.range((Excluded(start), Included(hi))).next() {
            let ext = self.extents.remove(&b).expect("extent just looked up");
            let off = (b - start) as usize;
            if buf.len() < off + ext.len() {
                buf.resize(off + ext.len(), 0);
            }
            buf[off..off + ext.len()].copy_from_slice(&ext);
        }
        let ext = self.extents.entry(start).or_insert(buf);
        (start, ext.as_mut_slice())
    }

    /// Raw borrow of a memory range (bounds-checked). The range must lie
    /// inside one written extent, or be never written and at most
    /// [`ZERO_SLICE_MAX`] bytes long (it then borrows a shared zero
    /// buffer). Use [`PhysMemory::read_raw`] to copy any other range.
    ///
    /// # Errors
    ///
    /// [`MachineError::OutOfRange`] beyond installed memory;
    /// [`MachineError::Unbacked`] for a range that straddles written and
    /// unwritten memory, or an unwritten range longer than the zero
    /// buffer.
    pub fn slice(&self, addr: u64, len: usize) -> Result<&[u8], MachineError> {
        self.check_range(addr, len)?;
        let end = addr + len as u64;
        if let Some((base, ext)) = self.extent_at_or_below(addr) {
            let ext_end = base + ext.len() as u64;
            if end <= ext_end {
                let off = (addr - base) as usize;
                return Ok(&ext[off..off + len]);
            }
            if addr < ext_end {
                return Err(MachineError::Unbacked { addr, len });
            }
        }
        if len > ZERO_SLICE_MAX || self.extents.range(addr..end).next().is_some() {
            return Err(MachineError::Unbacked { addr, len });
        }
        Ok(&ZEROS[..len])
    }

    /// Any in-bounds range: borrowed where [`PhysMemory::slice`] can
    /// borrow it, otherwise copied with [`PhysMemory::read_raw`]. Use it
    /// where a range may straddle written and unwritten memory, such as
    /// a placement area whose records need not be contiguous.
    ///
    /// # Errors
    ///
    /// [`MachineError::OutOfRange`] beyond installed memory.
    pub fn bytes(&self, addr: u64, len: usize) -> Result<Cow<'_, [u8]>, MachineError> {
        match self.slice(addr, len) {
            Ok(borrowed) => Ok(Cow::Borrowed(borrowed)),
            Err(MachineError::Unbacked { .. }) => {
                let mut copy = vec![0; len];
                self.read_raw(addr, &mut copy)?;
                Ok(Cow::Owned(copy))
            }
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_read_write_roundtrip() {
        let mut m = PhysMemory::new(2 * PAGE_SIZE);
        m.write_raw(100, &[1, 2, 3]).unwrap();
        let mut buf = [0u8; 3];
        m.read_raw(100, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3]);
    }

    #[test]
    fn out_of_range_faults() {
        let mut m = PhysMemory::new(PAGE_SIZE);
        assert!(matches!(
            m.write_raw(PAGE_SIZE - 1, &[0, 0]),
            Err(MachineError::OutOfRange { .. })
        ));
        let mut buf = [0u8; 1];
        assert!(m.read_raw(PAGE_SIZE, &mut buf).is_err());
        // Address wrap-around must not panic or pass.
        assert!(m.read_raw(u64::MAX, &mut buf).is_err());
    }

    #[test]
    fn attrs_apply_per_page() {
        let mut m = PhysMemory::new(4 * PAGE_SIZE);
        m.set_attrs(PAGE_SIZE, PAGE_SIZE, PageAttrs::X).unwrap();
        assert_eq!(m.attrs_at(0).unwrap(), PageAttrs::RW);
        assert_eq!(m.attrs_at(PAGE_SIZE).unwrap(), PageAttrs::X);
        assert_eq!(m.attrs_at(2 * PAGE_SIZE).unwrap(), PageAttrs::RW);
    }

    #[test]
    fn check_attrs_spanning_pages() {
        let mut m = PhysMemory::new(4 * PAGE_SIZE);
        m.set_attrs(PAGE_SIZE, PAGE_SIZE, PageAttrs::R).unwrap();
        // A write crossing from RW page 0 into R page 1 faults.
        let err = m.check_attrs(PAGE_SIZE - 8, 16, Access::Write).unwrap_err();
        assert!(matches!(err, MachineError::AccessViolation { addr, .. } if addr == PAGE_SIZE));
        // A read over the same range is fine.
        m.check_attrs(PAGE_SIZE - 8, 16, Access::Read).unwrap();
        // Zero-length access never faults on attributes.
        m.check_attrs(PAGE_SIZE, 0, Access::Write).unwrap();
    }

    #[test]
    fn smram_configure_and_lock() {
        let mut m = PhysMemory::new(16 * PAGE_SIZE);
        m.configure_smram(8 * PAGE_SIZE, 4 * PAGE_SIZE).unwrap();
        assert!(!m.smram().unwrap().locked);
        // Reconfiguration allowed before lock.
        m.configure_smram(4 * PAGE_SIZE, 4 * PAGE_SIZE).unwrap();
        m.lock_smram().unwrap();
        assert!(m.smram().unwrap().locked);
        assert_eq!(
            m.configure_smram(0, PAGE_SIZE),
            Err(MachineError::SmramLocked)
        );
    }

    #[test]
    fn lock_unconfigured_smram_fails() {
        let mut m = PhysMemory::new(PAGE_SIZE);
        assert_eq!(m.lock_smram(), Err(MachineError::SmramUnconfigured));
    }

    #[test]
    fn smram_overlap_detection() {
        let w = SmramWindow {
            base: 0x1000,
            size: 0x1000,
            locked: true,
        };
        assert!(w.overlaps(0x1000, 1));
        assert!(w.overlaps(0x1fff, 1));
        assert!(w.overlaps(0x0fff, 2));
        assert!(!w.overlaps(0x0fff, 1));
        assert!(!w.overlaps(0x2000, 16));
    }

    #[test]
    #[should_panic(expected = "page aligned")]
    fn unaligned_size_panics() {
        let _ = PhysMemory::new(100);
    }

    #[test]
    fn writes_back_whole_pages_and_merge_touching_extents() {
        let mut m = PhysMemory::new(64 * PAGE_SIZE);
        assert_eq!(m.extents().count(), 0);
        m.write_raw(10 * PAGE_SIZE + 5, &[1]).unwrap();
        m.write_raw(12 * PAGE_SIZE, &[2]).unwrap();
        assert_eq!(
            m.extents().collect::<Vec<_>>(),
            [(10 * PAGE_SIZE, PAGE_SIZE), (12 * PAGE_SIZE, PAGE_SIZE)]
        );
        // A write into the page between touches both: one extent.
        m.write_raw(11 * PAGE_SIZE + 7, &[3]).unwrap();
        assert_eq!(
            m.extents().collect::<Vec<_>>(),
            [(10 * PAGE_SIZE, 3 * PAGE_SIZE)]
        );
        // Just below the base: the extent grows downwards.
        m.write_raw(10 * PAGE_SIZE - 1, &[4, 5]).unwrap();
        assert_eq!(
            m.extents().collect::<Vec<_>>(),
            [(9 * PAGE_SIZE, 4 * PAGE_SIZE)]
        );
        let mut buf = [9u8; 4];
        m.read_raw(10 * PAGE_SIZE - 1, &mut buf).unwrap();
        assert_eq!(buf, [4, 5, 0, 0]);
        assert_eq!(m.slice(10 * PAGE_SIZE + 5, 1).unwrap(), [1]);
        assert_eq!(m.slice(11 * PAGE_SIZE + 7, 1).unwrap(), [3]);
        assert_eq!(m.slice(12 * PAGE_SIZE, 1).unwrap(), [2]);
    }

    #[test]
    fn slice_borrows_zeros_or_reports_a_straddle() {
        let mut m = PhysMemory::new(8 * PAGE_SIZE);
        assert_eq!(m.slice(100, 16).unwrap(), [0; 16]);
        m.write_raw(2 * PAGE_SIZE, &[7; 8]).unwrap();
        // Unwritten range running into the extent.
        assert_eq!(
            m.slice(2 * PAGE_SIZE - 4, 8),
            Err(MachineError::Unbacked {
                addr: 2 * PAGE_SIZE - 4,
                len: 8
            })
        );
        // Written range running out of the extent.
        assert!(matches!(
            m.slice(3 * PAGE_SIZE - 4, 8),
            Err(MachineError::Unbacked { .. })
        ));
        // Empty ranges always borrow.
        assert!(m.slice(3 * PAGE_SIZE, 0).unwrap().is_empty());
        let mut buf = [1u8; 8];
        m.read_raw(3 * PAGE_SIZE - 4, &mut buf).unwrap();
        assert_eq!(buf, [0; 8]);
    }

    #[test]
    fn bytes_borrows_when_it_can_and_copies_a_straddle() {
        let mut m = PhysMemory::new(8 * PAGE_SIZE);
        m.write_raw(2 * PAGE_SIZE, &[7; 8]).unwrap();
        assert!(matches!(m.bytes(2 * PAGE_SIZE, 8).unwrap(), Cow::Borrowed(b) if b == [7; 8]));
        assert!(matches!(m.bytes(5 * PAGE_SIZE, 4).unwrap(), Cow::Borrowed(b) if b == [0; 4]));
        let straddle = m.bytes(2 * PAGE_SIZE - 2, 4).unwrap();
        assert!(matches!(straddle, Cow::Owned(_)));
        assert_eq!(*straddle, [0, 0, 7, 7]);
        assert!(matches!(
            m.bytes(8 * PAGE_SIZE - 1, 2),
            Err(MachineError::OutOfRange { .. })
        ));
    }
}
