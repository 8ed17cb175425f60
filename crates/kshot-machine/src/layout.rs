//! The standard physical memory layout of the simulated target machine.

use crate::phys::PAGE_SIZE;

/// Physical memory map used by the reproduction's target machine.
///
/// Mirrors the shape of the paper's prototype: a normal kernel image low
/// in memory, an 18 MB region reserved at boot for KShot (paper §V-B:
/// "We first configure the boot loader to reserve a suitable kernel
/// memory allocation space (18MB for our prototype)"), and SMRAM locked
/// by firmware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemLayout {
    /// Total installed physical memory in bytes.
    pub total: u64,
    /// Base of the kernel text segment.
    pub kernel_text_base: u64,
    /// Maximum size of the kernel text segment.
    pub kernel_text_size: u64,
    /// Base of the kernel data segment (data + bss).
    pub kernel_data_base: u64,
    /// Maximum size of the kernel data segment.
    pub kernel_data_size: u64,
    /// Base of the kernel stack/heap scratch area.
    pub kernel_stack_base: u64,
    /// Size of the kernel stack/heap scratch area.
    pub kernel_stack_size: u64,
    /// Base of the boot-reserved KShot region (subdivided into
    /// `mem_RW`/`mem_W`/`mem_X` by `kshot-core`).
    pub reserved_base: u64,
    /// Size of the boot-reserved KShot region.
    pub reserved_size: u64,
    /// SMRAM base.
    pub smram_base: u64,
    /// SMRAM size.
    pub smram_size: u64,
}

impl MemLayout {
    /// The standard 48 MB machine used throughout tests and benchmarks.
    pub fn standard() -> Self {
        Self {
            total: 0x0300_0000,              // 48 MB
            kernel_text_base: 0x0010_0000,   // 1 MB
            kernel_text_size: 0x0080_0000,   // 8 MB
            kernel_data_base: 0x0090_0000,   // 9 MB
            kernel_data_size: 0x0080_0000,   // 8 MB
            kernel_stack_base: 0x0110_0000,  // 17 MB
            kernel_stack_size: 0x0080_0000,  // 8 MB
            reserved_base: 0x0190_0000,      // 25 MB
            reserved_size: 18 * 1024 * 1024, // the paper's 18 MB
            smram_base: 0x02B0_0000,         // 43 MB
            smram_size: 0x0010_0000,         // 1 MB
        }
    }

    /// A large-memory variant used by the 10 MB-patch benchmark rows
    /// (the standard reserved region fits them, but the workload needs
    /// head-room).
    pub fn large() -> Self {
        let mut l = Self::standard();
        l.total = 0x0400_0000; // 64 MB
        l
    }

    /// The layout for the Table II/III 10 MB-patch rows: the paper's
    /// prototype streams large patches through its 18 MB region, which
    /// our one-shot staging cannot; this variant grows the reserved
    /// region to 36 MB so `mem_W` and `mem_X` both hold a 10 MB payload
    /// (the substitution is documented in EXPERIMENTS.md).
    pub fn benchmark() -> Self {
        let mut l = Self::standard();
        l.reserved_size = 36 * 1024 * 1024;
        l.smram_base = l.reserved_base + l.reserved_size; // 0x03D0_0000
        l.total = 0x0400_0000; // 64 MB
        l
    }

    /// The 26 MB machine fleet campaigns boot: same text and data bases
    /// (and sizes) as [`MemLayout::standard`], so an image linked for the
    /// standard layout boots unchanged — one shared link serves every
    /// fleet machine — with a halved stack and a 6 MB reserved region
    /// (64 KiB `mem_RW`, ~2 MB `mem_W`, ~4 MB `mem_X`) that still fits
    /// realistic CVE-sized patches with room for history.
    ///
    /// Memory is sparse ([`crate::PhysMemory`] backs written pages
    /// only), so the layout no longer decides what a machine costs in
    /// RAM. It is kept because machine state depends on it: the
    /// reserved split, and with it every `mem_X` placement, state digest
    /// and Merkle root of a fleet campaign, follows from these numbers.
    pub fn fleet() -> Self {
        Self {
            total: 0x01A0_0000,             // 26 MB
            kernel_text_base: 0x0010_0000,  // 1 MB (same as standard)
            kernel_text_size: 0x0080_0000,  // 8 MB
            kernel_data_base: 0x0090_0000,  // 9 MB (same as standard)
            kernel_data_size: 0x0080_0000,  // 8 MB
            kernel_stack_base: 0x0110_0000, // 17 MB
            kernel_stack_size: 0x0020_0000, // 2 MB
            reserved_base: 0x0130_0000,     // 19 MB
            reserved_size: 6 * 1024 * 1024, // 6 MB
            smram_base: 0x0190_0000,        // 25 MB
            smram_size: 0x0010_0000,        // 1 MB
        }
    }

    /// Validate internal consistency (regions page-aligned, in bounds,
    /// non-overlapping, in ascending order; total size page-aligned).
    /// Returns a description of the first problem.
    pub fn validate(&self) -> Result<(), String> {
        if !self.total.is_multiple_of(PAGE_SIZE) {
            return Err("total size is not page-aligned".to_string());
        }
        let regions = [
            ("text", self.kernel_text_base, self.kernel_text_size),
            ("data", self.kernel_data_base, self.kernel_data_size),
            ("stack", self.kernel_stack_base, self.kernel_stack_size),
            ("reserved", self.reserved_base, self.reserved_size),
            ("smram", self.smram_base, self.smram_size),
        ];
        let mut prev_end = 0u64;
        let mut prev_name = "start";
        for (name, base, size) in regions {
            if !base.is_multiple_of(PAGE_SIZE) || !size.is_multiple_of(PAGE_SIZE) {
                return Err(format!("{name} is not page-aligned"));
            }
            if base < prev_end {
                return Err(format!("{name} overlaps {prev_name}"));
            }
            let end = base
                .checked_add(size)
                .ok_or_else(|| format!("{name} wraps"))?;
            if end > self.total {
                return Err(format!("{name} exceeds installed memory"));
            }
            prev_end = end;
            prev_name = name;
        }
        Ok(())
    }
}

impl Default for MemLayout {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_is_valid() {
        MemLayout::standard().validate().unwrap();
        MemLayout::large().validate().unwrap();
        MemLayout::benchmark().validate().unwrap();
        MemLayout::fleet().validate().unwrap();
    }

    #[test]
    fn fleet_layout_boots_standard_images_in_half_the_ram() {
        let f = MemLayout::fleet();
        let s = MemLayout::standard();
        // Image compatibility: identical link bases and segment sizes.
        assert_eq!(f.kernel_text_base, s.kernel_text_base);
        assert_eq!(f.kernel_text_size, s.kernel_text_size);
        assert_eq!(f.kernel_data_base, s.kernel_data_base);
        assert_eq!(f.kernel_data_size, s.kernel_data_size);
        // Still the smaller machine every recorded fleet digest assumes.
        assert!(f.total <= s.total / 3 * 2, "fleet machine not compact");
    }

    #[test]
    fn benchmark_layout_holds_ten_megabyte_payloads() {
        let l = MemLayout::benchmark();
        // Split is 64 KiB + 1/3 / 2/3 (see kshot-core::reserved); both
        // big windows must exceed 10 MB.
        let rest = l.reserved_size - 16 * 4096;
        assert!(rest / 3 > 10 * 1024 * 1024 + 1024);
    }

    #[test]
    fn reserved_region_is_papers_18mb() {
        assert_eq!(MemLayout::standard().reserved_size, 18 * 1024 * 1024);
    }

    #[test]
    fn validate_catches_overlap() {
        let mut l = MemLayout::standard();
        l.kernel_data_base = l.kernel_text_base + 1;
        assert!(l.validate().is_err());
    }

    #[test]
    fn validate_catches_unaligned_regions_and_total() {
        let mut l = MemLayout::standard();
        l.total += 1;
        assert!(l.validate().unwrap_err().contains("total"));
        let mut l = MemLayout::standard();
        l.reserved_base += 8;
        assert!(l.validate().unwrap_err().contains("reserved"));
        let mut l = MemLayout::standard();
        l.smram_size -= 1;
        assert!(l.validate().unwrap_err().contains("smram"));
    }

    #[test]
    fn validate_catches_out_of_bounds() {
        let mut l = MemLayout::standard();
        l.smram_size = l.total; // pushes smram past the end
        assert!(l.validate().unwrap_err().contains("smram"));
    }
}
