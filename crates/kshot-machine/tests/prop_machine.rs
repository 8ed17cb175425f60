//! Property tests over the machine's hardware guarantees: page-attribute
//! enforcement for arbitrary ranges, SMRAM opacity under every kernel
//! access shape, exact CPU state restoration across SMI/RSM, and sparse
//! memory behaving exactly like a flat zeroed buffer.

use kshot_machine::attrs::Access;
use kshot_machine::cpu::CpuState;
use kshot_machine::{AccessCtx, Machine, MachineError, MemLayout, PageAttrs, PAGE_SIZE};
use proptest::prelude::*;

fn machine() -> Machine {
    Machine::new(MemLayout::standard()).unwrap()
}

fn arb_attrs() -> impl Strategy<Value = PageAttrs> {
    prop_oneof![
        Just(PageAttrs::NONE),
        Just(PageAttrs::R),
        Just(PageAttrs::W),
        Just(PageAttrs::X),
        Just(PageAttrs::RW),
        Just(PageAttrs::RX),
        Just(PageAttrs::RWX),
    ]
}

proptest! {
    /// Kernel reads/writes succeed exactly when every touched page
    /// grants the permission — for arbitrary (addr, len, attrs).
    #[test]
    fn page_attrs_decide_kernel_access(
        attrs in arb_attrs(),
        page_off in 0u64..16,
        inner in 0u64..PAGE_SIZE,
        len in 1usize..64,
    ) {
        let mut m = machine();
        let region = m.layout().kernel_data_base;
        // Set 16 pages to `attrs`; neighbours stay RW.
        m.set_page_attrs(region, 16 * PAGE_SIZE, attrs).unwrap();
        let addr = region + page_off * PAGE_SIZE + inner.min(PAGE_SIZE - 1);
        let end_page = (addr + len as u64 - 1) / PAGE_SIZE;
        let fully_inside = end_page < (region / PAGE_SIZE) + 16;
        let mut buf = vec![0u8; len];
        let read = m.read_bytes(AccessCtx::Kernel, addr, &mut buf);
        let write = m.write_bytes(AccessCtx::Kernel, addr, &buf);
        if fully_inside {
            prop_assert_eq!(read.is_ok(), attrs.readable());
            prop_assert_eq!(write.is_ok(), attrs.writable());
        } else {
            // Straddles into the RW remainder: outcome still requires the
            // first pages' permission.
            if !attrs.readable() { prop_assert!(read.is_err()); }
            if !attrs.writable() { prop_assert!(write.is_err()); }
        }
        // SMM (in SMM mode) is never constrained by attributes.
        m.raise_smi().unwrap();
        prop_assert!(m.read_bytes(AccessCtx::Smm, addr, &mut buf).is_ok());
        prop_assert!(m.write_bytes(AccessCtx::Smm, addr, &buf).is_ok());
        m.rsm().unwrap();
    }

    /// No kernel access overlapping SMRAM ever succeeds, regardless of
    /// where it starts or how long it is.
    #[test]
    fn smram_is_opaque_to_every_kernel_access(
        start_off in -64i64..(1024 * 1024 + 64) as i64,
        len in 1usize..128,
        access_write in any::<bool>(),
    ) {
        let mut m = machine();
        let smram = m.layout().smram_base;
        let size = m.layout().smram_size;
        let addr = (smram as i64 + start_off).max(0) as u64;
        let overlaps = addr < smram + size && addr + len as u64 > smram;
        let mut buf = vec![0u8; len];
        let result = if access_write {
            m.write_bytes(AccessCtx::Kernel, addr, &buf)
        } else {
            m.read_bytes(AccessCtx::Kernel, addr, &mut buf)
        };
        if overlaps {
            prop_assert!(result.is_err(), "kernel touched SMRAM at {addr:#x}+{len}");
        }
    }

    /// SMI/RSM round-trips restore the architectural state exactly, for
    /// arbitrary register files — even when the SMM handler scribbles
    /// over the live CPU in between.
    #[test]
    fn smi_rsm_restores_arbitrary_cpu_state(
        regs in prop::collection::vec(any::<u64>(), 16),
        pc in any::<u64>(),
        flags in prop::option::of((any::<u64>(), any::<u64>())),
        clobber in prop::collection::vec(any::<u64>(), 16),
    ) {
        let mut m = machine();
        {
            let cpu = m.cpu_mut();
            for (i, r) in kshot_isa::Reg::ALL.iter().enumerate() {
                cpu.set(*r, regs[i]);
            }
            cpu.pc = pc;
            cpu.flags = flags;
        }
        let before = m.cpu().clone();
        m.raise_smi().unwrap();
        {
            let cpu = m.cpu_mut();
            for (i, r) in kshot_isa::Reg::ALL.iter().enumerate() {
                cpu.set(*r, clobber[i]);
            }
            cpu.pc = 0;
            cpu.flags = None;
        }
        m.rsm().unwrap();
        prop_assert_eq!(m.cpu(), &before);
    }

    /// The serialized save area is a faithful codec for any CPU state.
    #[test]
    fn save_area_roundtrip(
        regs in prop::collection::vec(any::<u64>(), 16),
        pc in any::<u64>(),
        flags in prop::option::of((any::<u64>(), any::<u64>())),
    ) {
        let mut cpu = CpuState::new();
        for (i, r) in kshot_isa::Reg::ALL.iter().enumerate() {
            cpu.set(*r, regs[i]);
        }
        cpu.pc = pc;
        cpu.flags = flags;
        let img = cpu.to_save_area();
        prop_assert_eq!(CpuState::from_save_area(&img), cpu);
    }

    /// Out-of-range accesses fail for every context without panicking,
    /// including address-space wrap-arounds.
    #[test]
    fn out_of_range_never_panics(
        addr in any::<u64>(),
        len in 0usize..64,
    ) {
        let mut m = machine();
        let total = m.layout().total;
        let mut buf = vec![0u8; len];
        for ctx in [AccessCtx::Kernel, AccessCtx::Firmware] {
            let r = m.read_bytes(ctx, addr, &mut buf);
            if addr.checked_add(len as u64).is_none_or(|e| e > total) {
                prop_assert!(r.is_err());
            }
        }
        let _ = m.fetch(AccessCtx::Kernel, addr);
    }
}

#[test]
fn execute_permission_is_orthogonal_to_read() {
    // An execute-only page can be fetched but not read — the exact
    // property mem_X depends on (checked here at machine level, without
    // kshot-core).
    let mut m = machine();
    let base = m.layout().kernel_data_base;
    m.write_bytes(AccessCtx::Firmware, base, &[kshot_isa::opcodes::RET])
        .unwrap();
    m.set_page_attrs(base, PAGE_SIZE, PageAttrs::X).unwrap();
    assert!(m.fetch(AccessCtx::Kernel, base).is_ok());
    let mut b = [0u8; 1];
    let err = m.read_bytes(AccessCtx::Kernel, base, &mut b).unwrap_err();
    assert!(matches!(
        err,
        kshot_machine::MachineError::AccessViolation {
            access: Access::Read,
            ..
        }
    ));
}

/// One step of the sparse-memory differential test. Addresses are
/// `anchor + delta`, where the anchor is an edge (base or end) of a live
/// extent picked by `anchor` (or page 0 while nothing is written), so
/// writes land just below, on, across and between extents far more
/// often than uniform addresses would.
#[derive(Debug, Clone)]
enum MemOp {
    Write {
        anchor: usize,
        delta: i64,
        len: usize,
        seed: u8,
    },
    Read {
        anchor: usize,
        delta: i64,
        len: usize,
    },
    Slice {
        anchor: usize,
        delta: i64,
        len: usize,
    },
    Snapshot,
    Restore,
}

fn arb_mem_op() -> impl Strategy<Value = MemOp> {
    let page = PAGE_SIZE as i64;
    let len = 0usize..=3 * PAGE_SIZE as usize;
    prop_oneof![
        6 => (any::<usize>(), -2 * page..2 * page, len.clone(), any::<u8>())
            .prop_map(|(anchor, delta, len, seed)| MemOp::Write { anchor, delta, len, seed }),
        3 => (any::<usize>(), -2 * page..2 * page, len.clone())
            .prop_map(|(anchor, delta, len)| MemOp::Read { anchor, delta, len }),
        4 => (any::<usize>(), -2 * page..2 * page, len)
            .prop_map(|(anchor, delta, len)| MemOp::Slice { anchor, delta, len }),
        1 => Just(MemOp::Snapshot),
        1 => Just(MemOp::Restore),
    ]
}

/// A 64-page machine (text, data, stack, reserved, SMRAM), small enough
/// for a flat oracle per case.
fn small_machine() -> Machine {
    let page = PAGE_SIZE;
    Machine::new(MemLayout {
        total: 64 * page,
        kernel_text_base: page,
        kernel_text_size: 8 * page,
        kernel_data_base: 9 * page,
        kernel_data_size: 8 * page,
        kernel_stack_base: 17 * page,
        kernel_stack_size: 8 * page,
        reserved_base: 25 * page,
        reserved_size: 16 * page,
        smram_base: 48 * page,
        smram_size: 16 * page,
    })
    .unwrap()
}

/// The flat model: every byte, plus which pages any write touched.
#[derive(Clone)]
struct Oracle {
    bytes: Vec<u8>,
    written: Vec<bool>,
}

impl Oracle {
    fn pages(addr: u64, len: usize) -> std::ops::Range<usize> {
        if len == 0 {
            return 0..0;
        }
        (addr / PAGE_SIZE) as usize..(addr + len as u64).div_ceil(PAGE_SIZE) as usize
    }
}

/// The machine's extents are page-aligned, sorted, neither overlap nor
/// touch, and back exactly the pages the oracle saw written.
fn check_extents(m: &Machine, oracle: &Oracle) -> Result<(), TestCaseError> {
    let mut backed = vec![false; oracle.written.len()];
    let mut prev_end: Option<u64> = None;
    for (base, len) in m.phys().extents() {
        prop_assert_eq!(base % PAGE_SIZE, 0);
        prop_assert!(len > 0 && len % PAGE_SIZE == 0);
        if let Some(end) = prev_end {
            prop_assert!(base > end, "extents at {end:#x} and {base:#x} touch");
        }
        prev_end = Some(base + len);
        for page in Oracle::pages(base, len as usize) {
            backed[page] = true;
        }
    }
    prop_assert_eq!(&backed, &oracle.written);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Sparse memory is indistinguishable from a flat zeroed buffer:
    /// random write/read/slice sequences (0 to 3 pages long, around
    /// extent edges, bridging extents) and snapshot/restore agree with a
    /// `Vec<u8>` oracle byte for byte. `slice` borrows exactly when the
    /// range is empty, inside one written run or wholly unwritten, and
    /// otherwise returns `Unbacked`, never a panic; `bytes` always
    /// equals the oracle.
    #[test]
    fn sparse_memory_matches_a_flat_oracle(
        ops in prop::collection::vec(arb_mem_op(), 1..48),
    ) {
        let mut m = small_machine();
        let size = m.layout().total;
        let mut oracle = Oracle {
            bytes: vec![0; size as usize],
            written: vec![false; (size / PAGE_SIZE) as usize],
        };
        let mut saved: Option<(kshot_machine::MachineSnapshot, Oracle)> = None;
        for op in ops {
            let edges: Vec<u64> = m
                .phys()
                .extents()
                .flat_map(|(base, len)| [base, base + len])
                .collect();
            let at = |anchor: usize, delta: i64| {
                let edge = if edges.is_empty() { 0 } else { edges[anchor % edges.len()] };
                (edge as i64 + delta).clamp(0, size as i64 - 1) as u64
            };
            match op {
                MemOp::Write { anchor, delta, len, seed } => {
                    let addr = at(anchor, delta);
                    let data: Vec<u8> = (0..len).map(|i| seed.wrapping_add(i as u8) | 1).collect();
                    let r = m.phys_mut().write_raw(addr, &data);
                    if addr + len as u64 > size {
                        prop_assert!(matches!(r, Err(MachineError::OutOfRange { .. })));
                    } else {
                        r.unwrap();
                        oracle.bytes[addr as usize..addr as usize + len].copy_from_slice(&data);
                        for page in Oracle::pages(addr, len) {
                            oracle.written[page] = true;
                        }
                    }
                }
                MemOp::Read { anchor, delta, len } => {
                    let addr = at(anchor, delta);
                    let mut out = vec![0xEE; len];
                    let r = m.phys().read_raw(addr, &mut out);
                    if addr + len as u64 > size {
                        prop_assert!(matches!(r, Err(MachineError::OutOfRange { .. })));
                    } else {
                        r.unwrap();
                        prop_assert_eq!(&out[..], &oracle.bytes[addr as usize..addr as usize + len]);
                    }
                }
                MemOp::Slice { anchor, delta, len } => {
                    let addr = at(anchor, delta);
                    let r = m.phys().slice(addr, len);
                    if addr + len as u64 > size {
                        prop_assert!(matches!(r, Err(MachineError::OutOfRange { .. })));
                        prop_assert!(matches!(
                            m.phys().bytes(addr, len),
                            Err(MachineError::OutOfRange { .. })
                        ));
                        continue;
                    }
                    prop_assert_eq!(
                        &*m.phys().bytes(addr, len).unwrap(),
                        &oracle.bytes[addr as usize..addr as usize + len]
                    );
                    let pages = Oracle::pages(addr, len);
                    let written = oracle.written[pages.clone()].iter().filter(|&&w| w).count();
                    if written == 0 || written == pages.len() {
                        let got = r.unwrap();
                        prop_assert_eq!(got, &oracle.bytes[addr as usize..addr as usize + len]);
                    } else {
                        prop_assert_eq!(r, Err(MachineError::Unbacked { addr, len }));
                    }
                }
                MemOp::Snapshot => saved = Some((m.snapshot(), oracle.clone())),
                MemOp::Restore => {
                    if let Some((snap, at_snap)) = &saved {
                        m.restore_from_snapshot(snap.clone());
                        oracle = at_snap.clone();
                    }
                }
            }
            check_extents(&m, &oracle)?;
        }
        let mut all = vec![0xEE; size as usize];
        m.phys().read_raw(0, &mut all).unwrap();
        prop_assert!(all == oracle.bytes, "final memory differs from the oracle");
    }
}
