#![warn(missing_docs)]

//! # kshot-machine — the simulated target machine
//!
//! KShot's prototype runs on an Intel Core i7 with Coreboot firmware; its
//! security argument rests on two *hardware-enforced* properties
//! (paper §II-B, §IV):
//!
//! 1. **SMRAM isolation** — System Management RAM can only be accessed
//!    while the CPU is in System Management Mode, and the firmware locks
//!    it at boot so nothing (including a compromised kernel) can remap it.
//! 2. **State save/restore on SMM entry/exit** — entering SMM saves the
//!    full architectural state to SMRAM and `RSM` restores it, which is
//!    what lets KShot pause and resume the OS "for free" instead of
//!    checkpointing.
//!
//! This crate simulates exactly that machine: a sparse physical memory
//! (only written pages are backed; see [`PhysMemory`]) with a per-page
//! attribute table ([`PageAttrs`]), a CPU register file
//! ([`CpuState`]), a locked SMRAM region, SMI entry / RSM exit with
//! hardware state save ([`Machine::raise_smi`], [`Machine::rsm`]), and a
//! simulated [`Clock`] driven by a [`CostModel`] calibrated against the
//! timing tables in the paper (Tables II and III).
//!
//! Every memory access is mediated by checked `Machine` accessors that take
//! an [`AccessCtx`] — the privilege domain performing the access — and
//! fault with [`MachineError::AccessViolation`] when the hardware would.
//! The attack experiments in `kshot-core` and the integration tests rely
//! on these faults being *real* control-flow, not advisory flags.

pub mod attrs;
pub mod cpu;
pub mod error;
pub mod flight;
pub mod inject;
pub mod layout;
pub mod machine;
pub mod phys;
pub mod timing;

pub use attrs::PageAttrs;
pub use cpu::{CpuMode, CpuState};
pub use error::MachineError;
pub use flight::{JournalOp, SmiCause, SmiExit, SmiFlightRecord, WriteRange};
pub use inject::{
    AttackKind, InjectionAction, InjectionPlan, InjectionStats, InjectionTrigger, MachineSnapshot,
};
pub use layout::MemLayout;
pub use machine::{AccessCtx, Machine};
pub use phys::{PhysMemory, PAGE_SIZE};
pub use timing::{Clock, CostModel, LinearCost, SimTime};
