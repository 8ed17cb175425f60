//! Deterministic fault injection.
//!
//! The crash-consistency tests need to interrupt an SMM window at
//! *every* step and prove the journal recovery restores the
//! all-or-nothing property. Faults here are injected at the machine
//! layer — the same place a real platform would surface a machine check,
//! an NMI-in-SMM, or a power loss — so the SMM handler above cannot
//! cheat: it sees an ordinary [`MachineError`] exactly where the write
//! would have landed.
//!
//! Three trigger/effect combinations cover the sweep in
//! `tests/fault_sweep.rs`:
//!
//! * fail the *n*-th SMM-context write after arming (step-indexed sweep),
//! * fail any write touching a chosen physical range (targeted faults,
//!   e.g. "the second trampoline site"),
//! * simulate power loss: the machine state is snapshotted immediately
//!   *before* the triggering write, the write faults, and the test later
//!   resumes from the snapshot as if the platform rebooted with RAM
//!   preserved (the warm-reset model the journal is designed for).
//!
//! All injected faults bump the `machine.injected_fault` telemetry
//! counter (`machine.power_loss` additionally for snapshots), so sweeps
//! can assert the fault actually fired.

use crate::machine::Machine;
use crate::timing::SimTime;

/// An attack-scenario behaviour, armed with [`Machine::arm_attack`].
///
/// Where the fault-injection plans above model *accidents* (bit flips,
/// power loss), these model an *adversary* abusing the SMM window — the
/// four behaviours the detached integrity monitor must catch. Each kind
/// fires once at the point described and then disarms:
///
/// * [`AttackKind::TamperHandlerImage`] scribbles over the sealed
///   handler image just before the next SMI entry measurement (a
///   bootkit rewriting the handler between SMIs),
/// * [`AttackKind::RogueWrite`] performs an SMM-context write outside
///   any declared patch extent at the next SMI entry (a compromised
///   handler touching memory it has no business in),
/// * [`AttackKind::JournalAbuse`] appends bogus journal-entry
///   acknowledgements after the handler committed its window (forging
///   undo state for a later malicious recovery),
/// * [`AttackKind::DwellExhaustion`] burns extra simulated time inside
///   the next SMI (an SMM-level denial of service: the OS is paused the
///   whole time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackKind {
    /// Flip a byte of the sealed handler image before the next SMI's
    /// entry measurement. No-op (stays armed) until an image is sealed.
    TamperHandlerImage,
    /// Write `len` bytes at physical `addr` under SMM context at the
    /// next SMI entry.
    RogueWrite {
        /// Target physical address.
        addr: u64,
        /// Bytes written (clamped to 1..=64).
        len: u64,
    },
    /// Append `extra_entries` bogus journal-entry acknowledgements at
    /// the end of the next SMI that actually opened a journal window.
    JournalAbuse {
        /// Forged entry count appended after the commit.
        extra_entries: u64,
    },
    /// Charge `extra` simulated time inside the next SMI.
    DwellExhaustion {
        /// Extra dwell burned inside the SMI.
        extra: SimTime,
    },
}

/// What condition fires the injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectionTrigger {
    /// The `n`-th (0-based) SMM-context write performed after arming.
    NthSmmWrite(u64),
    /// Any write (any privilege context) touching `[base, base + len)`.
    WriteTouching {
        /// Base physical address of the watched range.
        base: u64,
        /// Length of the watched range in bytes.
        len: u64,
    },
}

impl InjectionTrigger {
    fn matches(&self, smm_write_index: u64, is_smm: bool, addr: u64, len: usize) -> bool {
        match *self {
            InjectionTrigger::NthSmmWrite(n) => is_smm && smm_write_index == n,
            InjectionTrigger::WriteTouching { base, len: rlen } => {
                let end = addr.saturating_add(len as u64);
                addr < base.saturating_add(rlen) && end > base
            }
        }
    }
}

/// What happens when the trigger fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InjectionAction {
    /// The write faults with [`crate::MachineError::InjectedFault`];
    /// memory is left untouched.
    #[default]
    FailWrite,
    /// As [`InjectionAction::FailWrite`], but the machine state is first
    /// snapshotted so the test can resume from the instant of the loss
    /// via [`Machine::take_power_loss_snapshot`] +
    /// [`Machine::restore_from_snapshot`].
    PowerLoss,
}

/// A deterministic fault-injection plan, armed on a [`Machine`] with
/// [`Machine::arm_injection`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectionPlan {
    /// When to fire.
    pub trigger: InjectionTrigger,
    /// What to do when firing.
    pub action: InjectionAction,
    /// Fire at most once (the default). A persistent plan re-faults
    /// every matching write until disarmed — this models a *stuck*
    /// fault (e.g. failed DRAM row) rather than a transient one.
    pub one_shot: bool,
}

impl InjectionPlan {
    /// Fail the `n`-th SMM-context write after arming (one-shot).
    pub fn fail_nth_smm_write(n: u64) -> Self {
        Self {
            trigger: InjectionTrigger::NthSmmWrite(n),
            action: InjectionAction::FailWrite,
            one_shot: true,
        }
    }

    /// Fail any write touching `[base, base + len)` until disarmed.
    pub fn fault_range(base: u64, len: u64) -> Self {
        Self {
            trigger: InjectionTrigger::WriteTouching { base, len },
            action: InjectionAction::FailWrite,
            one_shot: false,
        }
    }

    /// Power loss at the `n`-th SMM-context write after arming.
    pub fn power_loss_at_smm_write(n: u64) -> Self {
        Self {
            trigger: InjectionTrigger::NthSmmWrite(n),
            action: InjectionAction::PowerLoss,
            one_shot: true,
        }
    }

    /// Make the plan fire on every matching write instead of once.
    pub fn persistent(mut self) -> Self {
        self.one_shot = false;
        self
    }
}

/// Counters describing what an armed plan observed; returned by
/// [`Machine::disarm_injection`] and [`Machine::injection_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InjectionStats {
    /// SMM-context writes seen since arming (including faulted ones).
    pub smm_writes_seen: u64,
    /// Faults injected since arming.
    pub faults_injected: u64,
}

/// Live state of an armed plan (owned by the [`Machine`]).
#[derive(Debug, Clone)]
pub(crate) struct InjectionState {
    plan: InjectionPlan,
    stats: InjectionStats,
    snapshot: Option<MachineSnapshot>,
}

impl InjectionState {
    pub(crate) fn new(plan: InjectionPlan) -> Self {
        Self {
            plan,
            stats: InjectionStats::default(),
            snapshot: None,
        }
    }

    pub(crate) fn stats(&self) -> InjectionStats {
        self.stats
    }

    pub(crate) fn take_snapshot(&mut self) -> Option<MachineSnapshot> {
        self.snapshot.take()
    }

    /// Decide whether the write at `addr..addr+len` under (non-)SMM
    /// context `is_smm` faults. Returns the action to perform, if any;
    /// the caller captures the snapshot (it owns the machine).
    pub(crate) fn on_write(
        &mut self,
        is_smm: bool,
        addr: u64,
        len: usize,
    ) -> Option<InjectionAction> {
        let idx = self.stats.smm_writes_seen;
        if is_smm {
            self.stats.smm_writes_seen += 1;
        }
        let spent = self.plan.one_shot && self.stats.faults_injected > 0;
        if spent || !self.plan.trigger.matches(idx, is_smm, addr, len) {
            return None;
        }
        self.stats.faults_injected += 1;
        Some(self.plan.action)
    }

    pub(crate) fn store_snapshot(&mut self, snap: MachineSnapshot) {
        // Keep the *first* loss: a persistent power-loss plan models one
        // reboot, not several.
        self.snapshot.get_or_insert(snap);
    }
}

/// A resumable copy of the complete machine state (memory, CPU, mode,
/// clock), taken at the instant of an injected power loss or manually
/// via [`Machine::snapshot`]. Memory is sparse, so the copy holds the
/// machine's written extents only.
///
/// The model is a warm reset: RAM contents (including SMRAM and its
/// lock) survive, the CPU restarts in Protected Mode with a cleared
/// register file. This is deliberately the *most adversarial* model for
/// crash consistency — everything the interrupted SMM handler half-wrote
/// is still there when recovery runs.
#[derive(Debug, Clone)]
pub struct MachineSnapshot {
    pub(crate) inner: Box<Machine>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::MachineError;
    use crate::layout::MemLayout;
    use crate::machine::AccessCtx;

    fn machine() -> Machine {
        Machine::new(MemLayout::standard()).unwrap()
    }

    #[test]
    fn nth_smm_write_faults_exactly_once() {
        let mut m = machine();
        m.raise_smi().unwrap();
        let base = m.smram_scratch_base();
        m.arm_injection(InjectionPlan::fail_nth_smm_write(2));
        m.write_bytes(AccessCtx::Smm, base, &[1]).unwrap();
        m.write_bytes(AccessCtx::Smm, base + 1, &[2]).unwrap();
        let err = m.write_bytes(AccessCtx::Smm, base + 2, &[3]).unwrap_err();
        assert!(
            matches!(err, MachineError::InjectedFault { write_index: 2, .. }),
            "{err:?}"
        );
        // One-shot: the next write succeeds.
        m.write_bytes(AccessCtx::Smm, base + 3, &[4]).unwrap();
        let stats = m.disarm_injection().unwrap();
        assert_eq!(stats.faults_injected, 1);
        assert_eq!(stats.smm_writes_seen, 4);
        // Memory untouched at the faulted address.
        let mut b = [0u8; 1];
        m.read_bytes(AccessCtx::Smm, base + 2, &mut b).unwrap();
        assert_eq!(b, [0]);
    }

    #[test]
    fn kernel_writes_do_not_advance_the_smm_counter() {
        let mut m = machine();
        let data = m.layout().kernel_data_base;
        m.arm_injection(InjectionPlan::fail_nth_smm_write(0));
        // Kernel writes sail through and do not consume the trigger.
        m.write_bytes(AccessCtx::Kernel, data, &[1, 2, 3]).unwrap();
        m.raise_smi().unwrap();
        let base = m.smram_scratch_base();
        assert!(m.write_bytes(AccessCtx::Smm, base, &[1]).is_err());
    }

    #[test]
    fn range_fault_is_persistent_and_context_blind() {
        let mut m = machine();
        let data = m.layout().kernel_data_base;
        m.arm_injection(InjectionPlan::fault_range(data + 8, 8));
        // Outside the range: fine.
        m.write_bytes(AccessCtx::Kernel, data, &[0u8; 8]).unwrap();
        // Touching it: faults, repeatedly.
        assert!(m.write_bytes(AccessCtx::Kernel, data + 8, &[1]).is_err());
        assert!(m.write_bytes(AccessCtx::Kernel, data + 12, &[1]).is_err());
        // Straddling writes fault too.
        assert!(m
            .write_bytes(AccessCtx::Kernel, data + 4, &[0u8; 8])
            .is_err());
        m.raise_smi().unwrap();
        assert!(m.write_bytes(AccessCtx::Smm, data + 8, &[1]).is_err());
        let stats = m.disarm_injection().unwrap();
        assert_eq!(stats.faults_injected, 4);
        // Disarmed: the write lands.
        m.write_bytes(AccessCtx::Smm, data + 8, &[1]).unwrap();
    }

    #[test]
    fn power_loss_snapshots_state_before_the_write() {
        let mut m = machine();
        m.raise_smi().unwrap();
        let base = m.smram_scratch_base();
        m.write_bytes(AccessCtx::Smm, base, &[0xAA]).unwrap();
        m.arm_injection(InjectionPlan::power_loss_at_smm_write(0));
        let err = m.write_bytes(AccessCtx::Smm, base, &[0xBB]).unwrap_err();
        assert!(matches!(
            err,
            MachineError::InjectedFault {
                power_loss: true,
                ..
            }
        ));
        let snap = m.take_power_loss_snapshot().expect("snapshot captured");
        // Scribble over live state, then resume from the snapshot.
        m.write_bytes(AccessCtx::Smm, base, &[0xCC]).unwrap();
        m.restore_from_snapshot(snap);
        // Warm reset: protected mode, registers cleared, RAM preserved
        // from the instant *before* the faulting write.
        assert_eq!(m.mode(), crate::cpu::CpuMode::Protected);
        m.raise_smi().unwrap();
        let mut b = [0u8; 1];
        m.read_bytes(AccessCtx::Smm, base, &mut b).unwrap();
        assert_eq!(b, [0xAA]);
        // The restored machine carries no armed plan.
        assert!(m.injection_stats().is_none());
    }

    #[test]
    fn manual_snapshot_roundtrip() {
        let mut m = machine();
        let data = m.layout().kernel_data_base;
        m.write_u64(AccessCtx::Kernel, data, 42).unwrap();
        let snap = m.snapshot();
        m.write_u64(AccessCtx::Kernel, data, 7).unwrap();
        m.restore_from_snapshot(snap);
        assert_eq!(m.read_u64(AccessCtx::Kernel, data).unwrap(), 42);
    }

    #[test]
    fn arming_replaces_prior_plan() {
        let mut m = machine();
        m.arm_injection(InjectionPlan::fail_nth_smm_write(0));
        m.arm_injection(InjectionPlan::fail_nth_smm_write(5));
        m.raise_smi().unwrap();
        let base = m.smram_scratch_base();
        // Write 0 succeeds under the replacement plan.
        m.write_bytes(AccessCtx::Smm, base, &[1]).unwrap();
        assert_eq!(m.injection_stats().unwrap().smm_writes_seen, 1);
    }
}
