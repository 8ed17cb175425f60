//! Streaming outcome folding: the memory-bounded summary every
//! campaign keeps instead of a per-machine outcome vector.
//!
//! A machine's [`MachineOutcome`] owns an error string, a flight ring
//! and ~200 fixed bytes; a million of them is gigabytes. An
//! [`OutcomeFold`] absorbs each outcome the moment its session retires
//! and keeps only what the report derives from it: counters, a
//! mergeable latency [`QuantileSketch`], capped dwell-anomaly
//! attribution, a capped ring of *exemplars* (full outcomes of every
//! machine that was not clean), and a [`DigestTree`] Merkle roll-up
//! whose root replaces the all-pairs digest comparison. Resident size
//! is O(log machines) for the tree plus O(1) for everything else,
//! independent of fleet size.
//!
//! The digest tree's root is order-canonical, so outcomes must be
//! absorbed in machine order. Pipelined and multi-worker campaigns
//! retire machines out of order; [`OutcomeFold::retire`] takes them in
//! any order, parks early arrivals in a reorder buffer, and absorbs
//! every outcome that is next in machine order. The buffer holds only
//! what the fastest worker has retired ahead of the slowest, and its
//! high-water mark is reported.

use std::collections::BTreeMap;

use kshot_machine::{SimTime, SmiCause};
use kshot_telemetry::{DigestTree, QuantileSketch};

use crate::campaign::MachineOutcome;
use crate::report::DWELL_ANOMALY_CAP;

/// Running summary of a campaign's outcomes, absorbed in machine order.
#[derive(Debug, Clone)]
pub struct OutcomeFold {
    /// One past the last absorbed machine index.
    next: usize,
    /// Machines whose patch ultimately applied.
    pub succeeded: u64,
    /// Machines that exhausted their attempts (or were never admitted).
    pub failed: u64,
    /// Total failed-then-retried attempts.
    pub retries: u64,
    /// Faults the injection engine actually fired.
    pub faults_injected: u64,
    /// SMM-context writes observed under armed injection plans.
    pub injection_writes_seen: u64,
    /// SMIs that exceeded the campaign dwell budget, fleet-wide.
    pub smm_overbudget: u64,
    /// Machines whose `recover()` failed terminally.
    pub recovery_failed: u64,
    /// Machines rolled back after a wave Halt.
    pub rolled_back: u64,
    /// Non-revertible sites skipped across all rollbacks.
    pub rollback_skipped: u64,
    /// Machines whose rollback failed even after journal recovery.
    pub rollback_failed: u64,
    /// Machines a stopped rollout never admitted.
    pub not_admitted: u64,
    /// Successful-session latency distribution. Its max is exact; its
    /// percentiles never undershoot the exact nearest-rank sample and
    /// overshoot it by at most
    /// [`QuantileSketch::MAX_RELATIVE_ERROR_PER_MILLE`].
    pub latency: QuantileSketch,
    /// Slowest machine clock — the simulated-domain campaign duration.
    pub slowest_sim_clock: SimTime,
    /// Longest single SMM dwell observed on any machine.
    pub max_smm_dwell: SimTime,
    /// First [`DWELL_ANOMALY_CAP`] flagged machine indices.
    pub dwell_anomalies: Vec<usize>,
    /// SMI attribution for `dwell_anomalies` (entries whose worst SMI
    /// was never observed are omitted).
    pub dwell_anomaly_smis: Vec<(usize, u64, SmiCause)>,
    /// Flagged machines beyond the cap — attribution dropped, count kept.
    pub dwell_anomalies_truncated: u64,
    /// Full outcomes of the first [`DWELL_ANOMALY_CAP`] machines that
    /// were not clean: failed, retried, faulted, over the dwell budget,
    /// rolled back, or never admitted. Clean outcomes are absorbed and
    /// dropped without a copy.
    pub exemplars: Vec<MachineOutcome>,
    /// Non-clean machines beyond the exemplar cap.
    pub exemplars_truncated: u64,
    /// Merkle accumulator over the state digests, in machine order.
    /// Root equality across campaigns replaces comparing a million
    /// 32-byte digests pairwise.
    pub tree: DigestTree,
    /// Most outcomes the reorder buffer ever held at once.
    pub reorder_high_water: usize,
    /// Outcomes retired ahead of `next`, waiting for their turn.
    pending: BTreeMap<usize, MachineOutcome>,
    /// The first state digest — the uniformity reference.
    reference_digest: Option<[u8; 32]>,
    /// First machine whose digest differs from `reference_digest`.
    first_divergence: Option<usize>,
}

impl OutcomeFold {
    /// An empty fold whose first absorbed machine must be machine 0.
    pub fn new() -> OutcomeFold {
        OutcomeFold {
            next: 0,
            succeeded: 0,
            failed: 0,
            retries: 0,
            faults_injected: 0,
            injection_writes_seen: 0,
            smm_overbudget: 0,
            recovery_failed: 0,
            rolled_back: 0,
            rollback_skipped: 0,
            rollback_failed: 0,
            not_admitted: 0,
            latency: QuantileSketch::new(),
            slowest_sim_clock: SimTime::ZERO,
            max_smm_dwell: SimTime::ZERO,
            dwell_anomalies: Vec::new(),
            dwell_anomaly_smis: Vec::new(),
            dwell_anomalies_truncated: 0,
            exemplars: Vec::new(),
            exemplars_truncated: 0,
            tree: DigestTree::new(),
            reorder_high_water: 0,
            pending: BTreeMap::new(),
            reference_digest: None,
            first_divergence: None,
        }
    }

    /// Machines absorbed so far.
    pub fn machines(&self) -> usize {
        self.next
    }

    /// Outcomes currently parked in the reorder buffer.
    pub(crate) fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Take a retired machine's outcome in any order: absorb it if it is
    /// next in machine order (then drain every buffered successor),
    /// otherwise park it until its predecessors retire.
    pub fn retire(&mut self, outcome: MachineOutcome) {
        if outcome.machine != self.next {
            self.pending.insert(outcome.machine, outcome);
            self.reorder_high_water = self.reorder_high_water.max(self.pending.len());
            return;
        }
        self.absorb(&outcome);
        while let Some(o) = self.pending.remove(&self.next) {
            self.absorb(&o);
        }
    }

    /// Absorb one retired machine's outcome. Outcomes must arrive in
    /// machine order — that is what makes the digest tree's root
    /// order-canonical — so the caller must not skip or repeat indices
    /// (use [`OutcomeFold::retire`] when they may arrive out of order).
    pub fn absorb(&mut self, o: &MachineOutcome) {
        assert_eq!(
            o.machine, self.next,
            "fold absorbs machines in canonical order"
        );
        self.next += 1;
        if o.ok {
            self.succeeded += 1;
        } else {
            self.failed += 1;
        }
        self.retries += o.retries;
        self.faults_injected += o.faults_injected;
        self.injection_writes_seen += o.injection_writes_seen;
        self.smm_overbudget += o.smm_overbudget;
        self.recovery_failed += u64::from(o.recovery_failed);
        self.rolled_back += u64::from(o.rolled_back);
        self.rollback_skipped += o.rollback_skipped;
        self.rollback_failed += u64::from(o.rollback_failed);
        self.not_admitted += u64::from(!o.admitted);
        if let Some(latency) = o.latency {
            self.latency.observe(latency.as_ns());
        }
        self.slowest_sim_clock = self.slowest_sim_clock.max(o.sim_clock);
        self.max_smm_dwell = self.max_smm_dwell.max(o.max_smm_dwell);
        if o.smm_overbudget > 0
            && push_capped(
                &mut self.dwell_anomalies,
                &mut self.dwell_anomalies_truncated,
                || o.machine,
            )
        {
            if let Some((smi, cause)) = o.dwell_worst {
                self.dwell_anomaly_smis.push((o.machine, smi, cause));
            }
        }
        if !is_clean(o) {
            push_capped(&mut self.exemplars, &mut self.exemplars_truncated, || {
                o.clone()
            });
        }
        self.tree.append(o.state_digest);
        match self.reference_digest {
            None => self.reference_digest = Some(o.state_digest),
            Some(reference) => {
                if self.first_divergence.is_none() && o.state_digest != reference {
                    self.first_divergence = Some(o.machine);
                }
            }
        }
    }

    /// Root of the Merkle roll-up over every absorbed digest.
    pub fn merkle_root(&self) -> [u8; 32] {
        self.tree.root()
    }

    /// Whether every absorbed digest was identical — the fleet-wide
    /// byte-identical-state property, answered without retaining a
    /// single digest beyond the reference. Vacuously true when empty.
    pub fn all_identical_digests(&self) -> bool {
        self.first_divergence.is_none()
    }

    /// First machine whose digest differed from machine 0's, if any.
    pub fn first_divergence(&self) -> Option<usize> {
        self.first_divergence
    }

    /// Machine 0's state digest — the one every other machine is
    /// compared against. `None` before anything is absorbed.
    pub fn reference_digest(&self) -> Option<[u8; 32]> {
        self.reference_digest
    }

    /// Bytes of state this fold keeps resident: the struct itself, the
    /// latency sketch's buckets, the capped anomaly and exemplar lists,
    /// the reorder buffer at its high-water mark, and the logarithmic
    /// digest-tree frontier. This is the number the scale benchmark
    /// compares against `machines × sizeof(MachineOutcome)`.
    pub fn resident_bytes(&self) -> u64 {
        let outcome = std::mem::size_of::<MachineOutcome>();
        (std::mem::size_of::<OutcomeFold>()
            + self.dwell_anomalies.capacity() * std::mem::size_of::<usize>()
            + self.dwell_anomaly_smis.capacity() * std::mem::size_of::<(usize, u64, SmiCause)>()
            + self.exemplars.capacity() * outcome
            + self.reorder_high_water * (outcome + std::mem::size_of::<usize>())) as u64
            + self.latency.resident_bytes()
            + self.tree.resident_bytes()
    }
}

impl Default for OutcomeFold {
    fn default() -> Self {
        OutcomeFold::new()
    }
}

/// Whether an outcome is unremarkable enough to drop after absorbing:
/// applied first try, no fault fired, within the dwell budget, never
/// rolled back, and admitted.
fn is_clean(o: &MachineOutcome) -> bool {
    o.ok && o.retries == 0
        && o.faults_injected == 0
        && o.smm_overbudget == 0
        && !o.rolled_back
        && !o.rollback_failed
        && !o.recovery_failed
        && o.admitted
}

/// Push `item()` onto `list` unless it already holds
/// [`DWELL_ANOMALY_CAP`] entries, in which case count the overflow in
/// `truncated` instead. Returns whether the item was kept.
fn push_capped<T>(list: &mut Vec<T>, truncated: &mut u64, item: impl FnOnce() -> T) -> bool {
    if list.len() < DWELL_ANOMALY_CAP {
        list.push(item());
        true
    } else {
        *truncated += 1;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(machine: usize, ok: bool, latency_ns: u64, digest: u8) -> MachineOutcome {
        MachineOutcome {
            machine,
            worker: 0,
            attempts: 1,
            retries: u64::from(!ok),
            ok,
            error: (!ok).then(|| "boom".to_string()),
            latency: ok.then(|| SimTime::from_ns(latency_ns)),
            sim_clock: SimTime::from_ns(latency_ns * 2),
            state_digest: [digest; 32],
            faults_injected: 0,
            injection_writes_seen: 0,
            smm_overbudget: 0,
            max_smm_dwell: SimTime::ZERO,
            recovery_failed: false,
            rolled_back: false,
            rollback_skipped: 0,
            rollback_failed: false,
            admitted: true,
            flight: Vec::new(),
            dwell_worst: None,
        }
    }

    #[test]
    fn uniform_fleet_reads_as_identical() {
        // Retire 64 machines in reversed blocks of 8, as eight
        // pipelined workers might: the reorder buffer must hand them to
        // the fold in machine order, holding at most one block back.
        let mut fold = OutcomeFold::new();
        for block in 0..8 {
            for m in (block * 8..block * 8 + 8).rev() {
                fold.retire(outcome(m, true, 500, 3));
            }
            assert_eq!(fold.pending(), 0, "block {block} drained");
        }
        assert_eq!(fold.machines(), 64);
        assert_eq!(fold.reorder_high_water, 7);
        assert!(fold.all_identical_digests());
        assert_eq!(fold.first_divergence(), None);
        assert_eq!(fold.reference_digest(), Some([3u8; 32]));
        assert!(fold.exemplars.is_empty(), "clean outcomes are not kept");
        // The root matches a tree built from the digest vector — the
        // equality the scale benchmark asserts at fleet size.
        let leaves = vec![[3u8; 32]; 64];
        assert_eq!(fold.merkle_root(), DigestTree::from_leaves(&leaves).root());
    }

    #[test]
    fn dwell_anomalies_cap_and_count_truncation() {
        let mut fold = OutcomeFold::new();
        for m in 0..DWELL_ANOMALY_CAP + 10 {
            let mut o = outcome(m, true, 100, 1);
            o.smm_overbudget = 1;
            o.dwell_worst = Some((3, SmiCause::Patch));
            fold.absorb(&o);
        }
        assert_eq!(fold.dwell_anomalies.len(), DWELL_ANOMALY_CAP);
        assert_eq!(fold.dwell_anomaly_smis.len(), DWELL_ANOMALY_CAP);
        assert_eq!(fold.dwell_anomalies_truncated, 10);
        // Every flagged machine is also an exemplar: the same cap, the
        // same overflow count, and the kept outcomes are the first ones.
        assert_eq!(fold.exemplars.len(), DWELL_ANOMALY_CAP);
        assert_eq!(fold.exemplars_truncated, 10);
        assert!(fold
            .exemplars
            .iter()
            .enumerate()
            .all(|(i, o)| o.machine == i && o.smm_overbudget == 1));
        // A failure past the cap is still counted, in both the verdict
        // counters and the exemplar overflow.
        fold.absorb(&outcome(DWELL_ANOMALY_CAP + 10, false, 100, 1));
        assert_eq!(fold.failed, 1);
        assert_eq!(fold.exemplars.len(), DWELL_ANOMALY_CAP);
        assert_eq!(fold.exemplars_truncated, 11);
        assert_eq!(fold.dwell_anomalies_truncated, 10);
    }

    #[test]
    fn resident_bytes_stay_logarithmic_in_machines() {
        let mut fold = OutcomeFold::new();
        for m in 0..100_000 {
            fold.absorb(&outcome(m, true, 1_000 + (m as u64 % 977), 6));
        }
        // 100k absorbed outcomes; the fold keeps well under 16 KiB —
        // retaining the outcomes would be tens of megabytes.
        assert!(
            fold.resident_bytes() < 16 * 1024,
            "resident: {}",
            fold.resident_bytes()
        );
        assert_eq!(fold.machines(), 100_000);
        assert_eq!(fold.succeeded, 100_000);
    }
}
