//! The million-machine roll-up gate: across worker counts {1, 8} and
//! pipeline depths {1, 4} — with one injected fault and retry in the
//! fleet — the campaign's incremental Merkle root is byte-identical to
//! the root computed from the fleet's full digest vector, its summary
//! counters match the sequential reference exactly, and its digest
//! tree stays orders of magnitude below the digest vector.

use std::sync::OnceLock;

use kshot_cve::{find, patch_for};
use kshot_fleet::{run_campaign, CampaignReport, CampaignTarget, FleetConfig, PlannedFault};
use kshot_telemetry::DigestTree;

const MACHINES: usize = 12;

/// Shared expensive fixture (tree link + server build); campaigns never
/// mutate it.
fn fixture() -> &'static (CampaignTarget, Vec<u8>) {
    static FIXTURE: OnceLock<(CampaignTarget, Vec<u8>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let spec = find("CVE-2017-17806").expect("benchmark CVE exists");
        let (target, server) = CampaignTarget::benchmark(spec.version);
        let info = target.boot_one().info();
        let build = server
            .build_patch(&info, &patch_for(spec))
            .expect("server builds the CVE patch");
        (target, build.bundle.encode())
    })
}

fn base(workers: usize, depth: usize) -> FleetConfig {
    FleetConfig::new(MACHINES, workers)
        .with_seed(0xF01D)
        .with_pipeline_depth(depth)
        .with_fault(PlannedFault {
            machine: 5,
            smm_write_index: 3,
        })
}

/// The scheduler sweep the roll-up must be invariant under.
const SWEEP: &[(&str, usize, usize)] = &[
    ("w1-d1", 1, 1),
    ("w1-d4", 1, 4),
    ("w8-d1", 8, 1),
    ("w8-d4", 8, 4),
];

/// The sequential (one worker, depth 1) campaign every other schedule
/// is compared against.
fn sequential_reference() -> &'static CampaignReport {
    static REF: OnceLock<CampaignReport> = OnceLock::new();
    REF.get_or_init(|| {
        let (target, bytes) = fixture();
        let report = run_campaign(target, bytes, &base(1, 1));
        assert_eq!(report.succeeded, MACHINES, "{:?}", report.exemplars());
        assert_eq!(report.retries, 1);
        report
    })
}

/// Fold root == from_leaves(digest vector) root, at every worker count
/// and depth, with identical summary counters. The fleet converges to
/// one applied state, so its digest vector is the reference digest
/// repeated once per machine.
#[test]
fn fold_root_equals_retained_vector_root_across_schedulers() {
    let (target, bytes) = fixture();
    let reference = sequential_reference();
    assert!(reference.all_identical_digests());
    let digest = reference.fold.reference_digest().expect("machine 0 digest");
    let leaves = vec![digest; MACHINES];
    let vector_root = DigestTree::from_leaves(&leaves).root();
    let vector_bytes = leaves.len() * std::mem::size_of::<[u8; 32]>();
    for &(label, workers, depth) in SWEEP {
        let report = run_campaign(target, bytes, &base(workers, depth));
        assert_eq!(report.succeeded, MACHINES, "{label}");
        assert_eq!(report.retries, reference.retries, "{label}");
        assert_eq!(report.faults_injected, reference.faults_injected, "{label}");
        let fold = &report.fold;
        assert_eq!(
            fold.merkle_root(),
            vector_root,
            "{label}: fold root diverged from the digest-vector root"
        );
        assert!(
            report.all_identical_digests(),
            "{label}: uniform fleet reads as uniform through the fold"
        );
        // Only the retried machine is kept whole.
        let kept: Vec<usize> = report.exemplars().iter().map(|o| o.machine).collect();
        assert_eq!(kept, [5], "{label}");
        // The tree alone must stay logarithmic — far below even this
        // small fleet's digest vector (the report-level fold carries
        // fixed-size sketch/counter overhead on top).
        assert!(
            fold.tree.resident_bytes() < vector_bytes as u64,
            "{label}: tree frontier ({}) outweighs the digest vector ({vector_bytes})",
            fold.tree.resident_bytes()
        );
    }
}

/// A pipelined multi-worker campaign and the sequential one summarize
/// identically — scheduling moves wall time, never totals.
#[test]
fn fold_and_retained_reports_summarize_identically() {
    let (target, bytes) = fixture();
    let reference = sequential_reference();
    let report = run_campaign(target, bytes, &base(2, 4));
    assert_eq!(report.succeeded, reference.succeeded);
    assert_eq!(report.failed, reference.failed);
    assert_eq!(report.retries, reference.retries);
    assert_eq!(report.faults_injected, reference.faults_injected);
    assert_eq!(report.digest_root(), reference.digest_root());
    assert_eq!(report.latency_p50, reference.latency_p50);
    assert_eq!(report.latency_max, reference.latency_max);
    // Simulated throughput derives from the slowest machine's clock,
    // which the fold tracks exactly.
    assert_eq!(report.throughput_sim, reference.throughput_sim);
    assert_eq!(
        report.all_identical_digests(),
        reference.all_identical_digests()
    );
}
