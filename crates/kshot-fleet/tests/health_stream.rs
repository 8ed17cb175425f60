//! The health-plane determinism gate: a campaign's emitted
//! `health.jsonl` is **byte-identical** across worker counts and
//! pipeline depths for a fixed seed — windows are machine-index
//! cohorts, every snapshot field is integer-valued and derived purely
//! from shard contents, and the mergeable sketches are order-
//! independent, so nothing about scheduling can leak into the stream.
//!
//! Also pins the verdict ladder end-to-end: an injected fault that
//! retries trips a deterministic `Degraded` window, and the same fault
//! with no retry budget trips `Halt`.

use std::sync::OnceLock;

use kshot_cve::{find, patch_for};
use kshot_fleet::{run_campaign, CampaignHealth, CampaignTarget, FleetConfig, PlannedFault};
use kshot_telemetry::{HealthPolicy, ShardData, SMM_DWELL_METRIC};

const MACHINES: usize = 6;
const WINDOW: usize = 2;

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

/// One retry in a 2-machine window is 500 per-mille — over the 250
/// ceiling, so the faulted window degrades deterministically.
fn policy() -> HealthPolicy {
    HealthPolicy::new()
        .with_failure_per_mille(50, 300)
        .with_retry_ceiling_per_mille(250)
}

fn base_config(workers: usize, depth: usize) -> FleetConfig {
    FleetConfig::new(MACHINES, workers)
        .with_seed(0x4EA1)
        .with_pipeline_depth(depth)
        .with_fault(PlannedFault {
            machine: 2,
            smm_write_index: 3,
        })
}

#[test]
fn health_stream_is_byte_identical_across_schedulers() {
    let (target, bytes) = fixture();
    let scratch = std::env::temp_dir().join(format!("kshot-health-det-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    let run = |label: &str, workers: usize, depth: usize| -> (CampaignHealth, String) {
        let dir = scratch.join(label);
        let config = base_config(workers, depth)
            .with_stream_dir(&dir)
            .with_health(policy(), WINDOW);
        let report = run_campaign(target, bytes, &config);
        assert_eq!(
            report.succeeded,
            MACHINES,
            "{label}: {:?}",
            report.exemplars()
        );
        assert_eq!(report.retries, 1, "{label}");
        let health = report.health.clone().expect("armed monitor reports");

        // Every window was emitted, in sequence, covering the fleet.
        assert_eq!(health.report.snapshots.len(), MACHINES / WINDOW, "{label}");
        for (i, snap) in health.report.snapshots.iter().enumerate() {
            assert_eq!(snap.seq, i as u64, "{label}");
            assert_eq!(snap.window_start, (i * WINDOW) as u64, "{label}");
        }
        assert_eq!(health.report.machines_seen, MACHINES as u64, "{label}");
        assert_eq!(health.report.total.machines, MACHINES as u64, "{label}");

        // The faulted machine (2) lands in window [2,4): its retry rate
        // is 500 per-mille, over the 250 ceiling -> Degraded; the other
        // windows stay healthy.
        let verdicts: Vec<&str> = health
            .report
            .snapshots
            .iter()
            .map(|s| s.verdict.label())
            .collect();
        assert_eq!(verdicts, ["healthy", "degraded", "healthy"], "{label}");
        assert_eq!(health.report.final_verdict().label(), "degraded", "{label}");
        assert_eq!(health.report.max_retry_per_mille(), 500, "{label}");
        assert_eq!(health.report.max_failure_per_mille(), 0, "{label}");

        // The streamed file is exactly the in-memory snapshot sequence.
        let streamed = std::fs::read_to_string(dir.join("health.jsonl")).unwrap();
        let expected: String = health
            .report
            .snapshots
            .iter()
            .map(|s| format!("{}\n", s.to_json_line()))
            .collect();
        assert_eq!(streamed, expected, "{label}: stream != snapshots");

        // The monitor's total dwell signal equals the merged shards' —
        // and the merge is order-independent: a hierarchical tree merge
        // of the worker shards serializes identically to a sequential
        // fold.
        let shard_texts: Vec<ShardData> = (0..workers)
            .map(|w| {
                let path = dir.join(format!("worker-{w}.jsonl"));
                ShardData::parse(&std::fs::read_to_string(&path).unwrap())
                    .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
            })
            .collect();
        let mut sequential = ShardData::new();
        for s in &shard_texts {
            sequential.merge_from(s);
        }
        let tree = ShardData::merge_tree(shard_texts);
        let seq_dwell = sequential.sketch(SMM_DWELL_METRIC).expect("dwell sketch");
        let tree_dwell = tree.sketch(SMM_DWELL_METRIC).expect("dwell sketch");
        assert_eq!(
            seq_dwell.to_json_line(SMM_DWELL_METRIC),
            tree_dwell.to_json_line(SMM_DWELL_METRIC),
            "{label}: tree merge diverged from sequential fold"
        );
        assert_eq!(
            seq_dwell.count(),
            health.report.total.dwell_samples,
            "{label}: monitor total != merged shards"
        );
        assert_eq!(
            seq_dwell.quantile_per_mille(500),
            health.report.total.dwell_p50_ns,
            "{label}"
        );
        assert!(health.report.resident_sketch_bytes > 0, "{label}");
        assert!(health.report.lines_consumed > 0, "{label}");

        (health, streamed)
    };

    let (_, reference) = run("seq", 1, 1);
    for (label, workers, depth) in [
        ("w1-d4", 1, 4),
        ("w1-dmax", 1, MACHINES),
        ("w8-d1", 8, 1),
        ("w8-d4", 8, 4),
        ("w8-dmax", 8, MACHINES),
    ] {
        let (_, streamed) = run(label, workers, depth);
        assert_eq!(
            streamed, reference,
            "{label}: health.jsonl diverged from the sequential reference"
        );
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn exhausted_fault_budget_halts_the_campaign() {
    let (target, bytes) = fixture();
    let dir = std::env::temp_dir().join(format!("kshot-health-halt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = base_config(2, 2)
        .with_stream_dir(&dir)
        .with_health(policy(), WINDOW);
    config.max_attempts = 1; // the fault fires and there is no retry
    let report = run_campaign(target, bytes, &config);
    assert_eq!(report.failed, 1);

    let health = report.health.expect("armed monitor reports");
    // Window [2,4): 1 failure of 2 machines = 500 per-mille, over the
    // 300 halt ceiling.
    let snap = &health.report.snapshots[1];
    assert_eq!(snap.verdict.severity(), 2, "{:?}", snap.verdict);
    assert_eq!(snap.window.failure_per_mille, 500);
    assert_eq!(health.report.final_verdict().label(), "halt");
    assert_eq!(health.report.max_failure_per_mille(), 500);
    // There is no Degraded window in this campaign: a live Halt must
    // land in `halt_live`, never be collapsed into `degraded_live`.
    assert!(!health.degraded_live);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[should_panic(expected = "requires with_stream_dir")]
fn arming_health_without_streaming_panics_loudly() {
    let (target, bytes) = fixture();
    let config = FleetConfig::new(1, 1).with_health(HealthPolicy::new(), WINDOW);
    let _ = run_campaign(target, bytes, &config);
}
