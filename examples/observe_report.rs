//! Streaming observability report: push one CVE fix to 32 simulated
//! machines while every worker streams its telemetry to a per-worker
//! JSON-lines shard, watch the campaign's health *live* from those
//! shards, then rebuild the campaign picture purely from disk and prove
//! it equals the in-memory aggregate.
//!
//! ```text
//! cargo run --release --example observe_report
//! ```
//!
//! Shards land in `target/observe/worker-<N>.jsonl` (override the
//! directory with the `OBSERVE_OUT` environment variable); emitted
//! health snapshots in `target/observe/health.jsonl`; the benchmark
//! artefact in `BENCH_observe.json` (override with
//! `OBSERVE_BENCH_OUT`). The run prints four artefacts a fleet
//! operator would read:
//!
//! 1. the live health dashboard — an *external* [`HealthMonitor`]
//!    tails the worker shards while the campaign runs and prints each
//!    window the moment it completes,
//! 2. the per-phase timing table (attest → key_exchange → decrypt →
//!    verify → apply → resume) reconstructed from the shards,
//! 3. the SMM dwell-time anomaly list — one machine is deliberately
//!    slowed 10× in SMM and must be the only machine flagged, *and*
//!    the only window the health policy degrades,
//! 4. the campaign health summary.
//!
//! It exits non-zero unless the shard re-aggregation matches the
//! in-memory merge exactly AND the slowed machine's window was flagged
//! in a Degraded snapshot *before the campaign completed* — the
//! mid-campaign detection the health plane exists for.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use kshot::fleet::{
    run_campaign, CampaignTarget, FleetConfig, HealthPolicy, IntegrityPolicy, PlannedAttack,
    PlannedSlowdown,
};
use kshot::telemetry::json::Value;
use kshot::telemetry::{HealthMonitor, ShardData, SMM_DWELL_METRIC};
use kshot_cve::{find, patch_for};
use kshot_machine::{AttackKind, MemLayout, SimTime};

const MACHINES: usize = 32;
const WORKERS: usize = 4;
const SLOW_MACHINE: usize = 13;
const SLOW_FACTOR: u32 = 10;
const DWELL_BUDGET: SimTime = SimTime::from_us(100);
/// Machines per health window: 32 machines -> 4 cohorts; the slowed
/// machine 13 lands in window [8,16).
const HEALTH_WINDOW: usize = 8;
/// Wall-clock link RTT per attempt. This is what gives the campaign
/// enough wall time for "live" to mean something: the slow window
/// completes (and must be flagged) while later machines are still in
/// flight.
const LINK_RTT: Duration = Duration::from_millis(25);
/// Integrity dwell ceiling. Deliberately far above the *health* budget:
/// the planned 10x slowdown is a performance anomaly for the health
/// plane, not an attack, so the clean run must stay violation-free.
const INTEGRITY_DWELL: SimTime = SimTime::from_ms(5);

/// The declarative per-SMI invariants the detached monitor replays the
/// `smi` flight stream against: sealed handler measurement, the
/// machine's legitimate physical extents, and the dwell ceiling.
fn integrity_policy(layout: &MemLayout) -> IntegrityPolicy {
    IntegrityPolicy::new()
        .with_expected_measurement(kshot::core::expected_handler_measurement())
        .with_allowed_extent(layout.smram_base, layout.smram_size)
        .with_allowed_extent(layout.kernel_text_base, layout.kernel_text_size)
        .with_allowed_extent(layout.kernel_data_base, layout.kernel_data_size)
        .with_allowed_extent(layout.reserved_base, layout.reserved_size)
        .with_dwell_budget_ns(INTEGRITY_DWELL.as_ns())
}

fn main() {
    let spec = find("CVE-2017-17806").expect("benchmark CVE exists");
    let out_dir = PathBuf::from(
        std::env::var("OBSERVE_OUT").unwrap_or_else(|_| "target/observe".to_string()),
    );
    // Start clean: stale shards from an earlier run would corrupt the
    // equivalence check below.
    let _ = fs::remove_dir_all(&out_dir);

    println!(
        "== observe: {} on {MACHINES} machines, {WORKERS} workers, \
         streaming to {} ==\n",
        spec.id,
        out_dir.display()
    );

    let (target, server) = CampaignTarget::benchmark(spec.version);
    let info = target.boot_one().info();
    let build = server
        .build_patch(&info, &patch_for(spec))
        .expect("server builds the CVE patch");
    let bytes = build.bundle.encode();

    let policy = HealthPolicy::new().with_dwell_budget(DWELL_BUDGET.as_ns(), 1000);
    let config = FleetConfig::new(MACHINES, WORKERS)
        .with_seed(0x0B5E)
        .with_link_rtt(LINK_RTT)
        .with_pipeline_depth(2)
        .with_stream_dir(&out_dir)
        .with_smm_dwell_budget(DWELL_BUDGET)
        .with_slowdown(PlannedSlowdown {
            machine: SLOW_MACHINE,
            factor: SLOW_FACTOR,
        })
        .with_health(policy.clone(), HEALTH_WINDOW)
        .with_integrity(integrity_policy(&target.layout));

    // The live dashboard: a second, *external* monitor — the campaign
    // already runs its own — tailing the same shard files the way a
    // separate operator process would, printing each window as it
    // completes mid-campaign.
    let campaign_over = AtomicBool::new(false);
    let (report, external) = std::thread::scope(|scope| {
        let watcher = scope.spawn(|| {
            let shards = (0..WORKERS)
                .map(|w| out_dir.join(format!("worker-{w}.jsonl")))
                .collect();
            let mut monitor = HealthMonitor::new(policy, HEALTH_WINDOW, MACHINES, shards);
            let mut printed = 0usize;
            loop {
                let finished = campaign_over.load(Ordering::Acquire);
                monitor.poll().expect("external tailer follows the shards");
                for snap in &monitor.snapshots()[printed..] {
                    println!(
                        "live: window {:>2}..{:<2} ok={} dwell p99={} -> {}",
                        snap.window_start,
                        snap.window_end,
                        snap.window.ok,
                        SimTime::from_ns(snap.window.dwell_p99_ns),
                        snap.verdict.label(),
                    );
                }
                printed = monitor.snapshots().len();
                if finished {
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            println!(
                "\nlive dashboard (external tailer):\n{}",
                monitor.render_table()
            );
            monitor.finish().expect("external tailer final poll")
        });
        let report = run_campaign(&target, &bytes, &config);
        campaign_over.store(true, Ordering::Release);
        (report, watcher.join().expect("external tailer panicked"))
    });
    assert_eq!(report.succeeded, MACHINES, "fleet machines failed");
    assert!(report.all_identical_digests(), "applied state diverged");

    // Rebuild everything from disk.
    let mut shards = ShardData::new();
    let mut shard_lines = 0usize;
    for worker in 0..WORKERS {
        let path = out_dir.join(format!("worker-{worker}.jsonl"));
        let text = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("shard {} unreadable: {e}", path.display()));
        let lines = text.lines().filter(|l| !l.trim().is_empty()).count();
        assert!(lines > 0, "shard {} is empty", path.display());
        shard_lines += lines;
        let shard =
            ShardData::parse(&text).unwrap_or_else(|e| panic!("shard {}: {e}", path.display()));
        shards.merge_from(&shard);
        println!("read {:>40}  {lines:>5} lines", path.display().to_string());
    }

    // The lossless-streaming proof: disk == memory, field by field
    // (sketches included — `assert_metrics_match` compares them too).
    // The record stream, and with it the phase profile, lives only on
    // disk: the campaign recorder keeps metric totals.
    shards
        .assert_metrics_match(&report.recorder.metrics_snapshot())
        .expect("streamed metric totals equal the in-memory merge");
    assert!(report.recorder.records().is_empty());
    assert!(
        shards.phases.total_samples() > 0,
        "no phase samples streamed"
    );
    assert_eq!(shards.other_of_type("machine").count(), MACHINES);
    println!(
        "\nshards are lossless: {} lines re-aggregate to the in-memory \
         totals ({} spans, {} events, {} phase samples)\n",
        shard_lines,
        shards.spans,
        shards.events,
        shards.phases.total_samples()
    );

    // Phase breakdown, reconstructed from the shard files alone.
    println!("{}", shards.phases.render_table());

    // Dwell anomalies: machines whose SMIs overstayed the budget.
    println!("SMM dwell watchdog (budget {}):", DWELL_BUDGET);
    for m in shards.other_of_type("machine") {
        let over = m.get("smm_overbudget").and_then(Value::as_u64).unwrap_or(0);
        if over == 0 {
            continue;
        }
        let id = m.get("machine").and_then(Value::as_u64).unwrap_or(u64::MAX);
        let max_dwell = m
            .get("max_smm_dwell_ns")
            .and_then(Value::as_u64)
            .unwrap_or(0);
        println!(
            "  machine {id:>3}: {over} over-budget SMI(s), max dwell {} \
             ({:.1}x budget)",
            SimTime::from_ns(max_dwell),
            max_dwell as f64 / DWELL_BUDGET.as_ns() as f64
        );
    }
    assert_eq!(
        report.fold.dwell_anomalies,
        vec![SLOW_MACHINE],
        "watchdog must flag exactly the slowed machine"
    );

    // The health plane: the campaign's own monitor must have seen the
    // whole fleet, degraded exactly the slowed machine's window — and
    // done so BEFORE the campaign completed.
    let health = report.health.as_ref().expect("campaign armed a monitor");
    let snaps = &health.report.snapshots;
    assert_eq!(snaps.len(), MACHINES / HEALTH_WINDOW, "windows emitted");
    let degraded: Vec<u64> = snaps
        .iter()
        .filter(|s| s.verdict.severity() >= 1)
        .map(|s| s.window_start)
        .collect();
    assert_eq!(
        degraded,
        vec![(SLOW_MACHINE / HEALTH_WINDOW * HEALTH_WINDOW) as u64],
        "exactly the slowed machine's window degrades"
    );
    assert!(
        health.degraded_live,
        "the degraded window must be flagged before campaign completion"
    );
    assert_eq!(health.report.final_verdict().label(), "degraded");

    // The integrity plane: a clean (if slow) fleet replays with zero
    // violations, every SMI accounted for, in bounded resident memory.
    let clean = report.integrity.as_ref().expect("campaign armed integrity");
    assert_eq!(
        clean.violations, 0,
        "clean run violated: {:?}",
        clean.reasons
    );
    assert_eq!(
        clean.records_checked,
        2 * MACHINES as u64,
        "install + patch SMI per machine"
    );
    assert!(
        clean.resident_bytes < 64 * 1024,
        "integrity monitor must stay bounded, got {} bytes",
        clean.resident_bytes
    );
    println!(
        "\nINTEGRITY OK: {} flight records replayed, 0 violations, \
         {} resident bytes",
        clean.records_checked, clean.resident_bytes
    );

    // Streamed totals equal the in-memory report and the merged shards.
    assert_eq!(health.report.total.ok, report.succeeded as u64);
    assert_eq!(health.report.total.failed, report.failed as u64);
    assert_eq!(health.report.total.retries, report.retries);
    assert_eq!(
        health.report.total.smm_overbudget,
        report.fold.smm_overbudget
    );
    let merged_dwell = shards.sketch(SMM_DWELL_METRIC).expect("dwell sketch");
    assert_eq!(health.report.total.dwell_samples, merged_dwell.count());
    assert_eq!(
        health.report.total.dwell_p99_ns,
        merged_dwell.quantile_per_mille(990)
    );
    // The external tailer saw byte-identical snapshots, and the emitted
    // health.jsonl is exactly that sequence.
    assert_eq!(external.snapshots, *snaps, "external tailer diverged");
    let streamed: String = snaps
        .iter()
        .map(|s| format!("{}\n", s.to_json_line()))
        .collect();
    assert_eq!(
        fs::read_to_string(out_dir.join("health.jsonl")).expect("health.jsonl"),
        streamed,
        "health.jsonl diverged from the in-memory snapshots"
    );
    println!(
        "\nHEALTH OK: {}/{} snapshots live, window {}..{} degraded \
         mid-campaign ({})",
        health.live_snapshots,
        snaps.len(),
        degraded[0],
        degraded[0] + HEALTH_WINDOW as u64,
        snaps
            .iter()
            .find(|s| s.verdict.severity() >= 1)
            .map(|s| s.verdict.reasons().join("; "))
            .unwrap_or_default(),
    );

    // Campaign health summary.
    println!(
        "\nhealth: ok={}/{} retries={} faults={} anomalies={:?}  \
         latency p50={} p95={} max={}  cache {}h/{}m  wall={:?}",
        report.succeeded,
        report.machines,
        report.retries,
        report.faults_injected,
        report.fold.dwell_anomalies,
        report.latency_p50,
        report.latency_p95,
        report.latency_max,
        report.cache_hits,
        report.cache_misses,
        report.wall,
    );
    println!("\n{}", report.to_json());

    // Attack sweep: four machines, one attack class each. Every attack
    // is covert with respect to the patch itself (all sessions still
    // succeed) — only the flight-record replay catches them.
    println!("\n== integrity attack sweep: one machine per attack class ==");
    let sweep_dir = out_dir.join("attack-sweep");
    let _ = fs::remove_dir_all(&sweep_dir);
    let sweep_cfg = FleetConfig::new(4, 2)
        .with_seed(0xA77C)
        .with_stream_dir(&sweep_dir)
        .with_health(HealthPolicy::new(), 2)
        .with_integrity(integrity_policy(&target.layout))
        .with_attack(PlannedAttack {
            machine: 0,
            kind: AttackKind::TamperHandlerImage,
        })
        .with_attack(PlannedAttack {
            machine: 1,
            kind: AttackKind::RogueWrite {
                addr: 0x40,
                len: 16,
            },
        })
        .with_attack(PlannedAttack {
            machine: 2,
            kind: AttackKind::JournalAbuse { extra_entries: 3 },
        })
        .with_attack(PlannedAttack {
            machine: 3,
            kind: AttackKind::DwellExhaustion {
                extra: SimTime::from_ms(50),
            },
        });
    let sweep = run_campaign(&target, &bytes, &sweep_cfg);
    assert_eq!(sweep.succeeded, 4, "attacks are covert: patches still land");
    let attacked = sweep.integrity.as_ref().expect("sweep armed integrity");
    assert_eq!(
        attacked.violating_machines,
        vec![0, 1, 2, 3],
        "every attacked machine must be flagged: {:?}",
        attacked.reasons
    );
    for r in &attacked.reasons {
        println!("  caught: {r}");
    }

    // The benchmark artefact the CI gate checks: aggregation throughput
    // and the bounded memory the sketch-backed health plane holds.
    let agg_secs = health.report.agg_wall.as_secs_f64();
    let lines_per_sec = if agg_secs > 0.0 {
        health.report.lines_consumed as f64 / agg_secs
    } else {
        0.0
    };
    let bench = format!(
        concat!(
            "{{\"v\":1,\"machines\":{},\"workers\":{},\"window\":{},",
            "\"snapshots\":{},\"live_snapshots\":{},\"degraded_live\":{},",
            "\"lines_consumed\":{},\"agg_wall_ms\":{:.3},",
            "\"agg_lines_per_sec\":{:.0},\"resident_sketch_bytes\":{},",
            "\"final_verdict\":\"{}\",",
            "\"integrity\":{{\"clean_records\":{},\"clean_violations\":{},",
            "\"clean_resident_bytes\":{},\"attack_machines\":{},",
            "\"attacks_caught\":{}}}}}"
        ),
        MACHINES,
        WORKERS,
        HEALTH_WINDOW,
        snaps.len(),
        health.live_snapshots,
        health.degraded_live,
        health.report.lines_consumed,
        agg_secs * 1e3,
        lines_per_sec,
        health.report.resident_sketch_bytes,
        health.report.final_verdict().label(),
        clean.records_checked,
        clean.violations,
        clean.resident_bytes,
        sweep.machines,
        attacked.violating_machines.len(),
    );
    let bench_out =
        std::env::var("OBSERVE_BENCH_OUT").unwrap_or_else(|_| "BENCH_observe.json".to_string());
    fs::write(&bench_out, format!("{bench}\n")).expect("write BENCH_observe.json");
    println!("\nwrote {bench_out}: {bench}");
    println!("\nOBSERVE OK");
}
