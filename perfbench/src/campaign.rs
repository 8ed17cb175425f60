//! The untraced child: one `run_campaign`, exactly as an operator
//! calls it, measured from outside.

use std::fs;
use std::path::Path;

use kshot_fleet::run_campaign;
use kshot_telemetry::merkle::digest_hex;

use crate::fixture::{peak_rss_mb, Fixture};
use crate::sample::CampaignSample;
use crate::spec::Workload;

/// Set up and run one campaign of `w` under `seed`. Streamed workloads
/// write their shards to a directory under `scratch`, removed again
/// before returning.
pub fn run(w: &Workload, seed: u64, scratch: &Path) -> CampaignSample {
    let fixture = Fixture::setup(w);
    let stream_dir = w
        .streamed
        .then(|| scratch.join(format!("perfbench-stream-{}", std::process::id())));
    if let Some(dir) = &stream_dir {
        // A crashed earlier child with a recycled pid may have left shards.
        let _ = fs::remove_dir_all(dir);
        fs::create_dir_all(dir).expect("create shard directory");
    }
    let config = fixture.config(w, seed, stream_dir.as_deref());
    let report = run_campaign(&fixture.target, fixture.bundle_bytes(), &config);
    let peak_rss_mb = peak_rss_mb();

    let shard_bytes = stream_dir.as_ref().map_or(0, |dir| {
        let bytes = (0..w.workers)
            .map(|worker| {
                fs::metadata(dir.join(format!("worker-{worker}.jsonl")))
                    .expect("worker shard exists")
                    .len()
            })
            .sum();
        fs::remove_dir_all(dir).expect("remove shard directory");
        bytes
    });
    let health = report.health.as_ref().map(|h| &h.report);
    CampaignSample {
        seed,
        machines: report.machines as u64,
        succeeded: report.succeeded as u64,
        failed: report.failed as u64,
        all_identical: report.all_identical_digests(),
        root: digest_hex(&report.digest_root()),
        sim_p50_ns: report.latency_p50.as_ns(),
        sim_max_ns: report.latency_max.as_ns(),
        setup_s: fixture.setup.as_secs_f64(),
        wall_s: report.wall.as_secs_f64(),
        peak_rss_mb,
        busy_s: report
            .worker_occupancy
            .iter()
            .map(|o| o.busy.as_secs_f64())
            .sum(),
        in_flight_s: report
            .worker_occupancy
            .iter()
            .map(|o| o.in_flight.as_secs_f64())
            .sum(),
        health_verdict: health.map_or(String::new(), |h| h.final_verdict().label().to_string()),
        health_lines: health.map_or(0, |h| h.lines_consumed),
        integrity_checked: report.integrity.as_ref().map_or(0, |i| i.records_checked),
        integrity_violations: report.integrity.as_ref().map_or(0, |i| i.violations),
        shard_bytes,
    }
}
