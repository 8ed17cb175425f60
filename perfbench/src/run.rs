//! The parent process: run fresh child processes until the run's time
//! is up, gate every one, and report medians.
//!
//! Every campaign and every traced drive runs in a process of its own:
//! allocator state carried between in-process repetitions changes both
//! wall time and peak RSS, so only fresh processes measure what an
//! operator's run would see.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::fixture::splitmix64;
use crate::gate;
use crate::sample::{col, CampaignSample, TraceSample, LAYER_COLUMNS};
use crate::spec::Workload;
use crate::stats::{median, nearest_rank, tail_percentile};

/// Fewest child processes (or campaign/trace pairs) a run reports.
const MIN_RUNS: usize = 3;

/// What the run was asked to do.
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Seed every child's campaign seed derives from.
    pub seed: u64,
    /// How long to keep starting children.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

/// One reported metric.
#[derive(Debug)]
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// How many samples the value summarises.
    n: usize,
    /// What the samples are.
    of: &'static str,
}

fn metric(
    name: &'static str,
    unit: &'static str,
    value: f64,
    n: usize,
    of: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        value,
        n,
        of,
    }
}

/// The campaign seed of a run's `i`-th child.
fn child_seed(seed: u64, i: u64) -> u64 {
    splitmix64(splitmix64(seed) ^ i)
}

/// Run one child of this executable and return its last stdout line.
fn child(kind: &str, w: &Workload, seed: u64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate executable: {e}"))?;
    let out = Command::new(exe)
        .args(["child", kind, &w.name, &seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {kind} child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{kind} child (seed {seed}) exited with {}",
            out.status
        ));
    }
    let stdout = String::from_utf8(out.stdout).map_err(|e| format!("child output: {e}"))?;
    stdout
        .lines()
        .last()
        .map(str::to_string)
        .ok_or_else(|| format!("{kind} child (seed {seed}) printed nothing"))
}

/// The child-process entry: run one campaign or one traced drive and
/// print its sample as the last line of stdout.
pub fn run_child(kind: &str, w: &Workload, seed: u64) -> Result<(), String> {
    let line = match kind {
        "campaign" => {
            let exe = std::env::current_exe().map_err(|e| format!("locate executable: {e}"))?;
            let scratch = exe.parent().unwrap_or(Path::new("."));
            crate::campaign::run(w, seed, scratch).to_json()
        }
        // The campaign drives machines on a worker thread, whose
        // allocator arena behaves differently from the main thread's
        // with 26 MB machines; the traced drive runs on one too.
        "trace" => std::thread::scope(|s| {
            s.spawn(|| crate::trace::run(w, seed))
                .join()
                .expect("traced drive panicked")
        })
        .to_json(),
        other => return Err(format!("unknown child kind `{other}`")),
    };
    println!("{line}");
    Ok(())
}

/// Run the benchmark: children until `args.seconds` have passed (and
/// at least [`MIN_RUNS`]), then print the metrics table and, as the
/// last line, the JSON result.
pub fn run(args: &Args) -> Result<(), String> {
    let w = &args.workload;
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut campaigns = Vec::new();
    let mut traces = Vec::new();
    let mut violations = Vec::new();
    let mut i = 0;
    while campaigns.len() < MIN_RUNS || Instant::now() < deadline {
        let seed = child_seed(args.seed, i);
        let campaign = CampaignSample::from_json(&child("campaign", w, seed)?)?;
        violations.extend(gate::check_campaign(w, &campaign));
        if args.trace {
            let trace = TraceSample::from_json(&child("trace", w, seed)?)?;
            violations.extend(gate::check_trace(w, &trace, &campaign));
            traces.push(trace);
        }
        campaigns.push(campaign);
        i += 1;
    }
    for v in &violations {
        eprintln!("gate: {v}");
    }

    let machines = campaigns.iter().map(|c| (c.machines, c.failed));
    let (attempted, failed) = machines
        .chain(traces.iter().map(|t| (t.machines, t.failed)))
        .fold((0, 0), |(a, f), (m, x)| (a + m, f + x));

    println!(
        "workload {}: {} fresh processes x {} machines (seed {}, {})",
        w.name,
        campaigns.len() + traces.len(),
        w.machines,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
    );
    let metrics = if args.trace {
        per_layer(&campaigns, &traces)?
    } else {
        print_campaign_table(w, &campaigns);
        end_to_end(&campaigns)
    };
    let mut json = Vec::with_capacity(metrics.len());
    for Metric {
        name,
        unit,
        value,
        n,
        of,
    } in &metrics
    {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        println!("  {name:<44} {value:>16.4} {unit:<12} n={n} {of}");
        json.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        violations.is_empty(),
        json.join(","),
    );
    Ok(())
}

/// The untraced run's metrics: medians over fresh campaign processes,
/// except `peak_rss_mb`, the highest peak of any of them. Peak RSS on
/// pipelined-streamed is bimodal (about one process in three peaks one
/// 26 MB machine higher than the rest), so a median flips between the
/// modes from run to run while the highest peak does not.
fn end_to_end(campaigns: &[CampaignSample]) -> Vec<Metric> {
    let n = campaigns.len();
    let over = |f: fn(&CampaignSample) -> f64| median(&campaigns.iter().map(f).collect::<Vec<_>>());
    vec![
        metric(
            "machines_per_s",
            "machines/s",
            over(|c| c.succeeded as f64 / c.wall_s),
            n,
            "campaigns (median)",
        ),
        metric("setup_s", "s", over(|c| c.setup_s), n, "set-ups (median)"),
        metric(
            "peak_rss_mb",
            "MB",
            campaigns.iter().map(|c| c.peak_rss_mb).fold(0.0, f64::max),
            n,
            "processes (highest)",
        ),
    ]
}

/// The quartiles of the host-time metrics, and the simulated-time and
/// failure metrics the gate holds exactly, as text.
fn print_campaign_table(w: &Workload, campaigns: &[CampaignSample]) {
    let quartiles = |f: fn(&CampaignSample) -> f64| {
        let mut v: Vec<f64> = campaigns.iter().map(f).collect();
        v.sort_by(f64::total_cmp);
        (nearest_rank(&v, 250), nearest_rank(&v, 750))
    };
    let (q1, q3) = quartiles(|c| c.succeeded as f64 / c.wall_s);
    println!("  machines_per_s quartiles: {q1:.4} .. {q3:.4} machines/s (host)");
    let (q1, q3) = quartiles(|c| c.setup_s);
    println!("  setup_s quartiles: {q1:.6} .. {q3:.6} s (host)");
    let (q1, q3) = quartiles(|c| c.peak_rss_mb);
    println!("  peak_rss_mb quartiles: {q1:.3} .. {q3:.3} MB");
    let machines: u64 = campaigns.iter().map(|c| c.machines).sum();
    let failed: u64 = campaigns.iter().map(|c| c.failed).sum();
    println!(
        "  failed_frac {} ratio (base: {failed} failed of {machines} machines)",
        failed as f64 / machines as f64
    );
    let sim = |f: fn(&CampaignSample) -> u64| {
        let v: Vec<f64> = campaigns.iter().map(|c| f(c) as f64 / 1e3).collect();
        median(&v)
    };
    println!(
        "  sim_patch_p50_us {} us (simulated) n={} campaigns, recorded {}",
        sim(|c| c.sim_p50_ns),
        campaigns.len(),
        w.sim_patch_p50_ns as f64 / 1e3
    );
    println!(
        "  sim_patch_max_us {} us (simulated) n={} campaigns, recorded {}",
        sim(|c| c.sim_max_ns),
        campaigns.len(),
        w.sim_patch_max_ns as f64 / 1e3
    );
}

/// The traced run's metrics. Layer times are medians per machine over
/// every traced machine of the run; campaign-side figures are medians
/// over the untraced campaigns; the attribution figures are medians
/// over campaign/trace pairs of the same seed.
fn per_layer(campaigns: &[CampaignSample], traces: &[TraceSample]) -> Result<Vec<Metric>, String> {
    let pooled = |c: usize| -> Vec<f64> {
        traces
            .iter()
            .flat_map(|t| t.rows.iter().map(move |r| r[c] as f64 / 1e3))
            .collect()
    };
    let machines = traces.iter().map(|t| t.rows.len()).sum::<usize>();
    let per_machine = |name, c| {
        metric(
            name,
            "us",
            median(&pooled(c)),
            machines,
            "traced machines (median)",
        )
    };
    let walls = pooled(col::WALL);
    let tail = tail_percentile(&walls)
        .ok_or_else(|| format!("{} traced machines are too few for a tail", walls.len()))?;
    let flat = |f: fn(&TraceSample) -> &Vec<f64>| -> Vec<f64> {
        traces.iter().flat_map(|t| f(t).iter().copied()).collect()
    };
    let campaign_median =
        |f: fn(&CampaignSample) -> f64| median(&campaigns.iter().map(f).collect::<Vec<_>>());
    let n_campaigns = campaigns.len();
    let pairs = traces.len();
    // Per machine, µs: untraced campaign wall, traced drive wall, and
    // the traced layer sum — one entry per campaign/trace pair.
    let untraced: Vec<f64> = campaigns
        .iter()
        .map(|c| c.wall_s * 1e6 / c.machines as f64)
        .collect();
    let sum_per_machine = |t: &TraceSample, cols: std::ops::Range<usize>| -> f64 {
        let ns: u64 = t
            .rows
            .iter()
            .map(|r| r[cols.clone()].iter().sum::<u64>())
            .sum();
        ns as f64 / 1e3 / t.rows.len() as f64
    };
    let traced: Vec<f64> = traces
        .iter()
        .map(|t| sum_per_machine(t, col::WALL..col::WALL + 1))
        .collect();
    let layered: Vec<f64> = traces
        .iter()
        .map(|t| sum_per_machine(t, LAYER_COLUMNS))
        .collect();
    let paired = |f: fn(f64, f64) -> f64, a: &[f64], b: &[f64]| {
        median(&a.iter().zip(b).map(|(x, y)| f(*x, *y)).collect::<Vec<_>>())
    };
    let (hits, lookups) = traces.iter().fold((0, 0), |(h, l), t| {
        (h + t.cache_hits, l + t.cache_hits + t.cache_misses)
    });
    let dh_keygen = flat(|t| &t.dh_keygen_us);
    let dh_agree = flat(|t| &t.dh_agree_us);
    let sha = flat(|t| &t.sha256_mb_s);
    Ok(vec![
        per_machine("kshot-kernel.boot_us", col::BOOT),
        per_machine("kshot-core.install_us", col::INSTALL),
        per_machine("kshot-patchserver.decode_us", col::DECODE),
        metric(
            "kshot-patchserver.cache_hit_ratio",
            "ratio",
            hits as f64 / lookups as f64,
            lookups as usize,
            "bundle lookups",
        ),
        per_machine("kshot-core.live_patch_us", col::LIVE_PATCH),
        per_machine("kshot-core.sgx_session_us", col::SGX_SESSION),
        per_machine("kshot-core.sgx_fetch_us", col::SGX_FETCH),
        per_machine("kshot-core.sgx_stage_us", col::SGX_STAGE),
        per_machine("kshot-core.smm_window_us", col::SMM_WINDOW),
        per_machine("kshot-core.smm_key_exchange_us", col::SMM_KEY_EXCHANGE),
        per_machine("kshot-core.live_patch_self_us", col::LIVE_PATCH_SELF),
        metric(
            "kshot-crypto.dh_keygen_us",
            "us",
            median(&dh_keygen),
            dh_keygen.len(),
            "keygens (median)",
        ),
        metric(
            "kshot-crypto.dh_agree_us",
            "us",
            median(&dh_agree),
            dh_agree.len(),
            "agreements (median)",
        ),
        metric(
            "kshot-crypto.sha256_mb_s",
            "MB/s",
            median(&sha),
            sha.len(),
            "1 MiB hashes (median)",
        ),
        per_machine("kshot-fleet.digest_us", col::DIGEST),
        per_machine("kshot-fleet.fold_us", col::FOLD),
        per_machine("kshot-fleet.finalize_us", col::FINALIZE),
        per_machine("kshot-fleet.machine_wall_p50_us", col::WALL),
        metric(
            "kshot-fleet.machine_wall_tail_us",
            "us",
            tail.value,
            tail.n,
            "traced machines (tail percentile)",
        ),
        metric(
            "kshot-fleet.machine_wall_tail_pct",
            "%",
            tail.per_mille as f64 / 10.0,
            tail.n,
            "traced machines",
        ),
        metric(
            "kshot-fleet.machine_wall_n",
            "count",
            tail.n as f64,
            tail.n,
            "traced machines",
        ),
        metric(
            "kshot-fleet.worker_busy_frac",
            "ratio",
            campaign_median(|c| c.busy_s / (c.busy_s + c.in_flight_s)),
            n_campaigns,
            "campaigns (median)",
        ),
        metric(
            "kshot-telemetry.shard_bytes_per_machine",
            "B/machine",
            campaign_median(|c| c.shard_bytes as f64 / c.machines as f64),
            n_campaigns,
            "campaigns (median)",
        ),
        metric(
            "kshot-telemetry.health_lines_consumed",
            "count",
            campaign_median(|c| c.health_lines as f64),
            n_campaigns,
            "campaigns (median)",
        ),
        metric(
            "kshot-telemetry.integrity_records_checked",
            "count",
            campaign_median(|c| c.integrity_checked as f64),
            n_campaigns,
            "campaigns (median)",
        ),
        metric(
            "kshot-fleet.unattributed_us",
            "us",
            paired(|u, l| u - l, &untraced, &layered),
            pairs,
            "campaign/trace pairs (median)",
        ),
        metric(
            "trace.coverage",
            "ratio",
            paired(|l, t| l / t, &layered, &traced),
            pairs,
            "traces (median)",
        ),
        metric(
            "trace.overhead_frac",
            "ratio",
            paired(|t, u| t / u - 1.0, &traced, &untraced),
            pairs,
            "campaign/trace pairs (median)",
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::tests::{campaign, trace};
    use kshot_telemetry::json::{self, Value};

    /// `(name, unit)` of every entry of `list` in `BENCHMARK.json`.
    fn declared(list: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let Some(Value::Array(items)) = doc.get(list) else {
            panic!("`{list}` is not an array")
        };
        items
            .iter()
            .map(|i| {
                let field = |k| i.get(k).and_then(Value::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn reported(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    /// The metrics a run prints are exactly those `BENCHMARK.json`
    /// declares, in order and with the same units.
    #[test]
    fn runs_report_the_declared_metrics() {
        let campaigns = vec![campaign(); 3];
        let mut t = trace();
        t.rows = vec![t.rows[0]; 20];
        let traces = vec![t; 3];
        assert_eq!(reported(&end_to_end(&campaigns)), declared("end_to_end"));
        let layers = per_layer(&campaigns, &traces).unwrap();
        assert_eq!(reported(&layers), declared("per_layer"));
        assert!(layers.iter().all(|m| m.value.is_finite()), "{layers:?}");
    }

    #[test]
    fn child_seeds_are_deterministic_and_distinct() {
        assert_eq!(child_seed(1, 0), child_seed(1, 0));
        assert_ne!(child_seed(1, 0), child_seed(1, 1));
        assert_ne!(child_seed(1, 0), child_seed(2, 0));
    }
}
