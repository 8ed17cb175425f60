//! Set-up shared by the untraced campaign and the traced drive: the
//! linked fleet target, the encoded bundles, and the fleet config.

use std::path::Path;
use std::time::{Duration, Instant};

use kshot_cve::{find, patch_for};
use kshot_fleet::{CampaignTarget, FleetConfig, HealthPolicy, IntegrityPolicy};

use crate::spec::Workload;

/// Machines per health window on streamed workloads.
const HEALTH_WINDOW: usize = 8;

/// Integrity dwell ceiling on streamed workloads, simulated ns.
const INTEGRITY_DWELL_NS: u64 = 5_000_000;

/// Everything a campaign needs before its first machine boots.
pub struct Fixture {
    /// The linked image every machine boots.
    pub target: CampaignTarget,
    /// One encoded bundle per CVE, in workload order.
    pub blobs: Vec<Vec<u8>>,
    /// Wall time of [`Fixture::setup`].
    pub setup: Duration,
}

impl Fixture {
    /// Link the target, boot the reference machine, and build and
    /// encode every CVE's bundle.
    pub fn setup(w: &Workload) -> Fixture {
        let started = Instant::now();
        let specs: Vec<_> = w
            .cves
            .iter()
            .map(|id| find(id).unwrap_or_else(|| panic!("unknown CVE {id}")))
            .collect();
        let (target, server) = CampaignTarget::benchmark(specs[0].version);
        let info = target.boot_one().info();
        let blobs = specs
            .iter()
            .map(|spec| {
                assert_eq!(spec.version, specs[0].version, "one kernel per catalogue");
                server
                    .build_patch(&info, &patch_for(spec))
                    .expect("server builds the CVE patch")
                    .bundle
                    .encode()
            })
            .collect();
        Fixture {
            target,
            blobs,
            setup: started.elapsed(),
        }
    }

    /// The bytes `run_campaign` takes: the single bundle, or nothing
    /// when the config carries a catalogue.
    pub fn bundle_bytes(&self) -> &[u8] {
        match self.blobs.as_slice() {
            [one] => one,
            _ => &[],
        }
    }

    /// The campaign config of `w` under `seed`. Streamed workloads
    /// write their shards under `stream_dir`.
    pub fn config(&self, w: &Workload, seed: u64, stream_dir: Option<&Path>) -> FleetConfig {
        let mut config = FleetConfig::new(w.machines, w.workers)
            .with_seed(seed)
            .with_pipeline_depth(w.pipeline_depth)
            .with_link_rtt(Duration::from_millis(w.link_rtt_ms))
            .with_outcome_fold();
        if self.blobs.len() > 1 {
            config = config.with_catalogue(self.blobs.iter().cloned());
        }
        if let Some(dir) = stream_dir {
            let layout = &self.target.layout;
            let integrity = IntegrityPolicy::new()
                .with_expected_measurement(kshot_core::expected_handler_measurement())
                .with_allowed_extent(layout.smram_base, layout.smram_size)
                .with_allowed_extent(layout.kernel_text_base, layout.kernel_text_size)
                .with_allowed_extent(layout.kernel_data_base, layout.kernel_data_size)
                .with_allowed_extent(layout.reserved_base, layout.reserved_size)
                .with_dwell_budget_ns(INTEGRITY_DWELL_NS);
            config = config
                .with_stream_dir(dir)
                .with_health(HealthPolicy::new(), HEALTH_WINDOW)
                .with_integrity(integrity);
        }
        config
    }
}

/// splitmix64, the seed expansion `kshot-fleet` uses for machine `i`
/// of a campaign seeded `s`: `splitmix64(s + i)`.
pub fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Process peak resident set (`VmHWM`) in MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb * 1024.0 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_the_reference_vectors() {
        // Reference outputs of splitmix64 seeded with 0 (Vigna's
        // generator: state advanced by the golden gamma, then mixed).
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(0x9E37_79B9_7F4A_7C15), 0x6E78_9E6A_A1B9_65F4);
    }
}
