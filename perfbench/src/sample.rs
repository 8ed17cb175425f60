//! What one child process measured, and its one-line JSON form on the
//! child's standard output.

use kshot_telemetry::json::{self, Value};

/// One untraced campaign, measured in a process of its own.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSample {
    /// Campaign seed.
    pub seed: u64,
    /// Machines the campaign drove.
    pub machines: u64,
    /// Machines patched.
    pub succeeded: u64,
    /// Machines that exhausted their attempts.
    pub failed: u64,
    /// `CampaignReport::all_identical_digests`.
    pub all_identical: bool,
    /// `CampaignReport::digest_root`, hex.
    pub root: String,
    /// `CampaignReport::latency_p50`, simulated ns.
    pub sim_p50_ns: u64,
    /// `CampaignReport::latency_max`, simulated ns.
    pub sim_max_ns: u64,
    /// Target link, patch build/encode and reference boot, seconds.
    pub setup_s: f64,
    /// `run_campaign` wall time, seconds.
    pub wall_s: f64,
    /// Process peak resident set (`VmHWM`), MB.
    pub peak_rss_mb: f64,
    /// Worker time spent stepping sessions, summed over workers.
    pub busy_s: f64,
    /// Worker time spent waiting on deadlines, summed over workers.
    pub in_flight_s: f64,
    /// Health verdict label; empty when no monitor ran.
    pub health_verdict: String,
    /// Shard lines the health monitor consumed.
    pub health_lines: u64,
    /// Flight records the integrity monitor checked.
    pub integrity_checked: u64,
    /// Flight records that violated an invariant.
    pub integrity_violations: u64,
    /// Bytes of every worker shard file.
    pub shard_bytes: u64,
}

/// Columns of one traced machine's row, in nanoseconds. The first
/// [`LAYER_COLUMNS`] are disjoint calls timed by the traced drive; the split
/// columns break `live_patch` down along the program's spans; `WALL` is
/// the sum of the machine's traced steps.
pub mod col {
    /// `Kernel::boot`.
    pub const BOOT: usize = 0;
    /// `KShot::install`.
    pub const INSTALL: usize = 1;
    /// `BundleCache::get_or_decode`, summed over the machine's CVEs.
    pub const DECODE: usize = 2;
    /// `KShot::live_patch_bundle`, summed over the machine's CVEs.
    pub const LIVE_PATCH: usize = 3;
    /// The state digest.
    pub const DIGEST: usize = 4;
    /// `OutcomeFold::absorb`.
    pub const FOLD: usize = 5;
    /// Outcome read-out and machine release.
    pub const FINALIZE: usize = 6;
    /// `sgx.session` spans.
    pub const SGX_SESSION: usize = 7;
    /// `sgx.fetch` spans.
    pub const SGX_FETCH: usize = 8;
    /// `sgx.prepare_and_stage` spans.
    pub const SGX_STAGE: usize = 9;
    /// `smm.window` spans.
    pub const SMM_WINDOW: usize = 10;
    /// `phase.key_exchange` spans.
    pub const SMM_KEY_EXCHANGE: usize = 11;
    /// `kshot.live_patch_bundle` self time.
    pub const LIVE_PATCH_SELF: usize = 12;
    /// The machine's traced steps, end to end.
    pub const WALL: usize = 13;
    /// Row width.
    pub const COUNT: usize = 14;
}

/// Columns whose sum is the time the traced drive attributes to a layer.
pub const LAYER_COLUMNS: std::ops::Range<usize> = col::BOOT..col::FINALIZE + 1;

/// One traced machine's row, indexed by [`col`].
pub type Row = [u64; col::COUNT];

/// One traced drive of the same fleet, measured in a process of its
/// own.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSample {
    /// Campaign seed the machines' seeds expand from.
    pub seed: u64,
    /// Machines driven.
    pub machines: u64,
    /// Machines whose patch failed.
    pub failed: u64,
    /// Merkle root of the traced fold, hex.
    pub root: String,
    /// The traced fold's latency p50, simulated ns.
    pub sim_p50_ns: u64,
    /// The traced fold's latency max, simulated ns.
    pub sim_max_ns: u64,
    /// Bundle cache hits.
    pub cache_hits: u64,
    /// Bundle cache misses.
    pub cache_misses: u64,
    /// One row per machine, in machine order.
    pub rows: Vec<Row>,
    /// `DhKeyPair::from_entropy` alone, one per machine, µs.
    pub dh_keygen_us: Vec<f64>,
    /// `DhKeyPair::agree` alone, one per machine, µs.
    pub dh_agree_us: Vec<f64>,
    /// `sha256` throughput over 1 MiB, one per repetition, MB/s.
    pub sha256_mb_s: Vec<f64>,
}

fn floats(v: &[f64]) -> String {
    let items: Vec<String> = v.iter().map(|x| x.to_string()).collect();
    format!("[{}]", items.join(","))
}

impl CampaignSample {
    /// One-line JSON form.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"seed\":\"{}\",\"machines\":{},\"succeeded\":{},\"failed\":{},",
                "\"all_identical\":{},\"root\":\"{}\",\"sim_p50_ns\":{},\"sim_max_ns\":{},",
                "\"setup_s\":{},\"wall_s\":{},\"peak_rss_mb\":{},\"busy_s\":{},",
                "\"in_flight_s\":{},\"health_verdict\":\"{}\",\"health_lines\":{},",
                "\"integrity_checked\":{},\"integrity_violations\":{},\"shard_bytes\":{}}}"
            ),
            self.seed,
            self.machines,
            self.succeeded,
            self.failed,
            self.all_identical,
            self.root,
            self.sim_p50_ns,
            self.sim_max_ns,
            self.setup_s,
            self.wall_s,
            self.peak_rss_mb,
            self.busy_s,
            self.in_flight_s,
            self.health_verdict,
            self.health_lines,
            self.integrity_checked,
            self.integrity_violations,
            self.shard_bytes,
        )
    }

    /// Parse [`CampaignSample::to_json`] output.
    pub fn from_json(line: &str) -> Result<CampaignSample, String> {
        let v = json::parse(line)?;
        Ok(CampaignSample {
            seed: seed(&v)?,
            machines: uint(&v, "machines")?,
            succeeded: uint(&v, "succeeded")?,
            failed: uint(&v, "failed")?,
            all_identical: get(&v, "all_identical")?.as_bool().ok_or("all_identical")?,
            root: string(&v, "root")?,
            sim_p50_ns: uint(&v, "sim_p50_ns")?,
            sim_max_ns: uint(&v, "sim_max_ns")?,
            setup_s: float(&v, "setup_s")?,
            wall_s: float(&v, "wall_s")?,
            peak_rss_mb: float(&v, "peak_rss_mb")?,
            busy_s: float(&v, "busy_s")?,
            in_flight_s: float(&v, "in_flight_s")?,
            health_verdict: string(&v, "health_verdict")?,
            health_lines: uint(&v, "health_lines")?,
            integrity_checked: uint(&v, "integrity_checked")?,
            integrity_violations: uint(&v, "integrity_violations")?,
            shard_bytes: uint(&v, "shard_bytes")?,
        })
    }
}

impl TraceSample {
    /// One-line JSON form.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                let cells: Vec<String> = r.iter().map(u64::to_string).collect();
                format!("[{}]", cells.join(","))
            })
            .collect();
        format!(
            concat!(
                "{{\"seed\":\"{}\",\"machines\":{},\"failed\":{},\"root\":\"{}\",",
                "\"sim_p50_ns\":{},\"sim_max_ns\":{},\"cache_hits\":{},\"cache_misses\":{},",
                "\"rows\":[{}],\"dh_keygen_us\":{},\"dh_agree_us\":{},\"sha256_mb_s\":{}}}"
            ),
            self.seed,
            self.machines,
            self.failed,
            self.root,
            self.sim_p50_ns,
            self.sim_max_ns,
            self.cache_hits,
            self.cache_misses,
            rows.join(","),
            floats(&self.dh_keygen_us),
            floats(&self.dh_agree_us),
            floats(&self.sha256_mb_s),
        )
    }

    /// Parse [`TraceSample::to_json`] output.
    pub fn from_json(line: &str) -> Result<TraceSample, String> {
        let v = json::parse(line)?;
        let rows = array(&v, "rows")?
            .iter()
            .map(|row| {
                let Value::Array(cells) = row else {
                    return Err("row is not an array".to_string());
                };
                let cells: Vec<u64> = cells
                    .iter()
                    .map(|c| c.as_u64().ok_or("row cell"))
                    .collect::<Result<_, _>>()?;
                Row::try_from(cells).map_err(|_| "row width".to_string())
            })
            .collect::<Result<_, _>>()?;
        Ok(TraceSample {
            seed: seed(&v)?,
            machines: uint(&v, "machines")?,
            failed: uint(&v, "failed")?,
            root: string(&v, "root")?,
            sim_p50_ns: uint(&v, "sim_p50_ns")?,
            sim_max_ns: uint(&v, "sim_max_ns")?,
            cache_hits: uint(&v, "cache_hits")?,
            cache_misses: uint(&v, "cache_misses")?,
            rows,
            dh_keygen_us: float_array(&v, "dh_keygen_us")?,
            dh_agree_us: float_array(&v, "dh_agree_us")?,
            sha256_mb_s: float_array(&v, "sha256_mb_s")?,
        })
    }
}

fn get<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing `{key}`"))
}

fn uint(v: &Value, key: &str) -> Result<u64, String> {
    get(v, key)?
        .as_u64()
        .ok_or_else(|| format!("`{key}` is not a whole number"))
}

fn float(v: &Value, key: &str) -> Result<f64, String> {
    match get(v, key)? {
        Value::Number(x) => Ok(*x),
        _ => Err(format!("`{key}` is not a number")),
    }
}

fn string(v: &Value, key: &str) -> Result<String, String> {
    get(v, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("`{key}` is not a string"))
}

/// Seeds travel as strings: the JSON layer parses numbers as `f64`,
/// which is integer-exact only to 2^53.
fn seed(v: &Value) -> Result<u64, String> {
    string(v, "seed")?.parse().map_err(|e| format!("seed: {e}"))
}

fn array<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    match get(v, key)? {
        Value::Array(items) => Ok(items),
        _ => Err(format!("`{key}` is not an array")),
    }
}

fn float_array(v: &Value, key: &str) -> Result<Vec<f64>, String> {
    array(v, key)?
        .iter()
        .map(|x| match x {
            Value::Number(x) => Ok(*x),
            _ => Err(format!("`{key}` holds a non-number")),
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn campaign() -> CampaignSample {
        CampaignSample {
            seed: u64::MAX - 7,
            machines: 96,
            succeeded: 96,
            failed: 0,
            all_identical: true,
            root: "ab".repeat(32),
            sim_p50_ns: 7_379_613,
            sim_max_ns: 7_379_613,
            setup_s: 0.009_123_4,
            wall_s: 1.25,
            peak_rss_mb: 138.5,
            busy_s: 1.0,
            in_flight_s: 0.25,
            health_verdict: "healthy".into(),
            health_lines: 1234,
            integrity_checked: 192,
            integrity_violations: 0,
            shard_bytes: 99_999,
        }
    }

    pub(crate) fn trace() -> TraceSample {
        let mut row: Row = [0; col::COUNT];
        for (i, cell) in row.iter_mut().enumerate() {
            *cell = 1000 * (i as u64 + 1);
        }
        TraceSample {
            seed: u64::MAX - 7,
            machines: 2,
            failed: 0,
            root: "ab".repeat(32),
            sim_p50_ns: 7_379_613,
            sim_max_ns: 7_379_613,
            cache_hits: 1,
            cache_misses: 1,
            rows: vec![row, row],
            dh_keygen_us: vec![160.5, 161.25],
            dh_agree_us: vec![159.0, 158.75],
            sha256_mb_s: vec![210.125],
        }
    }

    #[test]
    fn samples_round_trip_through_json() {
        let c = campaign();
        assert_eq!(CampaignSample::from_json(&c.to_json()).unwrap(), c);
        let t = trace();
        assert_eq!(TraceSample::from_json(&t.to_json()).unwrap(), t);
    }
}
