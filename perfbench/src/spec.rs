//! Workload definitions and the layer→metric map, read from
//! `workloads.json` (compiled in).

use kshot_telemetry::json::{self, Value};

/// The workload file, compiled into the binary.
pub const WORKLOADS_JSON: &str = include_str!("../workloads.json");

/// One benchmark workload: a closed-loop fold campaign of a stated
/// fleet size, and the simulated patch times every run must reproduce.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: String,
    /// Fleet size of one campaign.
    pub machines: usize,
    /// Worker threads.
    pub workers: usize,
    /// Sessions one worker keeps live; the next machine is admitted
    /// only when a slot frees.
    pub pipeline_depth: usize,
    /// Wall-clock link round trip per patch delivery, in milliseconds.
    pub link_rtt_ms: u64,
    /// Stream shards with the health and integrity planes armed.
    pub streamed: bool,
    /// CVE ids applied to every machine, in order (one SMI each).
    pub cves: Vec<String>,
    /// Exact `report.latency_p50` every campaign must reproduce.
    pub sim_patch_p50_ns: u64,
    /// Exact `report.latency_max` every campaign must reproduce.
    pub sim_patch_max_ns: u64,
}

impl Workload {
    /// SMIs each machine takes: the install SMI plus one per CVE.
    pub fn smis_per_machine(&self) -> u64 {
        1 + self.cves.len() as u64
    }
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing `{key}`"))
}

fn uint(v: &Value, key: &str) -> Result<u64, String> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| format!("`{key}` is not a whole number"))
}

fn parse_workload(v: &Value) -> Result<Workload, String> {
    let name = field(v, "name")?
        .as_str()
        .ok_or("`name` is not a string")?
        .to_string();
    let cves = match field(v, "cves")? {
        Value::Array(items) => items
            .iter()
            .map(|c| c.as_str().map(str::to_string).ok_or("CVE id not a string"))
            .collect::<Result<Vec<_>, _>>()?,
        _ => return Err("`cves` is not an array".into()),
    };
    let w = Workload {
        machines: uint(v, "machines")? as usize,
        workers: uint(v, "workers")? as usize,
        pipeline_depth: uint(v, "pipeline_depth")? as usize,
        link_rtt_ms: uint(v, "link_rtt_ms")?,
        streamed: field(v, "streamed")?
            .as_bool()
            .ok_or("`streamed` is not a bool")?,
        cves,
        sim_patch_p50_ns: uint(v, "sim_patch_p50_ns")?,
        sim_patch_max_ns: uint(v, "sim_patch_max_ns")?,
        name,
    };
    if w.machines < 20 || w.workers == 0 || w.pipeline_depth == 0 || w.cves.is_empty() {
        return Err(format!("workload {}: degenerate shape", w.name));
    }
    Ok(w)
}

/// Every workload in `workloads.json`.
pub fn workloads() -> Result<Vec<Workload>, String> {
    let doc = json::parse(WORKLOADS_JSON)?;
    match field(&doc, "workloads")? {
        Value::Array(items) => items.iter().map(parse_workload).collect(),
        _ => Err("`workloads` is not an array".into()),
    }
}

/// The workload called `name`.
pub fn workload(name: &str) -> Result<Workload, String> {
    workloads()?
        .into_iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload `{name}`"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn names(v: &Value, list: &str, key: &str) -> Vec<String> {
        match v.get(list) {
            Some(Value::Array(items)) => items
                .iter()
                .map(|i| i.get(key).and_then(Value::as_str).unwrap().to_string())
                .collect(),
            _ => panic!("`{list}` is not an array"),
        }
    }

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    #[test]
    fn workloads_parse_and_match_benchmark_json() {
        let ws = workloads().unwrap();
        let ours: Vec<String> = ws.iter().map(|w| w.name.clone()).collect();
        assert_eq!(ours, names(&benchmark_json(), "workloads", "name"));
        for w in &ws {
            assert!(kshot_cve::find(&w.cves[0]).is_some(), "{}", w.name);
        }
    }

    /// The layer map names exactly the `per_layer` metrics of
    /// `BENCHMARK.json` (which `run` checks against what it prints).
    #[test]
    fn layer_map_covers_exactly_the_per_layer_metrics() {
        let doc = json::parse(WORKLOADS_JSON).unwrap();
        let mapped: BTreeSet<String> = names(&doc, "layers", "metric").into_iter().collect();
        let declared: BTreeSet<String> = names(&benchmark_json(), "per_layer", "name")
            .into_iter()
            .collect();
        assert_eq!(mapped, declared);
        // Every pairing a layer names is a real end-to-end metric and
        // workload.
        let ws: BTreeSet<String> = workloads().unwrap().into_iter().map(|w| w.name).collect();
        let e2e: BTreeSet<String> = names(&benchmark_json(), "end_to_end", "name")
            .into_iter()
            .collect();
        let Some(Value::Array(layers)) = doc.get("layers") else {
            panic!("`layers` is not an array")
        };
        for layer in layers {
            let (Some(Value::Array(moves)), Some(Value::Array(unmoved))) =
                (layer.get("moves"), layer.get("unmoved"))
            else {
                panic!("layer without `moves` and `unmoved` arrays")
            };
            for m in moves {
                let metric = m.get("metric").and_then(Value::as_str).unwrap();
                let w = m.get("workload").and_then(Value::as_str).unwrap();
                assert!(e2e.contains(metric), "unknown end-to-end metric {metric}");
                assert!(ws.contains(w), "unknown workload {w}");
            }
            for w in unmoved {
                assert!(ws.contains(w.as_str().unwrap()), "unknown workload {w:?}");
            }
        }
    }
}
