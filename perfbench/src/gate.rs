//! The correctness gate every run must pass. A run whose gate reports
//! any violation prints `"correct": false`.

use crate::sample::{CampaignSample, TraceSample};
use crate::spec::Workload;

/// Violations of one untraced campaign: every machine patched to one
/// digest, the simulated patch times exactly as recorded for the
/// workload, and, when streamed, a healthy verdict with every SMI's
/// flight record checked and none violating.
pub fn check_campaign(w: &Workload, s: &CampaignSample) -> Vec<String> {
    let mut v = Vec::new();
    let seed = s.seed;
    if s.machines != w.machines as u64 {
        v.push(format!(
            "seed {seed}: campaign drove {} machines, workload states {}",
            s.machines, w.machines
        ));
    }
    if s.failed != 0 || s.succeeded != s.machines {
        v.push(format!(
            "seed {seed}: {} of {} machines failed",
            s.failed, s.machines
        ));
    }
    if !s.all_identical {
        v.push(format!("seed {seed}: machine digests differ"));
    }
    check_sim(w, seed, "campaign", s.sim_p50_ns, s.sim_max_ns, &mut v);
    if w.streamed {
        if s.health_verdict != "healthy" {
            v.push(format!(
                "seed {seed}: health verdict `{}`, expected `healthy`",
                s.health_verdict
            ));
        }
        if s.integrity_violations != 0 {
            v.push(format!(
                "seed {seed}: {} integrity violations",
                s.integrity_violations
            ));
        }
        let expected = s.machines * w.smis_per_machine();
        if s.integrity_checked != expected {
            v.push(format!(
                "seed {seed}: integrity checked {} flight records, expected {expected}",
                s.integrity_checked
            ));
        }
    }
    v
}

/// Violations of one traced drive against the campaign it shadows
/// (same workload, seed and fleet size): every machine patched, the
/// simulated patch times as recorded, and the traced fold's Merkle root
/// equal to the campaign's.
pub fn check_trace(w: &Workload, t: &TraceSample, campaign: &CampaignSample) -> Vec<String> {
    let mut v = Vec::new();
    let seed = t.seed;
    if t.seed != campaign.seed || t.machines != campaign.machines {
        v.push(format!(
            "trace (seed {}, {} machines) does not shadow campaign (seed {}, {} machines)",
            t.seed, t.machines, campaign.seed, campaign.machines
        ));
    }
    if t.failed != 0 {
        v.push(format!("seed {seed}: {} traced machines failed", t.failed));
    }
    if t.root != campaign.root {
        v.push(format!(
            "seed {seed}: traced root {} != campaign root {}",
            t.root, campaign.root
        ));
    }
    check_sim(w, seed, "trace", t.sim_p50_ns, t.sim_max_ns, &mut v);
    v
}

fn check_sim(w: &Workload, seed: u64, what: &str, p50: u64, max: u64, v: &mut Vec<String>) {
    for (name, got, want) in [
        ("p50", p50, w.sim_patch_p50_ns),
        ("max", max, w.sim_patch_max_ns),
    ] {
        if got != want {
            v.push(format!(
                "seed {seed}: {what} simulated patch {name} {got} ns, recorded {want} ns"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::tests::{campaign, trace};
    use crate::spec::workload;

    fn streamed() -> Workload {
        let w = workload("pipelined-streamed").unwrap();
        assert!(w.streamed);
        w
    }

    /// A sample of a clean streamed campaign of `w`.
    fn clean(w: &Workload) -> CampaignSample {
        let machines = w.machines as u64;
        CampaignSample {
            machines,
            succeeded: machines,
            integrity_checked: machines * w.smis_per_machine(),
            sim_p50_ns: w.sim_patch_p50_ns,
            sim_max_ns: w.sim_patch_max_ns,
            ..campaign()
        }
    }

    fn shadowing(c: &CampaignSample) -> TraceSample {
        TraceSample {
            seed: c.seed,
            machines: c.machines,
            root: c.root.clone(),
            sim_p50_ns: c.sim_p50_ns,
            sim_max_ns: c.sim_max_ns,
            ..trace()
        }
    }

    #[test]
    fn a_clean_campaign_and_its_trace_pass() {
        let w = streamed();
        let c = clean(&w);
        assert_eq!(check_campaign(&w, &c), Vec::<String>::new());
        assert_eq!(check_trace(&w, &shadowing(&c), &c), Vec::<String>::new());
    }

    #[test]
    fn a_perturbed_root_is_rejected() {
        let w = streamed();
        let c = clean(&w);
        let mut t = shadowing(&c);
        t.root.replace_range(0..1, "c");
        let v = check_trace(&w, &t, &c);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("traced root"), "{v:?}");
    }

    #[test]
    fn a_perturbed_sim_value_is_rejected() {
        let w = streamed();
        let mut c = clean(&w);
        c.sim_p50_ns += 1;
        let v = check_campaign(&w, &c);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("simulated patch p50"), "{v:?}");

        let c = clean(&w);
        let mut t = shadowing(&c);
        t.sim_max_ns -= 1;
        let v = check_trace(&w, &t, &c);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("simulated patch max"), "{v:?}");
    }

    #[test]
    fn failures_divergence_and_unhealthy_planes_are_rejected() {
        let w = streamed();
        type Perturb = fn(&mut CampaignSample);
        let cases: [(&str, Perturb); 5] = [
            ("failed", |c| {
                c.failed = 1;
                c.succeeded -= 1;
            }),
            ("digests differ", |c| c.all_identical = false),
            ("health verdict", |c| c.health_verdict = "degraded".into()),
            ("integrity violations", |c| c.integrity_violations = 1),
            ("flight records", |c| c.integrity_checked -= 1),
        ];
        for (needle, perturb) in cases {
            let mut c = clean(&w);
            perturb(&mut c);
            let v = check_campaign(&w, &c);
            assert!(v.iter().any(|m| m.contains(needle)), "{needle}: {v:?}");
        }
    }

    #[test]
    fn unstreamed_workloads_skip_the_plane_checks() {
        let w = workload("catalogue-4cve").unwrap();
        let c = CampaignSample {
            health_verdict: String::new(),
            integrity_checked: 0,
            ..clean(&w)
        };
        assert_eq!(check_campaign(&w, &c), Vec::<String>::new());
    }
}
