//! The benchmark's own arithmetic: medians, nearest-rank percentiles,
//! the tail percentile rule, and span self time.

use kshot_telemetry::{Record, SpanRecord};

/// Median of `values` (mean of the middle two for an even count).
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of ascending `sorted`, `per_mille` in
/// `1..=1000`: the value at rank `ceil(per_mille * n / 1000)`.
pub fn nearest_rank(sorted: &[f64], per_mille: u32) -> f64 {
    let n = sorted.len();
    let rank = (per_mille as usize * n).div_ceil(1000).max(1);
    sorted[rank - 1]
}

/// A tail percentile that is backed by enough samples to mean
/// something.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Which percentile, in per mille (990 = p99).
    pub per_mille: u32,
    /// The sample at that percentile.
    pub value: f64,
    /// How many samples it was taken from.
    pub n: usize,
}

/// Candidate tail percentiles, highest first.
const TAIL_LADDER: [u32; 6] = [999, 990, 950, 900, 750, 500];

/// Least number of samples that must lie beyond a reported percentile.
const TAIL_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_BEYOND`] samples beyond its nearest rank, or `None` when even
/// the median has fewer (under 20 samples).
pub fn tail_percentile(samples: &[f64]) -> Option<Tail> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    TAIL_LADDER.iter().find_map(|&per_mille| {
        let rank = (per_mille as usize * n).div_ceil(1000);
        (rank >= 1 && n - rank >= TAIL_BEYOND).then(|| Tail {
            per_mille,
            value: sorted[rank - 1],
            n,
        })
    })
}

/// A span's self time: its duration minus the part of its interval
/// that the union of `children` covers. Children are `(start, end)`
/// intervals; parts outside the parent's interval do not count, and
/// overlapping children are counted once.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end - start) - covered
}

/// Wall time of one `live_patch_bundle` call split along the spans the
/// program already emits, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PatchSplit {
    /// `sgx.session`: attestation plus the session's DH operations.
    pub sgx_session: u64,
    /// `sgx.fetch`: the enclave's bundle fetch.
    pub sgx_fetch: u64,
    /// `sgx.prepare_and_stage`: preprocessing and staging into `mem_W`.
    pub sgx_stage: u64,
    /// `smm.window`: SMI entry through RSM.
    pub smm_window: u64,
    /// `phase.key_exchange`: the SMM handler's DH agreement.
    pub smm_key_exchange: u64,
    /// `kshot.live_patch_bundle` minus what its child spans cover.
    pub live_patch_self: u64,
}

fn interval(s: &SpanRecord) -> (u64, u64) {
    (s.wall_start_ns, s.wall_start_ns + s.wall_dur_ns)
}

/// Split the spans one `live_patch_bundle` call recorded. Every named
/// span is summed over all its occurrences.
pub fn patch_split(records: &[Record]) -> PatchSplit {
    let spans: Vec<&SpanRecord> = records
        .iter()
        .filter_map(|r| match r {
            Record::Span(s) => Some(s),
            Record::Event(_) => None,
        })
        .collect();
    let total = |name: &str| -> u64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.wall_dur_ns)
            .sum()
    };
    let live_patch_self = spans
        .iter()
        .filter(|s| s.name == "kshot.live_patch_bundle")
        .map(|root| {
            let children: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == Some(root.id))
                .map(|c| interval(c))
                .collect();
            self_time(interval(root), &children)
        })
        .sum();
    PatchSplit {
        sgx_session: total("sgx.session"),
        sgx_fetch: total("sgx.fetch"),
        sgx_stage: total("sgx.prepare_and_stage"),
        smm_window: total("smm.window"),
        smm_key_exchange: total("phase.key_exchange"),
        live_patch_self,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let samples = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 1000 samples: p99 sits at rank 990, 10 beyond; p99.9 has 1.
        let t = tail_percentile(&samples(1000)).unwrap();
        assert_eq!((t.per_mille, t.value, t.n), (990, 990.0, 1000));
        // One short of that, p99 has only 9 beyond: fall back to p95.
        let t = tail_percentile(&samples(999)).unwrap();
        assert_eq!((t.per_mille, t.value, t.n), (950, 950.0, 999));
        // 10 000 samples earn p99.9.
        assert_eq!(tail_percentile(&samples(10_000)).unwrap().per_mille, 999);
        // 20 samples: only the median has 10 beyond it.
        let t = tail_percentile(&samples(20)).unwrap();
        assert_eq!((t.per_mille, t.value, t.n), (500, 10.0, 20));
        assert_eq!(tail_percentile(&samples(19)), None);
        assert_eq!(tail_percentile(&[]), None);
    }

    #[test]
    fn tail_ignores_sample_order() {
        let mut v: Vec<f64> = (0..200).map(|i| ((i * 37) % 200) as f64).collect();
        let a = tail_percentile(&v).unwrap();
        v.reverse();
        assert_eq!(tail_percentile(&v).unwrap(), a);
        assert_eq!((a.per_mille, a.value), (950, 189.0));
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        // No children: all of it is self time.
        assert_eq!(self_time((100, 200), &[]), 100);
        // Disjoint children.
        assert_eq!(self_time((100, 200), &[(110, 120), (150, 170)]), 70);
        // Overlapping children are covered once, not twice.
        assert_eq!(self_time((100, 200), &[(110, 150), (140, 160)]), 50);
        // A child nested in another adds nothing.
        assert_eq!(self_time((100, 200), &[(110, 190), (120, 130)]), 20);
        // Parts outside the parent do not count; empty children neither.
        assert_eq!(self_time((100, 200), &[(50, 120), (190, 260)]), 70);
        assert_eq!(self_time((100, 200), &[(130, 130), (300, 400)]), 100);
        // Fully covered.
        assert_eq!(self_time((100, 200), &[(90, 210)]), 0);
    }

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, dur: u64) -> Record {
        Record::Span(SpanRecord {
            id,
            parent,
            name,
            thread: 0,
            wall_start_ns: start,
            wall_dur_ns: dur,
            sim_start_ns: None,
            sim_end_ns: None,
            fields: Vec::new(),
        })
    }

    #[test]
    fn patch_split_reads_named_spans_and_root_self_time() {
        let records = vec![
            span(2, Some(1), "sgx.session", 10, 100),
            span(3, Some(2), "phase.attest", 20, 5),
            span(4, Some(1), "sgx.fetch", 110, 10),
            span(5, Some(1), "sgx.prepare_and_stage", 120, 50),
            span(7, Some(6), "phase.key_exchange", 180, 30),
            span(6, Some(1), "smm.window", 175, 60),
            span(1, None, "kshot.live_patch_bundle", 0, 250),
        ];
        let split = patch_split(&records);
        assert_eq!(
            split,
            PatchSplit {
                sgx_session: 100,
                sgx_fetch: 10,
                sgx_stage: 50,
                smm_window: 60,
                smm_key_exchange: 30,
                // 250 minus children [10,170) and [175,235).
                live_patch_self: 30,
            }
        );
    }
}
