//! A deterministic, mergeable quantile sketch — the memory-O(workers)
//! aggregation primitive for fleet-scale latency signals.
//!
//! This is a fixed-γ log-bucket sketch in the DDSketch family, built
//! entirely on integer arithmetic so results are bit-identical across
//! platforms, optimization levels, and — critically — **merge orders**:
//!
//! - γ = 2^(1/32): every power-of-two octave is split into 32
//!   sub-buckets, so a value's bucket index is
//!   `32·⌊log2 v⌋ + sub(mantissa)` with the sub-index read from a
//!   compile-time Q32 boundary table ([`BOUNDS_Q32`]) derived by an
//!   integer-sqrt chain. No `f64::log2`, no libm, no rounding-mode
//!   dependence.
//! - The bucket universe is *finite* (64 octaves × 32 = 2048 buckets,
//!   `u16` indices) and never collapsed, so memory is inherently
//!   bounded (≲ 20 KiB worst case, tens of buckets in practice) and
//!   bucket-wise saturating merges are commutative **and** associative:
//!   tree-merging worker shards in any shape yields byte-identical
//!   serialized state to a sequential fold.
//! - Quantile queries use the same nearest-rank convention as
//!   [`HistogramSnapshot::percentile`](crate::HistogramSnapshot): the
//!   estimate is the bucket's upper bound clamped into `[min, max]`,
//!   which makes single-value and all-equal sketches exact.
//!
//! The relative-error contract: for any quantile, the estimate `e` and
//! the exact nearest-rank sample `x` satisfy `x ≤ e ≤ x·γ` (plus at
//! most 1 ulp of integer slack), i.e. at most
//! [`QuantileSketch::MAX_RELATIVE_ERROR_PER_MILLE`] ≈ 2.2%
//! overestimation — the property test in `tests/prop_sketch.rs` checks
//! this against exact sorted-sample quantiles over randomized
//! distributions including the `u64::MAX` saturation edge.
//!
//! Serialization is one `{"type":"sketch",...}` JSON line under the
//! existing [`crate::SCHEMA_VERSION`]; [`crate::ShardData`] parses it
//! back and merges sketches across shards exactly like counters and
//! histograms.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Value;
use crate::record::json_escape;

/// Sub-buckets per power-of-two octave. γ = 2^(1/RESOLUTION).
const RESOLUTION: u64 = 32;

/// Highest bucket index: 64 octaves × 32 sub-buckets.
const MAX_INDEX: u64 = 64 * RESOLUTION - 1;

/// 2^(1/32) in Q62 fixed point, via five integer square roots of 2.
/// `isqrt` floors, so the value is exact to within a few ulps — enough
/// that consecutive Q32 boundaries below differ by ~9 decimal digits.
const fn gamma_q62() -> u128 {
    let mut r: u128 = 2 << 62; // 2.0 in Q62
    let mut i = 0;
    while i < 5 {
        // r < 2^63, so r << 62 < 2^125 fits; isqrt(x·2^124) = √x·2^62.
        r = (r << 62).isqrt();
        i += 1;
    }
    r
}

/// Q32 mantissa boundaries of the 32 sub-buckets: `BOUNDS_Q32[j]` ≈
/// 2^(j/32)·2^32. The ends are pinned exactly (`[0] = 2^32`,
/// `[32] = 2^33`) so the sub-index is always in `0..=31` and the top
/// bucket's upper bound is the octave boundary itself.
const fn bounds_q32() -> [u64; 33] {
    let g = gamma_q62();
    let mut b = [0u64; 33];
    let mut acc: u128 = 1 << 62; // 1.0 in Q62
    let mut j = 0;
    while j <= 32 {
        b[j] = (acc >> 30) as u64; // Q62 -> Q32
        acc = (acc * g) >> 62;
        j += 1;
    }
    b[0] = 1 << 32;
    b[32] = 1 << 33;
    b
}

static BOUNDS_Q32: [u64; 33] = bounds_q32();

/// A mergeable fixed-γ log-bucket quantile sketch over `u64` samples.
///
/// See the module docs for the determinism and error contracts. The
/// default state is empty; equality is structural, so two sketches that
/// saw the same multiset of values — in any order, through any merge
/// tree — compare (and serialize) identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantileSketch {
    /// Non-empty log buckets, keyed by index (octave·32 + sub-bucket).
    buckets: BTreeMap<u16, u64>,
    /// Observations of exactly zero (no logarithm to take).
    zeros: u64,
    count: u64,
    sum: u64,
    /// `u64::MAX` when empty — same sentinel the histograms use.
    min: u64,
    max: u64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch::new()
    }
}

impl QuantileSketch {
    /// Documented worst-case relative *over*estimation of any quantile:
    /// γ − 1 = 2^(1/32) − 1 ≈ 21.9‰, rounded up.
    pub const MAX_RELATIVE_ERROR_PER_MILLE: u64 = 22;

    /// An empty sketch.
    pub fn new() -> QuantileSketch {
        QuantileSketch {
            buckets: BTreeMap::new(),
            zeros: 0,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index of a non-zero value: octave (floor log2) times 32
    /// plus the sub-bucket its Q32 mantissa falls in. Monotone in `v`.
    fn index(v: u64) -> u16 {
        debug_assert!(v > 0);
        let e = 63 - u64::from(v.leading_zeros());
        // Mantissa in [2^32, 2^33) — v normalized into [1, 2) in Q32.
        let m = ((u128::from(v) << 32) >> e) as u64;
        let s = BOUNDS_Q32[1..32].partition_point(|&b| b <= m) as u64;
        (e * RESOLUTION + s) as u16
    }

    /// Upper bound of bucket `idx` — the quantile representative. Every
    /// value the bucket admits is ≤ this, and ≥ this/γ.
    fn representative(idx: u16) -> u64 {
        let e = u32::from(idx) / RESOLUTION as u32;
        let s = (u64::from(idx) % RESOLUTION) as usize;
        let rep = (u128::from(BOUNDS_Q32[s + 1]) << e) >> 32;
        u64::try_from(rep).unwrap_or(u64::MAX)
    }

    /// Record one observation. `sum` saturates at `u64::MAX` (the same
    /// sentinel convention as the histogram aggregates), so saturated
    /// states still round-trip and merge exactly.
    pub fn observe(&mut self, value: u64) {
        if value == 0 {
            self.zeros = self.zeros.saturating_add(1);
        } else {
            let slot = self.buckets.entry(Self::index(value)).or_insert(0);
            *slot = slot.saturating_add(1);
        }
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Fold another sketch into this one bucket-wise. Because the
    /// bucket universe is fixed and every aggregate is a saturating
    /// add / min / max, this merge is commutative and associative —
    /// tree merges and sequential folds produce identical state.
    pub fn merge_from(&mut self, other: &QuantileSketch) {
        for (&idx, &n) in &other.buckets {
            let slot = self.buckets.entry(idx).or_insert(0);
            *slot = slot.saturating_add(n);
        }
        self.zeros = self.zeros.saturating_add(other.zeros);
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (0 when empty, matching the histograms).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// True when nothing has been observed or merged in.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean observed value, zero when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Occupied buckets (zero bucket excluded) — the resident state.
    pub fn bucket_len(&self) -> usize {
        self.buckets.len()
    }

    /// Approximate resident bytes of this sketch's state: the fixed
    /// scalars plus ~10 bytes (u16 key + u64 count) per live bucket.
    /// This is the memory the million-machine aggregation path holds
    /// per signal, *independent of sample count* — the number the
    /// observe bench records.
    pub fn resident_bytes(&self) -> u64 {
        48 + self.buckets.len() as u64 * 10
    }

    /// Nearest-rank quantile: `q` in per-mille (500 = median, 990 =
    /// p99; clamped to 1000). The estimate is the ranked bucket's upper
    /// bound clamped into `[min, max]`, so it never undershoots the
    /// exact ranked sample and overshoots by at most γ − 1 (≈ 2.2%).
    /// Empty sketches return 0.
    pub fn quantile_per_mille(&self, q: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.min(1000);
        // ceil(count·q/1000) without overflow near u64::MAX.
        let rank = ((self.count / 1000) * q + ((self.count % 1000) * q).div_ceil(1000)).max(1);
        let mut seen = self.zeros;
        if seen >= rank {
            return 0;
        }
        for (&idx, &n) in &self.buckets {
            seen = seen.saturating_add(n);
            if seen >= rank {
                return Self::representative(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Serialize as one JSON line under the crate schema version:
    /// `{"type":"sketch","v":1,"name":...,"count":...,"sum":...,
    /// "zeros":...,"min":...,"max":...,"idx":[...],"counts":[...]}`.
    /// Bucket arrays are index-ascending, so equal sketches serialize
    /// byte-identically. No trailing newline.
    pub fn to_json_line(&self, name: &str) -> String {
        let mut idx = String::new();
        let mut counts = String::new();
        for (i, (&k, &n)) in self.buckets.iter().enumerate() {
            if i > 0 {
                idx.push(',');
                counts.push(',');
            }
            let _ = write!(idx, "{k}");
            let _ = write!(counts, "{n}");
        }
        format!(
            concat!(
                "{{\"type\":\"sketch\",\"v\":{},\"name\":{},\"count\":{},\"sum\":{},",
                "\"zeros\":{},\"min\":{},\"max\":{},\"idx\":[{}],\"counts\":[{}]}}"
            ),
            crate::SCHEMA_VERSION,
            json_escape(name),
            self.count,
            self.sum,
            self.zeros,
            self.min(),
            self.max,
            idx,
            counts,
        )
    }

    /// Rebuild a sketch from a parsed `{"type":"sketch",...}` object
    /// (schema version already checked by the caller, as with the other
    /// shard line types).
    ///
    /// # Errors
    ///
    /// Missing or malformed fields, mismatched `idx`/`counts` lengths,
    /// or an out-of-universe bucket index — shard drift fails loudly.
    pub fn from_json_value(v: &Value, lineno: usize) -> Result<QuantileSketch, String> {
        let field = |key: &str| {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("line {lineno}: missing/invalid {key:?}"))
        };
        let array = |key: &str| -> Result<Vec<u64>, String> {
            match v.get(key) {
                Some(Value::Array(items)) => items
                    .iter()
                    .map(|x| {
                        x.as_u64()
                            .ok_or_else(|| format!("line {lineno}: non-integer in {key:?}"))
                    })
                    .collect(),
                _ => Err(format!("line {lineno}: missing/invalid {key:?}")),
            }
        };
        let idx = array("idx")?;
        let counts = array("counts")?;
        if idx.len() != counts.len() {
            return Err(format!("line {lineno}: sketch bucket shape mismatch"));
        }
        let mut buckets = BTreeMap::new();
        for (&i, &n) in idx.iter().zip(&counts) {
            if i > MAX_INDEX {
                return Err(format!(
                    "line {lineno}: sketch bucket index {i} out of range"
                ));
            }
            if n == 0 {
                continue; // canonical state never carries empty buckets
            }
            let slot: &mut u64 = buckets.entry(i as u16).or_insert(0);
            *slot = slot.saturating_add(n);
        }
        let count = field("count")?;
        Ok(QuantileSketch {
            buckets,
            zeros: field("zeros")?,
            count,
            sum: field("sum")?,
            min: if count == 0 { u64::MAX } else { field("min")? },
            max: field("max")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_table_is_pinned_and_strictly_increasing() {
        assert_eq!(BOUNDS_Q32[0], 1 << 32);
        assert_eq!(BOUNDS_Q32[32], 1 << 33);
        for w in BOUNDS_Q32.windows(2) {
            assert!(w[0] < w[1], "{w:?}");
        }
        // Midpoint sanity: 2^(16/32) = √2 ≈ 1.41421356 in Q32.
        let sqrt2 = (BOUNDS_Q32[16] as f64) / (1u64 << 32) as f64;
        assert!((sqrt2 - std::f64::consts::SQRT_2).abs() < 1e-6, "{sqrt2}");
    }

    #[test]
    fn indexing_is_monotone_and_in_range() {
        let mut prev = 0u16;
        for v in [
            1u64,
            2,
            3,
            7,
            8,
            100,
            1_000,
            45_000,
            1 << 20,
            (1 << 40) + 12345,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let idx = QuantileSketch::index(v);
            assert!(u64::from(idx) <= MAX_INDEX, "{v} -> {idx}");
            assert!(idx >= prev, "index not monotone at {v}");
            prev = idx;
            // The representative never undershoots the value and never
            // overshoots past γ·v (with 1 ulp of integer slack).
            let rep = QuantileSketch::representative(idx);
            assert!(rep >= v, "rep {rep} < v {v}");
            let bound = (u128::from(v) * 1023) / 1000 + 1;
            assert!(u128::from(rep) <= bound, "rep {rep} v {v}");
        }
        assert_eq!(QuantileSketch::index(1), 0);
        assert_eq!(QuantileSketch::representative(QuantileSketch::index(1)), 1);
        assert_eq!(
            QuantileSketch::representative(QuantileSketch::index(u64::MAX)),
            u64::MAX
        );
    }

    #[test]
    fn empty_single_and_all_equal_are_exact() {
        let mut s = QuantileSketch::new();
        assert_eq!(s.quantile_per_mille(500), 0);
        assert_eq!(s.min(), 0);
        s.observe(45_000);
        for q in [1, 500, 950, 1000] {
            assert_eq!(s.quantile_per_mille(q), 45_000, "single sample at q={q}");
        }
        let mut eq = QuantileSketch::new();
        for _ in 0..100 {
            eq.observe(7_000);
        }
        assert_eq!(eq.quantile_per_mille(10), 7_000);
        assert_eq!(eq.quantile_per_mille(990), 7_000);
        assert_eq!(eq.mean(), 7_000);
    }

    #[test]
    fn zeros_and_saturation_edges() {
        let mut s = QuantileSketch::new();
        s.observe(0);
        s.observe(0);
        s.observe(u64::MAX);
        assert_eq!(s.count(), 3);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), u64::MAX);
        assert_eq!(s.quantile_per_mille(500), 0);
        assert_eq!(s.quantile_per_mille(1000), u64::MAX);
        // sum saturates at the sentinel, so it round-trips exactly.
        s.observe(u64::MAX);
        assert_eq!(s.sum(), u64::MAX);
        let line = s.to_json_line("edge");
        let v = crate::json::parse(&line).unwrap();
        let back = QuantileSketch::from_json_value(&v, 1).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn merge_is_order_independent() {
        // Three disjoint value sets; every merge shape must agree.
        let mk = |vals: &[u64]| {
            let mut s = QuantileSketch::new();
            for &v in vals {
                s.observe(v);
            }
            s
        };
        let a = mk(&[1, 5, 0, 45_000]);
        let b = mk(&[45_001, 2_000_000, u64::MAX]);
        let c = mk(&[7, 7, 7, 300_000_000_000]);

        let mut seq = a.clone();
        seq.merge_from(&b);
        seq.merge_from(&c);

        let mut rev = c.clone();
        rev.merge_from(&b);
        rev.merge_from(&a);

        let mut tree = a.clone();
        let mut right = b.clone();
        right.merge_from(&c);
        tree.merge_from(&right);

        assert_eq!(seq, rev);
        assert_eq!(seq, tree);
        assert_eq!(seq.to_json_line("m"), tree.to_json_line("m"));

        // And the merged state equals observing everything into one.
        let all = mk(&[
            1,
            5,
            0,
            45_000,
            45_001,
            2_000_000,
            u64::MAX,
            7,
            7,
            7,
            300_000_000_000,
        ]);
        assert_eq!(seq, all);
    }

    #[test]
    fn json_roundtrip_is_lossless_and_rejects_drift() {
        let mut s = QuantileSketch::new();
        for v in [3u64, 45_000, 45_000, 120_000, 0] {
            s.observe(v);
        }
        let line = s.to_json_line("machine.smm_dwell_ns");
        let v = crate::json::parse(&line).unwrap();
        assert_eq!(v.get("type").and_then(Value::as_str), Some("sketch"));
        assert_eq!(
            v.get("v").and_then(Value::as_u64),
            Some(u64::from(crate::SCHEMA_VERSION))
        );
        let back = QuantileSketch::from_json_value(&v, 1).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.to_json_line("machine.smm_dwell_ns"), line);

        let bad = crate::json::parse(
            "{\"type\":\"sketch\",\"v\":1,\"name\":\"x\",\"count\":1,\"sum\":1,\
             \"zeros\":0,\"min\":1,\"max\":1,\"idx\":[1,2],\"counts\":[1]}",
        )
        .unwrap();
        assert!(QuantileSketch::from_json_value(&bad, 4)
            .unwrap_err()
            .contains("shape mismatch"));
        let oob = crate::json::parse(
            "{\"type\":\"sketch\",\"v\":1,\"name\":\"x\",\"count\":1,\"sum\":1,\
             \"zeros\":0,\"min\":1,\"max\":1,\"idx\":[9999],\"counts\":[1]}",
        )
        .unwrap();
        assert!(QuantileSketch::from_json_value(&oob, 4)
            .unwrap_err()
            .contains("out of range"));
    }

    #[test]
    fn bounded_memory_even_under_adversarial_spread() {
        // One value in every octave: the worst realistic spread still
        // stays within the fixed universe.
        let mut s = QuantileSketch::new();
        let mut v = 1u64;
        for _ in 0..64 {
            s.observe(v);
            s.observe(v.saturating_add(v / 3));
            v = v.saturating_mul(2);
        }
        assert!(s.bucket_len() <= 128, "{}", s.bucket_len());
        assert!(s.resident_bytes() < 20 * 1024);
    }
}
