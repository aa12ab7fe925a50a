//! A mergeable log-bucketed quantile sketch (DDSketch-style).
//!
//! Values are binned geometrically: each power-of-two octave is split
//! into [`SUB_BUCKETS`] = 32 sub-buckets, so consecutive bucket
//! boundaries are a factor of γ = 2^(1/32) ≈ 1.0219 apart. Reporting a
//! bucket's geometric midpoint bounds the relative quantile error by
//! 2^(1/64) − 1 ≈ 1.09%, comfortably inside the 2% contract pinned by
//! the property tests. Memory is constant (2049 `u64` counts) and
//! independent of how many values are recorded.
//!
//! **Merging is exact**: a sketch is just per-bucket counts plus exact
//! count/sum/min/max, so merging per-worker sketches is component-wise
//! addition — the merged sketch is *bit-for-bit identical* to the
//! sketch a single thread would have produced from the same values, in
//! any merge order. That property is what lets `histogram!` data flow
//! through `vapp-par` workers without perturbing snapshots.
//!
//! The bucket index of a value is computed from its exact integer
//! octave (`63 − leading_zeros`); only the sub-bucket within the octave
//! uses floating point, clamped to the octave — so power-of-two
//! boundaries are exact and every octave's 32 buckets hold exactly the
//! values of that bit length.

/// Sub-buckets per power-of-two octave. 32 gives γ = 2^(1/32) and a
/// worst-case midpoint relative error of 2^(1/64) − 1 ≈ 1.09%.
pub const SUB_BUCKETS: usize = 32;

/// Total bucket count: 64 octaves × [`SUB_BUCKETS`] plus the dedicated
/// zero bucket at index 0.
pub const SKETCH_BUCKETS: usize = 64 * SUB_BUCKETS + 1;

/// Bucket index of a value. 0 is the exact-zero bucket; a value in
/// octave `e` (i.e. `2^e <= v < 2^(e+1)`) lands in
/// `1 + 32·e + floor(32·log2(v / 2^e))`.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        return 0;
    }
    // The octave is exact integer arithmetic; only the fractional
    // sub-bucket position goes through f64, and it is clamped into the
    // octave so boundary rounding can never leak into a neighbour
    // octave.
    let e = 63 - value.leading_zeros() as usize;
    let mantissa = value as f64 / (1u64 << e) as f64; // in [1, 2)
    let sub = ((mantissa.log2() * SUB_BUCKETS as f64) as usize).min(SUB_BUCKETS - 1);
    1 + e * SUB_BUCKETS + sub
}

/// Representative value of a bucket: 0 for the zero bucket, the
/// geometric midpoint `2^((i + 0.5) / 32)` of bucket `1 + i` otherwise.
#[inline]
pub fn bucket_value(index: usize) -> f64 {
    if index == 0 {
        0.0
    } else {
        (((index - 1) as f64 + 0.5) / SUB_BUCKETS as f64).exp2()
    }
}

/// The quantile points every snapshot reports.
pub const SNAPSHOT_QUANTILES: [(&str, f64); 5] = [
    ("p50", 0.50),
    ("p90", 0.90),
    ("p95", 0.95),
    ("p99", 0.99),
    ("p999", 0.999),
];

/// A plain (non-atomic) mergeable quantile sketch. This is the value
/// type: the registry's [`crate::registry::Histogram`] keeps the same
/// buckets in atomics and snapshots into one of these.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sketch {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Sketch {
    fn default() -> Self {
        Self::new()
    }
}

impl Sketch {
    /// An empty sketch.
    pub fn new() -> Self {
        Sketch {
            counts: vec![0; SKETCH_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Rebuilds a sketch from snapshot parts: sparse `(bucket, count)`
    /// pairs plus the exact aggregates (used by JSON parsing).
    ///
    /// # Errors
    ///
    /// Rejects bucket indices outside [`SKETCH_BUCKETS`] and bucket
    /// counts that do not sum to `count`.
    pub fn from_parts(
        buckets: &[(usize, u64)],
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
    ) -> Result<Self, String> {
        let mut s = Sketch::new();
        let mut total = 0u64;
        for &(idx, c) in buckets {
            if idx >= SKETCH_BUCKETS {
                return Err(format!("sketch bucket index {idx} out of range"));
            }
            s.counts[idx] = s.counts[idx].wrapping_add(c);
            total = total.wrapping_add(c);
        }
        if total != count {
            return Err(format!(
                "sketch bucket counts sum to {total}, expected count {count}"
            ));
        }
        s.count = count;
        s.sum = sum;
        s.min = if count == 0 { u64::MAX } else { min };
        s.max = max;
        Ok(s)
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` occurrences of `value` (used for weighted samples,
    /// e.g. one bench batch standing for `iters` iterations).
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_index(value)] += n;
        self.count += n;
        self.sum = self.sum.wrapping_add(value.wrapping_mul(n));
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Folds `other` into `self`. Exact: component-wise addition, so
    /// merge order can never change the result.
    pub fn merge(&mut self, other: &Sketch) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (wrapping).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Non-empty `(bucket_index, count)` pairs in index order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter_map(|(i, &c)| (c > 0).then_some((i, c)))
    }

    /// The estimated `q`-quantile (nearest-rank on `floor(q·(n−1))`),
    /// clamped into `[min, max]`; 0 when empty. Relative error is
    /// bounded by 2^(1/64) − 1 ≈ 1.09% before clamping.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.count - 1) as f64).floor() as u64;
        // The extreme order statistics are tracked exactly — report them
        // as such instead of their bucket midpoints.
        if rank == 0 {
            return self.min() as f64;
        }
        if rank == self.count - 1 {
            return self.max as f64;
        }
        let mut cum = 0u64;
        for (idx, c) in self.nonzero_buckets() {
            cum += c;
            if cum > rank {
                return bucket_value(idx).clamp(self.min() as f64, self.max as f64);
            }
        }
        self.max as f64
    }

    /// The standard snapshot quantile set ([`SNAPSHOT_QUANTILES`]).
    pub fn snapshot_quantiles(&self) -> [(&'static str, f64); 5] {
        SNAPSHOT_QUANTILES.map(|(name, q)| (name, self.quantile(q)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_exact_on_octave_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 1 + SUB_BUCKETS);
        assert_eq!(bucket_index(4), 1 + 2 * SUB_BUCKETS);
        // The top of each octave stays inside it.
        for e in 1..64 {
            let top = if e == 63 {
                u64::MAX
            } else {
                (1u64 << (e + 1)) - 1
            };
            let idx = bucket_index(top);
            assert!(idx > e as usize * SUB_BUCKETS, "2^{e} top too low");
            assert!(idx < 1 + (e as usize + 1) * SUB_BUCKETS, "2^{e} top leaked");
        }
        assert!(bucket_index(u64::MAX) < SKETCH_BUCKETS);
    }

    #[test]
    fn representative_error_is_within_the_gamma_bound() {
        // γ-midpoint bound: |rep − v| / v ≤ 2^(1/64) − 1.
        let bound = (1.0f64 / 64.0).exp2() - 1.0 + 1e-12;
        for v in [1u64, 3, 7, 100, 1023, 1024, 65_537, 1 << 40, u64::MAX] {
            let rep = bucket_value(bucket_index(v));
            let rel = (rep - v as f64).abs() / v as f64;
            assert!(rel <= bound, "v={v}: rel error {rel}");
        }
    }

    #[test]
    fn quantiles_track_exact_order_statistics() {
        let mut s = Sketch::new();
        let values: Vec<u64> = (1..=1000).collect();
        for &v in &values {
            s.record(v);
        }
        for (q, exact) in [(0.5, 500u64), (0.9, 900), (0.99, 990)] {
            let est = s.quantile(q);
            let rel = (est - exact as f64).abs() / exact as f64;
            assert!(rel <= 0.02, "q={q}: est {est} vs exact {exact}");
        }
        assert_eq!(s.quantile(0.0), 1.0); // clamped to min
        assert_eq!(s.quantile(1.0), 1000.0); // clamped to max
    }

    #[test]
    fn merge_is_bit_for_bit_exact() {
        let values: Vec<u64> = (0..500).map(|i| (i * i * 2654435761) % 100_000).collect();
        let mut single = Sketch::new();
        let mut parts: Vec<Sketch> = (0..8).map(|_| Sketch::new()).collect();
        for (i, &v) in values.iter().enumerate() {
            single.record(v);
            parts[i % 8].record(v);
        }
        let mut merged = Sketch::new();
        for p in &parts {
            merged.merge(p);
        }
        assert_eq!(merged, single);
        for (_, q) in SNAPSHOT_QUANTILES {
            assert_eq!(merged.quantile(q).to_bits(), single.quantile(q).to_bits());
        }
    }

    #[test]
    fn weighted_recording_matches_repetition() {
        let mut a = Sketch::new();
        let mut b = Sketch::new();
        for _ in 0..7 {
            a.record(42);
        }
        b.record_n(42, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn parts_round_trip() {
        let mut s = Sketch::new();
        for v in [0u64, 5, 5, 99, 12_345] {
            s.record(v);
        }
        let sparse: Vec<(usize, u64)> = s.nonzero_buckets().collect();
        let rebuilt =
            Sketch::from_parts(&sparse, s.count(), s.sum(), s.min(), s.max()).expect("valid parts");
        assert_eq!(rebuilt, s);
        assert!(Sketch::from_parts(&[(SKETCH_BUCKETS, 1)], 1, 0, 0, 0).is_err());
        assert!(Sketch::from_parts(&[(1, 2)], 3, 0, 0, 0).is_err());
    }
}
