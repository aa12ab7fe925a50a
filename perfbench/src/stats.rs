//! Order statistics, the tail-percentile rule, digests and process
//! measurements shared by every workload.

/// Samples that must lie strictly beyond the reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first. The tail is the highest one
/// with at least [`MIN_BEYOND`] samples beyond it; the ladder stops at p99
/// because past it a run measures the machine's hiccups, not the program.
pub const TAIL_LADDER: [usize; 3] = [99, 95, 90];

/// A latency distribution summarised as median and tail.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Samples recorded.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// The tail sample (see [`tail_index`]).
    pub tail: f64,
    /// Percentile of the tail sample (100: the maximum of a short run).
    pub tail_pct: usize,
    /// Samples strictly beyond the tail sample.
    pub beyond: usize,
}

/// Nearest-rank index of percentile `pct` in `n` sorted samples.
fn rank_index(n: usize, pct: usize) -> usize {
    (pct * n).div_ceil(100).clamp(1, n) - 1
}

/// Index of the tail sample among `n` sorted samples: the nearest-rank
/// index of the highest [`TAIL_LADDER`] percentile that keeps at least
/// [`MIN_BEYOND`] samples beyond it, with that percentile. `None` when no
/// rung qualifies (fewer than 100 samples).
pub fn tail_index(n: usize) -> Option<(usize, usize)> {
    if n == 0 {
        return None;
    }
    TAIL_LADDER
        .iter()
        .map(|&pct| (rank_index(n, pct), pct))
        .find(|&(k, _)| n - 1 - k >= MIN_BEYOND)
}

/// The summary of `n` recorded samples of which `sorted` (ascending) were
/// kept: `n` picks the tail percentile, `sorted` gives the values.
fn summarize_sorted(n: usize, sorted: &[f64]) -> Option<Summary> {
    let m = sorted.len();
    if n == 0 || m == 0 {
        return None;
    }
    let (k, pct) = tail_index(n).unwrap_or((n - 1, 100));
    Some(Summary {
        n,
        p50: sorted[rank_index(m, 50)],
        tail: sorted[rank_index(m, pct)],
        tail_pct: pct,
        beyond: n - 1 - k,
    })
}

/// Latency samples in fixed memory: every sample while there are at most
/// [`Reservoir::CAP`], then a uniform random subset of that size
/// (reservoir sampling with a fixed-seed generator). A run's resident set
/// therefore stops growing with its op count, and runs below the cap keep
/// every sample exactly.
#[derive(Clone, Debug)]
pub struct Reservoir {
    kept: Vec<f64>,
    seen: u64,
    state: u64,
}

impl Default for Reservoir {
    fn default() -> Self {
        Reservoir {
            kept: Vec::new(),
            seen: 0,
            state: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl Reservoir {
    /// Samples kept at most.
    pub const CAP: usize = 1 << 16;

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        self.seen += 1;
        if self.kept.len() < Self::CAP {
            self.kept.push(value);
            return;
        }
        // xorshift64*: a uniform slot in 0..seen; keep if it is in range.
        self.state ^= self.state >> 12;
        self.state ^= self.state << 25;
        self.state ^= self.state >> 27;
        let slot = self.state.wrapping_mul(0x2545_F491_4F6C_DD1D) % self.seen;
        if let Some(kept) = self.kept.get_mut(slot as usize) {
            *kept = value;
        }
    }

    /// Adds every sample of `other`, as if recorded here.
    pub fn merge(&mut self, other: &Reservoir) {
        for &v in &other.kept {
            self.record(v);
        }
        self.seen += other.seen - other.kept.len() as u64;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.seen
    }

    /// Median and tail. The tail percentile is chosen by the number of
    /// samples recorded; its value is read from the kept samples.
    pub fn summary(&self) -> Option<Summary> {
        let mut sorted = self.kept.clone();
        sorted.sort_by(f64::total_cmp);
        summarize_sorted(self.seen as usize, &sorted)
    }
}

/// Median of a small set of repeated measurements (mean of the middle
/// two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// 64-bit FNV-1a, folded incrementally.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    /// Folds bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Folds a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// FNV-1a of one byte string.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut h = Fnv::default();
        h.bytes(bytes);
        h.0
    }
}

/// Peak resident set of this process in MiB (`VmHWM`). `None` where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The machine's worker count as the standard library reports it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summarize(samples: &[f64]) -> Option<Summary> {
        let mut r = Reservoir::default();
        samples.iter().for_each(|&v| r.record(v));
        r.summary()
    }

    #[test]
    fn tail_keeps_at_least_ten_samples_beyond() {
        for n in 0..20_000 {
            let Some((k, pct)) = tail_index(n) else {
                assert!(n < 100, "n={n}: p90 qualifies from 100 samples");
                continue;
            };
            assert!(n - 1 - k >= MIN_BEYOND, "n={n} p{pct}");
            assert_eq!(k, rank_index(n, pct));
            // No higher rung qualifies.
            for &higher in TAIL_LADDER.iter().filter(|&&p| p > pct) {
                assert!(
                    n - 1 - rank_index(n, higher) < MIN_BEYOND,
                    "n={n} p{higher}"
                );
            }
        }
        assert_eq!(tail_index(100), Some((89, 90)));
        assert_eq!(tail_index(200), Some((189, 95)));
        assert_eq!(tail_index(1000), Some((989, 99)));
    }

    #[test]
    fn summary_reports_percentile_and_count() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        let s = summarize(&samples).expect("non-empty");
        assert_eq!(s.n, 200);
        assert_eq!(s.p50, 100.0);
        assert_eq!((s.tail, s.tail_pct, s.beyond), (190.0, 95, 10));

        let many: Vec<f64> = (1..=10_000).map(f64::from).collect();
        let s = summarize(&many).expect("non-empty");
        assert_eq!((s.tail, s.tail_pct, s.beyond), (9_900.0, 99, 100));
    }

    #[test]
    fn short_runs_fall_back_to_the_maximum() {
        let s = summarize(&[3.0, 1.0, 2.0]).expect("non-empty");
        assert_eq!((s.p50, s.tail, s.tail_pct, s.beyond), (2.0, 3.0, 100, 0));
    }

    #[test]
    fn reservoir_is_exact_below_its_cap_and_bounded_above() {
        let samples: Vec<f64> = (1..=5000).map(f64::from).rev().collect();
        let s = summarize(&samples).expect("non-empty");
        assert_eq!((s.n, s.p50, s.tail, s.beyond), (5000, 2500.0, 4950.0, 50));

        let mut big = Reservoir::default();
        let n = 4 * Reservoir::CAP as u64;
        for i in 0..n {
            big.record(i as f64);
        }
        assert_eq!(big.count(), n);
        assert_eq!(big.kept.len(), Reservoir::CAP);
        let s = big.summary().expect("non-empty");
        assert_eq!((s.n, s.tail_pct), (n as usize, 99));
        // A uniform subsample: quantiles within 1% of the full set's.
        assert!((s.p50 / (0.5 * n as f64) - 1.0).abs() < 0.01, "{s:?}");
        assert!((s.tail / (0.99 * n as f64) - 1.0).abs() < 0.01, "{s:?}");
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(Fnv::of(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(Fnv::of(b"a"), 0xAF63_DC4C_8601_EC8C);
    }
}
