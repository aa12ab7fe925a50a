//! Monte Carlo bit-error injection (paper §6.4).
//!
//! The paper models read/write-induced errors by running each video
//! through a stochastic model 30 times with errors at random locations,
//! checking that per-video flip counts follow the binomial distribution,
//! and — at very low rates — forcing at least one flip and scaling the
//! measured loss by the probability that a flip occurs at all.
//!
//! This crate picks *which bits flip*; applying them to payload bytes is
//! the caller's job (keeping the simulator independent of the data
//! layout).
//!
//! # Example
//!
//! ```
//! use vapp_sim::{pick_positions, Trials};
//! use vapp_rand::SeedableRng;
//!
//! let mut rng = vapp_rand::rngs::StdRng::seed_from_u64(1);
//! let flips = pick_positions(&[0..10_000], 1e-2, &mut rng);
//! assert!(!flips.is_empty());
//! assert!(flips.iter().all(|&p| p < 10_000));
//! ```

use std::ops::Range;
use vapp_rand::rngs::StdRng;
use vapp_rand::{RngCore, RngExt, SeedableRng, SplitMix64};

/// The paper's trial count per (video, error-rate) point.
pub const DEFAULT_TRIALS: usize = 30;

/// Expands a master seed into `count` independent sub-seeds by streaming
/// SplitMix64. Deriving every sub-seed *up front* makes unit `i`'s RNG
/// stream a pure function of `(master_seed, i)` — independent of how many
/// units run, in what order, or on which thread — which is the invariant
/// the parallel refactor locks in (see DESIGN.md §8).
pub fn derive_subseeds(master_seed: u64, count: usize) -> Vec<u64> {
    let mut sm = SplitMix64::new(master_seed);
    (0..count).map(|_| sm.next_u64()).collect()
}

/// The flip-count sampler: how many of `n_bits` independent bits flip at
/// per-bit rate `rate`. It draws from a Poisson law (exact Knuth below
/// λ = 30, normal approximation above), which matches the binomial to
/// within its own sampling noise for the small rates used here.
///
/// λ and Knuth's stopping product e^−λ are computed once, so a caller
/// that draws many equal-sized units (the exact MLC arm's 512-bit
/// blocks) pays for them once per stream, not once per unit. Every count
/// in the workspace comes from [`FlipCount::draw`]: [`sample_flip_count`]
/// and [`pick_positions`] are thin callers of it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlipCount {
    n_bits: u64,
    lambda: f64,
    limit: f64,
}

impl FlipCount {
    /// A sampler for `n_bits` bits at per-bit `rate`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn new(n_bits: u64, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
        // λ is 0 exactly when `n_bits` or `rate` is: n·rate ≥ rate for
        // n ≥ 1, so a positive rate cannot underflow to 0.
        let lambda = n_bits as f64 * rate;
        FlipCount {
            n_bits,
            lambda,
            limit: (-lambda).exp(),
        }
    }

    /// Draws one count, at most `n_bits`. Draws nothing from `rng` when
    /// λ = 0; otherwise Knuth's product method takes `k + 1` uniforms
    /// for a count of `k`, and the normal branch takes two.
    #[inline]
    pub fn draw(&self, rng: &mut StdRng) -> u64 {
        if self.lambda == 0.0 {
            return 0;
        }
        let k = if self.lambda < 30.0 {
            // Knuth's product method.
            let mut k = 0u64;
            let mut p = 1.0;
            loop {
                p *= rng.random::<f64>();
                if p <= self.limit {
                    break;
                }
                k += 1;
            }
            k
        } else {
            // Normal approximation with continuity correction.
            let g = gaussian(rng);
            (self.lambda + g * self.lambda.sqrt()).round().max(0.0) as u64
        };
        k.min(self.n_bits)
    }
}

/// Samples the number of flips among `n_bits` independent bits at per-bit
/// rate `rate`: one [`FlipCount::draw`].
///
/// # Panics
///
/// Panics if `rate` is outside `[0, 1]`.
pub fn sample_flip_count(n_bits: u64, rate: f64, rng: &mut StdRng) -> u64 {
    FlipCount::new(n_bits, rate).draw(rng)
}

fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Total bits covered by a set of (disjoint) ranges.
pub fn total_bits(ranges: &[Range<u64>]) -> u64 {
    ranges.iter().map(|r| r.end.saturating_sub(r.start)).sum()
}

/// Maps an index into the concatenated range space back to a global bit
/// position.
fn index_to_position(ranges: &[Range<u64>], mut idx: u64) -> u64 {
    for r in ranges {
        let len = r.end - r.start;
        if idx < len {
            return r.start + idx;
        }
        idx -= len;
    }
    unreachable!("index beyond range space")
}

/// Picks distinct flip positions inside `ranges` at per-bit `rate`.
/// Positions are global bit offsets (sorted, deduplicated).
///
/// # Panics
///
/// Panics if `rate` is outside `[0, 1]`.
pub fn pick_positions(ranges: &[Range<u64>], rate: f64, rng: &mut StdRng) -> Vec<u64> {
    let n = total_bits(ranges);
    let k = FlipCount::new(n, rate).draw(rng);
    vapp_obs::histogram!("sim.flips.per_draw", k);
    pick_k_positions(ranges, k, rng)
}

/// Picks exactly `k` distinct positions uniformly inside `ranges`
/// (sorted): the distinct values of the shortest prefix of the draw
/// sequence that holds `k` of them.
pub fn pick_k_positions(ranges: &[Range<u64>], k: u64, rng: &mut StdRng) -> Vec<u64> {
    let n = total_bits(ranges);
    let k = k.min(n) as usize;
    let mut chosen = Vec::with_capacity(k);
    while chosen.len() < k {
        // Each draw adds at most one new position, so drawing exactly
        // the shortfall never reads past that prefix.
        for _ in chosen.len()..k {
            chosen.push(index_to_position(ranges, rng.random_range(0..n)));
        }
        chosen.sort_unstable();
        chosen.dedup();
    }
    chosen
}

/// Result of a forced-flip draw (paper §6.4's very-low-rate protocol).
#[derive(Clone, Debug, PartialEq)]
pub struct ForcedDraw {
    /// The flip positions (at least one, unless the range space is empty).
    pub positions: Vec<u64>,
    /// Whether the flip had to be forced (natural draw produced none).
    pub forced: bool,
}

/// Like [`pick_positions`] but guarantees at least one flip, reporting
/// whether it had to be forced. The caller scales measured quality loss by
/// `prob_any_flip` when `forced` is true.
pub fn pick_positions_forced(ranges: &[Range<u64>], rate: f64, rng: &mut StdRng) -> ForcedDraw {
    let natural = pick_positions(ranges, rate, rng);
    if !natural.is_empty() {
        return ForcedDraw {
            positions: natural,
            forced: false,
        };
    }
    if total_bits(ranges) == 0 {
        return ForcedDraw {
            positions: Vec::new(),
            forced: false,
        };
    }
    vapp_obs::counter!("sim.draws.forced");
    ForcedDraw {
        positions: pick_k_positions(ranges, 1, rng),
        forced: true,
    }
}

/// A reproducible set of Monte Carlo trials: trial `i` always sees the
/// same RNG stream for a given master seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Trials {
    /// Number of trials (the paper uses 30).
    pub count: usize,
    /// Master seed; each trial derives its own stream.
    pub master_seed: u64,
}

impl Default for Trials {
    fn default() -> Self {
        Trials {
            count: DEFAULT_TRIALS,
            master_seed: 0xA55A_1234,
        }
    }
}

impl Trials {
    /// Creates a trial plan.
    pub fn new(count: usize, master_seed: u64) -> Self {
        Trials { count, master_seed }
    }

    /// Runs `f` once per trial with a trial-specific RNG, collecting the
    /// returned measurements in trial order. Trials fan out across
    /// [`vapp_par`] workers; each trial's RNG is seeded from a SplitMix64
    /// sub-seed derived up front, so the result vector is byte-identical
    /// at any `VAPP_THREADS` setting.
    pub fn run<T: Send>(&self, f: impl Fn(usize, &mut StdRng) -> T + Sync) -> Vec<T> {
        let trials = self.count;
        let _span = vapp_obs::span!("sim.trials.run", trials);
        vapp_par::par_map(derive_subseeds(self.master_seed, self.count), |i, seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            f(i, &mut rng)
        })
    }
}

/// Checks that observed flip counts are consistent with Binomial(n, p):
/// the sample mean must lie within `z` standard errors of n·p (the
/// paper's §6.4 distribution check).
pub fn binomial_mean_check(counts: &[u64], n_bits: u64, rate: f64, z: f64) -> bool {
    assert!(!counts.is_empty(), "need at least one count");
    let mean = counts.iter().sum::<u64>() as f64 / counts.len() as f64;
    let expected = n_bits as f64 * rate;
    let var = n_bits as f64 * rate * (1.0 - rate);
    let se = (var / counts.len() as f64).sqrt();
    (mean - expected).abs() <= z * se.max(1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flip_count_matches_expectation() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 100_000u64;
        let rate = 1e-3;
        let counts: Vec<u64> = (0..200)
            .map(|_| sample_flip_count(n, rate, &mut rng))
            .collect();
        assert!(binomial_mean_check(&counts, n, rate, 4.0));
    }

    #[test]
    fn high_lambda_path_also_sane() {
        let mut rng = StdRng::seed_from_u64(6);
        let n = 1_000_000u64;
        let rate = 1e-3; // λ = 1000 → normal path
        let counts: Vec<u64> = (0..100)
            .map(|_| sample_flip_count(n, rate, &mut rng))
            .collect();
        assert!(binomial_mean_check(&counts, n, rate, 4.0));
    }

    #[test]
    fn zero_rate_and_zero_bits() {
        let mut rng = StdRng::seed_from_u64(7);
        assert_eq!(sample_flip_count(0, 0.5, &mut rng), 0);
        assert_eq!(sample_flip_count(1000, 0.0, &mut rng), 0);
        assert!(pick_positions(&[], 0.1, &mut rng).is_empty());
    }

    #[test]
    fn positions_respect_ranges() {
        let mut rng = StdRng::seed_from_u64(8);
        let ranges = vec![100..200u64, 1000..1100];
        for _ in 0..50 {
            for p in pick_positions(&ranges, 0.05, &mut rng) {
                assert!(
                    (100..200).contains(&p) || (1000..1100).contains(&p),
                    "position {p} outside ranges"
                );
            }
        }
    }

    #[test]
    fn positions_are_distinct_and_sorted() {
        let mut rng = StdRng::seed_from_u64(9);
        let pos = pick_k_positions(&[0..50], 50, &mut rng);
        assert_eq!(pos.len(), 50);
        assert!(pos.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn k_positions_match_one_draw_at_a_time_insertion() {
        // The reference: insert draws one at a time until k are distinct.
        // Same positions, and the RNG left at the same point.
        for (n, k) in [
            (1u64, 1u64),
            (50, 50),
            (612, 3),
            (612, 17),
            (10_000, 400),
            (64, 40),
        ] {
            for seed in 0..8u64 {
                let mut a = StdRng::seed_from_u64(seed);
                let mut b = StdRng::seed_from_u64(seed);
                let got = pick_k_positions(&[5..5 + n], k, &mut a);
                let mut want = std::collections::BTreeSet::new();
                while (want.len() as u64) < k {
                    want.insert(5 + b.random_range(0..n));
                }
                assert_eq!(got, want.into_iter().collect::<Vec<_>>(), "n={n} k={k}");
                assert_eq!(a.random::<u64>(), b.random::<u64>(), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn forced_draw_always_flips_at_low_rates() {
        let mut rng = StdRng::seed_from_u64(10);
        let ranges = vec![0..10_000u64];
        let mut forced_seen = false;
        for _ in 0..20 {
            let d = pick_positions_forced(&ranges, 1e-12, &mut rng);
            assert_eq!(d.positions.len(), 1);
            if d.forced {
                forced_seen = true;
            }
        }
        assert!(forced_seen, "1e-12 over 1e4 bits should force flips");
    }

    #[test]
    fn trials_are_reproducible_and_independent() {
        let t = Trials::new(5, 42);
        let a = t.run(|i, rng| (i, rng.random::<u64>()));
        let b = t.run(|i, rng| (i, rng.random::<u64>()));
        assert_eq!(a, b);
        // Different trials see different streams.
        assert_ne!(a[0].1, a[1].1);
    }

    #[test]
    fn subseeds_are_stable_and_distinct() {
        let a = derive_subseeds(7, 16);
        assert_eq!(a, derive_subseeds(7, 16));
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 16, "sub-seeds must not collide");
        assert_ne!(a, derive_subseeds(8, 16));
    }

    #[test]
    fn trials_are_thread_count_invariant() {
        let t = Trials::new(9, 1234);
        let seq = vapp_par::with_threads(1, || t.run(|i, rng| (i, rng.random::<u64>())));
        let par = vapp_par::with_threads(8, || t.run(|i, rng| (i, rng.random::<u64>())));
        assert_eq!(seq, par);
    }

    #[test]
    fn binomial_check_rejects_garbage() {
        let counts = vec![5000u64; 10];
        assert!(!binomial_mean_check(&counts, 100_000, 1e-3, 4.0));
    }
}
