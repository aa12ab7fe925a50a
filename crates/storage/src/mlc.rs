//! The multi-level-cell PCM substrate model (paper §2.2, §6.2).
//!
//! Eight resistance levels per cell (3 bits), Gray-coded so that the
//! dominant error — reading a neighbouring level — flips a single bit.
//! Two error sources, following Guo et al.: Gaussian write/read noise from
//! cheap access circuitry, and *resistance drift* that grows
//! logarithmically with time and is stronger for higher levels. The
//! substrate is "optimized" the way the paper assumes: level placement is
//! biased to pre-compensate drift at the scrubbing interval, equalising
//! per-level error rates, and the noise figure is calibrated so the raw
//! bit error rate at a 3-month scrub is ≈ 1e-3.

use vapp_rand::rngs::StdRng;
use vapp_rand::RngExt;

/// Default scrubbing (refresh) interval: three months (paper §6.2).
pub const DEFAULT_SCRUB_DAYS: f64 = 90.0;

/// The paper's raw bit error rate for the 8-level substrate.
pub const TARGET_RAW_BER: f64 = 1e-3;

/// Gray code of a level index.
#[inline]
pub fn gray(i: u8) -> u8 {
    i ^ (i >> 1)
}

/// Standard normal CDF via an Abramowitz–Stegun erf approximation
/// (absolute error < 1.5e-7 — far below the rates we care about).
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Configuration of the cell model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MlcConfig {
    /// Number of resistance levels (8 in the paper).
    pub levels: u8,
    /// Write/read Gaussian noise σ in normalised resistance units.
    pub sigma: f64,
    /// Drift magnitude coefficient (scales with the level index).
    pub drift_nu: f64,
    /// Scrubbing interval in days.
    pub scrub_days: f64,
    /// Whether level placement is drift-biased (Guo-style optimisation).
    pub biased: bool,
}

impl Default for MlcConfig {
    fn default() -> Self {
        MlcConfig {
            levels: 8,
            sigma: 0.02,
            drift_nu: 0.03,
            scrub_days: DEFAULT_SCRUB_DAYS,
            biased: true,
        }
    }
}

/// The optimised MLC PCM substrate.
#[derive(Clone, Debug)]
pub struct MlcSubstrate {
    cfg: MlcConfig,
    /// Level write targets (analog domain [0, 1]).
    centers: Vec<f64>,
    /// Read decision thresholds between adjacent levels (len = levels − 1).
    thresholds: Vec<f64>,
    /// Inverse Gray-code LUT: `gray_inv[gray(i)] = i` for each level,
    /// built once so the per-cell write path is a single index.
    gray_inv: [u8; 16],
}

impl MlcSubstrate {
    /// Builds the substrate: places levels, biases them against drift (if
    /// configured), and sets read thresholds between the *drifted* means at
    /// the mid-scrub reference time.
    ///
    /// # Panics
    ///
    /// Panics unless `levels` is a power of two in 2..=16 and parameters
    /// are positive.
    pub fn new(cfg: MlcConfig) -> Self {
        assert!(
            cfg.levels.is_power_of_two() && (2..=16).contains(&cfg.levels),
            "levels must be a power of two in 2..=16"
        );
        assert!(cfg.sigma > 0.0 && cfg.drift_nu >= 0.0 && cfg.scrub_days > 0.0);
        let l = cfg.levels as usize;
        let uniform: Vec<f64> = (0..l).map(|i| i as f64 / (l - 1) as f64).collect();
        // Reference read time for biasing: drift grows with ln(1 + t), so
        // the point that balances start-of-life against scrub-time error
        // is where the drift reaches *half* its scrub-time value:
        // ln(1 + t_ref) = ln(1 + T)/2  ⇒  t_ref = sqrt(1 + T) − 1.
        let t_ref = (1.0 + cfg.scrub_days).sqrt() - 1.0;
        let centers: Vec<f64> = if cfg.biased {
            // Pre-compensate the expected drift so the *drifted* means sit
            // uniformly at the reference time (non-uniform partitioning of
            // the resistance range, paper §2.2).
            (0..l)
                .map(|i| uniform[i] - drift_shift(&cfg, i as u8, t_ref))
                .collect()
        } else {
            uniform
        };
        // Thresholds: the optimised substrate places them between the
        // *drifted* means at the reference time; the naive substrate uses
        // plain midpoints (no drift awareness) — the difference is Guo et
        // al.'s non-uniform partitioning.
        let thresholds = if cfg.biased {
            let mean = |i: usize| centers[i] + drift_shift(&cfg, i as u8, t_ref);
            (0..l - 1).map(|i| (mean(i) + mean(i + 1)) / 2.0).collect()
        } else {
            (0..l - 1)
                .map(|i| (centers[i] + centers[i + 1]) / 2.0)
                .collect()
        };
        let mut gray_inv = [0u8; 16];
        for i in 0..cfg.levels {
            gray_inv[gray(i) as usize] = i;
        }
        MlcSubstrate {
            cfg,
            centers,
            thresholds,
            gray_inv,
        }
    }

    /// Calibrates σ (by bisection) so the raw BER at the scrub interval
    /// matches `target`, with all other parameters from `cfg`. This is the
    /// paper's premise: an 8-level substrate tuned to raw BER 1e-3 (§6.2).
    ///
    /// # Panics
    ///
    /// Panics if the target is unreachable within the search bracket.
    pub fn tuned_for_ber(mut cfg: MlcConfig, target: f64) -> Self {
        assert!(
            target > 0.0 && target < 0.5,
            "target BER must be in (0, 0.5)"
        );
        let (mut lo, mut hi) = (1e-4, 0.5);
        for _ in 0..80 {
            let mid = (lo + hi) / 2.0;
            cfg.sigma = mid;
            let ber = MlcSubstrate::new(cfg).raw_ber(cfg.scrub_days);
            if ber < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        cfg.sigma = (lo + hi) / 2.0;
        let s = MlcSubstrate::new(cfg);
        let achieved = s.raw_ber(cfg.scrub_days);
        assert!(
            (achieved.log10() - target.log10()).abs() < 0.1,
            "calibration failed: {achieved:e} vs {target:e}"
        );
        s
    }

    /// The configuration in use.
    pub fn config(&self) -> &MlcConfig {
        &self.cfg
    }

    /// Bits stored per cell (log2 of the level count).
    pub fn bits_per_cell(&self) -> u32 {
        self.cfg.levels.trailing_zeros()
    }

    /// Level index whose Gray code is `g` (precomputed inverse of
    /// [`gray`]).
    ///
    /// # Panics
    ///
    /// Panics if `g` is not the Gray code of a valid level.
    #[inline]
    pub fn gray_inverse(&self, g: u8) -> u8 {
        assert!(g < self.cfg.levels, "not a valid Gray code for this cell");
        self.gray_inv[g as usize]
    }

    /// Level write targets.
    pub fn centers(&self) -> &[f64] {
        &self.centers
    }

    /// Probability matrix `P[i][j]` of reading level `j` after writing
    /// level `i` and waiting `t_days`.
    #[allow(clippy::needless_range_loop)] // level indices i, j are the semantics
    pub fn level_error_matrix(&self, t_days: f64) -> Vec<Vec<f64>> {
        let l = self.cfg.levels as usize;
        let mut m = vec![vec![0.0; l]; l];
        for i in 0..l {
            let mean = self.centers[i] + drift_shift(&self.cfg, i as u8, t_days);
            for j in 0..l {
                let lo = if j == 0 {
                    f64::NEG_INFINITY
                } else {
                    self.thresholds[j - 1]
                };
                let hi = if j == l - 1 {
                    f64::INFINITY
                } else {
                    self.thresholds[j]
                };
                let p_lo = if lo.is_finite() {
                    normal_cdf((lo - mean) / self.cfg.sigma)
                } else {
                    0.0
                };
                let p_hi = if hi.is_finite() {
                    normal_cdf((hi - mean) / self.cfg.sigma)
                } else {
                    1.0
                };
                m[i][j] = (p_hi - p_lo).max(0.0);
            }
        }
        m
    }

    /// Analytic raw bit error rate after `t_days`, assuming uniformly
    /// distributed stored levels and Gray-coded bits.
    #[allow(clippy::needless_range_loop)] // level indices i, j are the semantics
    pub fn raw_ber(&self, t_days: f64) -> f64 {
        let l = self.cfg.levels as usize;
        let bits = self.bits_per_cell() as f64;
        let m = self.level_error_matrix(t_days);
        let mut ber = 0.0;
        for i in 0..l {
            for j in 0..l {
                if i == j {
                    continue;
                }
                let flips = (gray(i as u8) ^ gray(j as u8)).count_ones() as f64;
                ber += m[i][j] * flips / (l as f64 * bits);
            }
        }
        ber
    }

    /// Writes one level and reads it back after `t_days` (Monte Carlo).
    pub fn write_read(&self, level: u8, t_days: f64, rng: &mut StdRng) -> u8 {
        assert!(level < self.cfg.levels, "level out of range");
        let noise = gaussian(rng) * self.cfg.sigma;
        let analog = self.centers[level as usize] + drift_shift(&self.cfg, level, t_days) + noise;
        // Threshold detection.
        let mut read = 0u8;
        for (k, &th) in self.thresholds.iter().enumerate() {
            if analog > th {
                read = (k + 1) as u8;
            }
        }
        read
    }

    /// Batch Monte Carlo read: for each written level, the level read
    /// back after `t_days`, appended to `out`. Bit-identical to calling
    /// [`MlcSubstrate::write_read`] once per cell with the same RNG
    /// (same draw order, same float association), but hoists the
    /// per-level drifted means out of the loop — the dominant cost when
    /// reading whole arrays.
    ///
    /// # Panics
    ///
    /// Panics if any written level is out of range.
    pub fn read_levels(&self, written: &[u8], t_days: f64, rng: &mut StdRng, out: &mut Vec<u8>) {
        // `centers[l] + drift` first, `+ noise` second: the exact
        // association `write_read` uses, so results match to the ULP.
        let mut means = [0.0f64; 16];
        for l in 0..self.cfg.levels {
            means[l as usize] = self.centers[l as usize] + drift_shift(&self.cfg, l, t_days);
        }
        out.reserve(written.len());
        for &level in written {
            assert!(level < self.cfg.levels, "level out of range");
            let noise = gaussian(rng) * self.cfg.sigma;
            let analog = means[level as usize] + noise;
            let mut read = 0u8;
            for (k, &th) in self.thresholds.iter().enumerate() {
                if analog > th {
                    read = (k + 1) as u8;
                }
            }
            out.push(read);
        }
    }

    /// Monte Carlo estimate of the raw BER over `cells` random cells.
    pub fn monte_carlo_ber(&self, cells: usize, t_days: f64, rng: &mut StdRng) -> f64 {
        let bits = self.bits_per_cell() as usize;
        let mut flipped = 0usize;
        for _ in 0..cells {
            let level = rng.random_range(0..self.cfg.levels);
            let read = self.write_read(level, t_days, rng);
            flipped += (gray(level) ^ gray(read)).count_ones() as usize;
        }
        flipped as f64 / (cells * bits) as f64
    }
}

/// Resistance drift displacement for a level after `t_days` (log-time
/// growth, stronger for higher levels — the PCM signature).
fn drift_shift(cfg: &MlcConfig, level: u8, t_days: f64) -> f64 {
    let frac = level as f64 / (cfg.levels - 1) as f64;
    cfg.drift_nu * frac * (1.0 + t_days).ln() / (1.0 + DEFAULT_SCRUB_DAYS).ln()
}

/// Box–Muller standard normal sample.
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vapp_rand::SeedableRng;

    #[test]
    fn gray_codes_differ_by_one_bit_between_neighbors() {
        for i in 0u8..7 {
            assert_eq!((gray(i) ^ gray(i + 1)).count_ones(), 1);
        }
    }

    #[test]
    fn normal_cdf_sane() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!(normal_cdf(-6.0) < 1e-8);
        assert!(normal_cdf(6.0) > 1.0 - 1e-8);
        assert!((normal_cdf(1.0) - 0.8413).abs() < 1e-3);
    }

    #[test]
    fn error_matrix_rows_sum_to_one() {
        let s = MlcSubstrate::new(MlcConfig::default());
        for row in s.level_error_matrix(30.0) {
            let sum: f64 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn ber_grows_with_time_when_unbiased() {
        let s = MlcSubstrate::new(MlcConfig {
            biased: false,
            ..Default::default()
        });
        let early = s.raw_ber(1.0);
        let late = s.raw_ber(90.0);
        assert!(late > early, "drift must worsen BER: {early:e} vs {late:e}");
    }

    #[test]
    fn biased_substrate_balances_start_and_scrub() {
        // Drift-aware placement equalises error rates across the scrub
        // window instead of letting them explode at the end.
        let s = MlcSubstrate::new(MlcConfig::default());
        let start = s.raw_ber(0.0);
        let end = s.raw_ber(DEFAULT_SCRUB_DAYS);
        let ratio = (start.log10() - end.log10()).abs();
        assert!(ratio < 2.0, "start {start:e} vs scrub-end {end:e}");
    }

    #[test]
    fn biasing_reduces_scrub_time_ber() {
        let biased = MlcSubstrate::new(MlcConfig {
            biased: true,
            ..Default::default()
        });
        let unbiased = MlcSubstrate::new(MlcConfig {
            biased: false,
            ..Default::default()
        });
        let b = biased.raw_ber(DEFAULT_SCRUB_DAYS);
        let u = unbiased.raw_ber(DEFAULT_SCRUB_DAYS);
        assert!(b < u, "biasing should help: {b:e} vs {u:e}");
    }

    #[test]
    fn calibration_hits_target_ber() {
        let s = MlcSubstrate::tuned_for_ber(MlcConfig::default(), TARGET_RAW_BER);
        let ber = s.raw_ber(DEFAULT_SCRUB_DAYS);
        assert!(
            (ber.log10() - (-3.0)).abs() < 0.1,
            "calibrated BER {ber:e} not ~1e-3"
        );
        assert_eq!(s.bits_per_cell(), 3);
    }

    #[test]
    fn monte_carlo_agrees_with_analytic() {
        let s = MlcSubstrate::tuned_for_ber(MlcConfig::default(), 1e-2);
        let mut rng = StdRng::seed_from_u64(7);
        let mc = s.monte_carlo_ber(200_000, DEFAULT_SCRUB_DAYS, &mut rng);
        let analytic = s.raw_ber(DEFAULT_SCRUB_DAYS);
        let ratio = mc / analytic;
        assert!(
            (0.7..1.4).contains(&ratio),
            "MC {mc:e} vs analytic {analytic:e}"
        );
    }

    #[test]
    fn write_read_is_identity_without_noise_sources() {
        let s = MlcSubstrate::new(MlcConfig {
            sigma: 1e-6,
            drift_nu: 0.0,
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(1);
        for level in 0..8 {
            assert_eq!(s.write_read(level, 90.0, &mut rng), level);
        }
    }

    #[test]
    fn read_levels_matches_write_read_sequence() {
        let s = MlcSubstrate::tuned_for_ber(MlcConfig::default(), 1e-2);
        let written: Vec<u8> = (0..997u32).map(|i| (i % 8) as u8).collect();
        for t_days in [0.0, 1.0, DEFAULT_SCRUB_DAYS, 400.0] {
            let mut a = StdRng::seed_from_u64(17);
            let mut b = StdRng::seed_from_u64(17);
            let mut batch = Vec::new();
            s.read_levels(&written, t_days, &mut a, &mut batch);
            let per_cell: Vec<u8> = written
                .iter()
                .map(|&l| s.write_read(l, t_days, &mut b))
                .collect();
            assert_eq!(batch, per_cell, "t_days={t_days}");
        }
    }
}
