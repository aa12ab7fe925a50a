//! Quality-change scaling for forced flips.
//!
//! The paper's Figures 9–11 express results as a *quality change* relative
//! to the error-free decode (a negative number of dB), and §6.4 reports the
//! **maximum** (worst) loss per video across Monte Carlo trials, scaled by
//! the error probability when the rate is so low that a flip had to be
//! forced. [`prob_any_flip`] is that scale factor.

/// Probability that at least one of `bits` independent bits flips at
/// per-bit error rate `p`: `1 - (1-p)^bits`, computed stably.
///
/// Used to scale forced-flip measurements at very low error rates (§6.4).
pub fn prob_any_flip(bits: u64, p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p must be in [0,1]");
    if p == 0.0 || bits == 0 {
        return 0.0;
    }
    // 1 - exp(bits * ln(1-p)) via ln_1p for numerical stability at tiny p.
    -f64::exp_m1(bits as f64 * f64::ln_1p(-p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prob_any_flip_behaves() {
        assert_eq!(prob_any_flip(0, 0.5), 0.0);
        assert_eq!(prob_any_flip(100, 0.0), 0.0);
        let p = prob_any_flip(1, 1e-3);
        assert!((p - 1e-3).abs() < 1e-9);
        // Large-bit behaviour approaches 1.
        assert!(prob_any_flip(10_000_000, 1e-3) > 0.999);
        // Monotone in bits.
        assert!(prob_any_flip(2000, 1e-6) > prob_any_flip(1000, 1e-6));
    }
}
