//! Quality-change bookkeeping in dB.
//!
//! The paper's Figures 9–11 express results as a *quality change* relative
//! to the error-free decode (a negative number of dB), and §6.4 reports the
//! **maximum** (worst) loss per video across Monte Carlo trials, scaled by
//! the error probability when the rate is so low that a flip had to be
//! forced. [`QualityChange`] encapsulates these rules.

/// Accumulates quality-change observations (in dB, negative = loss) across
/// Monte Carlo trials and reports the paper's conservative statistics.
///
/// # Example
///
/// ```
/// use vapp_metrics::QualityChange;
///
/// let mut q = QualityChange::new();
/// q.record(-0.5);
/// q.record(-2.0);
/// q.record(-0.1);
/// assert_eq!(q.worst(), -2.0);
/// assert!((q.mean() + 0.8666).abs() < 1e-3);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QualityChange {
    samples: Vec<f64>,
}

impl QualityChange {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one trial's quality change (dB; negative = loss).
    pub fn record(&mut self, delta_db: f64) {
        self.samples.push(delta_db);
    }

    /// Number of recorded trials.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no trials have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The worst (most negative) observed change; `0.0` if empty.
    ///
    /// The paper reports the maximum loss per video (§6.4) as a highly
    /// conservative estimate.
    pub fn worst(&self) -> f64 {
        self.samples.iter().copied().fold(0.0, f64::min)
    }

    /// Mean observed change; `0.0` if empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// The recorded samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

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
    fn worst_and_mean() {
        let mut q = QualityChange::new();
        assert!(q.is_empty());
        assert_eq!(q.worst(), 0.0);
        q.record(-1.0);
        q.record(-3.0);
        q.record(0.0);
        assert_eq!(q.len(), 3);
        assert_eq!(q.worst(), -3.0);
        assert!((q.mean() + 4.0 / 3.0).abs() < 1e-12);
    }

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
