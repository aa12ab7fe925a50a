//! Error-correction assignment under a quality-loss budget (paper §7.2,
//! Table 1).
//!
//! The paper sizes the quality-loss budget at **0.3 dB** so approximation
//! always beats deterministic compression (which loses 0.4–0.6 dB for the
//! same 10–15% storage reduction), distributes the budget across
//! importance classes proportionally to the storage they occupy, and then
//! gives each class — lowest importance first — the *weakest* scheme whose
//! incremental quality loss fits the class's share.

use std::fmt;
use vapp_storage::bch::Bch;
use vapp_storage::uber;

/// The paper's quality-loss budget in dB (§7.2).
pub const QUALITY_BUDGET_DB: f64 = 0.3;

/// One rung of the error-correction ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EcScheme {
    /// No correction: bits see the raw substrate error rate.
    None,
    /// A BCH code correcting the given number of errors per 512-bit block.
    Bch(u8),
}

impl fmt::Display for EcScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EcScheme::None => write!(f, "None"),
            EcScheme::Bch(t) => write!(f, "BCH-{t}"),
        }
    }
}

impl EcScheme {
    /// The paper's ladder (Table 1): nothing, BCH-6 … BCH-11, and BCH-16
    /// for precise storage.
    pub const LADDER: [EcScheme; 8] = [
        EcScheme::None,
        EcScheme::Bch(6),
        EcScheme::Bch(7),
        EcScheme::Bch(8),
        EcScheme::Bch(9),
        EcScheme::Bch(10),
        EcScheme::Bch(11),
        EcScheme::Bch(16),
    ];

    /// The precise-storage scheme used for headers (10^-16 class).
    pub const PRECISE: EcScheme = EcScheme::Bch(16);

    /// Storage overhead (parity/data).
    pub fn overhead(self) -> f64 {
        match self {
            EcScheme::None => 0.0,
            EcScheme::Bch(t) => Bch::cached(t as usize).overhead(),
        }
    }

    /// Effective residual bit error rate delivered to the data when the
    /// substrate's raw BER is `raw_ber`.
    pub fn residual_ber(self, raw_ber: f64) -> f64 {
        match self {
            EcScheme::None => raw_ber,
            EcScheme::Bch(t) => uber::residual_ber(Bch::cached(t as usize), raw_ber),
        }
    }

    /// Correctable errors per block (0 for no protection).
    pub fn t(self) -> usize {
        match self {
            EcScheme::None => 0,
            EcScheme::Bch(t) => t as usize,
        }
    }
}

/// A measured cumulative quality-loss curve for one importance class:
/// quality change (dB, ≤ 0) as a function of the per-bit error rate
/// applied to all bits of importance ≤ the class bound (Fig. 10a).
#[derive(Clone, Debug, PartialEq)]
pub struct LossCurve {
    points: Vec<(f64, f64)>,
}

impl LossCurve {
    /// Creates a curve from `(error rate, loss dB)` samples.
    ///
    /// # Panics
    ///
    /// Panics if no points are given or any rate is non-positive.
    pub fn new(mut points: Vec<(f64, f64)>) -> Self {
        assert!(!points.is_empty(), "a loss curve needs samples");
        assert!(
            points.iter().all(|&(r, _)| r > 0.0),
            "rates must be positive"
        );
        points.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite rates"));
        LossCurve { points }
    }

    /// Loss (dB, ≤ 0) at an error rate, log-linear interpolation; rates
    /// below the sampled range report no loss, above it the worst sample.
    pub fn loss_at(&self, rate: f64) -> f64 {
        if rate <= 0.0 || rate < self.points[0].0 {
            return 0.0;
        }
        let last = self.points.last().expect("non-empty");
        if rate >= last.0 {
            return last.1;
        }
        let idx = self
            .points
            .windows(2)
            .position(|w| rate >= w[0].0 && rate < w[1].0)
            .expect("rate within sampled range");
        let (r0, l0) = self.points[idx];
        let (r1, l1) = self.points[idx + 1];
        let t = (rate.ln() - r0.ln()) / (r1.ln() - r0.ln());
        l0 + t * (l1 - l0)
    }
}

/// The produced assignment: one scheme per importance class (Table 1).
#[derive(Clone, Debug, PartialEq)]
pub struct Assignment {
    /// `(class exponent, bits in class, chosen scheme)` ascending by
    /// class.
    pub per_class: Vec<(u32, u64, EcScheme)>,
    /// Scheme for frame headers and pivot metadata: always precise.
    pub header_scheme: EcScheme,
    /// The budget that was distributed.
    pub budget_db: f64,
}

impl Assignment {
    /// Runs the paper's §7.2 algorithm.
    ///
    /// * `classes` — `(exponent, bits)` per importance class, ascending;
    /// * `curves` — cumulative loss curve per class (same order);
    /// * `budget_db` — total allowed worst-case loss (positive dB);
    /// * `raw_ber` — the substrate's raw bit error rate.
    ///
    /// # Panics
    ///
    /// Panics if inputs are inconsistent or empty.
    pub fn compute(
        classes: &[(u32, u64)],
        curves: &[LossCurve],
        budget_db: f64,
        raw_ber: f64,
    ) -> Assignment {
        assert_eq!(classes.len(), curves.len(), "one curve per class");
        assert!(!classes.is_empty(), "need at least one class");
        assert!(budget_db > 0.0, "budget must be positive");
        let total_bits: u64 = classes.iter().map(|&(_, b)| b).sum();
        assert!(total_bits > 0, "classes hold no bits");

        let mut per_class = Vec::with_capacity(classes.len());
        let mut min_rung = 0usize; // protection never weakens with class
        for (i, &(exp, bits)) in classes.iter().enumerate() {
            // Budget share proportional to storage occupied (§7.2).
            let share = budget_db * bits as f64 / total_bits as f64;
            // Incremental loss of protecting class i at scheme `s`: the
            // cumulative curve at the scheme's residual rate, minus the
            // part already attributed to weaker classes at their chosen
            // rates ("the quality loss excludes the bits covered by the
            // previous class").
            let prev_loss = if i == 0 {
                0.0
            } else {
                let (_, _, prev_scheme) = per_class[i - 1];
                let prev: &LossCurve = &curves[i - 1];
                prev.loss_at(EcScheme::residual_ber(prev_scheme, raw_ber))
            };
            let mut chosen = *EcScheme::LADDER.last().expect("ladder non-empty");
            let mut chosen_rung = EcScheme::LADDER.len() - 1;
            for (rung, &scheme) in EcScheme::LADDER.iter().enumerate().skip(min_rung) {
                let rate = scheme.residual_ber(raw_ber);
                let incremental = (curves[i].loss_at(rate) - prev_loss).min(0.0);
                if -incremental <= share {
                    chosen = scheme;
                    chosen_rung = rung;
                    break;
                }
            }
            min_rung = chosen_rung;
            vapp_obs::debug!(
                "core.assignment.class",
                "class 2^{exp}: {bits} bits, share {share:.3} dB -> {chosen:?}"
            );
            per_class.push((exp, bits, chosen));
        }
        Assignment {
            per_class,
            header_scheme: EcScheme::PRECISE,
            budget_db,
        }
    }

    /// Average payload overhead under this assignment, weighted by bits.
    pub fn average_overhead(&self) -> f64 {
        let total: u64 = self.per_class.iter().map(|&(_, b, _)| b).sum();
        if total == 0 {
            return 0.0;
        }
        self.per_class
            .iter()
            .map(|&(_, b, s)| s.overhead() * b as f64)
            .sum::<f64>()
            / total as f64
    }

    /// The importance thresholds implied by the assignment, suitable for
    /// [`crate::pivots::PivotTable::build`]: one per level transition, in
    /// ladder order. The pivot level of a macroblock is then an index
    /// into the returned level list.
    pub fn thresholds(&self) -> (Vec<f64>, Vec<EcScheme>) {
        // Collapse consecutive classes with the same scheme.
        let mut levels: Vec<EcScheme> = Vec::new();
        let mut thresholds = Vec::new();
        for &(exp, _, scheme) in &self.per_class {
            match levels.last() {
                Some(&last) if last == scheme => {}
                Some(_) => {
                    // The new level starts where importance exceeds the
                    // previous class bound: 2^(exp-1).
                    thresholds.push(2f64.powi(exp as i32 - 1));
                    levels.push(scheme);
                }
                None => levels.push(scheme),
            }
        }
        (thresholds, levels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_properties_match_paper_table() {
        assert_eq!(EcScheme::None.overhead(), 0.0);
        assert!((EcScheme::Bch(6).overhead() - 0.117).abs() < 0.001);
        assert!((EcScheme::Bch(16).overhead() - 0.3125).abs() < 1e-9);
        assert_eq!(EcScheme::None.residual_ber(1e-3), 1e-3);
        let b16 = EcScheme::Bch(16).residual_ber(1e-3);
        assert!(b16 < 1e-15, "BCH-16 residual {b16:e}");
    }

    #[test]
    fn ladder_is_strength_ordered() {
        let rates: Vec<f64> = EcScheme::LADDER
            .iter()
            .map(|s| s.residual_ber(1e-3))
            .collect();
        assert!(rates.windows(2).all(|w| w[0] > w[1]), "{rates:?}");
        let overheads: Vec<f64> = EcScheme::LADDER.iter().map(|s| s.overhead()).collect();
        assert!(overheads.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn loss_curve_interpolates_logarithmically() {
        let c = LossCurve::new(vec![(1e-6, -0.1), (1e-2, -4.1)]);
        assert_eq!(c.loss_at(1e-6), -0.1);
        assert_eq!(c.loss_at(1e-2), -4.1);
        let mid = c.loss_at(1e-4);
        assert!((mid - (-2.1)).abs() < 1e-9, "mid {mid}");
        assert_eq!(c.loss_at(1e-9), 0.0);
        assert_eq!(c.loss_at(1.0), -4.1);
    }

    /// Synthetic curves emulating Fig. 10: low classes tolerate high
    /// rates, high classes need tiny rates.
    fn synthetic_inputs() -> (Vec<(u32, u64)>, Vec<LossCurve>) {
        let exps = [1u32, 4, 8, 12, 16, 20];
        let mut classes = Vec::new();
        let mut curves = Vec::new();
        for (i, &exp) in exps.iter().enumerate() {
            classes.push((exp, 1_000_000));
            // Class i starts losing quality around rate 10^-(1.5 i + 2).
            let knee = 10f64.powf(-(1.5 * i as f64 + 2.0));
            curves.push(LossCurve::new(vec![
                (knee * 1e-3, -0.001 * (i + 1) as f64),
                (knee, -0.04 * (i + 1) as f64),
                (knee * 1e2, -2.0 * (i + 1) as f64),
            ]));
        }
        (classes, curves)
    }

    #[test]
    fn assignment_is_monotone_and_within_budget() {
        let (classes, curves) = synthetic_inputs();
        let a = Assignment::compute(&classes, &curves, QUALITY_BUDGET_DB, 1e-3);
        assert_eq!(a.per_class.len(), classes.len());
        // Protection strength never decreases with importance.
        let rungs: Vec<usize> = a
            .per_class
            .iter()
            .map(|&(_, _, s)| {
                EcScheme::LADDER
                    .iter()
                    .position(|&l| l == s)
                    .expect("in ladder")
            })
            .collect();
        assert!(rungs.windows(2).all(|w| w[0] <= w[1]), "{rungs:?}");
        // Least important class gets weak or no protection; most important
        // gets strong protection.
        assert!(
            rungs[0] <= 1,
            "lowest class over-protected: {:?}",
            a.per_class[0].2
        );
        assert!(
            rungs[rungs.len() - 1] >= 4,
            "highest class under-protected: {:?}",
            a.per_class.last().unwrap().2
        );
        // Average overhead lands strictly between none and uniform BCH-16.
        let avg = a.average_overhead();
        assert!(avg > 0.0 && avg < EcScheme::Bch(16).overhead(), "avg {avg}");
    }

    #[test]
    fn bigger_budget_weakens_protection() {
        let (classes, curves) = synthetic_inputs();
        let tight = Assignment::compute(&classes, &curves, 0.05, 1e-3);
        let loose = Assignment::compute(&classes, &curves, 1.5, 1e-3);
        assert!(loose.average_overhead() <= tight.average_overhead());
    }

    #[test]
    fn thresholds_collapse_equal_schemes() {
        let (classes, curves) = synthetic_inputs();
        let a = Assignment::compute(&classes, &curves, QUALITY_BUDGET_DB, 1e-3);
        let (thresholds, levels) = a.thresholds();
        assert_eq!(thresholds.len() + 1, levels.len());
        assert!(thresholds.windows(2).all(|w| w[0] < w[1]));
        // Levels are distinct consecutive schemes.
        assert!(levels.windows(2).all(|w| w[0] != w[1]));
    }
}
