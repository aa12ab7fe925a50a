//! **Table 1**: error-correction assignment per importance class, derived
//! by the paper's §7.2 algorithm — a 0.3 dB worst-case budget distributed
//! proportionally to class storage, each class getting the weakest scheme
//! whose incremental loss fits its share.

use super::{cumulative_ranges, suite_classes, worst_loss};
use crate::{prepare, rate_sweep, table, ExpConfig, PreparedClip};
use videoapp::{Assignment, LossCurve, QUALITY_BUDGET_DB};

/// The §7.2 assignment at raw BER 1e-3 and the pooled `(class exponent,
/// bits)` and cumulative loss curves it was computed from.
pub struct Table1Result {
    pub classes: Vec<(u32, u64)>,
    pub curves: Vec<LossCurve>,
    pub assignment: Assignment,
}

/// Runs the experiment.
pub fn run(cfg: &ExpConfig) -> Table1Result {
    assign(cfg, &prepare(cfg, 24), 3000)
}

/// Pools the suite's class curves, every clip's trials seeded with `seed`,
/// and computes the assignment. Bits are summed per class exponent and the
/// worst loss per rate is kept (the paper's conservative "across a wide
/// range of videos" empirical relationship).
pub fn assign(cfg: &ExpConfig, prepared: &[PreparedClip], seed: u64) -> Table1Result {
    let rates = rate_sweep(12, 2);
    let (clip_classes, exps) = suite_classes(prepared);
    let mut bits = vec![0u64; exps.len()];
    let mut units = Vec::new();
    for (ci, classes) in clip_classes.iter().enumerate() {
        for c in classes {
            let key = exps.binary_search(&c.exp).expect("exps holds every class");
            bits[key] += c.bits;
            units.push((ci, key, cumulative_ranges(classes, c.exp)));
        }
    }
    let loss = worst_loss(prepared, units, exps.len(), &rates, cfg.trials, |_| seed);
    // Cumulative curves must be monotone in class: pool then re-cumulate
    // (a higher class's cumulative loss includes all lower classes).
    let mut running = vec![0.0f64; rates.len()];
    let mut curves = Vec::with_capacity(exps.len());
    for class_loss in &loss {
        for (r, &l) in running.iter_mut().zip(class_loss) {
            *r = r.min(l);
        }
        curves.push(LossCurve::new(
            rates.iter().copied().zip(running.iter().copied()).collect(),
        ));
    }
    let classes: Vec<(u32, u64)> = exps.into_iter().zip(bits).collect();
    let assignment = Assignment::compute(&classes, &curves, QUALITY_BUDGET_DB, 1e-3);
    Table1Result {
        classes,
        curves,
        assignment,
    }
}

/// Renders the assignment table and its overhead.
pub fn render(r: &Table1Result) -> String {
    let a = &r.assignment;
    let total_bits: u64 = a.per_class.iter().map(|&(_, b, _)| b).sum();
    let mut lo = 0u64;
    let mut rows = Vec::new();
    for &(exp, bits, scheme) in &a.per_class {
        let hi = 2u64.saturating_pow(exp);
        let (ber, overhead) = (scheme.residual_ber(1e-3), scheme.overhead() * 100.0);
        let share = 100.0 * bits as f64 / total_bits as f64;
        rows.push(format!(
            "{lo}-{hi}|{scheme}|{ber:.1e}|{overhead:.2}|{share:.1}"
        ));
        lo = hi + 1;
    }
    let header = a.header_scheme;
    let overhead = header.overhead() * 100.0;
    rows.push(format!("frame header|{header}|1e-16|{overhead:.2}|<0.1"));
    format!(
        "== Table 1: error-correction assignment ==\n\
         (budget {QUALITY_BUDGET_DB} dB, raw BER 1e-3, 512-bit blocks)\n\n{}\n\
         average payload ECC overhead: {:.2}% (uniform BCH-16 would cost 31.25%)\n\
         EC overhead eliminated: {:.0}% (paper: 47% under the most error-intolerant settings)\n",
        table(
            &[16, 12, 12, 14, 12],
            &["importance|scheme|error rate|overhead %|bits %"],
            &rows
        ),
        a.average_overhead() * 100.0,
        (1.0 - a.average_overhead() / 0.3125) * 100.0,
    )
}
