//! **Figure 10**: (a) cumulative quality loss vs error rate per log2
//! importance class (class i = all macroblocks with importance ≤ 2^i);
//! (b) cumulative storage per class.
//!
//! These curves, together with Fig. 8, drive the Table 1 assignment.

use super::{cumulative_ranges, loss_rows, suite_classes, worst_loss};
use crate::{prepare, rate_sweep, table, ExpConfig};
use videoapp::payload_layout;

/// Per importance class present in any clip (`exps`, ascending), the worst
/// cumulative quality change (dB) at each of the ascending `rates` and the
/// share of the suite's payload at or below the class (%).
pub struct Fig10Result {
    pub rates: Vec<f64>,
    pub exps: Vec<u32>,
    pub loss: Vec<Vec<f64>>,
    pub storage_pct: Vec<f64>,
}

impl Fig10Result {
    /// (rate, class boundary) pairs where the higher class loses more
    /// than `margin_db` less than the class below it. Classes are
    /// cumulative, so each adds payload to the one below and should lose
    /// at least as much.
    pub fn inversions(&self, margin_db: f64) -> usize {
        (self.loss.windows(2))
            .map(|b| {
                (b[0].iter().zip(&b[1]))
                    .filter(|&(lo, hi)| hi - lo > margin_db)
                    .count()
            })
            .sum()
    }
}

/// Runs the experiment.
pub fn run(cfg: &ExpConfig) -> Fig10Result {
    let prepared = prepare(cfg, 24);
    let rates = rate_sweep(12, 2);
    let (clip_classes, exps) = suite_classes(&prepared);
    let mut cum_bits = vec![0u64; exps.len()];
    let mut total_bits = 0u64;
    let mut units = Vec::new();
    for (ci, (p, classes)) in prepared.iter().zip(&clip_classes).enumerate() {
        total_bits += *payload_layout(&p.result.analysis)
            .last()
            .expect("the layout ends with the payload size");
        for (ei, &exp) in exps.iter().enumerate() {
            let ranges = cumulative_ranges(classes, exp);
            cum_bits[ei] += vapp_sim::total_bits(&ranges);
            if !ranges.is_empty() {
                units.push((ci, ei, ranges));
            }
        }
    }
    let seed = |ci| 2000 + ci as u64;
    let loss = worst_loss(&prepared, units, exps.len(), &rates, cfg.trials, seed);
    let storage_pct = cum_bits
        .iter()
        .map(|&b| 100.0 * b as f64 / total_bits as f64)
        .collect();
    Fig10Result {
        rates,
        exps,
        loss,
        storage_pct,
    }
}

/// Renders both panels.
pub fn render(r: &Fig10Result) -> String {
    let header = (r.exps.iter()).fold("rate".to_string(), |s, e| format!("{s}|<=2^{e}"));
    let storage: Vec<String> = (r.exps.iter().zip(&r.storage_pct))
        .map(|(e, pct)| format!("<=2^{e}|{pct:.1}"))
        .collect();
    format!(
        "== Figure 10: cumulative loss and storage per importance class ==\n\n\
         (a) cumulative worst quality change (dB); class i = importance <= 2^i:\n{}\n\
         (b) cumulative storage per class (% of payload):\n{}\n\
         (paper Fig. 10: lower classes tolerate orders of magnitude higher error \
         rates; storage is dominated by mid/low importance classes)\n",
        table(&[9, 8], &[&header], &loss_rows(&r.rates, &r.loss)),
        table(&[10, 14], &["class|storage %"], &storage),
    )
}
