//! **Figure 9**: (a) quality loss vs error rate for 16 equal-storage bins
//! ordered by importance; (b) the maximum macroblock importance in each
//! bin (log2).
//!
//! This is the paper's §7.1 methodology validation: if VideoApp's
//! importance metric is meaningful, the quality-degradation curves must
//! appear in bin order — higher bins (more important bits) degrade at
//! lower error rates.

use super::{loss_rows, worst_loss};
use crate::{prepare, rate_sweep, table, ExpConfig};
use videoapp::equal_storage_bins;

/// Equal-storage bins per clip.
pub const BINS: usize = 16;

/// Per bin over the suite, the worst quality change (dB) at each of the
/// ascending `rates` and the largest macroblock importance.
pub struct Fig9Result {
    pub rates: Vec<f64>,
    pub loss: Vec<Vec<f64>>,
    pub max_importance: Vec<f64>,
}

impl Fig9Result {
    /// Bin boundaries where, at the highest rate, the lower bin loses
    /// more than `margin_db` more than the bin above it.
    pub fn inversions(&self, margin_db: f64) -> usize {
        let worst_rate = self.rates.len() - 1;
        self.loss
            .windows(2)
            .filter(|b| b[0][worst_rate] < b[1][worst_rate] - margin_db)
            .count()
    }
}

/// Runs the experiment.
pub fn run(cfg: &ExpConfig) -> Fig9Result {
    let prepared = prepare(cfg, 24);
    let rates = rate_sweep(10, 2);
    let mut max_importance = vec![0.0f64; BINS];
    let mut units = Vec::new();
    for (ci, p) in prepared.iter().enumerate() {
        for b in equal_storage_bins(&p.result.analysis, &p.importance, BINS) {
            max_importance[b.index] = max_importance[b.index].max(b.max_importance);
            units.push((ci, b.index, b.ranges));
        }
    }
    let seed = |ci| 1000 + ci as u64;
    let loss = worst_loss(&prepared, units, BINS, &rates, cfg.trials, seed);
    Fig9Result {
        rates,
        loss,
        max_importance,
    }
}

/// Renders both panels and the order check at 1e-2.
pub fn render(r: &Fig9Result) -> String {
    let header = (0..BINS).fold("rate".to_string(), |s, b| format!("{s}|bin{b}"));
    let max_imp: Vec<String> = (r.max_importance.iter().enumerate())
        .map(|(b, mi)| format!("{b}|{:.1}", mi.max(1.0).log2()))
        .collect();
    format!(
        "== Figure 9: quality loss per equal-storage importance bin ==\n\n\
         (a) worst quality change (dB) vs error rate, per bin:\n{}\n\
         (b) max importance per bin (log2):\n{}\n\
         order check at rate 1e-2: {} inversions > 0.5 dB across {} boundaries\n\
         (paper §7.1: loss curves strictly follow the bin importance order)\n",
        table(&[9, 7], &[&header], &loss_rows(&r.rates, &r.loss)),
        table(&[6, 16], &["bin|log2(max imp)"], &max_imp),
        r.inversions(0.5),
        BINS - 1,
    )
}
