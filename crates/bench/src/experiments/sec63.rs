//! **§6.3 compression baseline**: the quality cost of *deterministic
//! compression* — how many dB the encoder loses when asked to shave the
//! same 10–15% of storage that approximation saves. The paper measures
//! 0.4–0.6 dB and sizes the approximation budget at 0.3 dB so that
//! approximation always wins.

use crate::{prepare, table, ExpConfig};
use vapp_metrics::video_psnr;

/// One CRF step above the standard CRF 24: the suite means of the payload bits
/// saved (%) and of the PSNR lost against the original (dB).
pub struct CrfStep {
    pub delta: u8,
    pub saved_pct: f64,
    pub loss_db: f64,
}

impl CrfStep {
    /// dB lost per 10% of storage saved.
    pub fn db_per_10pct(&self) -> f64 {
        self.loss_db * 10.0 / self.saved_pct.max(0.1)
    }
}

/// One row per CRF step +1, +2 and +3.
pub type Sec63Result = Vec<CrfStep>;

/// Runs the experiment.
pub fn run(cfg: &ExpConfig) -> Sec63Result {
    let psnr_bits = |crf| -> Vec<(f64, f64)> {
        (prepare(cfg, crf).iter())
            .map(|p| {
                let psnr = video_psnr(&p.original, &p.result.reconstruction);
                (psnr, p.result.stream.payload_bits() as f64)
            })
            .collect()
    };
    let base = psnr_bits(24);
    let n = base.len() as f64;
    (1..=3u8)
        .map(|delta| {
            let tighter = psnr_bits(24 + delta);
            let pairs = || base.iter().zip(&tighter);
            CrfStep {
                delta,
                saved_pct: 100.0 * pairs().map(|(a, b)| 1.0 - b.1 / a.1).sum::<f64>() / n,
                loss_db: pairs().map(|(a, b)| a.0 - b.0).sum::<f64>() / n,
            }
        })
        .collect()
}

/// Renders the step table.
pub fn render(r: &Sec63Result) -> String {
    let rows: Vec<String> = (r.iter())
        .map(|s| {
            let (delta, saved, loss) = (s.delta, s.saved_pct, s.loss_db);
            format!("+{delta}|{saved:.1}|{loss:.2}|{:.2}", s.db_per_10pct())
        })
        .collect();
    format!(
        "== Compression baseline: dB lost per % of storage saved ==\n\n{}\n\
         (paper: 10-15% storage via compression costs 0.4-0.6 dB; hence the 0.3 dB \
         approximation budget guarantees approximation beats compression)\n",
        table(
            &[10, 12, 14, 14],
            &["CRF step|bits saved %|PSNR loss dB|dB per 10%"],
            &rows
        ),
    )
}
