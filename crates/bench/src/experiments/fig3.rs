//! **Figure 3**: frame PSNR after a single bit flip, as a function of the
//! affected macroblock's position within the frame.
//!
//! Protocol (paper §3.1): inject one flip at a time into a chosen MB of an
//! inter-coded frame, decode, and measure that frame's PSNR against the
//! error-free decode; average over many frames per MB position. Frames
//! using intra prediction are excluded so compensation errors don't mix
//! into the picture. The expected shape: flips near the top-left corner
//! (early in scan order) hurt far more than flips near the bottom-right.

use crate::{prepare_with, table, ExpConfig};
use vapp_codec::{decode, FrameType};
use vapp_metrics::video_psnr_per_frame;
use videoapp::pipeline::flip_global_bits;

/// Mean frame PSNR (dB) per flipped-MB position: `cols` macroblocks per
/// row, row-major, NaN where no frame had a sample.
pub struct Fig3Result {
    pub cols: usize,
    pub psnr: Vec<f64>,
}

impl Fig3Result {
    /// The PSNR at the top-left and the bottom-right macroblock.
    pub fn corners(&self) -> (f64, f64) {
        (self.psnr[0], self.psnr[self.psnr.len() - 1])
    }

    /// Row-major neighbours, and vertical neighbours, where the later
    /// macroblock's frames lose more than `margin_db` more than the
    /// earlier one's: places where PSNR falls along the scan order.
    pub fn inversions(&self, margin_db: f64) -> usize {
        let falls = |step: usize| {
            (self.psnr.iter().zip(&self.psnr[step..]))
                .filter(|&(early, late)| *late < early - margin_db)
                .count()
        };
        falls(1) + falls(self.cols)
    }
}

/// Runs the experiment; panics unless bottom-right flips damage less than
/// top-left ones (the Fig. 3 shape).
pub fn run(cfg: &ExpConfig) -> Fig3Result {
    // Inter-only structure: one I frame, everything else P, no B reordering.
    let mut enc = cfg.encoder(24);
    (enc.bframes, enc.keyint) = (0, cfg.frames as u16);
    let prepared = prepare_with(cfg, enc);

    let grid = vapp_media::MbGrid::for_frame(cfg.width, cfg.height);
    let (cols, rows) = (grid.mb_cols(), grid.mb_rows());
    let mut sum = vec![0.0f64; cols * rows];
    let mut count = vec![0u32; cols * rows];

    for p in &prepared {
        let stream = &p.result.stream;
        let error_free = decode(stream);
        let bases = videoapp::payload_layout(&p.result.analysis);
        // P frames without any intra prediction (paper §3.1).
        let frames = p.result.analysis.frames.iter();
        for f in frames.filter(|f| f.frame_type == FrameType::P && !f.mbs.iter().any(|m| m.intra)) {
            for (mb, a) in f.mbs.iter().enumerate().filter(|(_, a)| a.bits() > 0) {
                // Flip the middle bit of the MB's span.
                let pos = bases[f.coding_index] + (a.bit_start + a.bit_end) / 2;
                let mut dirty = stream.clone();
                flip_global_bits(&mut dirty, &[pos]);
                let decoded = decode(&dirty);
                let psnr = video_psnr_per_frame(&error_free, &decoded)[f.display_index];
                sum[mb] += psnr;
                count[mb] += 1;
            }
        }
    }

    let psnr = (sum.iter().zip(&count))
        .map(|(&s, &n)| if n > 0 { s / n as f64 } else { f64::NAN })
        .collect();
    let result = Fig3Result { cols, psnr };
    let (top_left, bottom_right) = result.corners();
    assert!(
        bottom_right > top_left,
        "expected the Fig. 3 shape: bottom-right flips less damaging"
    );
    result
}

/// Renders the PSNR grid and its corners.
pub fn render(r: &Fig3Result) -> String {
    let (top_left, bottom_right) = r.corners();
    let header = (0..r.cols).fold("y\\x".to_string(), |s, _| s + "|PSNR");
    let rows: Vec<String> = (r.psnr.chunks(r.cols).enumerate())
        .map(|(y, row)| {
            row.iter()
                .fold(format!("{y}"), |s, v| format!("{s}|{v:.1}"))
        })
        .collect();
    format!(
        "== Figure 3: frame PSNR vs flipped-MB position ==\n\
         (higher = less damage; origin = top-left corner)\n\n{}\n\
         top-left corner: {top_left:.1} dB, bottom-right corner: {bottom_right:.1} dB \
         (paper Fig. 3: bottom-right flips cause much less damage)\n",
        table(&[5, 7], &[&header], &rows),
    )
}
