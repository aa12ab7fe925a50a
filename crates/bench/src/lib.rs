//! Shared machinery for the paper's experiments ([`experiments`]: one
//! `run` + `render` per figure or table, printed and checked by the
//! `experiments` binary — see `DESIGN.md` §5) and the [`harness`]-driven
//! benches.
//!
//! Every experiment honours the `VAPP_SCALE` environment variable:
//!
//! * `small` (default) — minutes-scale runs: reduced resolution, frame
//!   counts and trial counts. Shapes hold; absolute values are noisier.
//! * `full`  — closer to the paper's methodology (more frames, 30 trials).

pub mod experiments;
pub mod harness;

use std::sync::Arc;
use vapp_codec::{EncodeResult, Encoder, EncoderConfig};
use vapp_media::Video;
use vapp_storage::channel::{burst_erasure, data_in_video, mlc_pcm, Substrate};
use vapp_storage::mlc::TARGET_RAW_BER;
use vapp_workloads::{suite, NamedClip};
use videoapp::{DependencyGraph, ImportanceMap};

/// Experiment scale knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExpConfig {
    /// Clip width in pixels.
    pub width: usize,
    /// Clip height in pixels.
    pub height: usize,
    /// Frames per clip.
    pub frames: usize,
    /// Monte Carlo trials per data point (the paper uses 30).
    pub trials: usize,
    /// Number of clips from the workload suite to use.
    pub clips: usize,
}

impl ExpConfig {
    /// The default scale, which EXPERIMENTS.md records.
    pub const SMALL: ExpConfig = ExpConfig {
        width: 112,
        height: 64,
        frames: 24,
        trials: 5,
        clips: 3,
    };

    /// Reads the scale from `VAPP_SCALE` (`small` default, `full`).
    pub fn from_env() -> Self {
        match std::env::var("VAPP_SCALE").as_deref() {
            Ok("full") => ExpConfig {
                width: 320,
                height: 192,
                frames: 96,
                trials: 30,
                clips: 7,
            },
            _ => Self::SMALL,
        }
    }

    /// The workload suite at this scale.
    pub fn suite(&self) -> Vec<NamedClip> {
        let mut clips = suite(self.width, self.height, self.frames);
        clips.truncate(self.clips.max(1));
        clips
    }

    /// The paper's standard-quality encoder settings (§6.3: CRF 24).
    pub fn encoder(&self, crf: u8) -> EncoderConfig {
        EncoderConfig {
            crf,
            keyint: 24,
            bframes: 2,
            ..EncoderConfig::default()
        }
    }
}

/// An encoded clip with its analysis products.
pub struct PreparedClip {
    /// Clip name.
    pub name: &'static str,
    /// The raw input.
    pub original: Video,
    /// Encoder outputs.
    pub result: EncodeResult,
    /// Macroblock importances.
    pub importance: ImportanceMap,
}

/// Encodes and analyses every clip of the suite at the given CRF.
pub fn prepare(cfg: &ExpConfig, crf: u8) -> Vec<PreparedClip> {
    prepare_with(cfg, cfg.encoder(crf))
}

/// Encodes and analyses every clip with an explicit encoder config.
///
/// Clips are independent, so the suite fans out across workers
/// (`vapp_par`).
pub fn prepare_with(cfg: &ExpConfig, enc_cfg: EncoderConfig) -> Vec<PreparedClip> {
    let encoder = Encoder::new(enc_cfg);
    vapp_par::par_map(cfg.suite(), |_, clip| {
        let result = encoder.encode(&clip.video);
        let importance = ImportanceMap::compute(&DependencyGraph::from_analysis(&result.analysis));
        PreparedClip {
            name: clip.name,
            original: clip.video,
            result,
            importance,
        }
    })
}

/// The error-rate sweep used by Figures 9 and 10 (x-axes 1e-10…1e-2 and
/// 1e-12…1e-2).
pub fn rate_sweep(from_exp: i32, to_exp: i32) -> Vec<f64> {
    (to_exp..=from_exp).map(|e| 10f64.powi(-e)).rev().collect()
}

/// The pluggable error channels at their default settings: i.i.d. MLC PCM
/// flips at raw BER 1e-3, bursty page erasure and the lossy video channel.
pub fn channels() -> [(&'static str, Arc<dyn Substrate>); 3] {
    [
        ("mlc", mlc_pcm(TARGET_RAW_BER)),
        ("burst", burst_erasure(Default::default())),
        ("video", data_in_video(Default::default())),
    ]
}

/// Renders a fixed-width text table. Each header line and row is a list of
/// cells separated by `|`; cells are right-aligned to their column widths
/// (the last width repeats for any further columns) and two spaces apart,
/// and each header line is followed by a rule as wide as the first.
pub fn table(widths: &[usize], headers: &[&str], rows: &[String]) -> String {
    let width = |i: usize| widths[i.min(widths.len() - 1)];
    let line = |cells: &str| {
        let cells: Vec<String> = (cells.split('|').enumerate())
            .map(|(i, c)| format!("{c:>w$}", w = width(i)))
            .collect();
        cells.join("  ") + "\n"
    };
    let columns = headers[0].split('|').count();
    let rule = "-".repeat((0..columns).map(|i| width(i) + 2).sum::<usize>() - 2) + "\n";
    let mut out = String::new();
    for header in headers {
        out += &(line(header) + &rule);
    }
    for row in rows {
        out += &line(row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_sweep_is_ascending() {
        let r = rate_sweep(10, 2);
        assert_eq!(r.len(), 9);
        assert!((r[0] - 1e-10).abs() < 1e-22);
        assert!((r.last().unwrap() - 1e-2).abs() < 1e-12);
        assert!(r.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn table_rules_each_header_line_and_right_aligns_cells() {
        let t = table(&[4, 3], &["a|bc", "|d"], &["1|22".to_string()]);
        assert_eq!(t, "   a   bc\n---------\n        d\n---------\n   1   22\n");
        let t = table(&[2, 3], &["x|a|b"], &["1|2|3".to_string()]);
        assert_eq!(t, " x    a    b\n------------\n 1    2    3\n");
    }

    #[test]
    fn small_config_prepares_quickly() {
        let cfg = ExpConfig {
            width: 48,
            height: 32,
            frames: 4,
            trials: 1,
            clips: 1,
        };
        let prepared = prepare(&cfg, 24);
        assert_eq!(prepared.len(), 1);
        let p = &prepared[0];
        assert!(p.result.stream.payload_bits() > 0);
        assert!(p.importance.max() >= 1.0);
    }
}
