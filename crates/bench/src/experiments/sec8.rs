//! **§8 ablations**: the paper's discussion knobs —
//!
//! 1. slices per frame (bounds coding-error propagation, costs storage),
//! 2. CAVLC vs CABAC (error resilience vs density),
//! 3. B-frame count (unreferenced frames cannot propagate errors),
//! 4. approximability-aware mode decision (the paper's open question).

use super::worst_loss;
use crate::{prepare_with, rate_sweep, table, ExpConfig};
use vapp_codec::EncoderConfig;
use vapp_codec::EntropyMode::{self, Cabac, Cavlc};
use videoapp::payload_layout;

/// Payload bits per pixel (mean over the suite) and the worst
/// whole-payload quality change (dB) at 1e-6, 1e-5 and 1e-4 under one
/// encoder setting.
pub struct Sweep {
    pub bits_per_px: f64,
    pub loss_db: [f64; 3],
}

/// How one encoder setting polarises the suite into important and
/// unimportant bits, as means over the suite: payload bits per pixel,
/// error-free PSNR (dB), skipped macroblocks (%) and the share of payload
/// bits in macroblocks of importance ≤ 2 and ≤ 16 (%).
pub struct Polarity {
    pub bits_per_px: f64,
    pub psnr: f64,
    pub skip_pct: f64,
    pub low_imp_pct: [f64; 2],
}

/// The four ablations: slices per frame 1, 2 and 4; CABAC and CAVLC;
/// 0, 2 and 3 B frames between anchors; standard and approximability-aware
/// (skip/intra biased) mode decision.
pub struct Sec8Result {
    pub slices: [(u8, Sweep); 3],
    pub entropy: [(EntropyMode, Sweep); 2],
    pub bframes: [(u8, Polarity); 3],
    pub aware: [(bool, Polarity); 2],
}

/// Runs the experiment.
pub fn run(cfg: &ExpConfig) -> Sec8Result {
    Sec8Result {
        slices: [1, 2, 4].map(|n| (n, sweep(cfg, |e| e.slices = n))),
        entropy: [Cabac, Cavlc].map(|m| (m, sweep(cfg, |e| e.entropy = m))),
        bframes: [0, 2, 3].map(|n| (n, polarity(cfg, |e| e.bframes = n))),
        aware: [false, true].map(|b| (b, polarity(cfg, |e| e.approx_bias = b))),
    }
}

/// Encodes the suite with the standard settings changed by `set` and
/// measures whole-payload loss over 1e-7…1e-3.
fn sweep(cfg: &ExpConfig, set: impl Fn(&mut EncoderConfig)) -> Sweep {
    let prepared = prepare_with(cfg, changed(cfg, set));
    let rates = rate_sweep(7, 3);
    let mut bpp = 0.0;
    let mut units = Vec::with_capacity(prepared.len());
    for (ci, p) in prepared.iter().enumerate() {
        let total = p.result.stream.payload_bits();
        bpp += total as f64 / p.original.total_pixels() as f64;
        units.push((ci, 0, vec![0..total]));
    }
    let seed = |ci| 6000 + ci as u64;
    let loss = &worst_loss(&prepared, units, 1, &rates, cfg.trials, seed)[0];
    // rates[1..4] are 1e-6, 1e-5 and 1e-4.
    Sweep {
        bits_per_px: bpp / prepared.len() as f64,
        loss_db: [loss[1], loss[2], loss[3]],
    }
}

/// Encodes the suite with the standard settings changed by `set` and
/// measures its [`Polarity`].
fn polarity(cfg: &ExpConfig, set: impl Fn(&mut EncoderConfig)) -> Polarity {
    let prepared = prepare_with(cfg, changed(cfg, set));
    let (mut bpp, mut psnr, mut skip, mut low) = (0.0, 0.0, 0.0, [0.0; 2]);
    for p in &prepared {
        let total = *payload_layout(&p.result.analysis)
            .last()
            .expect("layout ends at the payload size");
        bpp += total as f64 / p.original.total_pixels() as f64;
        psnr += vapp_metrics::video_psnr(&p.original, &p.result.reconstruction);
        let mbs = p.result.analysis.frames.iter().flat_map(|f| &f.mbs);
        let skipped = mbs.clone().filter(|m| m.skip).count();
        skip += 100.0 * skipped as f64 / mbs.count() as f64;
        let ranges = videoapp::classes::mb_bit_ranges(&p.result.analysis, &p.importance);
        for (l, max) in low.iter_mut().zip([2.0, 16.0]) {
            let bits: u64 = (ranges.iter().filter(|(imp, _)| *imp <= max))
                .map(|(_, r)| r.end - r.start)
                .sum();
            *l += 100.0 * bits as f64 / total as f64;
        }
    }
    let n = prepared.len() as f64;
    Polarity {
        bits_per_px: bpp / n,
        psnr: psnr / n,
        skip_pct: skip / n,
        low_imp_pct: low.map(|l| l / n),
    }
}

fn changed(cfg: &ExpConfig, set: impl Fn(&mut EncoderConfig)) -> EncoderConfig {
    let mut enc = cfg.encoder(24);
    set(&mut enc);
    enc
}

/// One sweep table: the setting, bits/px and the loss at the three rates.
fn sweep_table<K: std::fmt::Debug>(setting: &str, rows: &[(K, Sweep)]) -> String {
    let rows: Vec<String> = (rows.iter())
        .map(|(k, s)| {
            let [a, b, c] = s.loss_db;
            format!("{k:?}|{:.3}|{a:.2}|{b:.2}|{c:.2}", s.bits_per_px)
        })
        .collect();
    let header = format!("{setting}|bits/px|@1e-6 dB|@1e-5 dB|@1e-4 dB");
    table(&[8, 12, 12, 12, 12], &[&header], &rows)
}

/// Renders the four ablation tables.
pub fn render(r: &Sec8Result) -> String {
    let bframes: Vec<String> = (r.bframes.iter())
        .map(|(n, p)| format!("{n}|{:.3}|{:.1}", p.bits_per_px, p.low_imp_pct[0]))
        .collect();
    let aware: Vec<String> = (r.aware.iter())
        .map(|(aware, p)| {
            let mode = if *aware { "aware" } else { "standard" };
            let (bpp, psnr, skip, low) = (p.bits_per_px, p.psnr, p.skip_pct, p.low_imp_pct[1]);
            format!("{mode}|{bpp:.3}|{psnr:.2}|{skip:.1}|{low:.1}")
        })
        .collect();
    format!(
        "== §8 ablations ==\n\n\
         (1) slices per frame: loss at selected rates + storage cost\n{}\
         (more slices: curves shift right — less loss — at extra storage)\n\n\
         (2) entropy coder: CABAC vs CAVLC\n{}\
         (paper: CAVLC is more error-tolerant but costs 10-15% storage)\n\n\
         (3) B frames between anchors: unreferenced (importance<=2) storage\n{}\
         (paper §8: more unreferenced B frames polarise the video into important \
         and unimportant bits — ideal for approximation — but may cost storage)\n\n\
         (4) approximability-aware mode decision (skip/intra bias):\n{}\
         (the paper's §8 open question, honestly reproduced: the aware encoder \
         skips far more and shrinks the stream, but skips also *remove* cheap \
         low-importance bits, so the share of tolerant bits can even drop — \
         'sometimes cancelling out the benefits …, leaving us without a clear \
         conclusion')\n",
        sweep_table("slices", &r.slices),
        sweep_table("coder", &r.entropy),
        table(&[8, 12, 18], &["bframes|bits/px|low-imp bits %"], &bframes),
        table(
            &[10, 12, 12, 12, 18],
            &["mode|bits/px|PSNR dB|skip %|low-imp bits %"],
            &aware
        ),
    )
}
