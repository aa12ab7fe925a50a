//! **Figure 8**: storage overhead and correction capability of the BCH
//! codes used, for 512-bit blocks at a raw bit error rate of 1e-3, and
//! what the same ladder strengths cost on each pluggable error channel.

use crate::{channels, table, ExpConfig};
use std::sync::Arc;
use vapp_storage::bch::Bch;
use vapp_storage::channel::Substrate;

/// The BCH strengths of Fig. 8; the paper rounds BCH-t's resulting error
/// rate to 1e-t.
const CODES: [usize; 7] = [6, 7, 8, 9, 10, 11, 16];

/// A strength `t` (errors corrected per 512-bit block) realized by an
/// error channel's code: `(t, parity/data overhead, probability that a
/// protected block fails)`.
pub type Strength = (usize, f64, f64);

/// Each strength of `CODES` on i.i.d. MLC flips at raw BER 1e-3, which
/// BCH protects, and strengths 6, 10 and 16 on every channel, with the
/// channel's name and raw BER.
pub struct Fig8Result {
    pub codes: Vec<Strength>,
    pub channels: Vec<(&'static str, f64, Strength)>,
}

/// Runs the experiment; it is analytic, so the scale does not matter.
pub fn run(_cfg: &ExpConfig) -> Fig8Result {
    let realize = |sub: &dyn Substrate, t| (t, sub.overhead(t), sub.block_failure_rate(t));
    // The burst/video substrates realize strength t with interleaved
    // Reed-Solomon (t/102 symbol overhead, near-identical to BCH's
    // 10t/512), so the assignment transfers but the failure model is the
    // channel's own.
    let subs = channels();
    let strengths = |(name, sub): &(&'static str, Arc<dyn Substrate>)| {
        [6, 10, 16].map(|t| (*name, sub.raw_ber(), realize(&**sub, t)))
    };
    Fig8Result {
        codes: CODES.map(|t| realize(&*subs[0].1, t)).into(),
        channels: subs.iter().flat_map(strengths).collect(),
    }
}

/// Renders both tables.
pub fn render(r: &Fig8Result) -> String {
    let codes: Vec<String> = (r.codes.iter())
        .map(|&(t, overhead, fail)| {
            let (parity, overhead) = (Bch::new(t).parity_bits(), overhead * 100.0);
            format!("BCH-{t}|{parity}|{overhead:.2}|{fail:.2e}|1e-{t}")
        })
        .collect();
    let channels: Vec<String> = (r.channels.iter())
        .map(|&(name, ber, (t, overhead, fail))| {
            format!("{name}|{ber:.1e}|{t}|{:.2}|{fail:.2e}", overhead * 100.0)
        })
        .collect();
    format!(
        "== Figure 8: BCH overhead and correction capability ==\n\
         (512-bit blocks, raw BER 1e-3; self-correcting codes)\n\n{}\n\
         paper reference points: BCH-6 = 11.7% overhead, BCH-16 = 31.3% overhead \
         (both match exactly: parity is 10 bits per corrected error)\n\n\
         == per-substrate realization of the ladder ==\n{}\n\
         (block-fail rates for burst/video are i.i.d. approximations after\n\
         interleaving; the corruption simulators are the ground truth)\n",
        table(
            &[8, 12, 14, 22, 18],
            &["code|parity|overhead %|uncorrectable rate|paper (approx)"],
            &codes
        ),
        table(
            &[8, 10, 9, 13, 18],
            &["channel|raw BER|t|overhead %|block fail rate"],
            &channels
        ),
    )
}
