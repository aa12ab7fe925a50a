//! **§6.2 substrate**: the error substrates behind every storage number.
//!
//! The MLC PCM deep-dive calibrates the cell model to raw BER 1e-3 at the
//! 3-month scrub interval, shows the effect of drift-biased level
//! placement (Guo et al.'s non-uniform partitioning), and validates the
//! model physically on a Gray-coded cell array. The paper's headline
//! comparison, importance-partitioned vs uniform precise protection, is
//! then rerun on every error channel: i.i.d. MLC PCM flips, bursty page
//! erasure under interleaved Reed–Solomon, and payload round-tripped
//! through the lossy codec itself.

use crate::{channels, table, ExpConfig};
use vapp_codec::{decode, Encoder, EncoderConfig};
use vapp_metrics::video_psnr;
use vapp_rand::rngs::StdRng;
use vapp_rand::SeedableRng;
use vapp_storage::array::CellArray;
use vapp_storage::bits::BitBuf;
use vapp_storage::mlc::{MlcConfig, MlcSubstrate, DEFAULT_SCRUB_DAYS, TARGET_RAW_BER};
use vapp_workloads::{ClipSpec, SceneKind};
use videoapp::{
    ApproxStore, DependencyGraph, EcScheme, ImportanceMap, PipelineReport, PivotTable,
    StoragePolicy,
};

/// The ages (days) at which the drift table reads the raw BER.
pub const AGES: [f64; 6] = [0.0, 10.0, 30.0, 60.0, 90.0, 180.0];

/// The MLC deep-dive and the per-channel headline.
pub struct Sec62Result {
    /// The cell model calibrated to [`TARGET_RAW_BER`] at the scrub
    /// interval, with drift-biased level placement.
    pub tuned: MlcSubstrate,
    /// The same write noise with naive, evenly spaced levels.
    pub naive: MlcSubstrate,
    /// The cell-array check at the scrub interval: bits stored, cells
    /// used and the measured BER.
    pub array: (usize, usize, f64),
    /// Per channel: name, raw BER, the partitioned store's report and the
    /// worst PSNR change (dB) over seeded trials.
    pub channels: Vec<(&'static str, f64, PipelineReport, f64)>,
}

/// Runs the experiment on fixed inputs, so the scale does not matter.
/// Panics unless the cell array's measured BER is within half a decade of
/// 1e-3 (the calibration has drifted).
pub fn run(_cfg: &ExpConfig) -> Sec62Result {
    let tuned = MlcSubstrate::tuned_for_ber(MlcConfig::default(), TARGET_RAW_BER);
    let naive = MlcSubstrate::new(MlcConfig {
        biased: false,
        sigma: tuned.config().sigma,
        ..Default::default()
    });

    // Physical validation: store bits, age, read back.
    let mut data = BitBuf::zeroed(600_000);
    let mut s = 0xDEAD_BEEFu64;
    for i in 0..data.len() {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
        data.set(i, (s >> 60) & 1 == 1);
    }
    let cells = CellArray::write(&tuned, &data);
    let read = cells.read(&tuned, DEFAULT_SCRUB_DAYS, &mut StdRng::seed_from_u64(90));
    let measured = read.hamming_distance(&data) as f64 / data.len() as f64;
    assert!((measured.log10() + 3.0).abs() < 0.5, "calibration drifted");

    Sec62Result {
        array: (data.len(), cells.cell_count(), measured),
        tuned,
        naive,
        channels: headline(),
    }
}

/// The partitioned store's report and worst quality change on each
/// channel. The ladder is the paper-shaped [None, BCH-6, BCH-10]
/// assignment; uniform is precise strength-16 everywhere. Each substrate
/// realizes the strengths with its own code, so the overheads are the
/// channel's actual parity cost.
fn headline() -> Vec<(&'static str, f64, PipelineReport, f64)> {
    let video = (ClipSpec::new(96, 64, 8, SceneKind::MovingBlocks).seed(23)).generate();
    let result = Encoder::new(EncoderConfig {
        keyint: 4,
        bframes: 1,
        ..EncoderConfig::default()
    })
    .encode(&video);
    let importance = ImportanceMap::compute(&DependencyGraph::from_analysis(&result.analysis));
    let thresholds = [4.0, 64.0];
    let pivots = PivotTable::build(&result.analysis, &importance, &thresholds);
    let base_psnr = video_psnr(&video, &result.reconstruction);
    (channels().into_iter())
        .map(|(name, substrate)| {
            let store = ApproxStore::new(StoragePolicy {
                ladder_levels: vec![EcScheme::None, EcScheme::Bch(6), EcScheme::Bch(10)],
                thresholds: thresholds.to_vec(),
                substrate: substrate.clone(),
                exact_bch: true,
            });
            let report = store.report(&result.stream, &pivots, video.total_pixels() as u64);
            // Worst change against the error-free reconstruction.
            let worst = (0..3u64).fold(0.0f64, |worst, trial| {
                let mut rng = StdRng::seed_from_u64(0x5EED + trial);
                let decoded = decode(&store.store_load(&result.stream, &pivots, &mut rng));
                worst.min(video_psnr(&video, &decoded) - base_psnr)
            });
            (name, substrate.raw_ber(), report, worst)
        })
        .collect()
}

/// Renders the deep-dive and the per-channel table.
pub fn render(r: &Sec62Result) -> String {
    let (tuned, naive) = (&r.tuned, &r.naive);
    let drift: Vec<String> = (AGES.iter())
        .map(|&t| format!("{t:.0}|{:.2e}|{:.2e}", tuned.raw_ber(t), naive.raw_ber(t)))
        .collect();
    let (bits, cells, measured) = r.array;
    let analytic = tuned.raw_ber(DEFAULT_SCRUB_DAYS);
    let centers = [tuned, naive].map(|m| {
        let c: Vec<String> = m.centers().iter().map(|c| format!("{c:.3}")).collect();
        c.join(", ")
    });
    let channels: Vec<String> = (r.channels.iter())
        .map(|(name, ber, report, worst)| {
            let (uniform, partitioned, cut) = (
                report.precise_overhead * 100.0,
                report.avg_payload_overhead * 100.0,
                report.ec_overhead_reduction() * 100.0,
            );
            format!("{name}|{ber:.1e}|{uniform:.2}|{partitioned:.2}|{cut:.0}%|{worst:.2}")
        })
        .collect();
    format!(
        "== §6.2: the 8-level MLC PCM substrate ==\n\n\
         calibrated write-noise sigma: {:.5} (targets raw BER 1e-3 at {DEFAULT_SCRUB_DAYS} days)\n\n\
         (a) raw BER over the scrub window:\n{}\
         (the optimised substrate equalises start-of-life and scrub-time error\n\
         rates; the naive one explodes as resistance drifts — Guo et al.'s\n\
         non-uniform level partitioning, paper §2.2)\n\n\
         (b) physical cell-array validation at the scrub interval:\n\
         \x20 stored {bits} bits in {cells} cells (3 bits/cell, Gray-coded)\n\
         \x20 measured BER {measured:.2e} vs analytic {analytic:.2e} (paper premise: 1e-3)\n\n\
         (c) level placement (write targets, normalised resistance):\n\
         \x20 optimised: [{}]\n\
         \x20 naive:     [{}]\n\n\
         == partitioned vs uniform EC overhead, per error channel ==\n\
         (ladder [None, BCH-6, BCH-10] over thresholds [4, 64] vs uniform t=16;\n\
         \x20each substrate realizes strength t with its own code)\n\n{}\n\
         (uniform ov% is the substrate's precise strength-16 realization —\n\
         BCH parity for i.i.d. MLC, Reed-Solomon parity for burst/video;\n\
         EC cut is the fraction of that overhead the partition eliminates)\n",
        tuned.config().sigma,
        table(&[10, 14, 14], &["t (days)|optimised|naive"], &drift),
        centers[0],
        centers[1],
        table(
            &[8, 10, 13, 13, 9, 11],
            &["channel|raw BER|uniform ov%|partit. ov%|EC cut|worst dPSNR"],
            &channels
        ),
    )
}
