//! The end-to-end approximate video store: split → protect → store on an
//! error substrate → corrupt → correct → merge → decode → measure.
//!
//! The error channel is pluggable: a [`StoragePolicy`] carries an
//! `Arc<dyn Substrate>` (see [`vapp_storage::channel`]) and `store_load`
//! hands each protection stream to it with the level's ladder strength
//! `t` and a derived sub-seed. The paper's MLC PCM channel
//! (`mlc_pcm(1e-3)`) reproduces the pre-trait behaviour bit for bit; the
//! burst-erasure and data-in-video substrates rerun the same pipeline
//! under bursty and content-dependent damage.
//!
//! On the i.i.d. channels, storage simulation runs per protection stream
//! in 512-bit blocks with two simulators: `exact` drives the real BCH
//! encoder/decoder (used in tests and small runs), while the analytic
//! simulator draws block failures from the binomial-tail failure rate —
//! statistically equivalent and faster: the committed `BENCH_pipeline.json`
//! records medians of 13.4 vs 41.2 µs per `store_load` (3×), and reruns of
//! that bench on a 2-vCPU VM read 9–14 vs 32–40 µs (3–4×). That matters at
//! 30 Monte Carlo trials per data point (§6.4).

use crate::assignment::{Assignment, EcScheme};
use crate::pivots::PivotTable;
use crate::streams::{merge_streams, split_streams};
use std::ops::Range;
use std::sync::Arc;
use vapp_codec::{bitstream, decode, EncodedVideo};
use vapp_media::Video;
use vapp_metrics::{prob_any_flip, video_psnr};
use vapp_rand::rngs::StdRng;
use vapp_rand::RngExt;
use vapp_sim::{derive_subseeds, pick_positions_forced};
use vapp_storage::channel::{mlc_pcm, Substrate};
use vapp_storage::density;

/// How and where the payload is stored: the protection ladder plus the
/// error [`Substrate`] underneath it.
#[derive(Clone, Debug)]
pub struct StoragePolicy {
    /// Scheme per pivot level (weakest first). Each substrate realizes
    /// a scheme's strength `t` with its own code (BCH for i.i.d. MLC,
    /// interleaved Reed–Solomon for bursty channels).
    pub ladder_levels: Vec<EcScheme>,
    /// Importance thresholds between levels (for pivot construction).
    pub thresholds: Vec<f64>,
    /// The error channel the streams are stored on.
    pub substrate: Arc<dyn Substrate>,
    /// Use the exact block machinery instead of an analytic model where
    /// the substrate offers both (the MLC i.i.d. channel does).
    pub exact_bch: bool,
}

impl PartialEq for StoragePolicy {
    fn eq(&self, other: &Self) -> bool {
        // Substrates compare by identity surface: trait objects carry no
        // structural equality, and (name, raw BER, density) pins every
        // substrate the workspace constructs.
        self.ladder_levels == other.ladder_levels
            && self.thresholds == other.thresholds
            && self.exact_bch == other.exact_bch
            && self.substrate.name() == other.substrate.name()
            && self.substrate.raw_ber() == other.substrate.raw_ber()
            && self.substrate.bits_per_cell() == other.substrate.bits_per_cell()
    }
}

impl StoragePolicy {
    /// Builds the policy implied by a §7.2 assignment.
    pub fn from_assignment(a: &Assignment, substrate: Arc<dyn Substrate>) -> Self {
        let (thresholds, ladder_levels) = a.thresholds();
        StoragePolicy {
            ladder_levels,
            thresholds,
            substrate,
            exact_bch: true,
        }
    }

    /// The paper's configuration: a §7.2 assignment on MLC PCM at
    /// `raw_ber` (1e-3 at the 3-month scrub interval).
    pub fn from_assignment_mlc(a: &Assignment, raw_ber: f64) -> Self {
        StoragePolicy::from_assignment(a, mlc_pcm(raw_ber))
    }

    /// Uniform protection: every payload bit gets `scheme` (the paper's
    /// baseline design in Fig. 11).
    pub fn uniform(scheme: EcScheme, substrate: Arc<dyn Substrate>) -> Self {
        StoragePolicy {
            ladder_levels: vec![scheme],
            thresholds: Vec::new(),
            substrate,
            exact_bch: true,
        }
    }

    /// Scheme for a pivot level index.
    pub fn scheme_for_level(&self, level: usize) -> EcScheme {
        self.ladder_levels[level.min(self.ladder_levels.len() - 1)]
    }
}

/// Names of the four per-level observability counters, precomputed once
/// per store so `store_load` does not allocate format strings per call.
#[derive(Clone, Debug)]
struct LevelCounterNames {
    stored_bits: String,
    flips: String,
    corrected: String,
    uncorrectable: String,
}

impl LevelCounterNames {
    fn new(level: usize) -> Self {
        LevelCounterNames {
            stored_bits: format!("core.level.{level}.stored_bits"),
            flips: format!("core.level.{level}.flips"),
            corrected: format!("core.level.{level}.corrected"),
            uncorrectable: format!("core.level.{level}.uncorrectable"),
        }
    }
}

/// The approximate store.
#[derive(Clone, Debug)]
pub struct ApproxStore {
    policy: StoragePolicy,
    /// One entry per ladder level (extra pivot levels fall back to an
    /// on-the-spot build in `store_load`, a cold path).
    level_names: Vec<LevelCounterNames>,
}

impl ApproxStore {
    /// Creates a store with a policy.
    ///
    /// # Panics
    ///
    /// Panics if the policy has no levels or an invalid error rate.
    pub fn new(policy: StoragePolicy) -> Self {
        assert!(!policy.ladder_levels.is_empty(), "policy needs levels");
        let level_names = (0..policy.ladder_levels.len())
            .map(LevelCounterNames::new)
            .collect();
        ApproxStore {
            policy,
            level_names,
        }
    }

    /// The policy in use.
    pub fn policy(&self) -> &StoragePolicy {
        &self.policy
    }

    /// Simulates one store/load round trip: returns the (possibly
    /// corrupted) stream a reader would decode. Headers and pivots are
    /// precise by construction and pass through untouched (§4.4).
    pub fn store_load(
        &self,
        stream: &EncodedVideo,
        table: &PivotTable,
        rng: &mut StdRng,
    ) -> EncodedVideo {
        let substrate = &self.policy.substrate;
        let raw_ber = substrate.raw_ber();
        let exact_bch = self.policy.exact_bch;
        let _span = vapp_obs::span!("core.store.load", raw_ber, exact_bch);
        let mut streams = split_streams(stream, table);
        // One sub-seed per protection level, derived up front from a
        // single master draw: each level's corruption is a pure function
        // of `(master, level)`, independent of the other levels. The
        // substrate contract (see `vapp_storage::channel`) extends the
        // same rule inside each level.
        let master = rng.random::<u64>();
        let level_seeds = derive_subseeds(master, streams.level_data.len());
        let reg = vapp_obs::current();
        for (level, data) in streams.level_data.iter_mut().enumerate() {
            let scheme = self.policy.scheme_for_level(level);
            let bits = streams.level_bits[level];
            let st = {
                let _lvl_span = vapp_obs::span!("core.level.corrupt", level, scheme, bits);
                substrate.corrupt_stream(data, bits, scheme.t(), exact_bch, level_seeds[level])
            };
            let extra; // fallback for pivot levels beyond the ladder
            let names = match self.level_names.get(level) {
                Some(n) => n,
                None => {
                    extra = LevelCounterNames::new(level);
                    &extra
                }
            };
            reg.counter(&names.stored_bits).add(bits);
            reg.counter(&names.flips).add(st.flips);
            reg.counter(&names.corrected).add(st.corrected);
            reg.counter(&names.uncorrectable).add(st.uncorrectable);
            vapp_obs::counter!("core.flips.injected", st.flips);
        }
        merge_streams(stream, table, &streams)
    }

    /// Storage accounting for Fig. 11 and the headline numbers, on this
    /// policy's substrate: its density (`bits_per_cell`) and its per-`t`
    /// realization overhead (BCH parity for MLC, RS parity for bursty
    /// channels) replace the old hardwired 3-bit/cell BCH math. The SLC
    /// baseline stays 1 bit/cell with no correction by definition.
    pub fn report(&self, stream: &EncodedVideo, table: &PivotTable, pixels: u64) -> PipelineReport {
        let substrate = &self.policy.substrate;
        let bpc = substrate.bits_per_cell();
        let level_bits = table.level_bits();
        let level_schemes: Vec<EcScheme> = (0..level_bits.len())
            .map(|l| self.policy.scheme_for_level(l))
            .collect();
        let payload_bits: u64 = level_bits.iter().sum();
        let header_bits = stream.header_bits();
        let pivot_bits = table.bookkeeping_bits();
        let precise_overhead = substrate.overhead(EcScheme::PRECISE.t());

        let payload_cells: f64 = level_bits
            .iter()
            .zip(&level_schemes)
            .map(|(&b, s)| density::cells_for(b, substrate.overhead(s.t()), bpc))
            .sum();
        let meta_cells = density::cells_for(header_bits + pivot_bits, precise_overhead, bpc);
        let total_cells_mlc = payload_cells + meta_cells;

        // The density baseline is precise SLC (paper §7.3): 1 bit/cell,
        // no error correction.
        let all_bits = payload_bits + header_bits;
        let cells_slc = density::cells_for(all_bits, 0.0, 1);
        let cells_ideal = density::cells_for(all_bits, 0.0, bpc);
        let cells_uniform = density::cells_for(payload_bits, precise_overhead, bpc)
            + density::cells_for(header_bits, precise_overhead, bpc);

        let avg_payload_overhead = if payload_bits == 0 {
            0.0
        } else {
            level_bits
                .iter()
                .zip(&level_schemes)
                .map(|(&b, s)| substrate.overhead(s.t()) * b as f64)
                .sum::<f64>()
                / payload_bits as f64
        };

        PipelineReport {
            pixels,
            payload_bits,
            header_bits,
            pivot_bits,
            level_bits,
            level_schemes,
            avg_payload_overhead,
            precise_overhead,
            total_cells_mlc,
            cells_slc,
            cells_ideal,
            cells_uniform,
        }
    }
}

/// Density/overhead accounting for one stored video (Fig. 11 inputs).
#[derive(Clone, Debug, PartialEq)]
pub struct PipelineReport {
    /// Raw pixel count of the video.
    pub pixels: u64,
    /// Approximable payload bits.
    pub payload_bits: u64,
    /// Precise header bits (stream + frame headers).
    pub header_bits: u64,
    /// Precise pivot bookkeeping bits.
    pub pivot_bits: u64,
    /// Payload bits per protection level.
    pub level_bits: Vec<u64>,
    /// Scheme per protection level.
    pub level_schemes: Vec<EcScheme>,
    /// Bit-weighted average payload ECC overhead.
    pub avg_payload_overhead: f64,
    /// Overhead of the substrate's precise (strength-16) realization —
    /// the uniform-protection baseline the reduction is measured against.
    pub precise_overhead: f64,
    /// Cells used by this (variable-correction) design.
    pub total_cells_mlc: f64,
    /// Cells used by the SLC baseline (1 bit/cell, no ECC).
    pub cells_slc: f64,
    /// Cells used by an ideal error-free 3-bit/cell design.
    pub cells_ideal: f64,
    /// Cells used by uniform BCH-16 on the same MLC substrate.
    pub cells_uniform: f64,
}

impl PipelineReport {
    /// Fig. 11's x-axis: storage cells per encoded pixel.
    pub fn cells_per_pixel(&self) -> f64 {
        density::cells_per_pixel(self.total_cells_mlc, self.pixels)
    }

    /// Density relative to the SLC design (the paper reports 2.57x).
    pub fn density_vs_slc(&self) -> f64 {
        density::relative_density(self.total_cells_mlc, self.cells_slc)
    }

    /// Storage saved relative to uniformly corrected MLC (paper: 12.5%).
    pub fn savings_vs_uniform(&self) -> f64 {
        1.0 - self.total_cells_mlc / self.cells_uniform
    }

    /// Fraction of the error-correction overhead eliminated (paper: 47%)
    /// relative to uniform precise protection *on the same substrate*.
    pub fn ec_overhead_reduction(&self) -> f64 {
        density::overhead_reduction(self.precise_overhead, self.avg_payload_overhead)
    }

    /// Serializes the report as a JSON object (the `vapp --report-json`
    /// payload). Schemes are rendered as their `Debug` strings (e.g.
    /// `"Bch(6)"`); derived ratios are included so downstream tooling
    /// does not re-implement the density arithmetic.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        use vapp_obs::json::{escape, fmt_f64};
        let mut s = String::from("{");
        let _ = write!(
            s,
            "\"pixels\":{},\"payload_bits\":{},\"header_bits\":{},\"pivot_bits\":{},",
            self.pixels, self.payload_bits, self.header_bits, self.pivot_bits
        );
        let _ = write!(
            s,
            "\"level_bits\":[{}],",
            self.level_bits
                .iter()
                .map(|b| b.to_string())
                .collect::<Vec<_>>()
                .join(",")
        );
        let _ = write!(
            s,
            "\"level_schemes\":[{}],",
            self.level_schemes
                .iter()
                .map(|sc| format!("\"{}\"", escape(&format!("{sc:?}"))))
                .collect::<Vec<_>>()
                .join(",")
        );
        for (key, v) in [
            ("avg_payload_overhead", self.avg_payload_overhead),
            ("precise_overhead", self.precise_overhead),
            ("total_cells_mlc", self.total_cells_mlc),
            ("cells_slc", self.cells_slc),
            ("cells_ideal", self.cells_ideal),
            ("cells_uniform", self.cells_uniform),
            ("cells_per_pixel", self.cells_per_pixel()),
            ("density_vs_slc", self.density_vs_slc()),
            ("savings_vs_uniform", self.savings_vs_uniform()),
            ("ec_overhead_reduction", self.ec_overhead_reduction()),
        ] {
            let _ = write!(s, "\"{key}\":{},", fmt_f64(v));
        }
        s.pop(); // trailing comma
        s.push('}');
        s
    }
}

/// Flips payload bits of a stream at *global* payload positions (the
/// address space of [`crate::classes::payload_layout`]). Positions at or
/// past the total payload size are an explicit no-op — they belong to no
/// frame, and clamping them onto the last frame would flip past its
/// payload.
pub fn flip_global_bits(stream: &mut EncodedVideo, positions: &[u64]) {
    let mut bases = Vec::with_capacity(stream.frames.len() + 1);
    let mut acc = 0u64;
    for f in &stream.frames {
        bases.push(acc);
        acc += f.payload_bits();
    }
    bases.push(acc);
    for &pos in positions {
        if pos >= acc {
            continue;
        }
        // Last frame whose base is <= pos; `partition_point` (unlike
        // `binary_search` on duplicate bases from zero-payload frames)
        // always lands on the frame that actually owns the bit.
        let frame = bases.partition_point(|&b| b <= pos) - 1;
        bitstream::flip_bit(&mut stream.frames[frame].payload, pos - bases[frame]);
    }
}

/// Measures a cumulative quality-loss curve (Fig. 9a / Fig. 10a style):
/// injects errors at each rate into `ranges` (global payload bit space),
/// decodes, and records the worst quality change across trials —
/// `PSNR(original, damaged) − PSNR(original, error-free)`, the paper's
/// "quality change (dB)" — applying the §6.4 forced-flip scaling at very
/// low rates.
pub fn measure_loss_curve(
    stream: &EncodedVideo,
    original: &Video,
    ranges: &[Range<u64>],
    rates: &[f64],
    trials: vapp_sim::Trials,
) -> crate::assignment::LossCurve {
    let n_rates = rates.len();
    let _span = vapp_obs::span!("core.loss.curve", n_rates);
    let error_free = decode(stream);
    let baseline = video_psnr(original, &error_free);
    let mut points = Vec::with_capacity(rates.len());
    let total_bits = vapp_sim::total_bits(ranges);
    for &rate in rates {
        let losses = trials.run(|_, rng| {
            let draw = pick_positions_forced(ranges, rate, rng);
            if draw.positions.is_empty() {
                return 0.0;
            }
            let mut dirty = stream.clone();
            flip_global_bits(&mut dirty, &draw.positions);
            let decoded = decode(&dirty);
            let delta = (video_psnr(original, &decoded) - baseline).min(0.0);
            if draw.forced {
                delta * prob_any_flip(total_bits, rate)
            } else {
                delta
            }
        });
        let worst = losses.iter().copied().fold(0.0f64, f64::min);
        points.push((rate, worst));
    }
    crate::assignment::LossCurve::new(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DependencyGraph;
    use crate::importance::ImportanceMap;
    use vapp_codec::{Encoder, EncoderConfig};
    use vapp_rand::SeedableRng;
    use vapp_workloads::{ClipSpec, SceneKind};

    fn setup() -> (EncodedVideo, Video, PivotTable) {
        let video = ClipSpec::new(64, 48, 6, SceneKind::MovingBlocks)
            .seed(11)
            .generate();
        let result = Encoder::new(EncoderConfig {
            keyint: 3,
            bframes: 1,
            ..Default::default()
        })
        .encode(&video);
        let imp = ImportanceMap::compute(&DependencyGraph::from_analysis(&result.analysis));
        let table = PivotTable::build(&result.analysis, &imp, &[8.0, 64.0]);
        (result.stream, result.reconstruction, table)
    }

    #[test]
    fn precise_policy_is_lossless_in_practice() {
        let (stream, recon, table) = setup();
        let policy = StoragePolicy {
            ladder_levels: vec![EcScheme::Bch(16); 3],
            thresholds: vec![8.0, 64.0],
            substrate: mlc_pcm(1e-3),
            exact_bch: false,
        };
        let store = ApproxStore::new(policy);
        let mut rng = StdRng::seed_from_u64(3);
        let loaded = store.store_load(&stream, &table, &mut rng);
        // Block failure at 1e-17.8: zero failures, stream byte-identical.
        assert_eq!(loaded, stream);
        assert_eq!(decode(&loaded), recon);
    }

    #[test]
    fn unprotected_policy_corrupts_and_still_decodes() {
        let (stream, recon, table) = setup();
        let store = ApproxStore::new(StoragePolicy::uniform(EcScheme::None, mlc_pcm(1e-2)));
        let mut rng = StdRng::seed_from_u64(4);
        let loaded = store.store_load(&stream, &table, &mut rng);
        assert_ne!(loaded, stream, "1e-2 over thousands of bits must flip");
        let decoded = decode(&loaded);
        assert_eq!(decoded.len(), recon.len());
        assert!(video_psnr(&recon, &decoded) < vapp_metrics::PSNR_CAP);
    }

    #[test]
    fn exact_bch_agrees_with_analytic_at_extremes() {
        let (stream, _, table) = setup();
        // At a raw BER so high BCH-6 almost always fails, both simulators
        // corrupt; at raw 0 both are clean.
        for &(raw, expect_dirty) in &[(0.0f64, false), (0.08, true)] {
            for exact in [false, true] {
                let mut policy = StoragePolicy::uniform(EcScheme::Bch(6), mlc_pcm(raw));
                policy.exact_bch = exact;
                let store = ApproxStore::new(policy);
                let mut rng = StdRng::seed_from_u64(5);
                let loaded = store.store_load(&stream, &table, &mut rng);
                assert_eq!(loaded != stream, expect_dirty, "raw {raw} exact {exact}");
            }
        }
    }

    #[test]
    fn report_arithmetic_is_consistent() {
        let (stream, _, table) = setup();
        let policy = StoragePolicy {
            ladder_levels: vec![EcScheme::None, EcScheme::Bch(6), EcScheme::Bch(10)],
            thresholds: vec![8.0, 64.0],
            substrate: mlc_pcm(1e-3),
            exact_bch: false,
        };
        let store = ApproxStore::new(policy);
        let report = store.report(&stream, &table, 64 * 48 * 6);
        assert_eq!(report.payload_bits, stream.payload_bits());
        assert!(report.avg_payload_overhead > 0.0);
        assert!(report.avg_payload_overhead < EcScheme::Bch(16).overhead());
        assert!(report.total_cells_mlc < report.cells_uniform);
        assert!(report.total_cells_mlc > report.cells_ideal);
        assert!(report.density_vs_slc() > 2.0);
        assert!(report.ec_overhead_reduction() > 0.0);
        assert!(report.savings_vs_uniform() > 0.0);
        assert!(report.cells_per_pixel() > 0.0);
    }

    #[test]
    fn flip_global_bits_lands_in_the_right_frame() {
        let (stream, _, _) = setup();
        let mut dirty = stream.clone();
        let base1 = stream.payload_base_bits(1);
        flip_global_bits(&mut dirty, &[base1]); // first bit of frame 1
        assert_eq!(dirty.frames[0].payload, stream.frames[0].payload);
        assert_ne!(dirty.frames[1].payload, stream.frames[1].payload);
    }

    #[test]
    fn flip_global_bits_ignores_out_of_range_positions() {
        let (stream, _, _) = setup();
        let total = stream.payload_bits();
        let mut dirty = stream.clone();
        // One position exactly at the end of the payload space, one past
        // it: both must be no-ops (the old clamp flipped bits past the
        // last frame's payload).
        flip_global_bits(&mut dirty, &[total, total + 17, u64::MAX]);
        assert_eq!(dirty, stream);
        // In-range positions still land, alongside out-of-range ones.
        flip_global_bits(&mut dirty, &[total - 1, total]);
        assert_ne!(dirty, stream);
    }

    #[test]
    fn loss_curve_is_monotone_in_rate() {
        let (stream, recon, _) = setup();
        let error_free = decode(&stream);
        assert_eq!(error_free, recon);
        let total = stream.payload_bits();
        // Use the reconstruction as the "original" — the baseline is then
        // the PSNR cap, and damage pushes it down.
        let curve = measure_loss_curve(
            &stream,
            &recon,
            &[0..total],
            &[1e-5, 1e-3, 1e-2],
            vapp_sim::Trials::new(3, 77),
        );
        let l_low = curve.loss_at(1e-5);
        let l_high = curve.loss_at(1e-2);
        assert!(l_high <= l_low, "low {l_low} high {l_high}");
        assert!(l_high < 0.0, "1e-2 must hurt");
    }
}
