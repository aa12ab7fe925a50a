//! The closed-loop encoder.
//!
//! Implements the two-stage pipeline of paper §2.3.2 — pixel-level
//! prediction/compensation, then coding (transform, quantisation,
//! predictive metadata coding, entropy coding) — plus GOP planning (I/P/B),
//! slices, a CRF-like motion-adaptive quantiser, and dependency recording.
//!
//! The **macroblock syntax** written here must match [`crate::decoder`]
//! symbol for symbol:
//!
//! ```text
//! [P/B] skip flag                      (Element::Skip, inc = non-skip neighbours)
//! [P/B] intra flag                     (Element::Intra, inc = intra neighbours)
//! intra:  mode                         (Element::IntraMode)
//! inter:  partition shape              (Element::PartShape)
//!         [P8x8] 4 sub-shapes          (Element::SubShape)
//!         per block:
//!           [B] prediction direction   (Element::PredDir)
//!           per used direction: mvd x, y (Element::MvdX/MvdY, inc = neighbour MVD class)
//! qp delta                             (Element::QpDelta)
//! 4 cbp flags (8x8 quadrants)          (Element::Cbp, inc = quadrant)
//! per coded quadrant, per 4x4:
//!   coded flag                         (Element::Blk4, inc = sub-index)
//!   if coded: significance/level/last map (Element::Sig/Level/Last)
//! ```

use crate::analysis::{AnalysisRecord, Dependency, FrameAnalysis, MbAnalysis};
use crate::entropy::{CabacWriter, CavlcWriter, Element, EntropyMode, SymbolWriter};
use crate::inter::{
    bi_average_into, mc_block_sub_into, ref_rect, sad_against_bounded, search_sub_stats,
    SearchResult, SearchStats, MAX_BLOCK_PIXELS,
};
use crate::intra::{intra_sources, predict_intra16, predict_intra4, Intra4Avail, IntraAvail};
use crate::quant::{dequant_inverse, forward_quant, to_zigzag, MAX_QP};
use crate::syntax::{EncodedFrame, EncodedVideo, FrameHeader, StreamHeader};
use crate::transform::Block4x4;
use crate::types::{
    predict_mv, BlockGeom, FrameType, Intra4Mode, IntraMode, MotionVector, PartShape,
    PartitionLayout, PredDir, SubShape,
};
use vapp_media::{Frame, MbGrid, Plane, Video, MB_SIZE};

/// Encoder configuration.
///
/// Defaults mirror the paper's "standard quality" setting (§6.3):
/// CRF 24, one slice per frame, CABAC, an I frame every 48 display frames
/// and two B frames between anchors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EncoderConfig {
    /// Constant-rate-factor quality target, 0–51 (lower = better). Maps to
    /// the base QP; frame types apply offsets (I: −2, B: +2) and fast
    /// motion adds +2 per macroblock when `adaptive_qp` is on.
    pub crf: u8,
    /// I-frame interval in display frames (≥ 1).
    pub keyint: u16,
    /// Number of B frames between anchors (0–3).
    pub bframes: u8,
    /// Slices per frame (≥ 1). Slices bound coding-error propagation at
    /// extra storage cost (paper §8).
    pub slices: u8,
    /// Entropy coder.
    pub entropy: EntropyMode,
    /// Motion search range in pixels (±).
    pub search_range: i16,
    /// Motion-adaptive per-macroblock QP (the CRF-style behaviour of §6.3).
    pub adaptive_qp: bool,
    /// In-loop deblocking filter on the reconstruction (applied after
    /// each frame, before it is referenced — H.264 semantics).
    pub deblock: bool,
    /// Half-pel motion compensation (bilinear interpolation, ±1 half-pel
    /// refinement after the full-pel search). Motion vectors are stored
    /// and coded in half-pel units when enabled.
    pub subpel: bool,
    /// Approximability-aware mode decision (the paper's §8 open question):
    /// biases the encoder toward skips and away from intra macroblocks in
    /// predicted frames, polarising the stream into important and
    /// unimportant bits at some rate/quality cost.
    pub approx_bias: bool,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        EncoderConfig {
            crf: 24,
            keyint: 48,
            bframes: 2,
            slices: 1,
            entropy: EntropyMode::Cabac,
            search_range: 8,
            adaptive_qp: true,
            deblock: true,
            subpel: true,
            approx_bias: false,
        }
    }
}

impl EncoderConfig {
    /// Checks every field against its documented range.
    ///
    /// # Errors
    ///
    /// Returns the first violated range as a message (the same text
    /// [`Encoder::new`] panics with).
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.crf > MAX_QP {
            Err("crf must be 0..=51")
        } else if self.keyint < 1 {
            Err("keyint must be >= 1")
        } else if self.bframes > 3 {
            Err("at most 3 B frames between anchors")
        } else if self.slices < 1 {
            Err("at least one slice per frame")
        } else if !(1..=64).contains(&self.search_range) {
            Err("search range must be 1..=64")
        } else {
            Ok(())
        }
    }
}

/// Everything the encoder produces.
#[derive(Clone, Debug)]
pub struct EncodeResult {
    /// The coded stream (headers + entropy payloads), coding order.
    pub stream: EncodedVideo,
    /// Dependency/bit-span records, coding order.
    pub analysis: AnalysisRecord,
    /// The encoder's own reconstruction in display order — identical to
    /// what a decoder produces from an undamaged stream.
    pub reconstruction: Video,
}

/// The H.264-style encoder.
#[derive(Clone, Debug, Default)]
pub struct Encoder {
    cfg: EncoderConfig,
}

impl Encoder {
    /// Creates an encoder with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`EncoderConfig::validate`]).
    pub fn new(cfg: EncoderConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        Encoder { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &EncoderConfig {
        &self.cfg
    }

    /// Encodes a raw video.
    ///
    /// # Panics
    ///
    /// Panics if `video` is empty.
    pub fn encode(&self, video: &Video) -> EncodeResult {
        assert!(!video.is_empty(), "cannot encode an empty video");
        let frames_total = video.len();
        let _video_span = vapp_obs::span!("codec.video.encode", frames_total);
        let plans = plan_gop(
            video.len(),
            self.cfg.keyint as usize,
            self.cfg.bframes as usize,
        );
        let grid = MbGrid::for_frame(video.width(), video.height());
        let padded: Vec<Plane> =
            vapp_par::par_map(video.iter().collect(), |_, f| pad_to_mb(f.plane()));

        let mut dpb: Vec<Option<Plane>> = vec![None; plans.len()];
        let mut frames = Vec::with_capacity(plans.len());
        let mut analyses = Vec::with_capacity(plans.len());
        let mut recon_display: Vec<Option<Frame>> = vec![None; video.len()];

        // Frames encode in coding order, but a run of consecutive B frames
        // only reads anchors already in the DPB (closed GOPs; B frames are
        // never references), so each run encodes as one parallel wave.
        // Anchors encode alone; their per-macroblock candidate pass
        // parallelises inside `encode_frame` instead. Each frame's output
        // is a pure function of its sources and references, so the stream
        // is byte-identical at any worker count.
        let mut next = 0;
        while next < plans.len() {
            let wave_end = if plans[next].frame_type == FrameType::B {
                plans[next..]
                    .iter()
                    .position(|p| p.frame_type != FrameType::B)
                    .map_or(plans.len(), |off| next + off)
            } else {
                next + 1
            };
            let outs = vapp_par::par_map(plans[next..wave_end].iter().collect(), |_, plan| {
                let cur = &padded[plan.display];
                let ref_fwd = plan
                    .ref_fwd
                    .map(|ci| dpb[ci].as_ref().expect("fwd ref coded"));
                let ref_bwd = plan
                    .ref_bwd
                    .map(|ci| dpb[ci].as_ref().expect("bwd ref coded"));
                let fctx = FrameCtx {
                    cfg: &self.cfg,
                    grid: &grid,
                    plan,
                    cur,
                    ref_fwd,
                    ref_bwd,
                };
                let coding = plan.coding;
                let frame_type = plan.frame_type;
                let _frame_span = vapp_obs::span!("codec.frame.encode", coding, frame_type);
                let mut out = match self.cfg.entropy {
                    EntropyMode::Cabac => encode_frame(&fctx, CabacWriter::new),
                    EntropyMode::Cavlc => encode_frame(&fctx, CavlcWriter::new),
                };
                if self.cfg.deblock {
                    crate::deblock::deblock_plane(&mut out.recon, frame_qp(&self.cfg, frame_type));
                }
                out
            });
            for (plan, out) in plans[next..wave_end].iter().zip(outs) {
                record_frame_metrics(&out);
                let header = FrameHeader {
                    coding_index: plan.coding as u32,
                    display_index: plan.display as u32,
                    frame_type: plan.frame_type,
                    qp: frame_qp(&self.cfg, plan.frame_type),
                    ref_fwd: plan.ref_fwd.map(|v| v as u32),
                    ref_bwd: plan.ref_bwd.map(|v| v as u32),
                    slice_lens: out.slice_lens,
                };
                let mut analysis = out.analysis;
                analysis.coding_index = plan.coding;
                analysis.display_index = plan.display;
                analysis.header_bits = header.bit_len();
                analyses.push(analysis);
                frames.push(EncodedFrame {
                    header,
                    payload: out.payload,
                });
                recon_display[plan.display] = Some(Frame::from_plane(crop(
                    &out.recon,
                    video.width(),
                    video.height(),
                )));
                dpb[plan.coding] = Some(out.recon);
            }
            next = wave_end;
        }

        let stream = EncodedVideo {
            header: StreamHeader {
                width: video.width() as u32,
                height: video.height() as u32,
                fps: video.fps(),
                frame_count: plans.len() as u32,
                entropy: self.cfg.entropy,
                slices: self.cfg.slices,
                subpel: self.cfg.subpel,
                deblock: self.cfg.deblock,
                crf: self.cfg.crf,
                keyint: self.cfg.keyint,
                bframes: self.cfg.bframes,
            },
            frames,
        };
        EncodeResult {
            stream,
            analysis: AnalysisRecord {
                grid,
                frames: analyses,
            },
            reconstruction: Video::from_frames(
                recon_display
                    .into_iter()
                    .map(|f| f.expect("all frames coded"))
                    .collect(),
                video.fps(),
            ),
        }
    }
}

/// Base QP for a frame type (I frames get finer quantisation, B coarser).
pub(crate) fn frame_qp(cfg: &EncoderConfig, ft: FrameType) -> u8 {
    let base = cfg.crf as i32;
    let qp = match ft {
        FrameType::I => base - 2,
        FrameType::P => base,
        FrameType::B => base + 2,
    };
    qp.clamp(0, MAX_QP as i32) as u8
}

/// Lagrangian multiplier for mode decisions (~0.85·2^((QP−12)/3)).
fn lambda(qp: u8) -> u64 {
    (0.85 * f64::powf(2.0, (qp as f64 - 12.0) / 3.0)).max(1.0) as u64
}

// ------------------------------------------------------------------ GOP --

/// One frame's coding plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct FramePlan {
    pub coding: usize,
    pub display: usize,
    pub frame_type: FrameType,
    pub ref_fwd: Option<usize>,
    pub ref_bwd: Option<usize>,
}

/// Plans the GOP: anchors (I at keyint boundaries, P otherwise) every
/// `bframes + 1` display frames, B frames in between, coding order =
/// anchor first then its preceding Bs.
pub(crate) fn plan_gop(n: usize, keyint: usize, bframes: usize) -> Vec<FramePlan> {
    assert!(n > 0 && keyint > 0);
    let mut plans = Vec::with_capacity(n);
    let mut coding = 0usize;
    let mut prev_anchor_ci = 0usize;
    let mut prev_anchor_display = 0usize;

    // First frame is always I.
    plans.push(FramePlan {
        coding,
        display: 0,
        frame_type: FrameType::I,
        ref_fwd: None,
        ref_bwd: None,
    });
    coding += 1;

    while prev_anchor_display + 1 < n {
        let mut next = (prev_anchor_display + bframes + 1).min(n - 1);
        // Force an anchor exactly on keyint boundaries.
        let next_key = (prev_anchor_display / keyint + 1) * keyint;
        if next_key <= next {
            next = next_key;
        }
        let ftype = if next.is_multiple_of(keyint) {
            FrameType::I
        } else {
            FrameType::P
        };
        let anchor_ci = coding;
        plans.push(FramePlan {
            coding,
            display: next,
            frame_type: ftype,
            ref_fwd: (ftype == FrameType::P).then_some(prev_anchor_ci),
            ref_bwd: None,
        });
        coding += 1;
        for d in prev_anchor_display + 1..next {
            plans.push(FramePlan {
                coding,
                display: d,
                frame_type: FrameType::B,
                ref_fwd: Some(prev_anchor_ci),
                // Closed GOPs: a B frame never references across an I
                // boundary, so the dependency components between I frames
                // stay independent (paper §4.3.1) and I frames fully stop
                // error propagation.
                ref_bwd: (ftype != FrameType::I).then_some(anchor_ci),
            });
            coding += 1;
        }
        prev_anchor_ci = anchor_ci;
        prev_anchor_display = next;
    }
    plans
}

// ------------------------------------------------------------- helpers --

/// Pads a plane with edge replication to macroblock multiples.
pub(crate) fn pad_to_mb(p: &Plane) -> Plane {
    let w = p.width().div_ceil(MB_SIZE) * MB_SIZE;
    let h = p.height().div_ceil(MB_SIZE) * MB_SIZE;
    if w == p.width() && h == p.height() {
        return p.clone();
    }
    let mut out = Plane::new(w, h);
    for y in 0..h {
        for x in 0..w {
            out.set(x, y, p.sample(x as isize, y as isize));
        }
    }
    out
}

/// Crops a padded plane back to display size.
pub(crate) fn crop(p: &Plane, w: usize, h: usize) -> Plane {
    if p.width() == w && p.height() == h {
        return p.clone();
    }
    let mut out = Plane::new(w, h);
    for y in 0..h {
        for x in 0..w {
            out.set(x, y, p.get(x, y));
        }
    }
    out
}

/// Per-macroblock state both codecs track for prediction and contexts.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct MbState {
    pub coded: bool,
    pub skip: bool,
    pub intra: bool,
    pub mv_fwd: Option<MotionVector>,
    pub mv_bwd: Option<MotionVector>,
    /// |mvd.x| + |mvd.y| of the first block (context modelling).
    pub mvd_mag: u32,
}

/// Neighbour lookup honouring slice boundaries (prediction and context
/// modelling never cross a slice, paper §8).
pub(crate) struct Neighbors {
    pub left: Option<usize>,
    pub above: Option<usize>,
    pub above_right: Option<usize>,
}

pub(crate) fn neighbors(grid: &MbGrid, mb: usize, slice_top_row: usize) -> Neighbors {
    let (col, row) = grid.mb_position(mb);
    let left = (col > 0).then(|| grid.mb_index(col - 1, row));
    let above = (row > slice_top_row).then(|| grid.mb_index(col, row - 1));
    let above_right =
        (row > slice_top_row && col + 1 < grid.mb_cols()).then(|| grid.mb_index(col + 1, row - 1));
    Neighbors {
        left,
        above,
        above_right,
    }
}

/// Context increment helpers shared with the decoder.
pub(crate) fn skip_ctx_inc(states: &[MbState], nb: &Neighbors) -> usize {
    let count = |i: Option<usize>| i.map_or(0, |i| (states[i].coded && !states[i].skip) as usize);
    count(nb.left) + count(nb.above)
}

pub(crate) fn intra_ctx_inc(states: &[MbState], nb: &Neighbors) -> usize {
    let count = |i: Option<usize>| i.map_or(0, |i| (states[i].coded && states[i].intra) as usize);
    count(nb.left) + count(nb.above)
}

pub(crate) fn mvd_ctx_inc(states: &[MbState], nb: &Neighbors) -> usize {
    let mag = |i: Option<usize>| i.map_or(0, |i| states[i].mvd_mag);
    let e = mag(nb.left) + mag(nb.above);
    if e < 3 {
        0
    } else if e < 32 {
        1
    } else {
        2
    }
}

/// Motion-vector predictor for the first block of a macroblock, per
/// direction (`fwd = true` for list 0).
pub(crate) fn mb_mv_pred(states: &[MbState], nb: &Neighbors, fwd: bool) -> MotionVector {
    let get = |i: Option<usize>| -> Option<MotionVector> {
        let s = &states[i?];
        if !s.coded || s.intra {
            return None;
        }
        Some(if fwd {
            s.mv_fwd.unwrap_or(MotionVector::ZERO)
        } else {
            s.mv_bwd.unwrap_or(MotionVector::ZERO)
        })
    };
    predict_mv(get(nb.left), get(nb.above), get(nb.above_right))
}

/// The rows of macroblocks covered by each slice: `slices` contiguous,
/// near-equal groups.
pub(crate) fn slice_rows(mb_rows: usize, slices: usize) -> Vec<(usize, usize)> {
    let slices = slices.clamp(1, mb_rows);
    let base = mb_rows / slices;
    let extra = mb_rows % slices;
    let mut out = Vec::with_capacity(slices);
    let mut row = 0;
    for s in 0..slices {
        let rows = base + usize::from(s < extra);
        out.push((row, row + rows));
        row += rows;
    }
    out
}

// ------------------------------------------------------ frame encoding --

struct FrameCtx<'a> {
    cfg: &'a EncoderConfig,
    grid: &'a MbGrid,
    plan: &'a FramePlan,
    cur: &'a Plane,
    ref_fwd: Option<&'a Plane>,
    ref_bwd: Option<&'a Plane>,
}

struct FrameOut {
    payload: Vec<u8>,
    slice_lens: Vec<u32>,
    recon: Plane,
    analysis: FrameAnalysis,
    /// Entropy-coder binary decisions across all slices (observability).
    bins: u64,
    /// SAD evaluations pruned by the running-best bound, summed over every
    /// search this frame actually consumed (observability). Candidate-pass
    /// searches count only when the mode decision uses their result, so the
    /// total is identical at any worker count.
    early_exits: u64,
}

/// Batches one coded frame's metrics into the observability registry:
/// macroblock mode mix, per-macroblock bit spans, payload size and
/// entropy-coder bin count. One registry lookup per metric per frame —
/// the per-macroblock work is plain atomic adds on hoisted handles.
fn record_frame_metrics(out: &FrameOut) {
    let reg = vapp_obs::current();
    let (mut intra, mut skip) = (0u64, 0u64);
    let mb_bits = reg.histogram("codec.mb.bits");
    for mb in &out.analysis.mbs {
        intra += mb.intra as u64;
        skip += mb.skip as u64;
        mb_bits.record(mb.bits());
    }
    let total = out.analysis.mbs.len() as u64;
    reg.counter("codec.mb.intra").add(intra);
    reg.counter("codec.mb.skip").add(skip);
    reg.counter("codec.mb.inter").add(total - intra - skip);
    reg.counter("codec.payload.bits")
        .add(out.payload.len() as u64 * 8);
    reg.counter("codec.arith.bins").add(out.bins);
    reg.counter("codec.sad.early_exit").add(out.early_exits);
}

/// The chosen coding mode for one macroblock.
enum MbMode {
    Skip {
        mv: MotionVector,
    },
    Intra {
        mode: IntraMode,
    },
    /// Intra 4x4: per-block modes are chosen during coding (they depend
    /// on the progressive reconstruction).
    Intra4,
    Inter {
        layout: PartitionLayout,
        blocks: Vec<InterBlock>,
    },
}

#[derive(Clone, Copy, Debug)]
struct InterBlock {
    dir: PredDir,
    mv_fwd: MotionVector,
    mv_bwd: MotionVector,
}

fn encode_frame<W, F>(ctx: &FrameCtx<'_>, new_writer: F) -> FrameOut
where
    W: SymbolWriter,
    F: Fn() -> W,
{
    let grid = ctx.grid;
    let mut recon = Plane::new(ctx.cur.width(), ctx.cur.height());
    let mut states = vec![MbState::default(); grid.mb_count()];
    let mut mbs = vec![MbAnalysis::default(); grid.mb_count()];
    let mut payload = Vec::new();
    let mut slice_lens = Vec::new();
    let mut slice_starts = Vec::new();
    let mut bins = 0u64;
    let base_qp = frame_qp(ctx.cfg, ctx.plan.frame_type);
    let slices = slice_rows(grid.mb_rows(), ctx.cfg.slices as usize);

    // Parallel candidate pass: every probe that reads only the source and
    // reference planes (adaptive QP, intra cost probes, the backward full
    // search) is computed for all macroblocks up front, leaving the
    // sequential pass below just the state-dependent work. The values are
    // exactly what the sequential pass would compute inline, so the coded
    // stream is bit-identical with or without workers.
    let mut slice_top = vec![0usize; grid.mb_rows()];
    for &(row_start, row_end) in &slices {
        slice_top[row_start..row_end].fill(row_start);
    }
    let with_bwd = ctx.ref_bwd.is_some() && vapp_par::would_parallelize();
    let cands = vapp_par::par_map((0..grid.mb_count()).collect(), |_, mb| {
        let (_, row) = grid.mb_position(mb);
        mb_candidates(ctx, mb, slice_top[row], base_qp, with_bwd)
    });

    let mut search_stats = SearchStats::default();
    for &(row_start, row_end) in &slices {
        let mut w = new_writer();
        let slice_base_bits = payload.len() as u64 * 8;
        slice_starts.push(grid.mb_index(0, row_start));
        let mut prev_qp = base_qp;
        for row in row_start..row_end {
            for col in 0..grid.mb_cols() {
                let mb = grid.mb_index(col, row);
                let bit_start = slice_base_bits + w.bit_pos();
                let (analysis_deps, intra, skip) = encode_mb(
                    ctx,
                    &mut w,
                    &mut recon,
                    &mut states,
                    mb,
                    row_start,
                    &cands[mb],
                    &mut prev_qp,
                    &mut search_stats,
                );
                mbs[mb] = MbAnalysis {
                    bit_start,
                    bit_end: slice_base_bits + w.bit_pos(),
                    deps: analysis_deps,
                    intra,
                    skip,
                };
            }
        }
        bins += w.bins_coded();
        let bytes = w.finish();
        // The flush bits belong to the last macroblock of the slice.
        if let Some(last_row) = (row_start..row_end).last() {
            let last_mb = grid.mb_index(grid.mb_cols() - 1, last_row);
            mbs[last_mb].bit_end = slice_base_bits + bytes.len() as u64 * 8;
        }
        slice_lens.push(bytes.len() as u32);
        payload.extend_from_slice(&bytes);
    }

    FrameOut {
        payload,
        slice_lens,
        recon,
        analysis: FrameAnalysis {
            coding_index: 0,
            display_index: 0,
            frame_type: ctx.plan.frame_type,
            header_bits: 0,
            mbs,
            slice_starts,
        },
        bins,
        early_exits: search_stats.early_exits,
    }
}

#[allow(clippy::too_many_arguments)]
fn encode_mb<W: SymbolWriter>(
    ctx: &FrameCtx<'_>,
    w: &mut W,
    recon: &mut Plane,
    states: &mut [MbState],
    mb: usize,
    slice_top_row: usize,
    cand: &MbCandidates,
    prev_qp: &mut u8,
    stats: &mut SearchStats,
) -> (Vec<Dependency>, bool, bool) {
    let grid = ctx.grid;
    let (col, row) = grid.mb_position(mb);
    let (mb_x, mb_y) = (col * MB_SIZE, row * MB_SIZE);
    let nb = neighbors(grid, mb, slice_top_row);
    let is_b = ctx.plan.frame_type == FrameType::B;
    let inter_allowed = ctx.ref_fwd.is_some();

    let mut cur_block = [0u8; 256];
    ctx.cur.copy_block(
        mb_x as isize,
        mb_y as isize,
        MB_SIZE,
        MB_SIZE,
        &mut cur_block,
    );

    // Per-MB QP comes from the candidate pass (CRF-like motion-adaptive
    // quantisation); only the MV prediction is state-dependent.
    let qp = cand.qp;
    let pred_fwd = mb_mv_pred(states, &nb, true);
    let lam = lambda(qp);

    // --- mode decision ---
    let mode = {
        let _search_span = vapp_obs::span!("codec.mb.search");
        decide_mode(ctx, mb_x, mb_y, &cur_block, cand, qp, lam, pred_fwd, stats)
    };

    // --- write syntax + reconstruct ---
    let avail = IntraAvail {
        left: nb.left.is_some(),
        top: nb.above.is_some(),
    };
    let mut deps = Vec::new();
    let (intra_flag, skip_flag);
    match mode {
        MbMode::Skip { mv } => {
            w.put_flag(Element::Skip, skip_ctx_inc(states, &nb), true);
            let mut pred = [0u8; MAX_BLOCK_PIXELS];
            mc_block_sub_into(
                ctx.ref_fwd.expect("skip needs a reference"),
                mb_x,
                mb_y,
                MB_SIZE,
                MB_SIZE,
                mv,
                ctx.cfg.subpel,
                &mut pred,
            );
            recon.store_block(mb_x, mb_y, MB_SIZE, MB_SIZE, &pred);
            push_mc_deps(
                &mut deps,
                grid,
                ctx.plan.ref_fwd.expect("skip ref"),
                mb_x,
                mb_y,
                MB_SIZE,
                MB_SIZE,
                mv,
                1.0,
                ctx.cfg.subpel,
            );
            states[mb] = MbState {
                coded: true,
                skip: true,
                intra: false,
                mv_fwd: Some(mv),
                mv_bwd: None,
                mvd_mag: 0,
            };
            intra_flag = false;
            skip_flag = true;
            return (deps, intra_flag, skip_flag);
        }
        MbMode::Intra { mode: im } => {
            if inter_allowed {
                w.put_flag(Element::Skip, skip_ctx_inc(states, &nb), false);
                w.put_flag(Element::Intra, intra_ctx_inc(states, &nb), true);
            }
            w.put_flag(Element::Intra4, 0, false);
            w.put_uint(Element::IntraMode, 0, im.to_index());
            let pred = predict_intra16(recon, mb_x, mb_y, avail, im);
            let frame_ci = ctx.plan.coding;
            for (src_mb, weight) in intra_sources(grid, mb, avail, im) {
                deps.push(Dependency {
                    frame: frame_ci,
                    mb: src_mb,
                    weight,
                });
            }
            code_residual_and_recon(w, recon, mb_x, mb_y, &cur_block, &pred, qp, true, prev_qp);
            states[mb] = MbState {
                coded: true,
                skip: false,
                intra: true,
                mv_fwd: None,
                mv_bwd: None,
                mvd_mag: 0,
            };
            intra_flag = true;
            skip_flag = false;
        }
        MbMode::Intra4 => {
            if inter_allowed {
                w.put_flag(Element::Skip, skip_ctx_inc(states, &nb), false);
                w.put_flag(Element::Intra, intra_ctx_inc(states, &nb), true);
            }
            w.put_flag(Element::Intra4, 0, true);
            let frame_ci = ctx.plan.coding;
            // Spatial dependencies: attributed like a DC intra16 MB (the
            // 4x4 chain ultimately draws on the same neighbour borders).
            for (src_mb, weight) in intra_sources(grid, mb, avail, IntraMode::Dc) {
                deps.push(Dependency {
                    frame: frame_ci,
                    mb: src_mb,
                    weight,
                });
            }
            code_intra4_mb(w, recon, ctx.cur, mb_x, mb_y, avail, qp, prev_qp);
            states[mb] = MbState {
                coded: true,
                skip: false,
                intra: true,
                mv_fwd: None,
                mv_bwd: None,
                mvd_mag: 0,
            };
            intra_flag = true;
            skip_flag = false;
        }
        MbMode::Inter { layout, blocks } => {
            w.put_flag(Element::Skip, skip_ctx_inc(states, &nb), false);
            w.put_flag(Element::Intra, intra_ctx_inc(states, &nb), false);
            w.put_uint(Element::PartShape, 0, layout.shape.to_index());
            if layout.shape == PartShape::P8x8 {
                for s in layout.subs {
                    w.put_uint(Element::SubShape, 0, s.to_index());
                }
            }
            let geoms = layout.blocks();
            let mvd_inc = mvd_ctx_inc(states, &nb);
            let mut prev_fwd: Option<MotionVector> = None;
            let mut prev_bwd: Option<MotionVector> = None;
            let mut first_mvd_mag = 0u32;
            let mut pred16 = [0u8; MAX_BLOCK_PIXELS];
            // Scratch buffers reused by every block of this macroblock: no
            // per-candidate Vec allocations in the compensation loop.
            let mut block_pred = [0u8; MAX_BLOCK_PIXELS];
            let mut bwd_pred = [0u8; MAX_BLOCK_PIXELS];
            for (i, (g, b)) in geoms.iter().zip(&blocks).enumerate() {
                if is_b {
                    w.put_uint(Element::PredDir, 0, b.dir.to_index());
                }
                let use_fwd = b.dir != PredDir::Backward;
                let use_bwd = is_b && b.dir != PredDir::Forward;
                if use_fwd {
                    let pred = prev_fwd.unwrap_or(pred_fwd);
                    let mvd = (b.mv_fwd.x - pred.x, b.mv_fwd.y - pred.y);
                    w.put_sint(Element::MvdX, mvd_inc, mvd.0 as i32);
                    w.put_sint(Element::MvdY, mvd_inc, mvd.1 as i32);
                    if i == 0 {
                        first_mvd_mag = mvd.0.unsigned_abs() as u32 + mvd.1.unsigned_abs() as u32;
                    }
                    prev_fwd = Some(b.mv_fwd);
                }
                if use_bwd {
                    let pred = prev_bwd.unwrap_or_else(|| mb_mv_pred(states, &nb, false));
                    let mvd = (b.mv_bwd.x - pred.x, b.mv_bwd.y - pred.y);
                    w.put_sint(Element::MvdX, mvd_inc, mvd.0 as i32);
                    w.put_sint(Element::MvdY, mvd_inc, mvd.1 as i32);
                    prev_bwd = Some(b.mv_bwd);
                }
                // Build the prediction and record dependencies.
                let bx = mb_x + g.dx;
                let by = mb_y + g.dy;
                let sp = ctx.cfg.subpel;
                let n = g.w * g.h;
                let bp = &mut block_pred[..n];
                match b.dir {
                    PredDir::Forward => {
                        push_mc_deps(
                            &mut deps,
                            grid,
                            ctx.plan.ref_fwd.expect("fwd ref"),
                            bx,
                            by,
                            g.w,
                            g.h,
                            b.mv_fwd,
                            area_frac(g.w, g.h),
                            sp,
                        );
                        mc_block_sub_into(
                            ctx.ref_fwd.expect("fwd ref"),
                            bx,
                            by,
                            g.w,
                            g.h,
                            b.mv_fwd,
                            sp,
                            bp,
                        );
                    }
                    PredDir::Backward => {
                        push_mc_deps(
                            &mut deps,
                            grid,
                            ctx.plan.ref_bwd.expect("bwd ref"),
                            bx,
                            by,
                            g.w,
                            g.h,
                            b.mv_bwd,
                            area_frac(g.w, g.h),
                            sp,
                        );
                        mc_block_sub_into(
                            ctx.ref_bwd.expect("bwd ref"),
                            bx,
                            by,
                            g.w,
                            g.h,
                            b.mv_bwd,
                            sp,
                            bp,
                        );
                    }
                    PredDir::Bi => {
                        push_mc_deps(
                            &mut deps,
                            grid,
                            ctx.plan.ref_fwd.expect("fwd ref"),
                            bx,
                            by,
                            g.w,
                            g.h,
                            b.mv_fwd,
                            area_frac(g.w, g.h) * 0.5,
                            sp,
                        );
                        push_mc_deps(
                            &mut deps,
                            grid,
                            ctx.plan.ref_bwd.expect("bwd ref"),
                            bx,
                            by,
                            g.w,
                            g.h,
                            b.mv_bwd,
                            area_frac(g.w, g.h) * 0.5,
                            sp,
                        );
                        let bw = &mut bwd_pred[..n];
                        mc_block_sub_into(
                            ctx.ref_bwd.expect("bwd ref"),
                            bx,
                            by,
                            g.w,
                            g.h,
                            b.mv_bwd,
                            sp,
                            bw,
                        );
                        let mut fwd = [0u8; MAX_BLOCK_PIXELS];
                        mc_block_sub_into(
                            ctx.ref_fwd.expect("fwd ref"),
                            bx,
                            by,
                            g.w,
                            g.h,
                            b.mv_fwd,
                            sp,
                            &mut fwd[..n],
                        );
                        bi_average_into(&fwd[..n], bw, bp);
                    }
                };
                for y in 0..g.h {
                    pred16[(g.dy + y) * MB_SIZE + g.dx..][..g.w]
                        .copy_from_slice(&bp[y * g.w..][..g.w]);
                }
            }
            code_residual_and_recon(
                w, recon, mb_x, mb_y, &cur_block, &pred16, qp, false, prev_qp,
            );
            let rep_fwd = blocks
                .iter()
                .find(|b| b.dir != PredDir::Backward)
                .map(|b| b.mv_fwd);
            let rep_bwd = blocks
                .iter()
                .find(|b| is_b && b.dir != PredDir::Forward)
                .map(|b| b.mv_bwd);
            states[mb] = MbState {
                coded: true,
                skip: false,
                intra: false,
                mv_fwd: rep_fwd,
                mv_bwd: rep_bwd,
                mvd_mag: first_mvd_mag,
            };
            intra_flag = false;
            skip_flag = false;
        }
    }
    (deps, intra_flag, skip_flag)
}

fn area_frac(w: usize, h: usize) -> f64 {
    (w * h) as f64 / 256.0
}

/// Records compensation dependencies for one motion-compensated block:
/// weight `scale` split across the source macroblocks by overlap pixels.
/// Half-pel vectors widen the referenced footprint by one pixel per
/// fractional axis; normalising by the rect's own area keeps the incoming
/// weights summing to `scale`.
#[allow(clippy::too_many_arguments)]
fn push_mc_deps(
    deps: &mut Vec<Dependency>,
    grid: &MbGrid,
    src_frame: usize,
    x: usize,
    y: usize,
    w: usize,
    h: usize,
    mv: MotionVector,
    scale: f64,
    subpel: bool,
) {
    let rect = ref_rect(x, y, w, h, mv, subpel);
    let total = rect.area() as f64;
    for o in grid.overlaps(rect) {
        deps.push(Dependency {
            frame: src_frame,
            mb: o.mb_index,
            weight: scale * o.pixels as f64 / total,
        });
    }
}

// ------------------------------------------------------- mode decision --

/// State-independent per-macroblock probes, computed from the source and
/// reference planes only — never from neighbouring macroblock decisions —
/// so a whole frame's worth computes in parallel before the sequential
/// syntax/reconstruction pass consumes them bit-identically.
struct MbCandidates {
    /// Per-MB QP after motion-adaptive quantisation.
    qp: u8,
    /// Best intra-16x16 probe: (mode, cost at this MB's λ).
    best_intra: (IntraMode, u64),
    /// Intra-4x4 probe cost at this MB's λ.
    intra4_cost: u64,
    /// Backward 16x16 full search (B frames), when precomputed. `None`
    /// means "compute lazily in `decide_mode`" — done when running
    /// single-threaded, where speculative search for macroblocks that end
    /// up skipped would be pure overhead.
    bwd_whole: Option<SearchResult>,
    /// Early-exit stats of the precomputed backward search. Merged into the
    /// frame totals only when `decide_mode` consumes `bwd_whole`, so the
    /// counters match the lazy single-threaded path exactly.
    bwd_stats: SearchStats,
}

fn mb_candidates(
    ctx: &FrameCtx<'_>,
    mb: usize,
    slice_top_row: usize,
    base_qp: u8,
    with_bwd: bool,
) -> MbCandidates {
    let grid = ctx.grid;
    let (col, row) = grid.mb_position(mb);
    let (mb_x, mb_y) = (col * MB_SIZE, row * MB_SIZE);
    let nb = neighbors(grid, mb, slice_top_row);
    let avail = IntraAvail {
        left: nb.left.is_some(),
        top: nb.above.is_some(),
    };
    let inter_allowed = ctx.ref_fwd.is_some();

    let mut cur_block = [0u8; 256];
    ctx.cur.copy_block(
        mb_x as isize,
        mb_y as isize,
        MB_SIZE,
        MB_SIZE,
        &mut cur_block,
    );

    // --- per-MB QP (CRF-like motion-adaptive quantisation) ---
    let mut qp = base_qp;
    if ctx.cfg.adaptive_qp && inter_allowed {
        // Only the threshold comparison matters, so the SAD can stop as
        // soon as it exceeds the activity cutoff (decision-identical).
        const ACTIVITY_CUTOFF: u64 = 12 * 256;
        let activity = ctx.cur.sad_bounded(
            mb_x,
            mb_y,
            MB_SIZE,
            MB_SIZE,
            ctx.ref_fwd.expect("inter_allowed"),
            mb_x as isize,
            mb_y as isize,
            ACTIVITY_CUTOFF,
        );
        if activity > ACTIVITY_CUTOFF {
            qp = (qp + 2).min(MAX_QP);
        }
    }
    let lam = lambda(qp);

    // Intra candidate (always available). The cost probe predicts from the
    // *source* plane — a standard encoder shortcut (the real prediction in
    // encode_mb uses the reconstruction); this only affects mode choice,
    // not correctness.
    let mut best_intra = (IntraMode::Dc, u64::MAX);
    for m in avail.legal_modes() {
        let pred = predict_intra16(ctx.cur, mb_x, mb_y, avail, m);
        let sad = vapp_media::kernels::sad_slices(&cur_block, &pred);
        let cost = sad + lam * if m == IntraMode::Dc { 4 } else { 6 };
        if cost < best_intra.1 {
            best_intra = (m, cost);
        }
    }
    // Intra 4x4 candidate: per-block best mode against source neighbours,
    // plus the signalling cost of 16 mode symbols.
    let intra4_cost = {
        let mut total = lam * 16 * 3;
        for blk in 0..16 {
            let bx = mb_x + (blk % 4) * 4;
            let by = mb_y + (blk / 4) * 4;
            let a4 = Intra4Avail {
                left: blk % 4 > 0 || avail.left,
                top: blk / 4 > 0 || avail.top,
            };
            let mut best = u64::MAX;
            for m in a4.legal_modes() {
                let pred = predict_intra4(ctx.cur, bx, by, a4, m);
                let mut sad = 0u64;
                for y in 0..4 {
                    let i = ((blk / 4) * 4 + y) * MB_SIZE + (blk % 4) * 4;
                    sad +=
                        vapp_media::kernels::sad_slices(&cur_block[i..i + 4], &pred[y * 4..][..4]);
                }
                best = best.min(sad);
            }
            total += best;
        }
        total
    };

    // Backward 16x16 full search: centered on the zero vector, so it
    // reads only the source and backward reference planes.
    let mut bwd_stats = SearchStats::default();
    let bwd_whole = if with_bwd {
        ctx.ref_bwd.map(|rb| {
            search_sub_stats(
                ctx.cur,
                rb,
                mb_x,
                mb_y,
                MB_SIZE,
                MB_SIZE,
                MotionVector::ZERO,
                ctx.cfg.search_range,
                ctx.cfg.subpel,
                &mut bwd_stats,
            )
        })
    } else {
        None
    };

    MbCandidates {
        qp,
        best_intra,
        intra4_cost,
        bwd_whole,
        bwd_stats,
    }
}

#[allow(clippy::too_many_arguments)]
fn decide_mode(
    ctx: &FrameCtx<'_>,
    mb_x: usize,
    mb_y: usize,
    cur_block: &[u8; 256],
    cand: &MbCandidates,
    qp: u8,
    lam: u64,
    pred_fwd: MotionVector,
    stats: &mut SearchStats,
) -> MbMode {
    let is_b = ctx.plan.frame_type == FrameType::B;

    let best_intra = cand.best_intra;
    let intra4_cost = cand.intra4_cost;
    let intra4_better = intra4_cost < best_intra.1;
    let best_intra_cost = best_intra.1.min(intra4_cost);

    let Some(ref_fwd) = ctx.ref_fwd else {
        return if intra4_better {
            MbMode::Intra4
        } else {
            MbMode::Intra { mode: best_intra.0 }
        };
    };

    // One compensation scratch per macroblock task: every candidate probe
    // below reuses it instead of allocating a Vec per candidate.
    let mut scratch = [0u8; MAX_BLOCK_PIXELS];

    // Skip candidate: prediction with the predicted MV and zero residual.
    {
        mc_block_sub_into(
            ref_fwd,
            mb_x,
            mb_y,
            MB_SIZE,
            MB_SIZE,
            pred_fwd,
            ctx.cfg.subpel,
            &mut scratch,
        );
        let sad = vapp_media::kernels::sad_slices(cur_block, &scratch);
        // The approximability-aware decision (paper §8) skips whenever the
        // residual would quantise to zero at a *coarser* QP — unreferenced
        // B macroblocks get the coarsest test since their damage cannot
        // propagate.
        let skip_qp = if ctx.cfg.approx_bias {
            (qp + if is_b { 10 } else { 6 }).min(MAX_QP)
        } else {
            qp
        };
        if sad < 6000 && residual_is_zero(cur_block, &scratch, skip_qp) {
            return MbMode::Skip { mv: pred_fwd };
        }
    }

    // Inter: 16x16 search, then partition refinement.
    let sp = ctx.cfg.subpel;
    let whole = search_sub_stats(
        ctx.cur,
        ref_fwd,
        mb_x,
        mb_y,
        MB_SIZE,
        MB_SIZE,
        pred_fwd,
        ctx.cfg.search_range,
        sp,
        stats,
    );
    // Use the precomputed backward search when the candidate pass ran it
    // (merging its early-exit stats only now, so skipped macroblocks never
    // contribute and the counters are worker-count-invariant); fall back to
    // the identical inline search otherwise.
    let bwd_whole = match cand.bwd_whole {
        some @ Some(_) => {
            stats.merge(cand.bwd_stats);
            some
        }
        None => ctx.ref_bwd.map(|rb| {
            search_sub_stats(
                ctx.cur,
                rb,
                mb_x,
                mb_y,
                MB_SIZE,
                MB_SIZE,
                MotionVector::ZERO,
                ctx.cfg.search_range,
                sp,
                stats,
            )
        }),
    };

    let shapes = [
        PartShape::P16x16,
        PartShape::P16x8,
        PartShape::P8x16,
        PartShape::P8x8,
    ];
    let mut best_inter: Option<(PartitionLayout, Vec<InterBlock>, u64)> = None;
    // The P8x8 sub-shape trials and the final P8x8 block list run the same
    // (geometry, whole.mv, range-2) forward searches; cache the trial
    // results so the winning layout's blocks are never searched twice. The
    // search is deterministic, so replaying a cached result is
    // decision-identical to recomputing it.
    let mut p8_cache = [(BlockGeom::default(), whole); 36];
    let mut p8_len = 0usize;
    for shape in shapes {
        let mut layout = PartitionLayout {
            shape,
            subs: [SubShape::S8x8; 4],
        };
        if shape == PartShape::P8x8 {
            // Choose each quadrant's sub-shape independently.
            for q in 0..4 {
                let mut best_sub = (SubShape::S8x8, u64::MAX);
                for sub in [
                    SubShape::S8x8,
                    SubShape::S8x4,
                    SubShape::S4x8,
                    SubShape::S4x4,
                ] {
                    let trial = PartitionLayout {
                        shape: PartShape::P8x8,
                        subs: [sub; 4],
                    };
                    // Cost just for this quadrant's blocks. Block costs only
                    // ever add, and the comparison below is strict, so a
                    // trial whose partial cost already reaches the best can
                    // be abandoned: it cannot win, and its remaining blocks
                    // are only ever looked up in the cache if their
                    // sub-shape won (which requires the full trial to have
                    // run).
                    let mut cost = 0u64;
                    let mut abandoned = false;
                    for g in trial
                        .blocks()
                        .iter()
                        .filter(|g| g.dx / 8 == q % 2 && g.dy / 8 == q / 2)
                    {
                        if cost >= best_sub.1 {
                            abandoned = true;
                            break;
                        }
                        let r = search_sub_stats(
                            ctx.cur,
                            ref_fwd,
                            mb_x + g.dx,
                            mb_y + g.dy,
                            g.w,
                            g.h,
                            whole.mv,
                            2,
                            sp,
                            stats,
                        );
                        p8_cache[p8_len] = (*g, r);
                        p8_len += 1;
                        cost += r.sad + lam * 10;
                    }
                    if !abandoned && cost < best_sub.1 {
                        best_sub = (sub, cost);
                    }
                }
                layout.subs[q] = best_sub.0;
            }
        }
        let geoms = layout.blocks();
        let mut blocks = Vec::with_capacity(geoms.len());
        let mut cost = lam * 4; // shape signalling
        for g in &geoms {
            let bx = mb_x + g.dx;
            let by = mb_y + g.dy;
            let refine = if *g == geoms[0] && shape == PartShape::P16x16 {
                0
            } else {
                2
            };
            let fwd = if refine == 0 {
                whole
            } else if let Some(&(_, r)) = p8_cache[..p8_len].iter().find(|(cg, _)| cg == g) {
                r
            } else {
                search_sub_stats(
                    ctx.cur, ref_fwd, bx, by, g.w, g.h, whole.mv, refine, sp, stats,
                )
            };
            let mut dir = PredDir::Forward;
            let mut chosen_sad = fwd.sad;
            let mut mv_b = MotionVector::ZERO;
            if let (Some(rb), Some(bw)) = (ctx.ref_bwd, bwd_whole) {
                let bwd = search_sub_stats(ctx.cur, rb, bx, by, g.w, g.h, bw.mv, 2, sp, stats);
                if bwd.sad + lam * 2 < chosen_sad {
                    dir = PredDir::Backward;
                    chosen_sad = bwd.sad;
                }
                // Bi-prediction. The decision is `bi_sad + lam*6 <
                // chosen_sad`, so the SAD may stop once it exceeds
                // `chosen_sad - lam*6`: past that the comparison is already
                // lost (and when `lam*6 >= chosen_sad` it is unwinnable, so
                // any partial value keeps the decision identical).
                let n = g.w * g.h;
                let mut fwd_pred = [0u8; MAX_BLOCK_PIXELS];
                let mut bi = [0u8; MAX_BLOCK_PIXELS];
                mc_block_sub_into(ref_fwd, bx, by, g.w, g.h, fwd.mv, sp, &mut fwd_pred[..n]);
                mc_block_sub_into(rb, bx, by, g.w, g.h, bwd.mv, sp, &mut scratch[..n]);
                bi_average_into(&fwd_pred[..n], &scratch[..n], &mut bi[..n]);
                let bi_bound = chosen_sad.saturating_sub(lam * 6);
                let bi_sad = sad_against_bounded(ctx.cur, bx, by, g.w, g.h, &bi[..n], bi_bound);
                if bi_sad + lam * 6 < chosen_sad {
                    dir = PredDir::Bi;
                    chosen_sad = bi_sad;
                } else if bi_sad > bi_bound {
                    stats.early_exits += 1;
                }
                mv_b = bwd.mv;
            }
            cost += chosen_sad + lam * (10 + if is_b { 2 } else { 0 });
            blocks.push(InterBlock {
                dir,
                mv_fwd: fwd.mv,
                mv_bwd: mv_b,
            });
        }
        if best_inter.as_ref().is_none_or(|b| cost < b.2) {
            best_inter = Some((layout, blocks, cost));
        }
    }
    let (layout, blocks, inter_cost) = best_inter.expect("at least one shape evaluated");

    // Bias against intra in inter frames: intra costs more bits and, for
    // VideoApp, creates in-frame dependency chains. The approximability-
    // aware mode penalises intra harder (spatial dependencies raise the
    // importance of every preceding macroblock).
    let intra_penalty = if ctx.cfg.approx_bias {
        lam * 48
    } else {
        lam * 8
    };
    if best_intra_cost + intra_penalty < inter_cost {
        if intra4_better {
            MbMode::Intra4
        } else {
            MbMode::Intra { mode: best_intra.0 }
        }
    } else {
        MbMode::Inter { layout, blocks }
    }
}

/// Whether the residual between `cur` and `pred` quantises to all-zero at
/// `qp` (the skip test).
fn residual_is_zero(cur: &[u8; 256], pred: &[u8; 256], qp: u8) -> bool {
    for by in 0..4 {
        for bx in 0..4 {
            let mut blk: Block4x4 = [0; 16];
            for y in 0..4 {
                for x in 0..4 {
                    let i = (by * 4 + y) * MB_SIZE + bx * 4 + x;
                    blk[y * 4 + x] = cur[i] as i32 - pred[i] as i32;
                }
            }
            let q = forward_quant(&blk, qp, false);
            if q.iter().any(|&v| v != 0) {
                return false;
            }
        }
    }
    true
}

// -------------------------------------------------- residual + recon ----

/// Codes the QP delta, CBP and residual blocks, and writes the
/// reconstruction into `recon`. Shared by intra and inter macroblocks.
#[allow(clippy::too_many_arguments)]
fn code_residual_and_recon<W: SymbolWriter>(
    w: &mut W,
    recon: &mut Plane,
    mb_x: usize,
    mb_y: usize,
    cur: &[u8; 256],
    pred: &[u8; 256],
    qp: u8,
    intra: bool,
    prev_qp: &mut u8,
) {
    let _transform_span = vapp_obs::span!("codec.mb.transform");
    // QP delta (predictive metadata coding, paper §2.3.2).
    let delta = qp as i32 - *prev_qp as i32;
    w.put_sint(Element::QpDelta, 0, delta);
    *prev_qp = qp;

    // Transform and quantise all 16 4x4 blocks.
    let mut levels = [[0i32; 16]; 16];
    let mut coded4 = [false; 16];
    for blk in 0..16 {
        let (bx, by) = (blk % 4, blk / 4);
        let mut r: Block4x4 = [0; 16];
        for y in 0..4 {
            for x in 0..4 {
                let i = (by * 4 + y) * MB_SIZE + bx * 4 + x;
                r[y * 4 + x] = cur[i] as i32 - pred[i] as i32;
            }
        }
        let q = forward_quant(&r, qp, intra);
        coded4[blk] = q.iter().any(|&v| v != 0);
        levels[blk] = q;
    }

    // CBP per 8x8 quadrant.
    for q in 0..4 {
        let any = quadrant_blocks(q).iter().any(|&b| coded4[b]);
        w.put_flag(Element::Cbp, q, any);
    }
    for q in 0..4 {
        let blocks = quadrant_blocks(q);
        if !blocks.iter().any(|&b| coded4[b]) {
            continue;
        }
        for (s, &blk) in blocks.iter().enumerate() {
            w.put_flag(Element::Blk4, s, coded4[blk]);
            if coded4[blk] {
                code_block_coeffs(w, &levels[blk]);
            }
        }
    }

    // Reconstruct.
    for blk in 0..16 {
        let (bx, by) = (blk % 4, blk / 4);
        let res = if coded4[blk] {
            dequant_inverse(&levels[blk], qp)
        } else {
            [0; 16]
        };
        for y in 0..4 {
            for x in 0..4 {
                let i = (by * 4 + y) * MB_SIZE + bx * 4 + x;
                let v = (pred[i] as i32 + res[y * 4 + x]).clamp(0, 255) as u8;
                recon.set(mb_x + bx * 4 + x, mb_y + by * 4 + y, v);
            }
        }
    }
}

/// Codes an intra 4x4 macroblock: per-block mode choice against the
/// progressive reconstruction, interleaved residual coding (the next
/// block predicts from this block's reconstruction).
#[allow(clippy::too_many_arguments)]
fn code_intra4_mb<W: SymbolWriter>(
    w: &mut W,
    recon: &mut Plane,
    cur_plane: &Plane,
    mb_x: usize,
    mb_y: usize,
    avail: IntraAvail,
    qp: u8,
    prev_qp: &mut u8,
) {
    let _transform_span = vapp_obs::span!("codec.mb.transform");
    let delta = qp as i32 - *prev_qp as i32;
    w.put_sint(Element::QpDelta, 0, delta);
    *prev_qp = qp;

    for blk in 0..16 {
        let bx = mb_x + (blk % 4) * 4;
        let by = mb_y + (blk / 4) * 4;
        let a4 = Intra4Avail {
            left: blk % 4 > 0 || avail.left,
            top: blk / 4 > 0 || avail.top,
        };
        // Choose the best mode against the *reconstruction* (what the
        // decoder will predict from).
        let mut best = (Intra4Mode::Dc, u64::MAX, [0u8; 16]);
        for m in a4.legal_modes() {
            let pred = predict_intra4(recon, bx, by, a4, m);
            let mut sad = 0u64;
            for y in 0..4 {
                for x in 0..4 {
                    sad += (cur_plane.get(bx + x, by + y) as i32 - pred[y * 4 + x] as i32)
                        .unsigned_abs() as u64;
                }
            }
            if sad < best.1 {
                best = (m, sad, pred);
            }
        }
        w.put_uint(Element::Intra4Mode, 0, best.0.to_index());

        // Residual for this block.
        let mut r: Block4x4 = [0; 16];
        for y in 0..4 {
            for x in 0..4 {
                r[y * 4 + x] = cur_plane.get(bx + x, by + y) as i32 - best.2[y * 4 + x] as i32;
            }
        }
        let levels = forward_quant(&r, qp, true);
        let coded = levels.iter().any(|&v| v != 0);
        w.put_flag(Element::Blk4, blk % 4, coded);
        if coded {
            code_block_coeffs(w, &levels);
        }
        // Reconstruct immediately so the next block predicts from it.
        let res = if coded {
            dequant_inverse(&levels, qp)
        } else {
            [0; 16]
        };
        for y in 0..4 {
            for x in 0..4 {
                let v = (best.2[y * 4 + x] as i32 + res[y * 4 + x]).clamp(0, 255) as u8;
                recon.set(bx + x, by + y, v);
            }
        }
    }
}

/// The four 4x4 block indices of 8x8 quadrant `q` (row-major MB layout).
pub(crate) fn quadrant_blocks(q: usize) -> [usize; 4] {
    let base = (q / 2) * 8 + (q % 2) * 2;
    [base, base + 1, base + 4, base + 5]
}

/// Codes one 4x4 block's coefficients: zigzag significance map with
/// interleaved levels and last flags.
fn code_block_coeffs<W: SymbolWriter>(w: &mut W, levels: &Block4x4) {
    let zz = to_zigzag(levels);
    let last = (0..16)
        .rev()
        .find(|&i| zz[i] != 0)
        .expect("coded block has a coefficient");
    for (i, &z) in zz.iter().enumerate() {
        let sig = z != 0;
        w.put_flag(Element::Sig, i.min(14), sig);
        if sig {
            w.put_uint(Element::Level, usize::from(i != 0), z.unsigned_abs() - 1);
            w.put_sign(z < 0);
            let is_last = i == last;
            w.put_flag(Element::Last, i.min(14), is_last);
            if is_last {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gop_all_p_when_no_bframes() {
        let plans = plan_gop(5, 100, 0);
        assert_eq!(plans.len(), 5);
        assert_eq!(plans[0].frame_type, FrameType::I);
        for (i, p) in plans.iter().enumerate() {
            assert_eq!(p.coding, i);
            assert_eq!(p.display, i);
            if i > 0 {
                assert_eq!(p.frame_type, FrameType::P);
                assert_eq!(p.ref_fwd, Some(i - 1));
            }
        }
    }

    #[test]
    fn gop_with_bframes_reorders() {
        let plans = plan_gop(7, 100, 2);
        // Display: I0 [P3: B1 B2] [P6: B4 B5]
        let order: Vec<(usize, FrameType)> =
            plans.iter().map(|p| (p.display, p.frame_type)).collect();
        assert_eq!(
            order,
            vec![
                (0, FrameType::I),
                (3, FrameType::P),
                (1, FrameType::B),
                (2, FrameType::B),
                (6, FrameType::P),
                (4, FrameType::B),
                (5, FrameType::B),
            ]
        );
        // B frames reference both anchors.
        let b1 = plans.iter().find(|p| p.display == 1).unwrap();
        assert_eq!(b1.ref_fwd, Some(0));
        assert_eq!(b1.ref_bwd, Some(1)); // coding index of P3
    }

    #[test]
    fn gop_inserts_i_frames_at_keyint() {
        let plans = plan_gop(10, 4, 0);
        for p in &plans {
            let expect = if p.display % 4 == 0 {
                FrameType::I
            } else {
                FrameType::P
            };
            assert_eq!(p.frame_type, expect, "display {}", p.display);
        }
    }

    #[test]
    fn gop_covers_every_display_frame_once() {
        for (n, key, b) in [(1, 8, 2), (2, 8, 2), (13, 5, 3), (30, 7, 1), (9, 3, 0)] {
            let plans = plan_gop(n, key, b);
            assert_eq!(plans.len(), n, "n={n} key={key} b={b}");
            let mut seen = vec![false; n];
            for p in &plans {
                assert!(!seen[p.display]);
                seen[p.display] = true;
                // References must already be coded.
                if let Some(r) = p.ref_fwd {
                    assert!(r < p.coding);
                }
                if let Some(r) = p.ref_bwd {
                    assert!(r < p.coding);
                }
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn slice_rows_partition_evenly() {
        assert_eq!(slice_rows(6, 1), vec![(0, 6)]);
        assert_eq!(slice_rows(6, 2), vec![(0, 3), (3, 6)]);
        assert_eq!(slice_rows(7, 3), vec![(0, 3), (3, 5), (5, 7)]);
        // More slices than rows: clamped.
        assert_eq!(slice_rows(2, 5), vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn pad_and_crop_roundtrip() {
        let mut p = Plane::new(20, 13);
        for y in 0..13 {
            for x in 0..20 {
                p.set(x, y, ((x * 7 + y * 3) % 256) as u8);
            }
        }
        let padded = pad_to_mb(&p);
        assert_eq!(padded.width(), 32);
        assert_eq!(padded.height(), 16);
        assert_eq!(crop(&padded, 20, 13), p);
        // Padding replicates edges.
        assert_eq!(padded.get(31, 5), p.get(19, 5));
        assert_eq!(padded.get(4, 15), p.get(4, 12));
    }

    #[test]
    fn quadrant_blocks_cover_all_sixteen() {
        let mut seen = [false; 16];
        for q in 0..4 {
            for b in quadrant_blocks(q) {
                assert!(!seen[b]);
                seen[b] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn frame_qp_offsets() {
        let cfg = EncoderConfig::default();
        assert_eq!(frame_qp(&cfg, FrameType::I), 22);
        assert_eq!(frame_qp(&cfg, FrameType::P), 24);
        assert_eq!(frame_qp(&cfg, FrameType::B), 26);
        let extreme = EncoderConfig { crf: 0, ..cfg };
        assert_eq!(frame_qp(&extreme, FrameType::I), 0);
    }
}
