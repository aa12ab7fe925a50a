//! The closed-loop encoder.
//!
//! Implements the two-stage pipeline of paper §2.3.2 — pixel-level
//! prediction/compensation, then coding (transform, quantisation,
//! predictive metadata coding, entropy coding) — plus GOP planning (I/P/B),
//! slices, a CRF-like motion-adaptive quantiser, and dependency recording.
//!
//! Each macroblock's mode decision produces a [`crate::mb::MbSyntax`],
//! which is quantised against the shared prediction, written with
//! [`write_mb`] and rebuilt with the reconstruction the decoder runs, so
//! the encoder's reference pixels are the decoder's by construction. The
//! macroblock syntax itself is documented in [`crate::mb`].

use crate::analysis::{AnalysisRecord, Dependency, FrameAnalysis, MbAnalysis};
use crate::entropy::{CabacWriter, CavlcWriter, EntropyMode, SymbolWriter};
use crate::inter::{bi_average_into, ref_rect, search_sub_stats, RefPlanes, SadGrid, SearchStats};
use crate::intra::{intra_sources, predict_intra16, predict_intra4, Intra4Avail, IntraAvail};
use crate::mb::{
    crop, intra4_block, mb_mv_pred, neighbors, predict, put_block4, put_mb, slice_rows, write_mb,
    BlockMotion, FrameSyntax, MbPred, MbState, MbSyntax, Refs,
};
use crate::quant::{forward_quant, MAX_QP};
use crate::syntax::{EncodedFrame, EncodedVideo, FrameHeader, StreamHeader};
use crate::transform::Block4x4;
use crate::types::{
    BlockGeom, FrameType, Intra4Mode, IntraMode, MotionVector, PartShape, PartitionLayout, PredDir,
    SubShape,
};
use vapp_media::{Frame, MbGrid, Plane, Video, MB_PIXELS, MB_SIZE};

/// Encoder configuration.
///
/// Defaults mirror the paper's "standard quality" setting (§6.3):
/// CRF 24, one slice per frame, CABAC, an I frame every 48 display frames
/// and two B frames between anchors. The x264 tools that setting encodes
/// with are always on: half-pel motion compensation (bilinear, a ±1
/// half-pel refinement after a ±8 full-pel search, vectors coded in
/// half-pel units), the in-loop deblocking filter and the motion-adaptive
/// macroblock QP.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EncoderConfig {
    /// Constant-rate-factor quality target, 0–51 (lower = better). Maps to
    /// the base QP; frame types apply offsets (I: −2, B: +2) and fast
    /// motion adds +2 per macroblock.
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
        let padded: Vec<Plane> = video.iter().map(|f| pad_to_mb(f.plane())).collect();

        // Reference frames by coding index, prepared for motion search when
        // they enter; each is dropped after the last wave that reads it.
        let mut last_read = vec![0usize; plans.len()];
        for plan in &plans {
            for ci in plan.ref_fwd.into_iter().chain(plan.ref_bwd) {
                last_read[ci] = last_read[ci].max(plan.coding);
            }
        }
        let mut dpb: Vec<Option<RefPlanes>> = vec![None; plans.len()];
        let mut frames = Vec::with_capacity(plans.len());
        let mut analyses = Vec::with_capacity(plans.len());
        let mut recon_display: Vec<Option<Frame>> = vec![None; video.len()];

        // Frames encode in coding order, but a run of consecutive B frames
        // only reads anchors already in the DPB (closed GOPs; B frames are
        // never references), so each run encodes as one parallel wave.
        // Anchors encode alone, their macroblocks in sequence. Each frame's
        // output is a pure function of its sources and references, so the
        // stream is byte-identical at any worker count.
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
                crate::deblock::deblock_plane(&mut out.recon, frame_qp(&self.cfg, frame_type));
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
                if last_read[plan.coding] > plan.coding {
                    dpb[plan.coding] = Some(RefPlanes::new(out.recon));
                }
            }
            for (ci, entry) in dpb.iter_mut().enumerate() {
                if last_read[ci] < wave_end {
                    *entry = None;
                }
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

/// Half-width of the 16x16 macroblock motion search, in full pixels.
const SEARCH_RANGE: i16 = 8;

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

// ------------------------------------------------------ frame encoding --

struct FrameCtx<'a> {
    cfg: &'a EncoderConfig,
    grid: &'a MbGrid,
    plan: &'a FramePlan,
    cur: &'a Plane,
    ref_fwd: Option<&'a RefPlanes>,
    ref_bwd: Option<&'a RefPlanes>,
}

impl FrameCtx<'_> {
    /// What the frame fixes for every macroblock's syntax.
    fn syntax(&self) -> FrameSyntax {
        FrameSyntax {
            inter: self.ref_fwd.is_some(),
            b: self.plan.frame_type == FrameType::B,
        }
    }

    /// The reference reconstructions, as the decoder will see them.
    fn refs(&self) -> Refs<'_> {
        Refs {
            fwd: self.ref_fwd.map(RefPlanes::recon),
            bwd: self.ref_bwd.map(RefPlanes::recon),
        }
    }
}

struct FrameOut {
    payload: Vec<u8>,
    slice_lens: Vec<u32>,
    recon: Plane,
    analysis: FrameAnalysis,
    /// Entropy-coder binary decisions across all slices (observability).
    bins: u64,
    /// SAD evaluations pruned by the running-best bound, summed over every
    /// search of this frame's mode decisions (observability).
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

    // Macroblocks code in raster order within each slice: every decision
    // reads the neighbours' syntax and reconstruction, so the frame is one
    // sequential pass.
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
                let (deps, syn) = encode_mb(
                    ctx,
                    &mut w,
                    &mut recon,
                    &mut states,
                    mb,
                    row_start,
                    base_qp,
                    &mut prev_qp,
                    &mut search_stats,
                );
                mbs[mb] = MbAnalysis {
                    bit_start,
                    bit_end: slice_base_bits + w.bit_pos(),
                    deps,
                    intra: syn.is_intra(),
                    skip: syn.pred == MbPred::Skip,
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

/// Codes one macroblock: decides its syntax, quantises it against the
/// shared prediction, writes it and rebuilds it exactly as the decoder
/// will. Returns its compensation dependencies and its syntax.
#[allow(clippy::too_many_arguments)]
fn encode_mb<W: SymbolWriter>(
    ctx: &FrameCtx<'_>,
    w: &mut W,
    recon: &mut Plane,
    states: &mut [MbState],
    mb: usize,
    slice_top_row: usize,
    base_qp: u8,
    prev_qp: &mut u8,
    stats: &mut SearchStats,
) -> (Vec<Dependency>, MbSyntax) {
    let (col, row) = ctx.grid.mb_position(mb);
    let (mb_x, mb_y) = (col * MB_SIZE, row * MB_SIZE);
    let nb = neighbors(ctx.grid, mb, slice_top_row);
    let avail = nb.intra_avail();
    let mut cur_block = [0u8; 256];
    ctx.cur.copy_block(
        mb_x as isize,
        mb_y as isize,
        MB_SIZE,
        MB_SIZE,
        &mut cur_block,
    );

    // CRF-like motion-adaptive quantisation: fast motion against the
    // forward reference costs two QP steps. Only the threshold comparison
    // matters, so the SAD stops once it exceeds the cutoff.
    let mut qp = base_qp;
    if let Some(ref_fwd) = ctx.ref_fwd {
        const ACTIVITY_CUTOFF: u64 = 12 * 256;
        let activity = ctx.cur.sad_bounded(
            mb_x,
            mb_y,
            MB_SIZE,
            MB_SIZE,
            ref_fwd.recon(),
            mb_x as isize,
            mb_y as isize,
            ACTIVITY_CUTOFF,
        );
        if activity > ACTIVITY_CUTOFF {
            qp = (qp + 2).min(MAX_QP);
        }
    }

    let mut syn = {
        let _search_span = vapp_obs::span!("codec.mb.search");
        let pred_fwd = mb_mv_pred(states, &nb, true);
        decide_mode(ctx, mb_x, mb_y, &cur_block, qp, avail, pred_fwd, stats)
    };
    {
        let skip = syn.pred == MbPred::Skip;
        let _transform_span = (!skip).then(|| vapp_obs::span!("codec.mb.transform"));
        let refs = ctx.refs();
        let pred = quantise(&mut syn, &refs, &cur_block, recon, mb_x, mb_y, avail);
        write_mb(w, &syn, ctx.syntax(), states, mb, &nb, prev_qp);
        // Intra 4x4 is already rebuilt, block by block, by `quantise`.
        if let Some(pred) = pred {
            put_mb(recon, mb_x, mb_y, &pred, &syn);
        }
    }
    (mb_deps(ctx, &syn, mb, mb_x, mb_y, avail), syn)
}

/// Fills in the residual of a decided macroblock: its levels and coded
/// mask, quantised against the prediction the reconstruction uses, which
/// it returns for the residual step. An intra 4x4 macroblock also chooses
/// each block's mode here, against the progressive reconstruction (what
/// the decoder will predict from), and rebuilds each block into `recon`
/// before the next one predicts from it; it returns no prediction.
fn quantise(
    syn: &mut MbSyntax,
    refs: &Refs<'_>,
    cur: &[u8; 256],
    recon: &mut Plane,
    mb_x: usize,
    mb_y: usize,
    avail: IntraAvail,
) -> Option<[u8; MB_PIXELS]> {
    match syn.pred {
        MbPred::Skip => Some(predict(syn, refs, recon, mb_x, mb_y, avail)),
        MbPred::Intra4(_) => {
            let mut modes = [Intra4Mode::Dc; 16];
            for (blk, mode) in modes.iter_mut().enumerate() {
                let (bx, by, a4) = intra4_block(mb_x, mb_y, avail, blk);
                let src = sub_block(cur, blk);
                let (best, _, pred) = best_intra4(recon, bx, by, a4, &src);
                *mode = best;
                syn.set_levels(blk, forward_quant(&diff(&src, &pred), syn.qp, true));
                put_block4(recon, bx, by, &pred, syn, blk);
            }
            syn.pred = MbPred::Intra4(modes);
            None
        }
        MbPred::Intra16(_) | MbPred::Inter(_) => {
            let pred = predict(syn, refs, recon, mb_x, mb_y, avail);
            for blk in 0..16 {
                let residual = diff(&sub_block(cur, blk), &sub_block(&pred, blk));
                syn.set_levels(blk, forward_quant(&residual, syn.qp, syn.is_intra()));
            }
            Some(pred)
        }
    }
}

/// The legal intra 4x4 mode whose prediction from `plane` is nearest to
/// `src` by SAD (the first of equals), with that SAD and prediction.
fn best_intra4(
    plane: &Plane,
    bx: usize,
    by: usize,
    a4: Intra4Avail,
    src: &[u8; 16],
) -> (Intra4Mode, u64, [u8; 16]) {
    let mut best = (Intra4Mode::Dc, u64::MAX, [0u8; 16]);
    for m in a4.legal_modes() {
        let pred = predict_intra4(plane, bx, by, a4, m);
        let sad = vapp_media::kernels::sad_slices(src, &pred);
        if sad < best.1 {
            best = (m, sad, pred);
        }
    }
    best
}

/// 4x4 block `blk` (raster order) of a row-major macroblock.
fn sub_block(mb: &[u8; 256], blk: usize) -> [u8; 16] {
    let (bx, by) = ((blk % 4) * 4, (blk / 4) * 4);
    core::array::from_fn(|i| mb[(by + i / 4) * MB_SIZE + bx + i % 4])
}

/// The residual `cur - pred` of one 4x4 block.
fn diff(cur: &[u8; 16], pred: &[u8; 16]) -> Block4x4 {
    core::array::from_fn(|i| cur[i] as i32 - pred[i] as i32)
}

/// The dependencies one coded macroblock records (paper §4.1): its intra
/// sources, then each motion-compensated block's reference footprint.
fn mb_deps(
    ctx: &FrameCtx<'_>,
    syn: &MbSyntax,
    mb: usize,
    mb_x: usize,
    mb_y: usize,
    avail: IntraAvail,
) -> Vec<Dependency> {
    let mut deps = Vec::new();
    // Intra 4x4 is attributed like a DC intra16 macroblock: its 4x4 chain
    // ultimately draws on the same neighbour borders.
    let intra_mode = match syn.pred {
        MbPred::Intra16(mode) => Some(mode),
        MbPred::Intra4(_) => Some(IntraMode::Dc),
        MbPred::Skip | MbPred::Inter(_) => None,
    };
    if let Some(mode) = intra_mode {
        for (src_mb, weight) in intra_sources(ctx.grid, mb, avail, mode) {
            deps.push(Dependency {
                frame: ctx.plan.coding,
                mb: src_mb,
                weight,
            });
        }
    }
    for (g, m) in syn.motion_blocks() {
        // Weight `scale` split across the source macroblocks by overlap
        // pixels. Half-pel vectors widen the referenced footprint by one
        // pixel per fractional axis; normalising by the rect's own area
        // keeps the incoming weights summing to `scale`.
        let mut push = |src_frame: Option<usize>, mv, scale: f64| {
            let rect = ref_rect(mb_x + g.dx, mb_y + g.dy, g.w, g.h, mv);
            let total = rect.area() as f64;
            for o in ctx.grid.overlaps(rect) {
                deps.push(Dependency {
                    frame: src_frame.expect("reference coded"),
                    mb: o.mb_index,
                    weight: scale * o.pixels as f64 / total,
                });
            }
        };
        let area = (g.w * g.h) as f64 / 256.0;
        match m.dir {
            PredDir::Forward => push(ctx.plan.ref_fwd, m.fwd, area),
            PredDir::Backward => push(ctx.plan.ref_bwd, m.bwd, area),
            PredDir::Bi => {
                push(ctx.plan.ref_fwd, m.fwd, area * 0.5);
                push(ctx.plan.ref_bwd, m.bwd, area * 0.5);
            }
        }
    }
    deps
}

// ------------------------------------------------------- mode decision --

/// The intra candidate for the macroblock at `(mb_x, mb_y)`: the best
/// 16x16 mode, or 4x4 when its summed per-block cost is lower, with that
/// cost at multiplier `lam`. Both probes predict from the *source* plane —
/// a standard encoder shortcut that affects only the mode choice (the
/// coded prediction uses the reconstruction).
///
/// The result is exact when its cost is below `limit`; otherwise the
/// returned cost is at least `limit`. The 4x4 sum only grows, so it stops
/// once it reaches the 16x16 cost or `limit`: past either, 4x4 can change
/// neither the 16x16/4x4 choice nor a `cost < limit` test.
fn intra_probe(
    cur: &Plane,
    mb_x: usize,
    mb_y: usize,
    cur_block: &[u8; 256],
    avail: IntraAvail,
    lam: u64,
    limit: u64,
) -> (MbPred, u64) {
    let mut best16 = (IntraMode::Dc, u64::MAX);
    for m in avail.legal_modes() {
        let pred = predict_intra16(cur, mb_x, mb_y, avail, m);
        let sad = vapp_media::kernels::sad_slices(cur_block, &pred);
        let cost = sad + lam * if m == IntraMode::Dc { 4 } else { 6 };
        if cost < best16.1 {
            best16 = (m, cost);
        }
    }
    // Per-block best mode against source neighbours, plus the signalling
    // cost of 16 mode symbols.
    let stop = best16.1.min(limit);
    let mut cost4 = lam * 16 * 3;
    for blk in 0..16 {
        if cost4 >= stop {
            break;
        }
        let (bx, by, a4) = intra4_block(mb_x, mb_y, avail, blk);
        cost4 += best_intra4(cur, bx, by, a4, &sub_block(cur_block, blk)).1;
    }
    if cost4 < best16.1 {
        (MbPred::Intra4([Intra4Mode::Dc; 16]), cost4)
    } else {
        (MbPred::Intra16(best16.0), best16.1)
    }
}

/// Chooses a macroblock's prediction: skip, intra (16x16 or 4x4) or the
/// cheapest inter partition with per-block directions and vectors, at
/// quantiser `qp`. The returned syntax has no residual yet, and an intra
/// 4x4 choice leaves its block modes to [`quantise`].
#[allow(clippy::too_many_arguments)]
fn decide_mode(
    ctx: &FrameCtx<'_>,
    mb_x: usize,
    mb_y: usize,
    cur_block: &[u8; 256],
    qp: u8,
    avail: IntraAvail,
    pred_fwd: MotionVector,
    stats: &mut SearchStats,
) -> MbSyntax {
    let is_b = ctx.plan.frame_type == FrameType::B;
    let lam = lambda(qp);
    let Some(ref_fwd) = ctx.ref_fwd else {
        let (pred, _) = intra_probe(ctx.cur, mb_x, mb_y, cur_block, avail, lam, u64::MAX);
        return MbSyntax::new(pred, qp);
    };

    // Skip candidate: prediction with the predicted MV and zero residual,
    // its rows read straight from the reference's phase plane.
    {
        let (plane, ox, oy) = ref_fwd.block(mb_x, mb_y, MB_SIZE, MB_SIZE, pred_fwd);
        let mut scratch = [0u8; MB_PIXELS];
        for (r, dst) in scratch.chunks_exact_mut(MB_SIZE).enumerate() {
            dst.copy_from_slice(&plane.row(oy + r)[ox..ox + MB_SIZE]);
        }
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
            let mut skip = MbSyntax::new(MbPred::Skip, qp);
            skip.motion[0].fwd = pred_fwd;
            return skip;
        }
    }

    // Inter: 16x16 searches, then partition refinement.
    let search16 = |refs: &RefPlanes, center: MotionVector, stats: &mut SearchStats| {
        search_sub_stats(
            ctx.cur,
            refs,
            mb_x,
            mb_y,
            MB_SIZE,
            MB_SIZE,
            center,
            SEARCH_RANGE,
            stats,
        )
    };
    let whole = search16(ref_fwd, pred_fwd, stats);
    let bwd_whole = ctx
        .ref_bwd
        .map(|rb| search16(rb, MotionVector::ZERO, stats));

    let shapes = [
        PartShape::P16x16,
        PartShape::P16x8,
        PartShape::P8x16,
        PartShape::P8x8,
    ];
    let mut best_inter: Option<(PartitionLayout, [BlockMotion; 16], u64)> = None;
    // Every partition search below runs ±2 around one centre per direction
    // (`whole.mv` forward, `bwd_whole.mv` backward), so each direction's
    // window is evaluated once, as 4x4-cell SADs, when the macroblock gets
    // this far (skipped macroblocks never build one).
    let mut fwd_grid = SadGrid::new(ctx.cur, ref_fwd, mb_x, mb_y, whole.mv);
    let mut bwd_grid = ctx
        .ref_bwd
        .zip(bwd_whole)
        .map(|(rb, bw)| SadGrid::new(ctx.cur, rb, mb_x, mb_y, bw.mv));
    // The P8x8 sub-shape trials and the final P8x8 block list run the same
    // forward grid searches; cache the trial results so the winning
    // layout's blocks never repeat their half-pel refinement, whose early
    // exits would otherwise count twice in `codec.sad.early_exit`. The
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
                        let r = fwd_grid.search(g, stats);
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
        let mut motion = [BlockMotion::default(); 16];
        let mut cost = lam * 4; // shape signalling
        for (g, m) in layout.blocks().iter().zip(&mut motion) {
            let bx = mb_x + g.dx;
            let by = mb_y + g.dy;
            let fwd = if shape == PartShape::P16x16 {
                whole
            } else if let Some(&(_, r)) = p8_cache[..p8_len].iter().find(|(cg, _)| cg == g) {
                r
            } else {
                fwd_grid.search(g, stats)
            };
            *m = BlockMotion {
                dir: PredDir::Forward,
                fwd: fwd.mv,
                bwd: MotionVector::ZERO,
            };
            let mut chosen_sad = fwd.sad;
            if let (Some(rb), Some(bg)) = (ctx.ref_bwd, &mut bwd_grid) {
                let bwd = bg.search(g, stats);
                if bwd.sad + lam * 2 < chosen_sad {
                    *m = BlockMotion {
                        dir: PredDir::Backward,
                        fwd: MotionVector::ZERO,
                        bwd: bwd.mv,
                    };
                    chosen_sad = bwd.sad;
                }
                // Bi-prediction, averaged row by row from both references'
                // phase planes. The decision is `bi_sad + lam*6 <
                // chosen_sad`, so the SAD may stop once it exceeds
                // `chosen_sad - lam*6`: past that the comparison is already
                // lost (and when `lam*6 >= chosen_sad` it is unwinnable, so
                // any partial value keeps the decision identical).
                let (pf, fx, fy) = ref_fwd.block(bx, by, g.w, g.h, fwd.mv);
                let (pb, bwx, bwy) = rb.block(bx, by, g.w, g.h, bwd.mv);
                let bi_bound = chosen_sad.saturating_sub(lam * 6);
                let (mut bi_sad, mut bi) = (0u64, [0u8; MB_SIZE]);
                for r in 0..g.h {
                    let (f, b) = (&pf.row(fy + r)[fx..][..g.w], &pb.row(bwy + r)[bwx..][..g.w]);
                    bi_average_into(f, b, &mut bi[..g.w]);
                    let src = &ctx.cur.row(by + r)[bx..][..g.w];
                    bi_sad += vapp_media::kernels::sad_slices(src, &bi[..g.w]);
                    if bi_sad > bi_bound {
                        break;
                    }
                }
                if bi_sad + lam * 6 < chosen_sad {
                    *m = BlockMotion {
                        dir: PredDir::Bi,
                        fwd: fwd.mv,
                        bwd: bwd.mv,
                    };
                    chosen_sad = bi_sad;
                } else if bi_sad > bi_bound {
                    stats.early_exits += 1;
                }
            }
            cost += chosen_sad + lam * (10 + if is_b { 2 } else { 0 });
        }
        if best_inter.as_ref().is_none_or(|b| cost < b.2) {
            best_inter = Some((layout, motion, cost));
        }
    }
    let (layout, motion, inter_cost) = best_inter.expect("at least one shape evaluated");

    // Bias against intra in inter frames: intra costs more bits and, for
    // VideoApp, creates in-frame dependency chains. The approximability-
    // aware mode penalises intra harder (spatial dependencies raise the
    // importance of every preceding macroblock). Intra wins only when its
    // cost is below `inter_cost - intra_penalty`, so the probe runs only
    // when that is positive, bounded by it.
    let intra_penalty = if ctx.cfg.approx_bias {
        lam * 48
    } else {
        lam * 8
    };
    if inter_cost > intra_penalty {
        let limit = inter_cost - intra_penalty;
        let (pred, cost) = intra_probe(ctx.cur, mb_x, mb_y, cur_block, avail, lam, limit);
        if cost < limit {
            return MbSyntax::new(pred, qp);
        }
    }
    let mut inter = MbSyntax::new(MbPred::Inter(layout), qp);
    inter.motion = motion;
    inter
}

/// Whether the residual between `cur` and `pred` quantises to all-zero at
/// `qp` (the skip test).
fn residual_is_zero(cur: &[u8; 256], pred: &[u8; 256], qp: u8) -> bool {
    (0..16).all(|blk| {
        let residual = diff(&sub_block(cur, blk), &sub_block(pred, blk));
        forward_quant(&residual, qp, false).iter().all(|&v| v == 0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vapp_check::RngExt;

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

    /// The intra probe without bounds: every legal 16x16 mode and every
    /// 4x4 block's every legal mode, summed in full.
    fn intra_probe_reference(
        cur: &Plane,
        mb_x: usize,
        mb_y: usize,
        block: &[u8; 256],
        avail: IntraAvail,
        lam: u64,
    ) -> (MbPred, u64) {
        let sad = |a: &[u8], b: &[u8]| -> u64 {
            a.iter()
                .zip(b)
                .map(|(&a, &b)| u64::from(a.abs_diff(b)))
                .sum()
        };
        let (mode16, cost16) = avail
            .legal_modes()
            .into_iter()
            .map(|m| {
                let pred = predict_intra16(cur, mb_x, mb_y, avail, m);
                (
                    m,
                    sad(block, &pred) + lam * if m == IntraMode::Dc { 4 } else { 6 },
                )
            })
            .min_by_key(|&(_, cost)| cost)
            .expect("DC is always legal");
        let cost4 = lam * 48
            + (0..16)
                .map(|blk| {
                    let (bx, by, a4) = intra4_block(mb_x, mb_y, avail, blk);
                    let src = sub_block(block, blk);
                    a4.legal_modes()
                        .into_iter()
                        .map(|m| sad(&src, &predict_intra4(cur, bx, by, a4, m)))
                        .min()
                        .expect("DC is always legal")
                })
                .sum::<u64>();
        if cost4 < cost16 {
            (MbPred::Intra4([Intra4Mode::Dc; 16]), cost4)
        } else {
            (MbPred::Intra16(mode16), cost16)
        }
    }

    #[test]
    fn bounded_intra_probe_is_exact_below_its_limit() {
        vapp_check::check("bounded_intra_probe", 96, |rng| {
            let (cols, rows) = (rng.random_range(1..4usize), rng.random_range(1..4usize));
            let (w, h) = (cols * MB_SIZE, rows * MB_SIZE);
            // Smooth ramps (where 16x16 modes and low costs win) under
            // noise from none to full range (where 4x4 often wins).
            let (sx, sy) = (rng.random_range(0..6usize), rng.random_range(0..6usize));
            let noise = [1, 8, 256][rng.random_range(0..3usize)];
            let data = (0..w * h)
                .map(|i| ((i % w) * sx + (i / w) * sy + rng.random_range(0..noise)) as u8)
                .collect();
            let cur = Plane::from_data(w, h, data);
            let (col, row) = (rng.random_range(0..cols), rng.random_range(0..rows));
            let (mb_x, mb_y) = (col * MB_SIZE, row * MB_SIZE);
            let avail = IntraAvail {
                left: col > 0 && rng.random::<bool>(),
                top: row > 0 && rng.random::<bool>(),
            };
            let lam = lambda(rng.random_range(0..=u64::from(MAX_QP)) as u8);
            let mut block = [0u8; 256];
            cur.copy_block(mb_x as isize, mb_y as isize, MB_SIZE, MB_SIZE, &mut block);
            let want = intra_probe_reference(&cur, mb_x, mb_y, &block, avail, lam);
            let random = rng.random_range(0..=want.1.saturating_mul(2));
            for limit in [0, 1, random, u64::MAX] {
                let got = intra_probe(&cur, mb_x, mb_y, &block, avail, lam, limit);
                let what = format!("avail {avail:?}, lam {lam}, limit {limit}, want {want:?}");
                if want.1 < limit {
                    assert_eq!(got, want, "{what}");
                } else {
                    assert!(got.1 >= limit, "{what}: got {got:?}");
                }
            }
        });
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
