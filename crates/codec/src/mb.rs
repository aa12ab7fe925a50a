//! One macroblock: its syntax, how that syntax is written and read, and
//! the one reconstruction the encoder and the decoder share.
//!
//! The codec is closed-loop (paper §2.3.2): the encoder must rebuild
//! exactly the pixels the decoder will, because later macroblocks and
//! frames predict from them. Both sides therefore meet in [`MbSyntax`]:
//!
//! * the encoder decides a macroblock's syntax, writes it with
//!   [`write_mb`] and rebuilds its pixels with `reconstruct`'s two steps,
//!   prediction then residual;
//! * the decoder reads it with [`read_mb`], which sees only the entropy
//!   reader and the neighbours' [`MbState`] and never a pixel, then
//!   rebuilds it with the same `reconstruct`.
//!
//! The **macroblock syntax**, symbol for symbol:
//!
//! ```text
//! [P/B] skip flag                      (Element::Skip, inc = non-skip neighbours)
//! [P/B] intra flag                     (Element::Intra, inc = intra neighbours)
//! intra:  4x4 flag                     (Element::Intra4)
//!   16x16: mode                        (Element::IntraMode)
//!   4x4:   qp delta                    (Element::QpDelta)
//!          per 4x4 block, raster order:
//!            mode                      (Element::Intra4Mode)
//!            coded flag                (Element::Blk4, inc = block column)
//!            if coded: coefficients    (Element::Sig/Level/Last)
//! inter:  partition shape              (Element::PartShape)
//!         [P8x8] 4 sub-shapes          (Element::SubShape)
//!         per block:
//!           [B] prediction direction   (Element::PredDir)
//!           per used direction: mvd x, y (Element::MvdX/MvdY, inc = neighbour MVD class)
//! intra 16x16 and inter:
//!   qp delta                           (Element::QpDelta)
//!   4 cbp flags (8x8 quadrants)        (Element::Cbp, inc = quadrant)
//!   per coded quadrant, per 4x4:
//!     coded flag                       (Element::Blk4, inc = sub-index)
//!     if coded: significance/level/last map (Element::Sig/Level/Last)
//! ```
//!
//! The reader is total: every value is clamped to its domain, so a
//! damaged payload parses into some valid [`MbSyntax`].

use crate::entropy::{Element, SymbolReader, SymbolWriter};
use crate::inter::{bi_average_into, mc_block_halfpel_into, MAX_BLOCK_PIXELS, MV_LIMIT};
use crate::intra::{predict_intra16, predict_intra4, Intra4Avail, IntraAvail};
use crate::quant::{dequant_inverse, from_zigzag, to_zigzag, MAX_QP};
use crate::transform::Block4x4;
use crate::types::{
    predict_mv, BlockGeom, Intra4Mode, IntraMode, MotionVector, PartShape, PartitionLayout,
    PredDir, SubShape,
};
use vapp_media::{MbGrid, Plane, MB_PIXELS, MB_SIZE};

/// What a frame's header fixes for every macroblock's syntax.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameSyntax {
    /// The frame has a forward reference, so each macroblock codes skip
    /// and intra flags.
    pub inter: bool,
    /// A B frame: every inter block codes its prediction direction.
    pub b: bool,
}

/// How a macroblock is predicted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MbPred {
    /// No residual: one forward 16x16 block at the predicted vector,
    /// held in `motion[0]`.
    Skip,
    /// Intra 16x16 prediction.
    Intra16(IntraMode),
    /// Intra 4x4 prediction, one mode per 4x4 block in raster order.
    Intra4([Intra4Mode; 16]),
    /// Motion compensation; block `i` of the layout moves by `motion[i]`.
    Inter(PartitionLayout),
}

/// One prediction block's motion.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockMotion {
    /// Which references the block predicts from.
    pub dir: PredDir,
    /// Forward (list 0) vector; zero when the block does not use it.
    pub fwd: MotionVector,
    /// Backward (list 1) vector; zero when the block does not use it.
    pub bwd: MotionVector,
}

/// Everything one macroblock codes: the parse result the reconstruction
/// needs, with no pixels in it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MbSyntax {
    /// Prediction mode.
    pub pred: MbPred,
    /// Motion of the prediction blocks in coding order; entries past the
    /// last block stay at their default.
    pub motion: [BlockMotion; 16],
    /// Quantiser. A skip codes none; [`read_mb`] reports the slice's
    /// running QP for it.
    pub qp: u8,
    /// Bit `i` is set when 4x4 block `i` (raster order) codes coefficients.
    coded: u16,
    /// Quantised levels per 4x4 block, row-major; zero for uncoded blocks.
    levels: [Block4x4; 16],
}

impl MbSyntax {
    /// A macroblock with no motion and no coded coefficients.
    pub fn new(pred: MbPred, qp: u8) -> Self {
        MbSyntax {
            pred,
            motion: [BlockMotion::default(); 16],
            qp,
            coded: 0,
            levels: [[0; 16]; 16],
        }
    }

    /// Whether the macroblock is intra predicted.
    pub(crate) fn is_intra(&self) -> bool {
        matches!(self.pred, MbPred::Intra16(_) | MbPred::Intra4(_))
    }

    /// Sets 4x4 block `blk`'s levels; it is coded when any is non-zero.
    pub fn set_levels(&mut self, blk: usize, levels: Block4x4) {
        let coded = levels.iter().any(|&l| l != 0);
        self.coded = (self.coded & !(1 << blk)) | (u16::from(coded) << blk);
        self.levels[blk] = levels;
    }

    /// Block `blk`'s levels when it codes coefficients.
    fn residual(&self, blk: usize) -> Option<&Block4x4> {
        ((self.coded >> blk) & 1 == 1).then_some(&self.levels[blk])
    }

    /// The layout of the motion-compensated blocks: a skip is one
    /// forward 16x16 block, an intra macroblock has none.
    fn layout(&self) -> Option<PartitionLayout> {
        match self.pred {
            MbPred::Skip => Some(PartitionLayout::whole()),
            MbPred::Inter(layout) => Some(layout),
            MbPred::Intra16(_) | MbPred::Intra4(_) => None,
        }
    }

    /// The motion of the motion-compensated blocks, in coding order.
    fn motion(&self) -> &[BlockMotion] {
        &self.motion[..self.layout().map_or(0, |l| l.block_count())]
    }

    /// The motion-compensated blocks with their motion, in coding order.
    pub(crate) fn motion_blocks(&self) -> impl Iterator<Item = (BlockGeom, BlockMotion)> + '_ {
        // An intra macroblock has no motion, so any layout serves it.
        let geoms = self
            .layout()
            .unwrap_or_else(PartitionLayout::whole)
            .blocks();
        self.motion()
            .iter()
            .enumerate()
            .map(move |(i, &m)| (geoms[i], m))
    }

    /// The state this macroblock leaves for its neighbours' prediction
    /// and contexts; `mvd_mag` is its first block's forward MVD magnitude.
    fn state(&self, frame: FrameSyntax, mvd_mag: u32) -> MbState {
        let motion = self.motion();
        MbState {
            coded: true,
            skip: self.pred == MbPred::Skip,
            intra: self.is_intra(),
            mv_fwd: motion.iter().find(|m| uses_fwd(m.dir)).map(|m| m.fwd),
            mv_bwd: motion
                .iter()
                .find(|m| uses_bwd(m.dir, frame))
                .map(|m| m.bwd),
            mvd_mag,
        }
    }
}

/// Whether a block predicting in `dir` codes a forward vector.
fn uses_fwd(dir: PredDir) -> bool {
    dir != PredDir::Backward
}

/// Whether a block predicting in `dir` codes a backward vector.
fn uses_bwd(dir: PredDir, frame: FrameSyntax) -> bool {
    frame.b && dir != PredDir::Forward
}

/// Per-macroblock state both codecs track for prediction and contexts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MbState {
    /// The macroblock has been coded (in this slice's frame).
    coded: bool,
    /// It was skipped.
    skip: bool,
    /// It is intra predicted.
    intra: bool,
    /// Its first forward vector.
    mv_fwd: Option<MotionVector>,
    /// Its first backward vector.
    mv_bwd: Option<MotionVector>,
    /// |mvd.x| + |mvd.y| of the first block (context modelling).
    mvd_mag: u32,
}

/// Neighbour lookup honouring slice boundaries (prediction and context
/// modelling never cross a slice, paper §8).
#[derive(Clone, Copy, Debug)]
pub struct Neighbors {
    /// The macroblock to the left.
    left: Option<usize>,
    /// The macroblock above, in the same slice.
    above: Option<usize>,
    /// The macroblock above and to the right, in the same slice.
    above_right: Option<usize>,
}

impl Neighbors {
    /// The intra borders these neighbours provide.
    pub(crate) fn intra_avail(&self) -> IntraAvail {
        IntraAvail {
            left: self.left.is_some(),
            top: self.above.is_some(),
        }
    }
}

/// The neighbours of macroblock `mb` in a slice whose first row is
/// `slice_top_row`.
pub fn neighbors(grid: &MbGrid, mb: usize, slice_top_row: usize) -> Neighbors {
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

fn skip_ctx_inc(states: &[MbState], nb: &Neighbors) -> usize {
    let count = |i: Option<usize>| i.map_or(0, |i| (states[i].coded && !states[i].skip) as usize);
    count(nb.left) + count(nb.above)
}

fn intra_ctx_inc(states: &[MbState], nb: &Neighbors) -> usize {
    let count = |i: Option<usize>| i.map_or(0, |i| (states[i].coded && states[i].intra) as usize);
    count(nb.left) + count(nb.above)
}

fn mvd_ctx_inc(states: &[MbState], nb: &Neighbors) -> usize {
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
/// direction (`fwd = true` for list 0). A skip moves by the forward one.
pub fn mb_mv_pred(states: &[MbState], nb: &Neighbors, fwd: bool) -> MotionVector {
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

/// The four 4x4 block indices of 8x8 quadrant `q` (row-major MB layout).
fn quadrant_blocks(q: usize) -> [usize; 4] {
    let base = (q / 2) * 8 + (q % 2) * 2;
    [base, base + 1, base + 4, base + 5]
}

/// Crops an MB-padded plane back to display size.
pub(crate) fn crop(p: &Plane, w: usize, h: usize) -> Plane {
    let mut data = vec![0; w * h];
    p.copy_block(0, 0, w, h, &mut data);
    Plane::from_data(w, h, data)
}

// ---------------------------------------------------------------- write --

/// Writes one macroblock's syntax and records its state in `states[mb]`.
///
/// The syntax must be one [`read_mb`] can return: skip and inter only in
/// a frame with a forward reference, the skip vector equal to
/// [`mb_mv_pred`]'s forward one, backward motion only in a B frame,
/// vector differences within `±MV_LIMIT`, and a non-zero level in every
/// coded block.
pub fn write_mb<W: SymbolWriter>(
    w: &mut W,
    syn: &MbSyntax,
    frame: FrameSyntax,
    states: &mut [MbState],
    mb: usize,
    nb: &Neighbors,
    prev_qp: &mut u8,
) {
    let skip = syn.pred == MbPred::Skip;
    if frame.inter {
        w.put_flag(Element::Skip, skip_ctx_inc(states, nb), skip);
        if !skip {
            w.put_flag(Element::Intra, intra_ctx_inc(states, nb), syn.is_intra());
        }
    }
    let mut mvd_mag = 0;
    match syn.pred {
        MbPred::Skip => {}
        MbPred::Intra4(modes) => {
            w.put_flag(Element::Intra4, 0, true);
            write_qp(w, syn.qp, prev_qp);
            for (blk, mode) in modes.iter().enumerate() {
                w.put_uint(Element::Intra4Mode, 0, mode.to_index());
                write_block(w, syn, blk, blk % 4);
            }
        }
        MbPred::Intra16(mode) => {
            w.put_flag(Element::Intra4, 0, false);
            w.put_uint(Element::IntraMode, 0, mode.to_index());
        }
        MbPred::Inter(layout) => {
            w.put_uint(Element::PartShape, 0, layout.shape.to_index());
            if layout.shape == PartShape::P8x8 {
                for s in layout.subs {
                    w.put_uint(Element::SubShape, 0, s.to_index());
                }
            }
            let mvd_inc = mvd_ctx_inc(states, nb);
            let mut pred_fwd = mb_mv_pred(states, nb, true);
            let mut pred_bwd = mb_mv_pred(states, nb, false);
            for (i, m) in syn.motion().iter().enumerate() {
                if frame.b {
                    w.put_uint(Element::PredDir, 0, m.dir.to_index());
                }
                if uses_fwd(m.dir) {
                    let mag = write_mvd(w, m.fwd, pred_fwd, mvd_inc);
                    if i == 0 {
                        mvd_mag = mag;
                    }
                    pred_fwd = m.fwd;
                }
                if uses_bwd(m.dir, frame) {
                    write_mvd(w, m.bwd, pred_bwd, mvd_inc);
                    pred_bwd = m.bwd;
                }
            }
        }
    }
    if matches!(syn.pred, MbPred::Intra16(_) | MbPred::Inter(_)) {
        write_qp(w, syn.qp, prev_qp);
        for q in 0..4 {
            w.put_flag(Element::Cbp, q, quadrant_coded(syn.coded, q));
        }
        for q in (0..4).filter(|&q| quadrant_coded(syn.coded, q)) {
            for (s, blk) in quadrant_blocks(q).into_iter().enumerate() {
                write_block(w, syn, blk, s);
            }
        }
    }
    states[mb] = syn.state(frame, mvd_mag);
}

fn quadrant_coded(coded: u16, q: usize) -> bool {
    quadrant_blocks(q).iter().any(|&b| (coded >> b) & 1 == 1)
}

/// Writes the QP delta (predictive metadata coding, paper §2.3.2).
fn write_qp<W: SymbolWriter>(w: &mut W, qp: u8, prev_qp: &mut u8) {
    w.put_sint(Element::QpDelta, 0, qp as i32 - *prev_qp as i32);
    *prev_qp = qp;
}

/// Writes one vector's difference from its predictor `p`; returns
/// `|dx| + |dy|` for context modelling.
fn write_mvd<W: SymbolWriter>(w: &mut W, mv: MotionVector, p: MotionVector, inc: usize) -> u32 {
    let (dx, dy) = (mv.x - p.x, mv.y - p.y);
    w.put_sint(Element::MvdX, inc, dx as i32);
    w.put_sint(Element::MvdY, inc, dy as i32);
    dx.unsigned_abs() as u32 + dy.unsigned_abs() as u32
}

/// Writes 4x4 block `blk`'s coded flag (context increment `inc`) and, when
/// coded, its zigzag significance map with interleaved levels and last
/// flags.
fn write_block<W: SymbolWriter>(w: &mut W, syn: &MbSyntax, blk: usize, inc: usize) {
    let levels = syn.residual(blk);
    w.put_flag(Element::Blk4, inc, levels.is_some());
    let Some(levels) = levels else { return };
    let zz = to_zigzag(levels);
    let last = (0..16)
        .rev()
        .find(|&i| zz[i] != 0)
        .expect("coded block has a coefficient");
    for (i, &z) in zz[..=last].iter().enumerate() {
        w.put_flag(Element::Sig, i.min(14), z != 0);
        if z != 0 {
            w.put_uint(Element::Level, usize::from(i != 0), z.unsigned_abs() - 1);
            w.put_sign(z < 0);
            w.put_flag(Element::Last, i.min(14), i == last);
        }
    }
}

// ----------------------------------------------------------------- read --

/// Reads one macroblock's syntax and records its state in `states[mb]`.
///
/// Reads only symbols and neighbour state, never pixels. Total: a damaged
/// payload yields clamped, valid syntax.
pub fn read_mb<R: SymbolReader>(
    r: &mut R,
    frame: FrameSyntax,
    states: &mut [MbState],
    mb: usize,
    nb: &Neighbors,
    prev_qp: &mut u8,
) -> MbSyntax {
    let mut syn = MbSyntax::new(MbPred::Skip, *prev_qp);
    let mut pred_fwd = mb_mv_pred(states, nb, true);
    let intra = if !frame.inter {
        true
    } else if r.get_flag(Element::Skip, skip_ctx_inc(states, nb)) {
        syn.motion[0].fwd = pred_fwd;
        states[mb] = syn.state(frame, 0);
        return syn;
    } else {
        r.get_flag(Element::Intra, intra_ctx_inc(states, nb))
    };

    let mut mvd_mag = 0;
    if intra && r.get_flag(Element::Intra4, 0) {
        syn.qp = read_qp(r, prev_qp);
        let mut modes = [Intra4Mode::Dc; 16];
        for (blk, mode) in modes.iter_mut().enumerate() {
            *mode = Intra4Mode::from_index(r.get_uint(Element::Intra4Mode, 0).min(4));
            read_block(r, &mut syn, blk, blk % 4);
        }
        syn.pred = MbPred::Intra4(modes);
        states[mb] = syn.state(frame, 0);
        return syn;
    }
    if intra {
        syn.pred = MbPred::Intra16(IntraMode::from_index(
            r.get_uint(Element::IntraMode, 0).min(3),
        ));
    } else {
        let mut layout = PartitionLayout::whole();
        layout.shape = PartShape::from_index(r.get_uint(Element::PartShape, 0).min(3));
        if layout.shape == PartShape::P8x8 {
            for sub in &mut layout.subs {
                *sub = SubShape::from_index(r.get_uint(Element::SubShape, 0).min(3));
            }
        }
        syn.pred = MbPred::Inter(layout);
        let mvd_inc = mvd_ctx_inc(states, nb);
        let mut pred_bwd = mb_mv_pred(states, nb, false);
        for (i, m) in syn.motion[..layout.block_count()].iter_mut().enumerate() {
            if frame.b {
                m.dir = PredDir::from_index(r.get_uint(Element::PredDir, 0).min(2));
            }
            if uses_fwd(m.dir) {
                let mag;
                (m.fwd, mag) = read_mv(r, pred_fwd, mvd_inc);
                if i == 0 {
                    mvd_mag = mag;
                }
                pred_fwd = m.fwd;
            }
            if uses_bwd(m.dir, frame) {
                m.bwd = read_mv(r, pred_bwd, mvd_inc).0;
                pred_bwd = m.bwd;
            }
        }
    }
    syn.qp = read_qp(r, prev_qp);
    let cbp: [bool; 4] = core::array::from_fn(|q| r.get_flag(Element::Cbp, q));
    for q in (0..4).filter(|&q| cbp[q]) {
        for (s, blk) in quadrant_blocks(q).into_iter().enumerate() {
            read_block(r, &mut syn, blk, s);
        }
    }
    states[mb] = syn.state(frame, mvd_mag);
    syn
}

/// Reads a macroblock's quantiser delta and applies it to `prev_qp`.
fn read_qp<R: SymbolReader>(r: &mut R, prev_qp: &mut u8) -> u8 {
    let delta = r
        .get_sint(Element::QpDelta, 0)
        .clamp(-(MAX_QP as i32), MAX_QP as i32);
    *prev_qp = (*prev_qp as i32 + delta).clamp(0, MAX_QP as i32) as u8;
    *prev_qp
}

/// Reads one motion-vector difference and applies it to the predictor
/// `p`; also returns `|dx| + |dy|` for context modelling.
fn read_mv<R: SymbolReader>(r: &mut R, p: MotionVector, mvd_inc: usize) -> (MotionVector, u32) {
    let dx = clamp_mv(r.get_sint(Element::MvdX, mvd_inc));
    let dy = clamp_mv(r.get_sint(Element::MvdY, mvd_inc));
    let add = |p: i16, d: i16| clamp_mv(p as i32 + d as i32);
    let mag = dx.unsigned_abs() as u32 + dy.unsigned_abs() as u32;
    (MotionVector::new(add(p.x, dx), add(p.y, dy)), mag)
}

/// Clamps a motion-vector component to the legal domain.
fn clamp_mv(v: i32) -> i16 {
    v.clamp(-(MV_LIMIT as i32), MV_LIMIT as i32) as i16
}

/// Mirror of [`write_block`]: levels are clamped to `|level| <= 2^15 + 1`.
fn read_block<R: SymbolReader>(r: &mut R, syn: &mut MbSyntax, blk: usize, inc: usize) {
    if !r.get_flag(Element::Blk4, inc) {
        return;
    }
    let mut zz: Block4x4 = [0; 16];
    for (i, z) in zz.iter_mut().enumerate() {
        if r.get_flag(Element::Sig, i.min(14)) {
            let mag = r.get_uint(Element::Level, usize::from(i != 0)).min(1 << 15) + 1;
            *z = if r.get_sign() {
                -(mag as i32)
            } else {
                mag as i32
            };
            if r.get_flag(Element::Last, i.min(14)) {
                break;
            }
        }
    }
    syn.coded |= 1 << blk;
    syn.levels[blk] = from_zigzag(&zz);
}

// ---------------------------------------------------------- reconstruct --

/// The reference planes a frame's macroblocks predict with.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Refs<'a> {
    pub fwd: Option<&'a Plane>,
    pub bwd: Option<&'a Plane>,
}

/// Rebuilds one macroblock's pixels into `recon` at `(mb_x, mb_y)` in two
/// steps: its prediction ([`predict`]), then each coded block's residual
/// on top of it ([`put_mb`]). Intra 4x4 takes both steps block by block
/// ([`predict_intra4`], [`put_block4`]), since each block predicts from
/// the blocks before it.
///
/// The encoder takes the same steps, reusing the prediction it quantised
/// against instead of building it again.
pub(crate) fn reconstruct(
    syn: &MbSyntax,
    refs: &Refs<'_>,
    recon: &mut Plane,
    mb_x: usize,
    mb_y: usize,
    avail: IntraAvail,
) {
    if let MbPred::Intra4(modes) = syn.pred {
        for (blk, &mode) in modes.iter().enumerate() {
            let (bx, by, a4) = intra4_block(mb_x, mb_y, avail, blk);
            let pred = predict_intra4(recon, bx, by, a4, mode);
            put_block4(recon, bx, by, &pred, syn, blk);
        }
        return;
    }
    let pred = predict(syn, refs, recon, mb_x, mb_y, avail);
    put_mb(recon, mb_x, mb_y, &pred, syn);
}

/// Stores a skip, intra 16x16 or inter macroblock's prediction at
/// `(mb_x, mb_y)` and adds each coded block's residual.
pub(crate) fn put_mb(
    recon: &mut Plane,
    mb_x: usize,
    mb_y: usize,
    pred: &[u8; MB_PIXELS],
    syn: &MbSyntax,
) {
    store_rows::<MB_SIZE>(recon, mb_x, mb_y, pred);
    for blk in 0..16 {
        if let Some(levels) = syn.residual(blk) {
            add_residual(
                recon,
                mb_x + (blk % 4) * 4,
                mb_y + (blk / 4) * 4,
                levels,
                syn.qp,
            );
        }
    }
}

/// The 16x16 prediction of a skip, intra 16x16 or inter macroblock. Intra
/// 4x4 predicts block by block from the progressive reconstruction
/// instead (see [`intra4_block`]).
pub(crate) fn predict(
    syn: &MbSyntax,
    refs: &Refs<'_>,
    recon: &Plane,
    mb_x: usize,
    mb_y: usize,
    avail: IntraAvail,
) -> [u8; MB_PIXELS] {
    debug_assert!(!matches!(syn.pred, MbPred::Intra4(_)));
    if let MbPred::Intra16(mode) = syn.pred {
        return predict_intra16(recon, mb_x, mb_y, avail, mode);
    }
    let mut pred = [0u8; MB_PIXELS];
    for (g, m) in syn.motion_blocks() {
        let (x, y) = (mb_x + g.dx, mb_y + g.dy);
        if g.w == MB_SIZE {
            // Full-width rows are contiguous in the prediction.
            compensate(refs, x, y, &g, m, &mut pred[g.dy * MB_SIZE..][..g.w * g.h]);
            continue;
        }
        let mut buf = [0u8; MAX_BLOCK_PIXELS];
        let block = &mut buf[..g.w * g.h];
        compensate(refs, x, y, &g, m, block);
        for (row, src) in block.chunks_exact(g.w).enumerate() {
            pred[(g.dy + row) * MB_SIZE + g.dx..][..g.w].copy_from_slice(src);
        }
    }
    pred
}

/// Motion-compensates one block at `(x, y)` into `out`, falling back to
/// the forward reference, or to mid-gray, when a direction's reference is
/// missing (a damaged direction in a frame without that reference).
fn compensate(refs: &Refs<'_>, x: usize, y: usize, g: &BlockGeom, m: BlockMotion, out: &mut [u8]) {
    let mc = |reference: &Plane, mv: MotionVector, out: &mut [u8]| {
        mc_block_halfpel_into(reference, x, y, g.w, g.h, mv, out)
    };
    match (m.dir, refs.fwd, refs.bwd) {
        (PredDir::Forward, Some(rf), _) => mc(rf, m.fwd, out),
        (PredDir::Backward, _, Some(rb)) => mc(rb, m.bwd, out),
        (PredDir::Bi, Some(rf), Some(rb)) => {
            let n = out.len();
            let (mut f, mut b) = ([0u8; MAX_BLOCK_PIXELS], [0u8; MAX_BLOCK_PIXELS]);
            mc(rf, m.fwd, &mut f[..n]);
            mc(rb, m.bwd, &mut b[..n]);
            bi_average_into(&f[..n], &b[..n], out);
        }
        (_, Some(rf), _) => mc(rf, m.fwd, out),
        _ => out.fill(128),
    }
}

/// Origin and border availability of 4x4 block `blk` (raster order) of
/// the macroblock at `(mb_x, mb_y)`.
pub(crate) fn intra4_block(
    mb_x: usize,
    mb_y: usize,
    avail: IntraAvail,
    blk: usize,
) -> (usize, usize, Intra4Avail) {
    let a4 = Intra4Avail {
        left: !blk.is_multiple_of(4) || avail.left,
        top: blk / 4 > 0 || avail.top,
    };
    (mb_x + (blk % 4) * 4, mb_y + (blk / 4) * 4, a4)
}

/// Stores intra 4x4 block `blk`'s prediction at `(x, y)` and adds its
/// residual, so the next block predicts from it.
pub(crate) fn put_block4(
    recon: &mut Plane,
    x: usize,
    y: usize,
    pred: &[u8; 16],
    syn: &MbSyntax,
    blk: usize,
) {
    store_rows::<4>(recon, x, y, pred);
    if let Some(levels) = syn.residual(blk) {
        add_residual(recon, x, y, levels, syn.qp);
    }
}

/// Writes a block of `N`-pixel rows at `(x, y)`. Reconstructions are
/// padded to whole macroblocks, so a macroblock's blocks always fit; the
/// fixed row width lets each row copy inline.
fn store_rows<const N: usize>(recon: &mut Plane, x: usize, y: usize, block: &[u8]) {
    for (r, row) in block.as_chunks::<N>().0.iter().enumerate() {
        recon.row_mut(y + r)[x..][..N].copy_from_slice(row);
    }
}

/// Dequantises and inverse-transforms one block's levels and adds the
/// residual onto the reconstruction at `(x, y)` in place, saturating to
/// the pixel range.
fn add_residual(recon: &mut Plane, x: usize, y: usize, levels: &Block4x4, qp: u8) {
    let res = dequant_inverse(levels, qp);
    for (dy, res_row) in res.chunks_exact(4).enumerate() {
        for (px, &d) in recon.row_mut(y + dy)[x..x + 4].iter_mut().zip(res_row) {
            *px = (*px as i32 + d).clamp(0, 255) as u8;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_rows_partition_evenly() {
        assert_eq!(slice_rows(6, 1), vec![(0, 6)]);
        assert_eq!(slice_rows(6, 2), vec![(0, 3), (3, 6)]);
        assert_eq!(slice_rows(7, 3), vec![(0, 3), (3, 5), (5, 7)]);
        // More slices than rows: clamped.
        assert_eq!(slice_rows(2, 5), vec![(0, 1), (1, 2)]);
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
    fn store_rows_writes_only_the_block() {
        let mut p = Plane::filled(12, 10, 7);
        let block: Vec<u8> = (100..116).collect();
        store_rows::<4>(&mut p, 8, 6, &block);
        for y in 0..10 {
            for x in 0..12 {
                let inside = (8..12).contains(&x) && (6..10).contains(&y);
                let want = if inside {
                    block[(y - 6) * 4 + (x - 8)]
                } else {
                    7
                };
                assert_eq!(p.get(x, y), want, "({x}, {y})");
            }
        }
    }
}
