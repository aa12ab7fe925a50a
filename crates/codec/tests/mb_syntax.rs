//! The macroblock syntax round-trips symbol for symbol: random
//! [`MbSyntax`] values written with `write_mb` read back identically with
//! `read_mb` into one reused value, under both entropy coders, in I, P and B frames, across
//! every partition and sub-shape, intra 16x16 and 4x4, random coded masks,
//! levels up to the reader's clamp, vectors and QP deltas, with one or
//! more slices. The neighbour state each side records after every
//! macroblock must agree too, since it drives the next macroblock's
//! contexts and predictors.

use vapp_check::{RngExt, StdRng};
use vapp_codec::entropy::{
    CabacReader, CabacWriter, CavlcReader, CavlcWriter, SymbolReader, SymbolWriter,
};
use vapp_codec::inter::MV_LIMIT;
use vapp_codec::mb::{
    mb_mv_pred, neighbors, read_mb, write_mb, FrameSyntax, MbPred, MbState, MbSyntax, Neighbors,
};
use vapp_codec::quant::MAX_QP;
use vapp_codec::types::{
    Intra4Mode, IntraMode, MotionVector, PartShape, PartitionLayout, PredDir, SubShape,
};
use vapp_media::{MbGrid, MB_SIZE};

/// A vector component: mostly small, sometimes anywhere in half the legal
/// range, so every difference from a predictor stays within `±MV_LIMIT`.
fn component(rng: &mut StdRng) -> i16 {
    let reach = if rng.random_range(0..4u32) == 0 {
        MV_LIMIT / 2
    } else {
        16
    };
    rng.random_range(0..=2 * reach as u64) as i16 - reach
}

fn vector(rng: &mut StdRng) -> MotionVector {
    MotionVector::new(component(rng), component(rng))
}

/// A level: zero half the time, else small, or anywhere up to the
/// reader's `2^15 + 1` clamp.
fn level(rng: &mut StdRng) -> i32 {
    let mag = match rng.random_range(0..8u32) {
        0..=3 => 0,
        4..=6 => rng.random_range(1..=4u32) as i32,
        _ => rng.random_range(1..=(1u32 << 15) + 1) as i32,
    };
    if rng.random::<bool>() {
        -mag
    } else {
        mag
    }
}

/// Random levels for every block of a random coded mask.
fn residual(rng: &mut StdRng, syn: &mut MbSyntax) {
    let mask = match rng.random_range(0..4u32) {
        0 => 0,
        1 => u16::MAX,
        _ => rng.random::<u64>() as u16,
    };
    for blk in (0..16).filter(|b| mask >> b & 1 == 1) {
        let mut levels: [i32; 16] = core::array::from_fn(|_| level(rng));
        if levels.iter().all(|&l| l == 0) {
            levels[rng.random_range(0..16usize)] = 1;
        }
        syn.set_levels(blk, levels);
    }
}

/// A random syntax value `read_mb` can read for the macroblock whose
/// neighbours are `nb`.
fn random_syntax(
    rng: &mut StdRng,
    frame: FrameSyntax,
    states: &[MbState],
    nb: &Neighbors,
    prev_qp: u8,
) -> MbSyntax {
    let qp = rng.random_range(0..=MAX_QP as u64) as u8;
    let pred = match rng.random_range(0..if frame.inter { 4 } else { 2 }) {
        0 => MbPred::Intra16(IntraMode::ALL[rng.random_range(0..4usize)]),
        1 => MbPred::Intra4(core::array::from_fn(|_| {
            Intra4Mode::ALL[rng.random_range(0..5usize)]
        })),
        2 => {
            let mut skip = MbSyntax::new(MbPred::Skip, prev_qp);
            skip.motion[0].fwd = mb_mv_pred(states, nb, true);
            return skip;
        }
        _ => {
            let shape = PartShape::from_index(rng.random_range(0..4u32));
            let mut layout = PartitionLayout::whole();
            layout.shape = shape;
            if shape == PartShape::P8x8 {
                layout.subs =
                    core::array::from_fn(|_| SubShape::from_index(rng.random_range(0..4u32)));
            }
            MbPred::Inter(layout)
        }
    };
    let mut syn = MbSyntax::new(pred, qp);
    if let MbPred::Inter(layout) = pred {
        for m in &mut syn.motion[..layout.blocks().len()] {
            m.dir = if frame.b {
                PredDir::from_index(rng.random_range(0..3u32))
            } else {
                PredDir::Forward
            };
            if m.dir != PredDir::Backward {
                m.fwd = vector(rng);
            }
            if m.dir != PredDir::Forward {
                m.bwd = vector(rng);
            }
        }
    }
    residual(rng, &mut syn);
    syn
}

/// The macroblocks of slice rows `row_start..row_end`, in coding order.
fn slice_mbs(grid: &MbGrid, (row_start, row_end): (usize, usize)) -> std::ops::Range<usize> {
    grid.mb_index(0, row_start)..grid.mb_index(0, row_end - 1) + grid.mb_cols()
}

/// Writes random syntax for every macroblock, one payload per slice.
/// Returns the payloads and each macroblock's syntax and recorded state.
fn write_frame<W: SymbolWriter>(
    new_writer: impl Fn() -> W,
    rng: &mut StdRng,
    grid: &MbGrid,
    slices: &[(usize, usize)],
    frame: FrameSyntax,
    base_qp: u8,
) -> (Vec<Vec<u8>>, Vec<(MbSyntax, MbState)>) {
    let mut states = vec![MbState::default(); grid.mb_count()];
    let (mut payloads, mut written) = (Vec::new(), Vec::new());
    for &rows in slices {
        let mut w = new_writer();
        let mut prev_qp = base_qp;
        for mb in slice_mbs(grid, rows) {
            let nb = neighbors(grid, mb, rows.0);
            let syn = random_syntax(rng, frame, &states, &nb, prev_qp);
            write_mb(&mut w, &syn, frame, &mut states, mb, &nb, &mut prev_qp);
            written.push((syn, states[mb]));
        }
        payloads.push(w.finish());
    }
    (payloads, written)
}

/// Reads the payloads back into one reused syntax value, as the decoder
/// does, and checks every macroblock's syntax and state against what was
/// written: levels or motion left over from an earlier macroblock fail
/// the comparison.
fn read_frame<'a, R: SymbolReader>(
    new_reader: impl Fn(&'a [u8]) -> R,
    payloads: &'a [Vec<u8>],
    written: &[(MbSyntax, MbState)],
    grid: &MbGrid,
    slices: &[(usize, usize)],
    frame: FrameSyntax,
    base_qp: u8,
) {
    let mut states = vec![MbState::default(); grid.mb_count()];
    let mut expected = written.iter();
    let mut syn = MbSyntax::new(MbPred::Skip, base_qp);
    for (&rows, bytes) in slices.iter().zip(payloads) {
        let mut r = new_reader(bytes);
        let mut prev_qp = base_qp;
        for mb in slice_mbs(grid, rows) {
            let nb = neighbors(grid, mb, rows.0);
            read_mb(&mut r, &mut syn, frame, &mut states, mb, &nb, &mut prev_qp);
            let (want, want_state) = expected.next().expect("one written value per MB");
            assert_eq!(&syn, want, "syntax of MB {mb}");
            assert_eq!(&states[mb], want_state, "state of MB {mb}");
        }
    }
}

#[test]
fn written_syntax_reads_back_identically() {
    vapp_check::check("mb_syntax_round_trip", 96, |rng| {
        let (cols, rows) = (rng.random_range(1..=4usize), rng.random_range(1..=4usize));
        let grid = MbGrid::for_frame(cols * MB_SIZE, rows * MB_SIZE);
        let n = rng.random_range(1..=rows);
        let slices: Vec<_> = (0..n).map(|s| (s * rows / n, (s + 1) * rows / n)).collect();
        // I, P or B frame.
        let inter = rng.random_range(0..3u32);
        let frame = FrameSyntax {
            inter: inter > 0,
            b: inter > 1,
        };
        let base_qp = rng.random_range(0..=MAX_QP as u64) as u8;
        if rng.random::<bool>() {
            let (payloads, written) =
                write_frame(CabacWriter::new, rng, &grid, &slices, frame, base_qp);
            read_frame(
                CabacReader::new,
                &payloads,
                &written,
                &grid,
                &slices,
                frame,
                base_qp,
            );
        } else {
            let (payloads, written) =
                write_frame(CavlcWriter::new, rng, &grid, &slices, frame, base_qp);
            read_frame(
                CavlcReader::new,
                &payloads,
                &written,
                &grid,
                &slices,
                frame,
                base_qp,
            );
        }
    });
}
