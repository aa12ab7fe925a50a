//! The total (never-failing) decoder.
//!
//! Mirrors the macroblock syntax documented in [`crate::encoder`]. On an
//! undamaged stream the output is bit-exact with the encoder's own
//! reconstruction. On a damaged stream the decoder keeps going: every
//! value is clamped to its domain, variable-length reads are bounded, and
//! reads past the end of a payload produce deterministic garbage — the
//! error then propagates through contexts, predictive metadata and motion
//! compensation exactly as the paper's §3 describes, and resynchronises at
//! the next frame (or slice) boundary because each payload gets a fresh
//! entropy context.

use crate::encoder::{
    crop, intra_ctx_inc, mb_mv_pred, mvd_ctx_inc, neighbors, quadrant_blocks, skip_ctx_inc,
    slice_rows, MbState,
};
use crate::entropy::{CabacReader, CavlcReader, Element, EntropyMode, SymbolReader};
use crate::inter::{bi_average_into, mc_block_sub_into, MAX_BLOCK_PIXELS, MV_LIMIT};
use crate::intra::{predict_intra16, predict_intra4, Intra4Avail, IntraAvail};
use crate::quant::{dequantize, from_zigzag, MAX_QP};
use crate::syntax::EncodedVideo;
use crate::transform::{inverse4x4, Block4x4};
use crate::types::{
    FrameType, Intra4Mode, IntraMode, MotionVector, PartShape, PartitionLayout, PredDir, SubShape,
};
use vapp_media::{Frame, MbGrid, Plane, Video, MB_PIXELS, MB_SIZE};

/// Decodes an encoded video into display order.
///
/// Total: corrupted payloads produce visually damaged frames, never a
/// panic. Headers are trusted (they live in precise storage in the
/// approximate-storage system, paper §4.4).
///
/// # Panics
///
/// Panics only if the *headers* are structurally inconsistent (e.g. a
/// reference index pointing at an uncoded frame), which precise storage
/// rules out and [`EncodedVideo::from_bytes`] rejects for container bytes.
pub fn decode(stream: &EncodedVideo) -> Video {
    let width = stream.header.width as usize;
    let height = stream.header.height as usize;
    let grid = MbGrid::for_frame(width, height);
    let n = stream.frames.len();
    // Reconstructions in coding order; the decoded picture buffer maps a
    // coding index, and the display list a display index, to a slot.
    let mut recons: Vec<Plane> = Vec::with_capacity(n);
    let mut dpb: Vec<Option<usize>> = vec![None; n];
    let mut display: Vec<Option<usize>> = vec![None; stream.header.frame_count as usize];

    let frames_total = n;
    let _video_span = vapp_obs::span!("codec.video.decode", frames_total);
    for f in &stream.frames {
        let ci = f.header.coding_index as usize;
        let frame_type = f.header.frame_type;
        let _frame_span = vapp_obs::span!("codec.frame.decode", ci, frame_type);
        vapp_obs::counter!("codec.frame.decoded");
        let reference = |r: u32, which: &str| {
            &recons[dpb[r as usize].unwrap_or_else(|| panic!("{which} reference coded before use"))]
        };
        let ref_fwd = f.header.ref_fwd.map(|r| reference(r, "forward"));
        let ref_bwd = f.header.ref_bwd.map(|r| reference(r, "backward"));
        let mut recon = decode_frame(stream, f, &grid, ref_fwd, ref_bwd);
        if stream.header.deblock {
            crate::deblock::deblock_plane(&mut recon, f.header.qp.min(MAX_QP));
        }
        recons.push(recon);
        if let Some(slot) = display.get_mut(f.header.display_index as usize) {
            *slot = Some(recons.len() - 1);
        }
        if ci < dpb.len() {
            dpb[ci] = Some(recons.len() - 1);
        }
    }

    // Each slot is shown at most once, so planes move into display order;
    // only a geometry that is not MB-aligned needs a cropping copy.
    let aligned = width.is_multiple_of(MB_SIZE) && height.is_multiple_of(MB_SIZE);
    let mut recons: Vec<Option<Plane>> = recons.into_iter().map(Some).collect();
    let frames = display
        .into_iter()
        .map(|slot| match slot.and_then(|i| recons[i].take()) {
            Some(p) if aligned => Frame::from_plane(p),
            Some(p) => Frame::from_plane(crop(&p, width, height)),
            None => Frame::filled(width, height, 128),
        });
    Video::from_frames(frames.collect(), stream.header.fps)
}

fn decode_frame(
    stream: &EncodedVideo,
    frame: &crate::syntax::EncodedFrame,
    grid: &MbGrid,
    ref_fwd: Option<&Plane>,
    ref_bwd: Option<&Plane>,
) -> Plane {
    let subpel = stream.header.subpel;
    let pw = grid.mb_cols() * MB_SIZE;
    let ph = grid.mb_rows() * MB_SIZE;
    let mut recon = Plane::filled(pw, ph, 128);
    let mut states = vec![MbState::default(); grid.mb_count()];
    let base_qp = frame.header.qp.min(MAX_QP);

    let ranges = frame.slice_ranges();
    let row_groups = slice_rows(grid.mb_rows(), ranges.len().max(1));
    for (slice_idx, &(row_start, row_end)) in row_groups.iter().enumerate() {
        let empty: &[u8] = &[];
        let bytes = ranges
            .get(slice_idx)
            .map(|r| &frame.payload[r.clone()])
            .unwrap_or(empty);
        match stream.header.entropy {
            EntropyMode::Cabac => {
                let mut r = CabacReader::new(bytes);
                decode_slice(
                    &mut r,
                    grid,
                    frame,
                    ref_fwd,
                    ref_bwd,
                    &mut recon,
                    &mut states,
                    row_start,
                    row_end,
                    base_qp,
                    subpel,
                );
            }
            EntropyMode::Cavlc => {
                let mut r = CavlcReader::new(bytes);
                decode_slice(
                    &mut r,
                    grid,
                    frame,
                    ref_fwd,
                    ref_bwd,
                    &mut recon,
                    &mut states,
                    row_start,
                    row_end,
                    base_qp,
                    subpel,
                );
            }
        }
    }
    recon
}

#[allow(clippy::too_many_arguments)]
fn decode_slice<R: SymbolReader>(
    r: &mut R,
    grid: &MbGrid,
    frame: &crate::syntax::EncodedFrame,
    ref_fwd: Option<&Plane>,
    ref_bwd: Option<&Plane>,
    recon: &mut Plane,
    states: &mut [MbState],
    row_start: usize,
    row_end: usize,
    base_qp: u8,
    subpel: bool,
) {
    let mut prev_qp = base_qp;
    for row in row_start..row_end {
        for col in 0..grid.mb_cols() {
            let mb = grid.mb_index(col, row);
            decode_mb(
                r,
                grid,
                frame,
                ref_fwd,
                ref_bwd,
                recon,
                states,
                mb,
                row_start,
                &mut prev_qp,
                subpel,
            );
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn decode_mb<R: SymbolReader>(
    r: &mut R,
    grid: &MbGrid,
    frame: &crate::syntax::EncodedFrame,
    ref_fwd: Option<&Plane>,
    ref_bwd: Option<&Plane>,
    recon: &mut Plane,
    states: &mut [MbState],
    mb: usize,
    slice_top_row: usize,
    prev_qp: &mut u8,
    subpel: bool,
) {
    let (col, row) = grid.mb_position(mb);
    let (mb_x, mb_y) = (col * MB_SIZE, row * MB_SIZE);
    let nb = neighbors(grid, mb, slice_top_row);
    let is_b = frame.header.frame_type == FrameType::B;
    let inter_allowed = ref_fwd.is_some();
    let pred_fwd = mb_mv_pred(states, &nb, true);
    let mut pred = [0u8; MB_PIXELS];

    // --- skip flag ---
    if inter_allowed {
        let skip = r.get_flag(Element::Skip, skip_ctx_inc(states, &nb));
        if skip {
            let rf = ref_fwd.expect("inter_allowed");
            mc_block_sub_into(
                rf, mb_x, mb_y, MB_SIZE, MB_SIZE, pred_fwd, subpel, &mut pred,
            );
            recon.store_block(mb_x, mb_y, MB_SIZE, MB_SIZE, &pred);
            states[mb] = MbState {
                coded: true,
                skip: true,
                intra: false,
                mv_fwd: Some(pred_fwd),
                mv_bwd: None,
                mvd_mag: 0,
            };
            return;
        }
    }

    // --- intra / inter ---
    let intra = if inter_allowed {
        r.get_flag(Element::Intra, intra_ctx_inc(states, &nb))
    } else {
        true
    };

    let avail = IntraAvail {
        left: nb.left.is_some(),
        top: nb.above.is_some(),
    };

    let mut new_state = MbState {
        coded: true,
        skip: false,
        intra,
        mv_fwd: None,
        mv_bwd: None,
        mvd_mag: 0,
    };

    if intra {
        let is4 = r.get_flag(Element::Intra4, 0);
        if is4 {
            decode_intra4_mb(r, recon, mb_x, mb_y, avail, prev_qp);
            states[mb] = new_state;
            return;
        }
        let mode = IntraMode::from_index(r.get_uint(Element::IntraMode, 0).min(3));
        pred = predict_intra16(recon, mb_x, mb_y, avail, mode);
    } else {
        let shape = PartShape::from_index(r.get_uint(Element::PartShape, 0).min(3));
        let mut layout = PartitionLayout {
            shape,
            subs: [SubShape::S8x8; 4],
        };
        if shape == PartShape::P8x8 {
            for q in 0..4 {
                layout.subs[q] = SubShape::from_index(r.get_uint(Element::SubShape, 0).min(3));
            }
        }
        let mvd_inc = mvd_ctx_inc(states, &nb);
        let mut prev_fwd: Option<MotionVector> = None;
        let mut prev_bwd: Option<MotionVector> = None;
        for (i, g) in layout.blocks().iter().enumerate() {
            let dir = if is_b {
                PredDir::from_index(r.get_uint(Element::PredDir, 0).min(2))
            } else {
                PredDir::Forward
            };
            let use_fwd = dir != PredDir::Backward;
            let use_bwd = is_b && dir != PredDir::Forward;
            let mut mv_f = MotionVector::ZERO;
            let mut mv_b = MotionVector::ZERO;
            if use_fwd {
                let mvd_mag;
                (mv_f, mvd_mag) = read_mv(r, prev_fwd.unwrap_or(pred_fwd), mvd_inc);
                if i == 0 {
                    new_state.mvd_mag = mvd_mag;
                }
                prev_fwd = Some(mv_f);
                new_state.mv_fwd.get_or_insert(mv_f);
            }
            if use_bwd {
                let p = prev_bwd.unwrap_or_else(|| mb_mv_pred(states, &nb, false));
                mv_b = read_mv(r, p, mvd_inc).0;
                prev_bwd = Some(mv_b);
                new_state.mv_bwd.get_or_insert(mv_b);
            }
            // Compensate into stack buffers, falling back to mid-gray
            // prediction when a reference is missing (corrupt direction in
            // a frame without that reference).
            let n = g.w * g.h;
            let mut buf = [0u8; MAX_BLOCK_PIXELS];
            let block = &mut buf[..n];
            let mc = |reference: &Plane, mv: MotionVector, out: &mut [u8]| {
                mc_block_sub_into(
                    reference,
                    mb_x + g.dx,
                    mb_y + g.dy,
                    g.w,
                    g.h,
                    mv,
                    subpel,
                    out,
                )
            };
            match (dir, ref_fwd, ref_bwd) {
                (PredDir::Forward, Some(rf), _) => mc(rf, mv_f, block),
                (PredDir::Backward, _, Some(rb)) => mc(rb, mv_b, block),
                (PredDir::Bi, Some(rf), Some(rb)) => {
                    let (mut f, mut b) = ([0u8; MAX_BLOCK_PIXELS], [0u8; MAX_BLOCK_PIXELS]);
                    mc(rf, mv_f, &mut f[..n]);
                    mc(rb, mv_b, &mut b[..n]);
                    bi_average_into(&f[..n], &b[..n], block);
                }
                (_, Some(rf), _) => mc(rf, mv_f, block),
                _ => block.fill(128),
            }
            for (y, src) in block.chunks_exact(g.w).enumerate() {
                pred[(g.dy + y) * MB_SIZE + g.dx..][..g.w].copy_from_slice(src);
            }
        }
    }

    // --- reconstruct: the prediction, plus each coded block's residual
    // as its coefficients arrive (qp delta, cbp, then per-block flags) ---
    recon.store_block(mb_x, mb_y, MB_SIZE, MB_SIZE, &pred);
    let qp = read_qp(r, prev_qp);
    let cbp: [bool; 4] = core::array::from_fn(|q| r.get_flag(Element::Cbp, q));
    for q in (0..4).filter(|&q| cbp[q]) {
        for (s, &blk) in quadrant_blocks(q).iter().enumerate() {
            if r.get_flag(Element::Blk4, s) {
                add_residual(r, recon, mb_x + (blk % 4) * 4, mb_y + (blk / 4) * 4, qp);
            }
        }
    }
    states[mb] = new_state;
}

/// Mirror of the encoder's `code_intra4_mb`: interleaved per-block mode,
/// residual and reconstruction.
fn decode_intra4_mb<R: SymbolReader>(
    r: &mut R,
    recon: &mut Plane,
    mb_x: usize,
    mb_y: usize,
    avail: IntraAvail,
    prev_qp: &mut u8,
) {
    let qp = read_qp(r, prev_qp);
    for blk in 0..16 {
        let bx = mb_x + (blk % 4) * 4;
        let by = mb_y + (blk / 4) * 4;
        let a4 = Intra4Avail {
            left: blk % 4 > 0 || avail.left,
            top: blk / 4 > 0 || avail.top,
        };
        let mode = Intra4Mode::from_index(r.get_uint(Element::Intra4Mode, 0).min(4));
        recon.store_block(bx, by, 4, 4, &predict_intra4(recon, bx, by, a4, mode));
        if r.get_flag(Element::Blk4, blk % 4) {
            add_residual(r, recon, bx, by, qp);
        }
    }
}

/// Decodes one coded 4x4 block and adds its residual onto the
/// reconstruction at `(x, y)` in place, one 4-pixel row slice at a time,
/// saturating to the pixel range.
fn add_residual<R: SymbolReader>(r: &mut R, recon: &mut Plane, x: usize, y: usize, qp: u8) {
    let res = inverse4x4(&dequantize(&decode_block_coeffs(r), qp));
    for (dy, res_row) in res.chunks_exact(4).enumerate() {
        for (px, &d) in recon.row_mut(y + dy)[x..x + 4].iter_mut().zip(res_row) {
            *px = (*px as i32 + d).clamp(0, 255) as u8;
        }
    }
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

/// Mirror of the encoder's `code_block_coeffs`.
fn decode_block_coeffs<R: SymbolReader>(r: &mut R) -> Block4x4 {
    let mut zz: Block4x4 = [0; 16];
    for (i, z) in zz.iter_mut().enumerate() {
        let sig = r.get_flag(Element::Sig, i.min(14));
        if sig {
            let mag = r.get_uint(Element::Level, usize::from(i != 0)).min(1 << 15) + 1;
            let neg = r.get_sign();
            *z = if neg { -(mag as i32) } else { mag as i32 };
            let last = r.get_flag(Element::Last, i.min(14));
            if last {
                break;
            }
        }
    }
    from_zigzag(&zz)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{Encoder, EncoderConfig};
    use vapp_media::Video;

    fn tiny_video(frames: usize) -> Video {
        let mut v = Video::new(48, 32, 25.0);
        for t in 0..frames {
            let mut f = Frame::new(48, 32);
            for y in 0..32 {
                for x in 0..48 {
                    let val = ((x * 5 + y * 3 + t * 7) % 200 + 20) as u8;
                    f.plane_mut().set(x, y, val);
                }
            }
            v.push(f);
        }
        v
    }

    #[test]
    fn clean_stream_matches_encoder_reconstruction() {
        let video = tiny_video(5);
        for entropy in [EntropyMode::Cabac, EntropyMode::Cavlc] {
            let cfg = EncoderConfig {
                entropy,
                bframes: 1,
                keyint: 4,
                ..EncoderConfig::default()
            };
            let result = Encoder::new(cfg).encode(&video);
            let decoded = decode(&result.stream);
            assert_eq!(
                decoded, result.reconstruction,
                "entropy {entropy:?}: decode != encoder recon"
            );
        }
    }

    #[test]
    fn corrupt_payload_never_panics_and_stays_in_frame() {
        let video = tiny_video(6);
        let result = Encoder::new(EncoderConfig {
            bframes: 0,
            keyint: 3,
            ..EncoderConfig::default()
        })
        .encode(&video);
        let mut stream = result.stream.clone();
        // Corrupt every byte of frame 1's payload (display frame 1).
        for b in stream.frames[1].payload.iter_mut() {
            *b = b.wrapping_mul(31).wrapping_add(17);
        }
        let decoded = decode(&stream);
        assert_eq!(decoded.len(), video.len());
        // Frame 0 is an I frame coded before the damage: identical.
        assert_eq!(
            decoded.get(0).unwrap(),
            result.reconstruction.get(0).unwrap()
        );
        // Frame 3 starts a new GOP (keyint 3): the damage cannot reach it.
        assert_eq!(
            decoded.get(3).unwrap(),
            result.reconstruction.get(3).unwrap()
        );
    }

    #[test]
    fn truncated_payload_decodes_totally() {
        let video = tiny_video(3);
        let result = Encoder::new(EncoderConfig::default()).encode(&video);
        let mut stream = result.stream;
        for f in &mut stream.frames {
            f.payload.truncate(f.payload.len() / 3);
        }
        let decoded = decode(&stream);
        assert_eq!(decoded.len(), 3);
    }
}
