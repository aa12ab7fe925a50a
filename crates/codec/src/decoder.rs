//! The total (never-failing) decoder.
//!
//! Each macroblock is parsed by [`read_mb`], which reads no pixels, into
//! the one [`MbSyntax`] its slice reuses, then rebuilt by the reconstruction
//! the encoder also runs, so an undamaged stream decodes bit-exact to the
//! encoder's own reconstruction. On a damaged stream the decoder keeps
//! going: every value is clamped to its domain, variable-length reads are
//! bounded, and reads past the end of a payload produce deterministic
//! garbage — the error then propagates through contexts, predictive
//! metadata and motion compensation exactly as the paper's §3 describes,
//! and resynchronises at the next frame (or slice) boundary because each
//! payload gets a fresh entropy context.

use crate::entropy::{CabacReader, CavlcReader, EntropyMode, SymbolReader};
use crate::mb::{
    crop, neighbors, read_mb, reconstruct, slice_rows, FrameSyntax, MbPred, MbState, MbSyntax, Refs,
};
use crate::quant::MAX_QP;
use crate::syntax::{EncodedFrame, EncodedVideo};
use crate::types::FrameType;
use vapp_media::{Frame, MbGrid, Plane, Video, MB_SIZE};

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
        let refs = Refs {
            fwd: f.header.ref_fwd.map(|r| reference(r, "forward")),
            bwd: f.header.ref_bwd.map(|r| reference(r, "backward")),
        };
        let mut recon = decode_frame(stream.header.entropy, f, &grid, &refs);
        crate::deblock::deblock_plane(&mut recon, f.header.qp.min(MAX_QP));
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
    entropy: EntropyMode,
    frame: &EncodedFrame,
    grid: &MbGrid,
    refs: &Refs<'_>,
) -> Plane {
    let mut recon = Plane::filled(grid.mb_cols() * MB_SIZE, grid.mb_rows() * MB_SIZE, 128);
    let mut states = vec![MbState::default(); grid.mb_count()];
    let ranges = frame.slice_ranges();
    let row_groups = slice_rows(grid.mb_rows(), ranges.len().max(1));
    for (slice_idx, &rows) in row_groups.iter().enumerate() {
        let bytes = ranges
            .get(slice_idx)
            .map_or(&[][..], |r| &frame.payload[r.clone()]);
        let (recon, states) = (&mut recon, &mut states[..]);
        match entropy {
            EntropyMode::Cabac => {
                let r = &mut CabacReader::new(bytes);
                decode_slice(r, frame, grid, refs, recon, states, rows);
            }
            EntropyMode::Cavlc => {
                let r = &mut CavlcReader::new(bytes);
                decode_slice(r, frame, grid, refs, recon, states, rows);
            }
        }
    }
    recon
}

/// Parses and reconstructs the macroblocks of rows `row_start..row_end`,
/// one slice.
fn decode_slice<R: SymbolReader>(
    r: &mut R,
    frame: &EncodedFrame,
    grid: &MbGrid,
    refs: &Refs<'_>,
    recon: &mut Plane,
    states: &mut [MbState],
    (row_start, row_end): (usize, usize),
) {
    let syntax = FrameSyntax {
        inter: refs.fwd.is_some(),
        b: frame.header.frame_type == FrameType::B,
    };
    let mut prev_qp = frame.header.qp.min(MAX_QP);
    let mut syn = MbSyntax::new(MbPred::Skip, prev_qp);
    for row in row_start..row_end {
        for col in 0..grid.mb_cols() {
            let mb = grid.mb_index(col, row);
            let nb = neighbors(grid, mb, row_start);
            read_mb(r, &mut syn, syntax, states, mb, &nb, &mut prev_qp);
            let (x, y) = (col * MB_SIZE, row * MB_SIZE);
            reconstruct(&syn, refs, recon, x, y, nb.intra_avail());
        }
    }
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
