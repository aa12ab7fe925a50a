//! Stream and frame headers and the encoded-video container.
//!
//! Headers are serialised with plain fixed-width fields, *not* entropy
//! coded: in the approximate-storage system they are kept in precise
//! storage (paper §4.4 — "corrupting the frame header would destroy the
//! entire frame, so we assign it the strongest error correction"). The
//! entropy-coded macroblock payloads are the approximable part.

use crate::bitstream::{BitReader, BitWriter};
use crate::entropy::EntropyMode;
use crate::types::FrameType;

/// Errors from header deserialisation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseHeaderError {
    /// Magic number mismatch: not a VideoApp stream.
    BadMagic,
    /// A field held an impossible value.
    InvalidField(&'static str),
}

impl std::fmt::Display for ParseHeaderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseHeaderError::BadMagic => write!(f, "not a VideoApp stream header"),
            ParseHeaderError::InvalidField(name) => write!(f, "invalid header field `{name}`"),
        }
    }
}

impl std::error::Error for ParseHeaderError {}

const MAGIC: u32 = 0x5641_5031; // "VAP1"

/// The stream header's flags byte: half-pel motion vectors (bit 0) and the
/// in-loop deblocking filter (bit 1). Every stream uses both, so this is
/// the only value a header may hold.
const FLAGS: u32 = 0b11;

/// Largest frame width or height a stream header may declare. The decoder
/// allocates a reconstruction plane per frame from these fields, so a
/// parsed header bounds them: 8192 covers every H.264 level (8K UHD).
pub const MAX_DIMENSION: u32 = 8192;

/// Sequence-level header.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamHeader {
    /// Frame width in pixels.
    pub width: u32,
    /// Frame height in pixels.
    pub height: u32,
    /// Frames per second (stored in 1/100 units).
    pub fps: f64,
    /// Total coded frames.
    pub frame_count: u32,
    /// Entropy coder used by the payloads.
    pub entropy: EntropyMode,
    /// Slices per frame.
    pub slices: u8,
    /// Constant-rate-factor quality target (base QP).
    pub crf: u8,
    /// I-frame interval in display frames.
    pub keyint: u16,
    /// Number of B frames between anchors.
    pub bframes: u8,
}

impl StreamHeader {
    /// Serialises the header.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = BitWriter::new();
        w.put_bits(MAGIC, 32);
        w.put_bits(self.width, 32);
        w.put_bits(self.height, 32);
        w.put_bits((self.fps * 100.0).round() as u32, 32);
        w.put_bits(self.frame_count, 32);
        w.put_bits(
            match self.entropy {
                EntropyMode::Cabac => 0,
                EntropyMode::Cavlc => 1,
            },
            8,
        );
        w.put_bits(self.slices as u32, 8);
        w.put_bits(self.crf as u32, 8);
        w.put_bits(self.keyint as u32, 16);
        w.put_bits(self.bframes as u32, 8);
        w.put_bits(FLAGS, 8);
        w.finish()
    }

    /// Parses a serialised header.
    ///
    /// # Errors
    ///
    /// Returns [`ParseHeaderError`] when the magic or a field is invalid:
    /// a width or height of zero or above [`MAX_DIMENSION`], a frame rate
    /// or frame count of zero, or a flags byte other than half-pel motion
    /// with deblocking.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ParseHeaderError> {
        let mut r = BitReader::new(bytes);
        if r.get_bits(32) != MAGIC {
            return Err(ParseHeaderError::BadMagic);
        }
        let width = r.get_bits(32);
        let height = r.get_bits(32);
        let fps = r.get_bits(32) as f64 / 100.0;
        let frame_count = r.get_bits(32);
        let entropy = match r.get_bits(8) {
            0 => EntropyMode::Cabac,
            1 => EntropyMode::Cavlc,
            _ => return Err(ParseHeaderError::InvalidField("entropy")),
        };
        let slices = r.get_bits(8) as u8;
        let crf = r.get_bits(8) as u8;
        let keyint = r.get_bits(16) as u16;
        let bframes = r.get_bits(8) as u8;
        if r.get_bits(8) != FLAGS {
            return Err(ParseHeaderError::InvalidField("flags"));
        }
        if !(1..=MAX_DIMENSION).contains(&width) || !(1..=MAX_DIMENSION).contains(&height) {
            return Err(ParseHeaderError::InvalidField("dimensions"));
        }
        // The decoder builds a video of `frame_count` frames at `fps`, and a
        // video needs at least one frame and a positive rate.
        if fps == 0.0 {
            return Err(ParseHeaderError::InvalidField("fps"));
        }
        if frame_count == 0 {
            return Err(ParseHeaderError::InvalidField("frame_count"));
        }
        if slices == 0 || keyint == 0 {
            return Err(ParseHeaderError::InvalidField("structure"));
        }
        Ok(StreamHeader {
            width,
            height,
            fps,
            frame_count,
            entropy,
            slices,
            crf,
            keyint,
            bframes,
        })
    }
}

/// Per-frame header (kept in precise storage).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrameHeader {
    /// Position in coding (bitstream) order.
    pub coding_index: u32,
    /// Position in display order.
    pub display_index: u32,
    /// Frame type.
    pub frame_type: FrameType,
    /// Base quantiser for the frame.
    pub qp: u8,
    /// Coding index of the forward reference (P and B frames).
    pub ref_fwd: Option<u32>,
    /// Coding index of the backward reference (B frames).
    pub ref_bwd: Option<u32>,
    /// Byte length of each slice payload, in coding order.
    pub slice_lens: Vec<u32>,
}

impl FrameHeader {
    /// Serialises the header.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = BitWriter::new();
        w.put_bits(self.coding_index, 32);
        w.put_bits(self.display_index, 32);
        w.put_bits(self.frame_type.to_tag() as u32, 8);
        w.put_bits(self.qp as u32, 8);
        w.put_bits(self.ref_fwd.map_or(u32::MAX, |v| v), 32);
        w.put_bits(self.ref_bwd.map_or(u32::MAX, |v| v), 32);
        w.put_bits(self.slice_lens.len() as u32, 8);
        for &len in &self.slice_lens {
            w.put_bits(len, 32);
        }
        w.finish()
    }

    /// Parses a serialised frame header.
    ///
    /// # Errors
    ///
    /// Returns [`ParseHeaderError`] for impossible field values.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ParseHeaderError> {
        let mut r = BitReader::new(bytes);
        let coding_index = r.get_bits(32);
        let display_index = r.get_bits(32);
        let frame_type = FrameType::from_tag(r.get_bits(8) as u8);
        let qp = r.get_bits(8) as u8;
        let rf = r.get_bits(32);
        let rb = r.get_bits(32);
        let n = r.get_bits(8) as usize;
        if n == 0 {
            return Err(ParseHeaderError::InvalidField("slice_lens"));
        }
        let mut slice_lens = Vec::with_capacity(n);
        for _ in 0..n {
            slice_lens.push(r.get_bits(32));
        }
        Ok(FrameHeader {
            coding_index,
            display_index,
            frame_type,
            qp,
            ref_fwd: (rf != u32::MAX).then_some(rf),
            ref_bwd: (rb != u32::MAX).then_some(rb),
            slice_lens,
        })
    }

    /// Size of the serialised header in bits (precise-storage accounting).
    pub fn bit_len(&self) -> u64 {
        self.to_bytes().len() as u64 * 8
    }
}

/// One coded frame: precise header + approximable entropy payload
/// (concatenated slice buffers).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EncodedFrame {
    /// The frame header.
    pub header: FrameHeader,
    /// Entropy-coded payload: slice buffers back to back.
    pub payload: Vec<u8>,
}

impl EncodedFrame {
    /// Payload length in bits.
    pub fn payload_bits(&self) -> u64 {
        self.payload.len() as u64 * 8
    }

    /// Byte ranges of each slice within the payload.
    pub fn slice_ranges(&self) -> Vec<std::ops::Range<usize>> {
        let mut out = Vec::with_capacity(self.header.slice_lens.len());
        let mut off = 0usize;
        for &len in &self.header.slice_lens {
            let end = (off + len as usize).min(self.payload.len());
            out.push(off..end);
            off = end;
        }
        out
    }
}

/// A complete encoded video in coding order.
#[derive(Clone, Debug, PartialEq)]
pub struct EncodedVideo {
    /// Sequence header.
    pub header: StreamHeader,
    /// Frames in coding order.
    pub frames: Vec<EncodedFrame>,
}

impl EncodedVideo {
    /// Total approximable payload bits across all frames.
    pub fn payload_bits(&self) -> u64 {
        self.frames.iter().map(EncodedFrame::payload_bits).sum()
    }

    /// Total precise header bits (stream header + frame headers).
    pub fn header_bits(&self) -> u64 {
        self.header.to_bytes().len() as u64 * 8
            + self.frames.iter().map(|f| f.header.bit_len()).sum::<u64>()
    }

    /// Bit offset of frame `coding_index`'s payload within the
    /// concatenation of all payloads (the global approximate-storage
    /// address space).
    pub fn payload_base_bits(&self, coding_index: usize) -> u64 {
        self.frames[..coding_index]
            .iter()
            .map(EncodedFrame::payload_bits)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stream_header() -> StreamHeader {
        StreamHeader {
            width: 320,
            height: 180,
            fps: 29.97,
            frame_count: 120,
            entropy: EntropyMode::Cabac,
            slices: 2,
            crf: 24,
            keyint: 48,
            bframes: 2,
        }
    }

    #[test]
    fn stream_header_roundtrip() {
        let h = sample_stream_header();
        let parsed = StreamHeader::from_bytes(&h.to_bytes()).unwrap();
        assert_eq!(parsed, h);
    }

    #[test]
    fn stream_header_rejects_bad_magic() {
        let mut bytes = sample_stream_header().to_bytes();
        bytes[0] ^= 0xFF;
        assert_eq!(
            StreamHeader::from_bytes(&bytes),
            Err(ParseHeaderError::BadMagic)
        );
    }

    #[test]
    fn stream_header_rejects_out_of_range_dimensions() {
        let base = sample_stream_header();
        for (width, height) in [
            (u32::MAX, 32),
            (48, u32::MAX),
            (MAX_DIMENSION + 1, 32),
            (0, 32),
        ] {
            let h = StreamHeader {
                width,
                height,
                ..base.clone()
            };
            assert_eq!(
                StreamHeader::from_bytes(&h.to_bytes()),
                Err(ParseHeaderError::InvalidField("dimensions")),
                "{width}x{height}"
            );
        }
        let largest = StreamHeader {
            width: MAX_DIMENSION,
            height: MAX_DIMENSION,
            ..base
        };
        assert_eq!(StreamHeader::from_bytes(&largest.to_bytes()), Ok(largest));
    }

    #[test]
    fn stream_header_rejects_every_other_flags_byte() {
        let mut bytes = sample_stream_header().to_bytes();
        let flags = bytes.len() - 1;
        assert_eq!(bytes[flags], 0b11);
        for other in [0, 1, 2, 0b111, 0xFF] {
            bytes[flags] = other;
            assert_eq!(
                StreamHeader::from_bytes(&bytes),
                Err(ParseHeaderError::InvalidField("flags")),
                "flags {other:#04b}"
            );
        }
    }

    #[test]
    fn frame_header_roundtrip() {
        let h = FrameHeader {
            coding_index: 7,
            display_index: 9,
            frame_type: FrameType::B,
            qp: 26,
            ref_fwd: Some(4),
            ref_bwd: Some(10),
            slice_lens: vec![1000, 2000, 3000],
        };
        let parsed = FrameHeader::from_bytes(&h.to_bytes()).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(h.bit_len() % 8, 0);
    }

    #[test]
    fn frame_header_none_refs_roundtrip() {
        let h = FrameHeader {
            coding_index: 0,
            display_index: 0,
            frame_type: FrameType::I,
            qp: 22,
            ref_fwd: None,
            ref_bwd: None,
            slice_lens: vec![512],
        };
        assert_eq!(FrameHeader::from_bytes(&h.to_bytes()).unwrap(), h);
    }

    #[test]
    fn slice_ranges_tile_payload() {
        let f = EncodedFrame {
            header: FrameHeader {
                coding_index: 0,
                display_index: 0,
                frame_type: FrameType::I,
                qp: 20,
                ref_fwd: None,
                ref_bwd: None,
                slice_lens: vec![3, 5],
            },
            payload: vec![0u8; 8],
        };
        assert_eq!(f.slice_ranges(), vec![0..3, 3..8]);
        assert_eq!(f.payload_bits(), 64);
    }

    #[test]
    fn payload_base_accumulates() {
        let mk = |len| EncodedFrame {
            header: FrameHeader {
                coding_index: 0,
                display_index: 0,
                frame_type: FrameType::I,
                qp: 20,
                ref_fwd: None,
                ref_bwd: None,
                slice_lens: vec![len as u32],
            },
            payload: vec![0u8; len],
        };
        let v = EncodedVideo {
            header: sample_stream_header(),
            frames: vec![mk(10), mk(20), mk(30)],
        };
        assert_eq!(v.payload_base_bits(0), 0);
        assert_eq!(v.payload_base_bits(1), 80);
        assert_eq!(v.payload_base_bits(2), 240);
        assert_eq!(v.payload_bits(), 480);
        assert!(v.header_bits() > 0);
    }
}
