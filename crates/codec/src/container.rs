//! On-disk container format for encoded videos.
//!
//! A complete serialisation of [`EncodedVideo`] — stream header, frame
//! headers, payloads — so videos can be written to files, shipped between
//! processes, or placed byte-for-byte onto a storage device. The layout
//! keeps headers contiguous and *in front of* the payloads, mirroring how
//! the approximate store separates precise from approximable bits.
//!
//! ```text
//! [stream header][frame count: u32]
//! per frame: [header length: u32][frame header][payload length: u32]
//! then all payloads, back to back, in coding order
//! ```

use crate::syntax::{EncodedFrame, EncodedVideo, FrameHeader, ParseHeaderError, StreamHeader};

/// Errors from container deserialisation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseContainerError {
    /// The byte stream ended before the declared structures.
    Truncated,
    /// An embedded header failed to parse.
    Header(ParseHeaderError),
    /// A declared size is inconsistent with the buffer.
    InvalidLength,
}

impl std::fmt::Display for ParseContainerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseContainerError::Truncated => write!(f, "container truncated"),
            ParseContainerError::Header(e) => write!(f, "bad embedded header: {e}"),
            ParseContainerError::InvalidLength => write!(f, "inconsistent length field"),
        }
    }
}

impl std::error::Error for ParseContainerError {}

impl From<ParseHeaderError> for ParseContainerError {
    fn from(e: ParseHeaderError) -> Self {
        ParseContainerError::Header(e)
    }
}

/// Smallest serialised frame record: the header and payload length fields.
const MIN_FRAME_RECORD: usize = 8;

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ParseContainerError> {
        if self.pos + n > self.bytes.len() {
            return Err(ParseContainerError::Truncated);
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn take_u32(&mut self) -> Result<u32, ParseContainerError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes(b.try_into().expect("4 bytes")))
    }
}

impl EncodedVideo {
    /// Serialises the whole coded video into one byte buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let sh = self.header.to_bytes();
        out.extend_from_slice(&(sh.len() as u32).to_be_bytes());
        out.extend_from_slice(&sh);
        out.extend_from_slice(&(self.frames.len() as u32).to_be_bytes());
        for f in &self.frames {
            let fh = f.header.to_bytes();
            out.extend_from_slice(&(fh.len() as u32).to_be_bytes());
            out.extend_from_slice(&fh);
            out.extend_from_slice(&(f.payload.len() as u32).to_be_bytes());
        }
        for f in &self.frames {
            out.extend_from_slice(&f.payload);
        }
        out
    }

    /// Parses a serialised coded video.
    ///
    /// # Errors
    ///
    /// Returns [`ParseContainerError`] for truncated or inconsistent
    /// buffers — this is the *precise* part of storage; corruption here is
    /// a hard error, unlike payload corruption which the decoder absorbs.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ParseContainerError> {
        let mut c = Cursor { bytes, pos: 0 };
        let sh_len = c.take_u32()? as usize;
        if sh_len > 1024 {
            return Err(ParseContainerError::InvalidLength);
        }
        let header = StreamHeader::from_bytes(c.take(sh_len)?)?;
        let count = c.take_u32()? as usize;
        if count > 10_000_000 {
            return Err(ParseContainerError::InvalidLength);
        }
        // The count is untrusted: reserve no more records than the bytes
        // left could hold (each takes at least its two 4-byte lengths).
        let capacity = count.min((bytes.len() - c.pos) / MIN_FRAME_RECORD);
        let mut metas = Vec::with_capacity(capacity);
        for _ in 0..count {
            let fh_len = c.take_u32()? as usize;
            if fh_len > 1 << 20 {
                return Err(ParseContainerError::InvalidLength);
            }
            let fh = FrameHeader::from_bytes(c.take(fh_len)?)?;
            let payload_len = c.take_u32()? as usize;
            metas.push((fh, payload_len));
        }
        let mut frames = Vec::with_capacity(metas.len());
        for (header, payload_len) in metas {
            let payload = c.take(payload_len)?.to_vec();
            frames.push(EncodedFrame { header, payload });
        }
        Ok(EncodedVideo { header, frames })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{Encoder, EncoderConfig};
    use vapp_media::{Frame, Video};

    fn sample_stream() -> EncodedVideo {
        let mut v = Video::new(48, 32, 25.0);
        for t in 0..5 {
            let mut f = Frame::new(48, 32);
            for y in 0..32 {
                for x in 0..48 {
                    f.plane_mut().set(x, y, ((x + y * 3 + t * 11) % 256) as u8);
                }
            }
            v.push(f);
        }
        Encoder::new(EncoderConfig {
            keyint: 3,
            bframes: 1,
            ..Default::default()
        })
        .encode(&v)
        .stream
    }

    #[test]
    fn container_roundtrip() {
        let stream = sample_stream();
        let bytes = stream.to_bytes();
        let parsed = EncodedVideo::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, stream);
        // And it still decodes identically.
        assert_eq!(
            crate::decoder::decode(&parsed),
            crate::decoder::decode(&stream)
        );
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = sample_stream().to_bytes();
        for cut in [0usize, 3, 8, bytes.len() / 2, bytes.len() - 1] {
            let r = EncodedVideo::from_bytes(&bytes[..cut]);
            assert!(r.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn corrupt_magic_is_detected() {
        let mut bytes = sample_stream().to_bytes();
        bytes[4] ^= 0xFF; // first byte of the stream header
        assert!(matches!(
            EncodedVideo::from_bytes(&bytes),
            Err(ParseContainerError::Header(_))
        ));
    }

    #[test]
    fn absurd_lengths_are_rejected() {
        let mut bytes = sample_stream().to_bytes();
        // Claim a gigantic stream-header length.
        bytes[0..4].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(
            EncodedVideo::from_bytes(&bytes),
            Err(ParseContainerError::InvalidLength)
        );
    }

    #[test]
    fn payload_corruption_survives_the_container() {
        // The container carries corrupt payloads untouched — approximate
        // storage corrupts payload bytes, and the decoder absorbs them.
        let stream = sample_stream();
        let mut bytes = stream.to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x80;
        let parsed = EncodedVideo::from_bytes(&bytes).unwrap();
        assert_ne!(parsed, stream);
        let _ = crate::decoder::decode(&parsed); // must not panic
    }
}
