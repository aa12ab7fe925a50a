//! Splitting a coded video into per-reliability streams (paper §4.4,
//! §5.3) and encrypting them.
//!
//! Each protection level becomes one stream: the pivot table says which
//! payload bit ranges belong to which level, and the split simply
//! concatenates each level's bits across all frames. Frame headers and
//! pivots stay outside (precise storage). Streams can be encrypted
//! independently with an approximation-compatible mode; per-stream IVs
//! derive from a master IV and the stream id (§5.3).

use crate::pivots::PivotTable;
use vapp_codec::bitstream::{read_span, write_span};
use vapp_codec::EncodedVideo;
use vapp_crypto::{derive_stream_iv, Block, CipherMode, Key};

/// Bits moved per [`read_span`]/[`write_span`] step when relocating a
/// bit range between buffers in the generic (head/tail/out-of-bounds)
/// path.
const SPAN_BITS: usize = 48;

/// Copies `count` bits from `src` starting at `src_bit` to `dst` starting
/// at `dst_bit` (MSB-first on both sides). Inherits the span helpers'
/// totality: source bits past the end read as zero, destination bytes
/// past the end are skipped. Whole destination bytes move through a
/// shift-merge bulk path (a `u64` per step); span-sized masked writes
/// handle the unaligned head, the sub-byte tail, and anything near a
/// buffer end.
fn copy_bits(dst: &mut [u8], dst_bit: u64, src: &[u8], src_bit: u64, count: u64) {
    let mut done = 0u64;
    // Head: bring the destination cursor to a byte boundary.
    let head = ((8 - (dst_bit % 8)) % 8).min(count);
    if head > 0 {
        let v = read_span(src, src_bit, head as usize);
        write_span(dst, dst_bit, head as usize, v);
        done = head;
    }
    // Bulk: whole destination bytes while both sides stay in bounds.
    let mut d = ((dst_bit + done) / 8) as usize;
    let mut p = ((src_bit + done) / 8) as usize;
    let s = ((src_bit + done) % 8) as u32;
    let mut full = ((count - done) / 8) as usize;
    if s == 0 {
        let n = full
            .min(dst.len().saturating_sub(d))
            .min(src.len().saturating_sub(p));
        if n > 0 {
            dst[d..d + n].copy_from_slice(&src[p..p + n]);
            done += 8 * n as u64;
        }
    } else {
        // Each output byte straddles two source bytes; move eight at a
        // time by shift-merging a u64 window with its trailing byte.
        while full >= 8 && p + 9 <= src.len() && d + 8 <= dst.len() {
            let w = u64::from_be_bytes(src[p..p + 8].try_into().expect("window is 8 bytes"));
            let out = (w << s) | (src[p + 8] as u64 >> (8 - s));
            dst[d..d + 8].copy_from_slice(&out.to_be_bytes());
            d += 8;
            p += 8;
            full -= 8;
            done += 64;
        }
        while full > 0 && p + 1 < src.len() && d < dst.len() {
            dst[d] = (src[p] << s) | (src[p + 1] >> (8 - s));
            d += 1;
            p += 1;
            full -= 1;
            done += 8;
        }
    }
    // Tail (and any out-of-bounds remainder): masked span moves.
    while done < count {
        let n = ((count - done).min(SPAN_BITS as u64)) as usize;
        let v = read_span(src, src_bit + done, n);
        write_span(dst, dst_bit + done, n, v);
        done += n as u64;
    }
}

/// The per-reliability streams of one video.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtectedStreams {
    /// One byte buffer per protection level (level = index).
    pub level_data: Vec<Vec<u8>>,
    /// Exact bit length of each stream (buffers are zero-padded).
    pub level_bits: Vec<u64>,
}

impl ProtectedStreams {
    /// Total payload bits across streams.
    pub fn total_bits(&self) -> u64 {
        self.level_bits.iter().sum()
    }

    /// Encrypts every stream in place with per-stream derived IVs.
    ///
    /// # Panics
    ///
    /// Panics if the mode is not approximation compatible — using ECB or
    /// CBC here would defeat the whole scheme (paper §5.2).
    pub fn encrypt(&mut self, mode: CipherMode, key: &Key, master_iv: &Block) {
        assert!(
            mode.approximation_compatible(),
            "mode {mode:?} is not usable over approximate storage"
        );
        let _span = vapp_obs::span!("core.streams.encrypt", mode);
        for (id, data) in self.level_data.iter_mut().enumerate() {
            let iv = derive_stream_iv(key, master_iv, id as u64);
            *data = mode.encrypt(key, &iv, data);
        }
    }

    /// Decrypts every stream in place (inverse of
    /// [`ProtectedStreams::encrypt`]).
    pub fn decrypt(&mut self, mode: CipherMode, key: &Key, master_iv: &Block) {
        assert!(
            mode.approximation_compatible(),
            "mode {mode:?} is not usable over approximate storage"
        );
        let _span = vapp_obs::span!("core.streams.decrypt", mode);
        for (id, data) in self.level_data.iter_mut().enumerate() {
            let iv = derive_stream_iv(key, master_iv, id as u64);
            *data = mode.decrypt(key, &iv, data);
        }
    }
}

/// Splits the payloads of `stream` into per-level bit streams according
/// to the pivot table.
///
/// # Panics
///
/// Panics if the pivot table does not match the stream's frame count.
pub fn split_streams(stream: &EncodedVideo, table: &PivotTable) -> ProtectedStreams {
    assert_eq!(
        stream.frames.len(),
        table.frames.len(),
        "pivot table / stream mismatch"
    );
    let levels = table.levels as usize;
    let _span = vapp_obs::span!("core.streams.split", levels);
    // Size every stream first, then walk the span list once, moving each
    // span to its level's cursor with 48-bit word copies.
    let level_bits = table.level_bits();
    let mut level_data: Vec<Vec<u8>> = level_bits
        .iter()
        .map(|&nbits| vec![0u8; (nbits as usize).div_ceil(8)])
        .collect();
    let mut cursors = vec![0u64; levels];
    for (frame, fp) in stream.frames.iter().zip(&table.frames) {
        for (range, level) in fp.level_spans() {
            let li = (level as usize).min(levels - 1);
            let count = range.end - range.start;
            copy_bits(
                &mut level_data[li],
                cursors[li],
                &frame.payload,
                range.start,
                count,
            );
            cursors[li] += count;
        }
    }
    ProtectedStreams {
        level_data,
        level_bits,
    }
}

/// Rebuilds a coded video from per-level streams: the inverse of
/// [`split_streams`]. `template` supplies headers and payload sizes (all
/// precise storage).
///
/// # Panics
///
/// Panics if the streams or the pivot table disagree with the template's
/// geometry.
pub fn merge_streams(
    template: &EncodedVideo,
    table: &PivotTable,
    streams: &ProtectedStreams,
) -> EncodedVideo {
    assert_eq!(
        template.frames.len(),
        table.frames.len(),
        "pivot table / stream mismatch"
    );
    let levels = table.levels as usize;
    assert_eq!(streams.level_data.len(), levels, "level count mismatch");
    let _span = vapp_obs::span!("core.streams.merge", levels);
    for (li, used) in table.level_bits().into_iter().enumerate() {
        assert_eq!(
            used, streams.level_bits[li],
            "stream {li} length mismatch on merge"
        );
    }
    let mut out = template.clone();
    let mut cursors = vec![0u64; levels];
    for (frame, fp) in out.frames.iter_mut().zip(&table.frames) {
        for (range, level) in fp.level_spans() {
            let li = (level as usize).min(levels - 1);
            let count = range.end - range.start;
            copy_bits(
                &mut frame.payload,
                range.start,
                &streams.level_data[li],
                cursors[li],
                count,
            );
            cursors[li] += count;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DependencyGraph;
    use crate::importance::ImportanceMap;
    use vapp_codec::{Encoder, EncoderConfig};
    use vapp_workloads::{ClipSpec, SceneKind};

    /// Reads payload bit `i` (MSB-first), false past the end.
    fn get_bit(bytes: &[u8], i: u64) -> bool {
        let byte = (i / 8) as usize;
        byte < bytes.len() && (bytes[byte] >> (7 - (i % 8))) & 1 == 1
    }

    fn setup() -> (EncodedVideo, PivotTable) {
        let video = ClipSpec::new(64, 48, 8, SceneKind::MovingBlocks)
            .seed(9)
            .generate();
        let result = Encoder::new(EncoderConfig {
            keyint: 4,
            bframes: 1,
            ..Default::default()
        })
        .encode(&video);
        let imp = ImportanceMap::compute(&DependencyGraph::from_analysis(&result.analysis));
        let table = PivotTable::build(&result.analysis, &imp, &[4.0, 32.0, 256.0]);
        (result.stream, table)
    }

    #[test]
    fn copy_bits_matches_bitwise_reference() {
        use vapp_check::RngExt;
        vapp_check::check("copy_bits_matches_bitwise_reference", 64, |rng| {
            let src: Vec<u8> = (0..rng.random_range(1..40usize))
                .map(|_| rng.random())
                .collect();
            let dst0: Vec<u8> = (0..rng.random_range(1..40usize))
                .map(|_| rng.random())
                .collect();
            let src_bit = rng.random_range(0..8 * src.len() as u64 + 16);
            let dst_bit = rng.random_range(0..8 * dst0.len() as u64 + 16);
            let count = rng.random_range(0..300u64);
            let mut fast = dst0.clone();
            copy_bits(&mut fast, dst_bit, &src, src_bit, count);
            // Reference: move one bit at a time through the span helpers.
            let mut slow = dst0.clone();
            for i in 0..count {
                let v = read_span(&src, src_bit + i, 1);
                write_span(&mut slow, dst_bit + i, 1, v);
            }
            assert_eq!(
                fast, slow,
                "src_bit={src_bit} dst_bit={dst_bit} count={count}"
            );
        });
    }

    #[test]
    fn split_merge_is_identity() {
        let (stream, table) = setup();
        let streams = split_streams(&stream, &table);
        assert_eq!(streams.total_bits(), stream.payload_bits());
        let merged = merge_streams(&stream, &table, &streams);
        assert_eq!(merged, stream);
    }

    #[test]
    fn encrypted_split_merge_roundtrip() {
        let (stream, table) = setup();
        let key = [0x33u8; 16];
        let iv = [0x44u8; 16];
        for mode in [CipherMode::Ofb, CipherMode::Ctr] {
            let mut streams = split_streams(&stream, &table);
            streams.encrypt(mode, &key, &iv);
            // Ciphertext differs from plaintext.
            let plain = split_streams(&stream, &table);
            assert_ne!(streams.level_data, plain.level_data);
            streams.decrypt(mode, &key, &iv);
            let merged = merge_streams(&stream, &table, &streams);
            assert_eq!(merged, stream, "{mode:?}");
        }
    }

    #[test]
    #[should_panic(expected = "not usable over approximate storage")]
    fn cbc_rejected_for_streams() {
        let (stream, table) = setup();
        let mut streams = split_streams(&stream, &table);
        streams.encrypt(CipherMode::Cbc, &[0u8; 16], &[0u8; 16]);
    }

    #[test]
    fn corrupting_one_stream_touches_only_its_spans() {
        let (stream, table) = setup();
        let mut streams = split_streams(&stream, &table);
        // Flip every bit of the weakest stream (level 0).
        for b in streams.level_data[0].iter_mut() {
            *b = !*b;
        }
        let merged = merge_streams(&stream, &table, &streams);
        for ((orig, dirty), fp) in stream.frames.iter().zip(&merged.frames).zip(&table.frames) {
            for (range, level) in fp.level_spans() {
                for i in range {
                    let same = get_bit(&orig.payload, i) == get_bit(&dirty.payload, i);
                    if level == 0 {
                        assert!(!same, "level-0 bit {i} unchanged");
                    } else {
                        assert!(same, "level-{level} bit {i} changed");
                    }
                }
            }
        }
    }
}
