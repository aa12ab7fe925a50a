//! Pins every pixel the decoder produces from seeded, *damaged* streams.
//!
//! The clean-stream tests only prove decode == encoder reconstruction; on a
//! damaged stream nothing else says what the decoder must output. These
//! digests do: each covers the decoded frames of several damage variants
//! (byte XOR masks, single-bit flips and truncation) of one suite clip
//! coded under one configuration, so any change to concealment, context
//! modelling, motion compensation, reconstruction or deblocking on the
//! damaged path shows up as a digest mismatch.

use vapp_check::{RngExt, SeedableRng, StdRng};
use vapp_codec::{decode, EncodedVideo, Encoder, EncoderConfig, EntropyMode};
use vapp_media::Video;
use vapp_workloads::{suite, ClipSpec, SceneKind};

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn hash_video(h: &mut Fnv, v: &Video) {
    h.bytes(&(v.len() as u64).to_le_bytes());
    for f in v.iter() {
        h.bytes(f.plane().data());
    }
}

/// The damage variants applied to one clean stream, all seeded.
fn damaged_variants(clean: &EncodedVideo, seed: u64) -> Vec<EncodedVideo> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();

    // Sparse single-bit flips (about 1e-3 of the payload bits).
    let mut flips = clean.clone();
    for f in &mut flips.frames {
        let bits = f.payload.len() * 8;
        for _ in 0..bits.div_ceil(1000) {
            let bit = rng.random_range(0..bits.max(1));
            if let Some(b) = f.payload.get_mut(bit / 8) {
                *b ^= 0x80 >> (bit % 8);
            }
        }
    }
    out.push(flips);

    // Strided XOR masks starting mid-frame.
    let mut xor = clean.clone();
    let mask = rng.random_range(1..=255u8);
    let stride = rng.random_range(3..17usize);
    for f in &mut xor.frames {
        let start = f.payload.len() / 2;
        for b in f.payload.iter_mut().skip(start).step_by(stride) {
            *b ^= mask;
        }
    }
    out.push(xor);

    // Truncation plus a dense mask on what is left.
    let mut cut = clean.clone();
    for (i, f) in cut.frames.iter_mut().enumerate() {
        let keep = f.payload.len() * rng.random_range(1..4usize) / 4;
        f.payload.truncate(keep);
        if i % 2 == 1 {
            for b in f.payload.iter_mut() {
                *b = b.wrapping_mul(31).wrapping_add(17);
            }
        }
    }
    out.push(cut);
    out
}

/// Configuration `i` of the 16-way cross product the pins cover.
fn config(i: usize) -> EncoderConfig {
    EncoderConfig {
        entropy: if i & 1 == 0 {
            EntropyMode::Cabac
        } else {
            EntropyMode::Cavlc
        },
        subpel: i & 2 == 0,
        slices: if i & 4 == 0 { 1 } else { 3 },
        deblock: i & 8 == 0,
        keyint: 4,
        bframes: 1,
        ..EncoderConfig::default()
    }
}

/// The digest of configuration `i`: one suite clip (rotating) at MB-aligned
/// 48x32, plus a 40x24 clip whose frames the decoder must crop.
fn digest(i: usize) -> u64 {
    let clips = suite(48, 32, 6);
    let aligned = &clips[i % clips.len()].video;
    let ragged = ClipSpec::new(40, 24, 5, SceneKind::FastMotion)
        .seed(i as u64)
        .generate();
    let encoder = Encoder::new(config(i));
    let mut h = Fnv::new();
    for (j, video) in [aligned, &ragged].into_iter().enumerate() {
        let clean = encoder.encode(video).stream;
        let clean_decode = decode(&clean);
        for stream in damaged_variants(&clean, (i * 2 + j) as u64) {
            let decoded = decode(&stream);
            assert_eq!(decoded.len(), video.len());
            assert_eq!(decoded.width(), video.width());
            assert_eq!(decoded.height(), video.height());
            assert_ne!(decoded, clean_decode, "config {i}: damage must show");
            hash_video(&mut h, &decoded);
        }
    }
    h.0
}

/// Captured from the per-pixel reference decoder; bit `0` of the index
/// selects CAVLC, bit 1 full-pel, bit 2 three slices, bit 3 no deblocking.
const PINNED: [u64; 16] = [
    0xe4b425d02b10147d,
    0x405200f979a77a14,
    0x5202aa69c6c7365e,
    0x059d14d9e396f84c,
    0xf5d43fa3a1da686e,
    0xfc4ecae6a3931b1b,
    0x2f94a739cd552eb0,
    0xa070a9d6ffcebba5,
    0x49721895ffc8a801,
    0xf436a6a036be1fb8,
    0x093a9f2c3fd058c3,
    0xb35cbee991b86fee,
    0x6210089184f631b5,
    0x9b6b3bd4e1013442,
    0x332872e2ee9beefb,
    0xfdbbf0b83c1383f7,
];

#[test]
fn damaged_stream_decodes_are_pinned() {
    let got: Vec<u64> = (0..16).map(digest).collect();
    for (i, (&g, &want)) in got.iter().zip(PINNED.iter()).enumerate() {
        let cfg = config(i);
        assert_eq!(
            g, want,
            "config {i} ({:?}, subpel {}, slices {}, deblock {}): {g:#018x} != {want:#018x}\nall: {got:#018x?}",
            cfg.entropy, cfg.subpel, cfg.slices, cfg.deblock
        );
    }
}
