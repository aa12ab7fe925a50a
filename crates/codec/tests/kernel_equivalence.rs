//! Property tests pinning the word-parallel codec kernels bit-identical to
//! their scalar references — the scalar paths stay the specification the
//! SWAR (and optional intrinsic) kernels must reproduce exactly, across
//! random blocks, non-multiple-of-8 widths and border geometries. The
//! decoder's row-slice deblocking filter and windowed arithmetic decoder
//! are pinned the same way against their per-pixel and bit-serial
//! originals.

use vapp_check::{RngExt, StdRng};
use vapp_codec::arith::{ArithDecoder, ArithEncoder, BinContext};
use vapp_codec::bitstream::BitReader;
use vapp_codec::deblock::deblock_plane;
use vapp_codec::inter::{mc_block_halfpel_into, MAX_BLOCK_PIXELS};
use vapp_codec::quant::{dequantize, forward_quant, quantize, MAX_QP};
use vapp_codec::transform::{forward4x4, inverse4x4, Block4x4};
use vapp_codec::types::MotionVector;
use vapp_media::Plane;

fn random_plane(rng: &mut StdRng, w: usize, h: usize) -> Plane {
    let data: Vec<u8> = (0..w * h).map(|_| rng.random::<u64>() as u8).collect();
    Plane::from_data(w, h, data)
}

/// Clamped scalar SAD — the definition `Plane::sad_bounded` must match
/// whenever the result is `<=` the bound.
#[allow(clippy::too_many_arguments)]
fn sad_scalar(
    cur: &Plane,
    x: usize,
    y: usize,
    w: usize,
    h: usize,
    other: &Plane,
    rx: isize,
    ry: isize,
) -> u64 {
    let mut sum = 0u64;
    for dy in 0..h {
        for dx in 0..w {
            let a = cur.get(x + dx, y + dy) as i32;
            let b = other.sample(rx + dx as isize, ry + dy as isize) as i32;
            sum += a.abs_diff(b) as u64;
        }
    }
    sum
}

#[test]
fn swar_sad_matches_scalar_reference() {
    vapp_check::check("swar_sad_matches_scalar", 64, |rng| {
        let pw = rng.random_range(24..64);
        let ph = rng.random_range(24..64);
        let cur = random_plane(rng, pw, ph);
        let refp = random_plane(rng, pw, ph);
        // Deliberately non-multiple-of-8 widths and border-straddling
        // reference origins.
        let w = rng.random_range(1..=16usize.min(pw));
        let h = rng.random_range(1..=16usize.min(ph));
        let x = rng.random_range(0..=pw - w);
        let y = rng.random_range(0..=ph - h);
        let rx = rng.random_range(0..pw as i64 + 8) as isize - 4;
        let ry = rng.random_range(0..ph as i64 + 8) as isize - 4;
        let want = sad_scalar(&cur, x, y, w, h, &refp, rx, ry);
        assert_eq!(
            cur.sad(x, y, w, h, &refp, rx, ry),
            want,
            "w={w} h={h} x={x} y={y} rx={rx} ry={ry}"
        );
        // Bounded variant: exact at or below the bound, and never *under*
        // the bound when it bails early (so `> bound` comparisons agree).
        let bound = rng.random_range(0..want + 2);
        let got = cur.sad_bounded(x, y, w, h, &refp, rx, ry, bound);
        if want <= bound {
            assert_eq!(got, want, "bounded must be exact at/below bound");
        } else {
            assert!(got > bound, "early exit must still report excess");
        }
    });
}

#[test]
fn sad_slices_matches_scalar_on_ragged_lengths() {
    vapp_check::check("sad_slices_ragged", 64, |rng| {
        let n = rng.random_range(0..80usize);
        let a: Vec<u8> = (0..n).map(|_| rng.random::<u64>() as u8).collect();
        let b: Vec<u8> = (0..n).map(|_| rng.random::<u64>() as u8).collect();
        let want: u64 = a.iter().zip(&b).map(|(&x, &y)| x.abs_diff(y) as u64).sum();
        assert_eq!(vapp_media::kernels::sad_slices(&a, &b), want, "len={n}");
    });
}

#[test]
fn fused_transform_quant_matches_scalar_pair() {
    vapp_check::check("fused_forward_quant", 64, |rng| {
        let qp = rng.random_range(0..=MAX_QP as u64) as u8;
        let intra = rng.random::<u64>() & 1 == 1;
        let r: Block4x4 = core::array::from_fn(|_| rng.random_range(0..511) - 255);
        let want = quantize(&forward4x4(&r), qp, intra);
        assert_eq!(forward_quant(&r, qp, intra), want, "qp={qp} intra={intra}");
        // And the fused inverse on the levels the forward pass produced.
        assert_eq!(
            vapp_codec::quant::dequant_inverse(&want, qp),
            inverse4x4(&dequantize(&want, qp)),
            "qp={qp}"
        );
    });
}

/// Scalar half-pel motion compensation — clamped bilinear sampling, the
/// definition `mc_block_halfpel_into`'s word-parallel interior path must
/// reproduce byte for byte.
fn mc_halfpel_scalar(
    reference: &Plane,
    x: usize,
    y: usize,
    w: usize,
    h: usize,
    mv: MotionVector,
) -> Vec<u8> {
    let bx = x as isize * 2 + mv.x as isize;
    let by = y as isize * 2 + mv.y as isize;
    let (ix, iy) = (bx.div_euclid(2), by.div_euclid(2));
    let (fx, fy) = (bx.rem_euclid(2), by.rem_euclid(2));
    let mut out = vec![0u8; w * h];
    for oy in 0..h {
        for ox in 0..w {
            let px = ix + ox as isize;
            let py = iy + oy as isize;
            let p00 = reference.sample(px, py) as u16;
            let v = match (fx, fy) {
                (0, 0) => p00,
                (1, 0) => (p00 + reference.sample(px + 1, py) as u16 + 1) >> 1,
                (0, 1) => (p00 + reference.sample(px, py + 1) as u16 + 1) >> 1,
                _ => {
                    let p10 = reference.sample(px + 1, py) as u16;
                    let p01 = reference.sample(px, py + 1) as u16;
                    let p11 = reference.sample(px + 1, py + 1) as u16;
                    (p00 + p10 + p01 + p11 + 2) >> 2
                }
            };
            out[oy * w + ox] = v as u8;
        }
    }
    out
}

#[test]
fn word_parallel_bilinear_matches_scalar_reference() {
    vapp_check::check("halfpel_bilinear", 64, |rng| {
        let pw = rng.random_range(24..64);
        let ph = rng.random_range(24..64);
        let refp = random_plane(rng, pw, ph);
        let w = rng.random_range(1..=16usize.min(pw));
        let h = rng.random_range(1..=16usize.min(ph));
        let x = rng.random_range(0..=pw - w);
        let y = rng.random_range(0..=ph - h);
        // Half-pel vectors reaching interior, border and out-of-plane
        // positions, covering all four (fx, fy) phases.
        let mv = MotionVector::new(
            rng.random_range(0..24) as i16 - 12,
            rng.random_range(0..24) as i16 - 12,
        );
        let want = mc_halfpel_scalar(&refp, x, y, w, h, mv);
        let mut got = [0u8; MAX_BLOCK_PIXELS];
        mc_block_halfpel_into(&refp, x, y, w, h, mv, &mut got[..w * h]);
        assert_eq!(
            &got[..w * h],
            &want[..],
            "w={w} h={h} x={x} y={y} mv=({},{})",
            mv.x,
            mv.y
        );
    });
}

#[test]
fn bi_average_into_matches_scalar_rounding() {
    vapp_check::check("bi_average_rounding", 64, |rng| {
        let n = rng.random_range(1..=MAX_BLOCK_PIXELS);
        let a: Vec<u8> = (0..n).map(|_| rng.random::<u64>() as u8).collect();
        let b: Vec<u8> = (0..n).map(|_| rng.random::<u64>() as u8).collect();
        let mut got = vec![0u8; n];
        vapp_codec::inter::bi_average_into(&a, &b, &mut got);
        for i in 0..n {
            let want = ((a[i] as u16 + b[i] as u16 + 1) >> 1) as u8;
            assert_eq!(got[i], want, "i={i} a={} b={}", a[i], b[i]);
        }
    });
}

/// The per-pixel deblocking loop `deblock_plane`'s row-slice form must
/// reproduce: every vertical edge over all rows, then every horizontal
/// edge over all columns, with clamped `q1` sampling at the far borders.
fn deblock_scalar(plane: &mut Plane, qp: u8) {
    let a = (0.8 * f64::powf(2.0, qp as f64 / 6.0)).min(255.0) as i32;
    let b = (0.5 * qp as f64).min(18.0) as i32;
    let c = (1 + qp as i32 / 10).min(25);
    let filter = |p1: i32, p0: i32, q0: i32, q1: i32| {
        if (p0 - q0).abs() >= a || (p1 - p0).abs() >= b || (q1 - q0).abs() >= b {
            return (p0, q0);
        }
        let delta = (((q0 - p0) * 4 + (p1 - q1) + 4) >> 3).clamp(-c, c);
        ((p0 + delta).clamp(0, 255), (q0 - delta).clamp(0, 255))
    };
    let (w, h) = (plane.width(), plane.height());
    for x in (4..w).step_by(4) {
        for y in 0..h {
            let p1 = plane.get(x - 2, y) as i32;
            let p0 = plane.get(x - 1, y) as i32;
            let q0 = plane.get(x, y) as i32;
            let q1 = plane.sample(x as isize + 1, y as isize) as i32;
            let (np0, nq0) = filter(p1, p0, q0, q1);
            plane.set(x - 1, y, np0 as u8);
            plane.set(x, y, nq0 as u8);
        }
    }
    for y in (4..h).step_by(4) {
        for x in 0..w {
            let p1 = plane.get(x, y - 2) as i32;
            let p0 = plane.get(x, y - 1) as i32;
            let q0 = plane.get(x, y) as i32;
            let q1 = plane.sample(x as isize, y as isize + 1) as i32;
            let (np0, nq0) = filter(p1, p0, q0, q1);
            plane.set(x, y - 1, np0 as u8);
            plane.set(x, y, nq0 as u8);
        }
    }
}

#[test]
fn row_slice_deblock_matches_per_pixel_loop() {
    vapp_check::check("row_slice_deblock", 96, |rng| {
        // Sizes around multiples of 4 (1 past one clamps `q1` at the
        // right or bottom edge), tiny planes with no internal edge.
        let w = rng.random_range(1..41usize);
        let h = rng.random_range(1..41usize);
        let qp = rng.random_range(0..=MAX_QP);
        // Smooth planes with small steps, so the gates open on most edges,
        // or pure noise, so they mostly stay shut.
        let mut plane = if rng.random::<bool>() {
            let base = rng.random_range(0..256u32) as i32;
            let data = (0..w * h)
                .map(|_| (base + rng.random_range(0..9u32) as i32 - 4).clamp(0, 255) as u8)
                .collect();
            Plane::from_data(w, h, data)
        } else {
            random_plane(rng, w, h)
        };
        let mut want = plane.clone();
        deblock_scalar(&mut want, qp);
        deblock_plane(&mut plane, qp);
        assert_eq!(plane, want, "w={w} h={h} qp={qp}");
    });
}

const HALF: u64 = 1 << 31;
const QUARTER: u64 = 1 << 30;

/// The bit-serial Witten–Neal–Cleary decoder, one `get_bit` per
/// renormalisation step — the definition `ArithDecoder` must reproduce.
struct SerialDecoder<'a> {
    low: u64,
    high: u64,
    code: u64,
    reader: BitReader<'a>,
}

impl<'a> SerialDecoder<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        let mut reader = BitReader::new(bytes);
        let code = reader.get_bits(32) as u64;
        SerialDecoder {
            low: 0,
            high: (1 << 32) - 1,
            code,
            reader,
        }
    }

    fn decode(&mut self, p0: u64) -> bool {
        let range = self.high - self.low + 1;
        let split = self.low + ((range * p0) >> 12).clamp(1, range - 1) - 1;
        let bin = self.code > split;
        if bin {
            self.low = split + 1;
        } else {
            self.high = split;
        }
        loop {
            if self.high < HALF {
            } else if self.low >= HALF {
                self.low -= HALF;
                self.high -= HALF;
                self.code -= HALF;
            } else if self.low >= QUARTER && self.high < 3 * QUARTER {
                self.low -= QUARTER;
                self.high -= QUARTER;
                self.code -= QUARTER;
            } else {
                break;
            }
            self.low <<= 1;
            self.high = (self.high << 1) | 1;
            self.code = (self.code << 1) | self.reader.get_bit() as u64;
        }
        bin
    }
}

#[test]
fn windowed_arith_decoder_matches_bit_serial_reference() {
    vapp_check::check("windowed_arith_decoder", 4000, |rng| {
        let contexts = rng.random_range(1..6usize);
        let mut bytes: Vec<u8> = match rng.random_range(0..3u32) {
            // Pure noise.
            0 => (0..rng.random_range(0..48usize))
                .map(|_| rng.random::<u64>() as u8)
                .collect(),
            // A real stream, then truncated or bit-flipped below.
            _ => {
                let mut enc = ArithEncoder::new();
                let mut ctxs = vec![BinContext::new(); contexts];
                // Up to all-one or all-zero bins: saturated contexts make
                // the rare mispredicted bins shrink the interval the most,
                // which drives the longest renormalisation runs.
                let skew = rng.random_range(0..=64u32);
                for i in 0..rng.random_range(0..600usize) {
                    let bin = rng.random_range(0..64u32) < skew;
                    if i % 7 == 3 {
                        enc.encode_bypass(bin);
                    } else {
                        enc.encode(&mut ctxs[i % contexts], bin);
                    }
                }
                enc.finish()
            }
        };
        if !bytes.is_empty() && rng.random::<bool>() {
            let keep = rng.random_range(0..bytes.len());
            bytes.truncate(keep);
        }
        for _ in 0..rng.random_range(0..4usize) {
            let at = rng.random_range(0..bytes.len().max(1));
            if let Some(b) = bytes.get_mut(at) {
                *b ^= 1 << rng.random_range(0..8u32);
            }
        }
        // Decode well past the end: both must read zeros from there on.
        let mut fast = ArithDecoder::new(&bytes);
        let mut slow = SerialDecoder::new(&bytes);
        let mut ctxs = vec![BinContext::new(); contexts];
        for i in 0..bytes.len() * 16 + 200 {
            let (got, want) = if i % 7 == 3 {
                (fast.decode_bypass(), slow.decode(2048))
            } else {
                let ctx = &mut ctxs[i % contexts];
                let p0 = ctx.p0() as u64;
                (fast.decode(ctx), slow.decode(p0))
            };
            assert_eq!(got, want, "bin {i} of a {}-byte buffer", bytes.len());
            assert_eq!(fast.exhausted(), slow.reader.exhausted(), "bin {i}");
        }
    });
}
