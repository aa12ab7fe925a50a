//! Pixel kernels: sums of absolute and squared differences and rounding
//! averages over byte rows.
//!
//! The codec's per-macroblock inner loops — SAD for motion estimation and
//! rounding averages for half-pel interpolation — dominate encode time. Each
//! kernel is a plain, safe loop over fixed-width lanes (16-byte chunks taken
//! as `&[u8; 16]`, or one widened `u16` per byte): the shape LLVM's loop
//! vectoriser lowers to the SIMD SAD and average instructions of the default
//! target (`psadbw`, `pavgb` on x86-64) with no `unsafe`, intrinsics or build
//! flag. Results are exact, bit-identical to the per-pixel definitions
//! (pinned by the property tests in `vapp-codec` and the tests below), and
//! each kernel has this one implementation.
//!
//! Lane bounds: a 16-byte SAD chunk sums to at most `16 * 255 = 4080`; a
//! [`sad_quads16`] lane holds at most `4 * 255 = 1020`, so the four rows of a
//! 4x4 cell add to at most `4080 < 2^16`; the widened average sums peak at
//! `2 * 255 + 1 = 511` and `4 * 255 + 2 = 1022`; a 16-byte squared-difference
//! chunk sums to at most `16 * 255^2 = 1_040_400`, and a run of 2048 of them
//! stays below `2^31`.

/// Sum of absolute differences between two equal-length byte slices:
/// 16-pixel chunks (each at most `16 * 255 = 4080`) plus a per-pixel
/// remainder.
///
/// This is the row kernel behind [`crate::Plane::sad`]; it is exact (not an
/// approximation), so it can replace the scalar loop anywhere without
/// changing a single decision.
///
/// # Panics
///
/// Panics (in debug builds) if the slices differ in length.
#[inline]
pub fn sad_slices(a: &[u8], b: &[u8]) -> u64 {
    debug_assert_eq!(a.len(), b.len(), "SAD row length mismatch");
    let (ca, ra) = a.as_chunks::<16>();
    let (cb, rb) = b.as_chunks::<16>();
    let sad16 = |x: &[u8; 16], y: &[u8; 16]| -> u32 {
        x.iter()
            .zip(y)
            .map(|(&p, &q)| u32::from(p.abs_diff(q)))
            .sum()
    };
    let chunks: u64 = ca.iter().zip(cb).map(|(x, y)| u64::from(sad16(x, y))).sum();
    let rest: u64 = ra
        .iter()
        .zip(rb)
        .map(|(&p, &q)| u64::from(p.abs_diff(q)))
        .sum();
    chunks + rest
}

/// Sum of squared differences between two equal-length byte slices:
/// 16-pixel chunks plus a per-pixel remainder, the row kernel behind
/// [`crate::Plane::sse`].
///
/// A chunk takes its differences as `i16` and sums their squares in `i32`
/// (at most `16 * 255^2 = 1_040_400`), the shape the vectoriser lowers to
/// a multiply-add of 16-bit lanes (`pmaddwd` on x86-64). Chunk sums keep
/// adding in `i32` for runs of up to 2048 chunks before they widen to
/// `u64`. Exact.
///
/// # Panics
///
/// Panics (in debug builds) if the slices differ in length.
#[inline]
pub fn sse_slices(a: &[u8], b: &[u8]) -> u64 {
    debug_assert_eq!(a.len(), b.len(), "SSE row length mismatch");
    let (ca, ra) = a.as_chunks::<16>();
    let (cb, rb) = b.as_chunks::<16>();
    let sse16 = |x: &[u8; 16], y: &[u8; 16]| -> i32 {
        x.iter()
            .zip(y)
            .map(|(&p, &q)| {
                let d = i32::from(i16::from(p) - i16::from(q));
                d * d
            })
            .sum()
    };
    let run = |xs: &[[u8; 16]], ys: &[[u8; 16]]| -> i32 {
        xs.iter().zip(ys).map(|(x, y)| sse16(x, y)).sum()
    };
    let chunks: u64 = ca
        .chunks(SSE_RUN)
        .zip(cb.chunks(SSE_RUN))
        .map(|(xs, ys)| run(xs, ys) as u64)
        .sum();
    let rest: u64 = ra
        .iter()
        .zip(rb)
        .map(|(&p, &q)| u64::from(p.abs_diff(q)).pow(2))
        .sum();
    chunks + rest
}

/// Chunks whose squared differences [`sse_slices`] adds in one `i32`:
/// `2048 * 1_040_400 < 2^31`. Summing a run in `i32` keeps the sums in
/// vector lanes; widening each chunk's sum to `u64` instead reduces every
/// chunk across lanes and makes a 112x64 plane ~1.7x slower.
pub(crate) const SSE_RUN: usize = 2048;

/// Per-4-pixel SADs of two 16-pixel rows, one sum per 16-bit lane: lane `k`
/// (bits `16k..16k + 16`) holds the SAD of pixels `4k..4k + 4`.
///
/// A lane holds at most `4 * 255 = 1020`. The motion search adds the four
/// rows of each 4x4 cell of a 16x16 block with plain `u64` adds, so a lane
/// reaches at most `4 * 1020 = 4080 < 2^16` and never carries into the next.
///
/// # Panics
///
/// Panics unless both rows are exactly 16 pixels long.
#[inline]
pub fn sad_quads16(a: &[u8], b: &[u8]) -> u64 {
    let a: &[u8; 16] = a.try_into().expect("quad SAD rows are 16 pixels");
    let b: &[u8; 16] = b.try_into().expect("quad SAD rows are 16 pixels");
    let d: [u16; 16] = std::array::from_fn(|i| u16::from(a[i].abs_diff(b[i])));
    (0..4).fold(0, |lanes, k| {
        let quad = d[4 * k] + d[4 * k + 1] + d[4 * k + 2] + d[4 * k + 3];
        lanes | u64::from(quad) << (16 * k)
    })
}

/// Per-byte rounding-up average `(a + b + 1) >> 1` of two equal-length rows.
///
/// This is H.264's half-pel bilinear tap; [`avg4_rounding`] is the diagonal
/// 4-tap, which is *not* a composition of two of these (the roundings
/// differ), hence the separate kernel.
///
/// # Panics
///
/// Panics (in debug builds) on length mismatches.
#[inline]
pub fn avg_rounding(a: &[u8], b: &[u8], out: &mut [u8]) {
    debug_assert_eq!(a.len(), b.len(), "average row length mismatch");
    debug_assert_eq!(a.len(), out.len(), "average output length mismatch");
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = ((u16::from(x) + u16::from(y) + 1) >> 1) as u8;
    }
}

/// Per-byte 4-tap rounding average `(a + b + c + d + 2) >> 2` of four rows:
/// H.264's diagonal half-pel formula, which nested 2-tap averages would
/// *not* reproduce.
///
/// # Panics
///
/// Panics (in debug builds) on length mismatches.
#[inline]
pub fn avg4_rounding(a: &[u8], b: &[u8], c: &[u8], d: &[u8], out: &mut [u8]) {
    debug_assert!(
        a.len() == b.len() && a.len() == c.len() && a.len() == d.len() && a.len() == out.len(),
        "4-tap average length mismatch"
    );
    for ((((o, &w), &x), &y), &z) in out.iter_mut().zip(a).zip(b).zip(c).zip(d) {
        let sum = u16::from(w) + u16::from(x) + u16::from(y) + u16::from(z) + 2;
        *o = (sum >> 2) as u8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The retained scalar definition every SAD kernel must match.
    fn sad_scalar(a: &[u8], b: &[u8]) -> u64 {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| u64::from(x.abs_diff(y)))
            .sum()
    }

    /// Cheap deterministic byte generator (splitmix-style) for kernel tests.
    fn pattern(seed: u64, len: usize) -> Vec<u8> {
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (s >> 56) as u8
            })
            .collect()
    }

    /// Row lengths under test: both sides of every 16-byte chunk boundary
    /// up to five chunks, plus two long rows.
    fn lengths() -> impl Iterator<Item = usize> {
        (0..=80).chain([100, 256])
    }

    /// `random` random row pairs of `len` bytes, then all-0 against all-255
    /// in both orders.
    fn row_pairs(salt: u64, len: usize, random: u64) -> Vec<(Vec<u8>, Vec<u8>)> {
        let (zeros, maxed) = (vec![0u8; len], vec![255u8; len]);
        let pair = |seed: u64| {
            (
                pattern(salt + 2 * seed, len),
                pattern(salt + 2 * seed + 1, len),
            )
        };
        (0..random)
            .map(pair)
            .chain([(zeros.clone(), maxed.clone()), (maxed, zeros)])
            .collect()
    }

    #[test]
    fn sad_slices_matches_scalar_all_lengths() {
        for len in lengths() {
            for (a, b) in row_pairs(1, len, 4) {
                assert_eq!(sad_slices(&a, &b), sad_scalar(&a, &b), "len {len}");
            }
        }
    }

    #[test]
    fn sad_quads16_matches_scalar_quads() {
        for (a, b) in row_pairs(31, 16, 64) {
            let lanes = sad_quads16(&a, &b);
            for k in 0..4 {
                let want = sad_scalar(&a[4 * k..4 * k + 4], &b[4 * k..4 * k + 4]);
                assert_eq!((lanes >> (16 * k)) & 0xFFFF, want, "quad {k}");
            }
        }
    }

    #[test]
    fn sad_slices_extremes() {
        for len in lengths() {
            let zeros = vec![0u8; len];
            let maxed = vec![255u8; len];
            assert_eq!(sad_slices(&zeros, &maxed), len as u64 * 255);
            assert_eq!(sad_slices(&maxed, &zeros), len as u64 * 255);
            assert_eq!(sad_slices(&maxed, &maxed), 0);
        }
    }

    #[test]
    fn avg_rounding_matches_scalar() {
        for len in lengths() {
            for (a, b) in row_pairs(7, len, 4) {
                let mut out = vec![0u8; len];
                avg_rounding(&a, &b, &mut out);
                for i in 0..len {
                    let want = ((u16::from(a[i]) + u16::from(b[i]) + 1) >> 1) as u8;
                    assert_eq!(out[i], want, "len {len} i {i}");
                }
            }
        }
    }

    #[test]
    fn avg4_rounding_matches_scalar() {
        for len in lengths() {
            let random = (0..4).map(|k| pattern(20 + k, len)).collect();
            let (zeros, maxed) = (vec![0u8; len], vec![255u8; len]);
            let mixed = vec![zeros.clone(), maxed.clone(), zeros, maxed.clone()];
            for rows in [random, mixed, vec![maxed; 4]] {
                let mut out = vec![0u8; len];
                avg4_rounding(&rows[0], &rows[1], &rows[2], &rows[3], &mut out);
                for i in 0..len {
                    let sum: u16 = rows.iter().map(|r| u16::from(r[i])).sum::<u16>() + 2;
                    assert_eq!(out[i], (sum >> 2) as u8, "len {len} i {i}");
                }
            }
        }
    }

    #[test]
    fn avg_extremes_do_not_carry_across_bytes() {
        let a = [255u8, 0, 255, 0, 255, 0, 255, 0, 255];
        let b = [255u8, 255, 0, 0, 255, 255, 0, 0, 255];
        let mut out = [0u8; 9];
        avg_rounding(&a, &b, &mut out);
        assert_eq!(out, [255, 128, 128, 0, 255, 128, 128, 0, 255]);
        let mut out4 = [0u8; 9];
        avg4_rounding(&a, &b, &a, &b, &mut out4);
        assert_eq!(out4, [255, 128, 128, 0, 255, 128, 128, 0, 255]);
    }
}
