//! Word-parallel (SWAR) pixel kernels.
//!
//! The codec's per-macroblock inner loops — SAD for motion estimation and
//! rounding averages for half-pel interpolation — dominate encode time. The
//! kernels here process 8 pixels per `u64` with plain integer arithmetic, so
//! they are portable and exactly bit-identical to the scalar definitions they
//! replace (pinned by the property tests in `vapp-codec` and the in-module
//! reference tests below). Each kernel has exactly this one implementation;
//! the scalar definitions survive only as the test oracle.
//!
//! # SWAR layout
//!
//! Absolute byte differences are computed in sixteen-bit lanes: the 8 bytes of
//! a `u64` are split into even/odd byte positions, widening each pixel to a
//! 16-bit lane with 8 bits of headroom. Within a lane, `(x + 0x100) - y` is
//! always in `[1, 0x1FF]`, so bit 8 of the biased difference is a per-lane
//! `x >= y` flag and no borrow ever crosses a lane boundary. Selecting
//! `d - BIAS` or `BIAS - d` per lane via the flag mask yields `|x - y|`, and a
//! multiply by the per-lane LSB pattern folds the four lane sums into the top
//! 16 bits (max `4 * 2 * 255 = 2040`, far below lane capacity).

/// Even byte positions of a `u64`, widened to 16-bit lanes.
const EVEN: u64 = 0x00FF_00FF_00FF_00FF;
/// Bit 8 of every 16-bit lane: the bias that keeps lane differences positive.
const BIAS: u64 = 0x0100_0100_0100_0100;
/// The least-significant bit of every 16-bit lane.
const LANE_LSB: u64 = 0x0001_0001_0001_0001;
/// Per-byte rounding constant `+2` for the 4-tap diagonal average.
const TWO: u64 = 0x0002_0002_0002_0002;
/// Low 7 bits of every byte, used by the carry-free rounding average.
const LOW7: u64 = 0x7F7F_7F7F_7F7F_7F7F;

/// Sum of `|x_i - y_i|` over four 16-bit lanes holding byte values.
#[inline(always)]
fn abs_diff_lanes(x: u64, y: u64) -> u64 {
    // x, y hold values <= 0xFF per lane, so `x | BIAS == x + BIAS` lane-wise
    // and the subtraction below never borrows across lanes.
    let d = (x | BIAS) - y;
    // Bit 8 survives exactly when x >= y; widen the flag to a full lane mask.
    let mask_ge = ((d >> 8) & LANE_LSB) * 0xFFFF;
    // Both masked subtractions are lane-wise non-negative, so `|` == `+`.
    ((d & mask_ge) - (BIAS & mask_ge)) | ((BIAS & !mask_ge) - (d & !mask_ge))
}

/// SAD of the 8 byte pairs packed in two `u64`s.
#[inline(always)]
fn sad8(a: u64, b: u64) -> u64 {
    let lanes =
        abs_diff_lanes(a & EVEN, b & EVEN) + abs_diff_lanes((a >> 8) & EVEN, (b >> 8) & EVEN);
    // Horizontal fold: multiplying by LANE_LSB sums the four lanes into the
    // top lane (sum <= 2040 < 2^16, so nothing overflows out).
    lanes.wrapping_mul(LANE_LSB) >> 48
}

#[inline(always)]
fn load8(s: &[u8]) -> u64 {
    u64::from_le_bytes(s.try_into().expect("8-byte chunk"))
}

/// Loads 4 bytes into the low half of a `u64` (high bytes zero).
///
/// Zero padding is harmless for every kernel here: padded lanes contribute
/// `|0 - 0| = 0` to a SAD and average to `(0 + 0 + 1) >> 1 = 0` /
/// `(0 + 0 + 0 + 0 + 2) >> 2 = 0`, so the 4-wide rows of sub-8x8 partitions
/// run word-parallel too instead of falling back to scalar tails.
#[inline(always)]
fn load4(s: &[u8]) -> u64 {
    u64::from(u32::from_le_bytes(s.try_into().expect("4-byte chunk")))
}

/// Sum of absolute differences between two equal-length byte slices,
/// 8 pixels per `u64`.
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
    let mut total = 0u64;
    let chunk = a.len() - a.len() % 8;
    let (ca, mut ra) = a.split_at(chunk);
    let (cb, mut rb) = b.split_at(chunk);
    for (x, y) in ca.chunks_exact(8).zip(cb.chunks_exact(8)) {
        total += sad8(load8(x), load8(y));
    }
    if ra.len() >= 4 {
        total += sad8(load4(&ra[..4]), load4(&rb[..4]));
        ra = &ra[4..];
        rb = &rb[4..];
    }
    for (&x, &y) in ra.iter().zip(rb) {
        total += u64::from(x.abs_diff(y));
    }
    total
}

/// Per-byte rounding-up average `(a + b + 1) >> 1` of two equal-length rows.
///
/// Uses the carry-free identity `avg_up(a, b) = (a | b) - ((a ^ b) >> 1)`
/// (per byte): the OR counts each shared bit once plus every differing bit,
/// and subtracting half the XOR leaves exactly `ceil((a + b) / 2)`.
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
    let chunk = a.len() - a.len() % 8;
    for i in (0..chunk).step_by(8) {
        let x = load8(&a[i..i + 8]);
        let y = load8(&b[i..i + 8]);
        // Shifting the XOR right by one leaks each byte's bit 0 into its
        // neighbour's bit 7; LOW7 masks the leak. No other bit crosses bytes.
        let avg = (x | y) - (((x ^ y) >> 1) & LOW7);
        out[i..i + 8].copy_from_slice(&avg.to_le_bytes());
    }
    let mut i = chunk;
    if a.len() - i >= 4 {
        let x = load4(&a[i..i + 4]);
        let y = load4(&b[i..i + 4]);
        let avg = (x | y) - (((x ^ y) >> 1) & LOW7);
        out[i..i + 4].copy_from_slice(&(avg as u32).to_le_bytes());
        i += 4;
    }
    for i in i..a.len() {
        out[i] = ((u16::from(a[i]) + u16::from(b[i]) + 1) >> 1) as u8;
    }
}

/// Per-byte 4-tap rounding average `(a + b + c + d + 2) >> 2` of four rows.
///
/// The four inputs are summed in 16-bit lanes (max `4 * 255 + 2 = 1022`, well
/// under lane capacity), shifted, and repacked — bit-identical to H.264's
/// diagonal half-pel formula, which nested 2-tap averages would *not* be.
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
    let chunk = a.len() - a.len() % 8;
    for i in (0..chunk).step_by(8) {
        let (xa, xb) = (load8(&a[i..i + 8]), load8(&b[i..i + 8]));
        let (xc, xd) = (load8(&c[i..i + 8]), load8(&d[i..i + 8]));
        let even = (xa & EVEN) + (xb & EVEN) + (xc & EVEN) + (xd & EVEN) + TWO;
        let odd =
            ((xa >> 8) & EVEN) + ((xb >> 8) & EVEN) + ((xc >> 8) & EVEN) + ((xd >> 8) & EVEN) + TWO;
        let avg = ((even >> 2) & EVEN) | (((odd >> 2) & EVEN) << 8);
        out[i..i + 8].copy_from_slice(&avg.to_le_bytes());
    }
    let mut i = chunk;
    if a.len() - i >= 4 {
        let (xa, xb) = (load4(&a[i..i + 4]), load4(&b[i..i + 4]));
        let (xc, xd) = (load4(&c[i..i + 4]), load4(&d[i..i + 4]));
        let even = (xa & EVEN) + (xb & EVEN) + (xc & EVEN) + (xd & EVEN) + TWO;
        let odd =
            ((xa >> 8) & EVEN) + ((xb >> 8) & EVEN) + ((xc >> 8) & EVEN) + ((xd >> 8) & EVEN) + TWO;
        let avg = ((even >> 2) & EVEN) | (((odd >> 2) & EVEN) << 8);
        out[i..i + 4].copy_from_slice(&(avg as u32).to_le_bytes());
        i += 4;
    }
    for i in i..a.len() {
        let sum = u16::from(a[i]) + u16::from(b[i]) + u16::from(c[i]) + u16::from(d[i]) + 2;
        out[i] = (sum >> 2) as u8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The retained scalar definition every word-parallel kernel must match.
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

    #[test]
    fn swar_sad_matches_scalar_all_lengths() {
        for len in (0..80).chain([100, 256]) {
            for seed in 0..4u64 {
                let a = pattern(seed * 2 + 1, len);
                let b = pattern(seed * 2 + 2, len);
                assert_eq!(sad_slices(&a, &b), sad_scalar(&a, &b), "len {len}");
            }
        }
    }

    #[test]
    fn swar_sad_extremes() {
        let zeros = vec![0u8; 24];
        let maxed = vec![255u8; 24];
        assert_eq!(sad_slices(&zeros, &maxed), 24 * 255);
        assert_eq!(sad_slices(&maxed, &zeros), 24 * 255);
        assert_eq!(sad_slices(&maxed, &maxed), 0);
    }

    #[test]
    fn avg_rounding_matches_scalar() {
        for len in 0..40 {
            let a = pattern(7, len);
            let b = pattern(9, len);
            let mut out = vec![0u8; len];
            avg_rounding(&a, &b, &mut out);
            for i in 0..len {
                let want = ((u16::from(a[i]) + u16::from(b[i]) + 1) >> 1) as u8;
                assert_eq!(out[i], want, "len {len} i {i}");
            }
        }
    }

    #[test]
    fn avg4_rounding_matches_scalar() {
        for len in 0..40 {
            let rows: Vec<Vec<u8>> = (0..4).map(|k| pattern(20 + k, len)).collect();
            let mut out = vec![0u8; len];
            avg4_rounding(&rows[0], &rows[1], &rows[2], &rows[3], &mut out);
            for i in 0..len {
                let sum: u16 = rows.iter().map(|r| u16::from(r[i])).sum::<u16>() + 2;
                assert_eq!(out[i], (sum >> 2) as u8, "len {len} i {i}");
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
