//! H.264 quantisation (the rate/quality knob, paper §2.3.2).
//!
//! Uses the standard H.264 multiplication-factor (`MF`) and rescale (`V`)
//! tables, so the quantisation step doubles every 6 QP exactly as in the
//! real codec. Quantisation is the only lossy step of the coding stage.

use crate::transform::{forward4x4, inverse4x4, Block4x4};
use std::sync::OnceLock;

/// Highest legal quantisation parameter (H.264 luma).
pub const MAX_QP: u8 = 51;

/// Position class within a 4x4 block: positions (0,0),(0,2),(2,0),(2,2) use
/// class 0; (1,1),(1,3),(3,1),(3,3) class 1; the rest class 2.
fn pos_class(i: usize) -> usize {
    let (r, c) = (i / 4, i % 4);
    match ((r % 2) == 0, (c % 2) == 0) {
        (true, true) => 0,
        (false, false) => 1,
        _ => 2,
    }
}

/// H.264 quantisation multipliers `MF` indexed by `QP % 6` and position
/// class.
const MF: [[i64; 3]; 6] = [
    [13107, 5243, 8066],
    [11916, 4660, 7490],
    [10082, 4194, 6554],
    [9362, 3647, 5825],
    [8192, 3355, 5243],
    [7282, 2893, 4559],
];

/// H.264 rescale factors `V` indexed by `QP % 6` and position class.
const V: [[i32; 3]; 6] = [
    [10, 16, 13],
    [11, 18, 14],
    [13, 20, 16],
    [14, 23, 18],
    [16, 25, 20],
    [18, 29, 23],
];

/// Quantises forward-transform output. `intra` selects the H.264 dead-zone
/// rounding offset (`2^qbits / 3` intra, `/ 6` inter).
///
/// # Panics
///
/// Panics if `qp > 51`.
pub fn quantize(coeffs: &Block4x4, qp: u8, intra: bool) -> Block4x4 {
    assert!(qp <= MAX_QP, "qp out of range");
    let qbits = 15 + (qp / 6) as i64;
    let f: i64 = if intra {
        (1i64 << qbits) / 3
    } else {
        (1i64 << qbits) / 6
    };
    let row = &MF[(qp % 6) as usize];
    let mut out = [0i32; 16];
    for i in 0..16 {
        let w = coeffs[i] as i64;
        let level = (w.abs() * row[pos_class(i)] + f) >> qbits;
        out[i] = if w < 0 { -level as i32 } else { level as i32 };
    }
    out
}

/// Rescales (dequantises) levels back to transform-domain coefficients,
/// pre-scaled by 64 for the shift-based inverse transform.
///
/// The scalar reference that [`dequant_inverse`] is tested against.
///
/// # Panics
///
/// Panics if `qp > 51`.
pub fn dequantize(levels: &Block4x4, qp: u8) -> Block4x4 {
    assert!(qp <= MAX_QP, "qp out of range");
    let shift = (qp / 6) as i32;
    let row = &V[(qp % 6) as usize];
    let mut out = [0i32; 16];
    for i in 0..16 {
        // H.264 rescale: W' = Z * V * 2^(QP/6); the inverse transform's
        // (x+32)>>6 absorbs the residual 64x scale.
        out[i] = levels[i].saturating_mul(row[pos_class(i)]) << shift;
    }
    out
}

/// Per-QP quantisation constants, expanded from the position-class tables to
/// one entry per block position so the hot loops index directly (no
/// `pos_class` divide/modulo per coefficient).
struct QpTable {
    /// `MF[qp % 6][pos_class(i)]` for each of the 16 positions.
    mf: [i64; 16],
    /// `V[qp % 6][pos_class(i)] << (qp / 6)` — the rescale factor with the
    /// QP shift pre-applied.
    v: [i64; 16],
    /// Quantisation shift `15 + qp / 6`.
    qbits: i64,
    /// Intra dead-zone offset `2^qbits / 3`.
    f_intra: i64,
    /// Inter dead-zone offset `2^qbits / 6`.
    f_inter: i64,
}

/// The 52 per-QP tables, built once on first use.
fn qp_tables() -> &'static [QpTable; 52] {
    static TABLES: OnceLock<[QpTable; 52]> = OnceLock::new();
    TABLES.get_or_init(|| {
        core::array::from_fn(|qp| {
            let qbits = 15 + (qp / 6) as i64;
            QpTable {
                mf: core::array::from_fn(|i| MF[qp % 6][pos_class(i)]),
                v: core::array::from_fn(|i| (V[qp % 6][pos_class(i)] as i64) << (qp / 6)),
                qbits,
                f_intra: (1i64 << qbits) / 3,
                f_inter: (1i64 << qbits) / 6,
            }
        })
    })
}

/// Fused `forward4x4` → `quantize`: transforms a residual block and
/// quantises it in one pass over the per-QP LUT.
///
/// Bit-identical to the scalar pair (`quantize(&forward4x4(r), qp, intra)`),
/// which stays as the reference implementation — the LUT stores exactly the
/// values the scalar path recomputes per coefficient.
///
/// # Panics
///
/// Panics if `qp > 51`.
pub fn forward_quant(residual: &Block4x4, qp: u8, intra: bool) -> Block4x4 {
    assert!(qp <= MAX_QP, "qp out of range");
    let t = &qp_tables()[qp as usize];
    let f = if intra { t.f_intra } else { t.f_inter };
    let coeffs = forward4x4(residual);
    let mut out = [0i32; 16];
    for i in 0..16 {
        let w = coeffs[i] as i64;
        let level = (w.abs() * t.mf[i] + f) >> t.qbits;
        out[i] = if w < 0 { -level as i32 } else { level as i32 };
    }
    out
}

/// Fused `dequantize` → `inverse4x4`: the one dequantiser of both the
/// encoder's and the decoder's reconstruction.
///
/// Uses the pre-shifted rescale LUT in 64-bit arithmetic, so it equals the
/// scalar pair wherever the scalar `dequantize` does not saturate. That
/// covers every level a stream can carry: the decoder clamps
/// `|level| <= 2^15 + 1`, so `|level * V * 2^(qp / 6)| <= 32769 * 29 * 2^8
/// < 2^28`, and the inverse transform's sums then stay below `1.82e9 <
/// 2^31`. A `debug_assert!` guards the 2^28 bound.
///
/// # Panics
///
/// Panics if `qp > 51`.
pub fn dequant_inverse(levels: &Block4x4, qp: u8) -> Block4x4 {
    assert!(qp <= MAX_QP, "qp out of range");
    let t = &qp_tables()[qp as usize];
    let mut deq = [0i32; 16];
    for i in 0..16 {
        let product = levels[i] as i64 * t.v[i];
        debug_assert!(
            product.abs() < 1 << 28,
            "fused dequant needs |level * V| < 2^28, got level {} at qp {qp}",
            levels[i]
        );
        deq[i] = product as i32;
    }
    inverse4x4(&deq)
}

/// Zigzag scan order for a 4x4 block (H.264 frame scan).
pub const ZIGZAG4X4: [usize; 16] = [0, 1, 4, 8, 5, 2, 3, 6, 9, 12, 13, 10, 7, 11, 14, 15];

/// Reorders a row-major block into zigzag order.
pub fn to_zigzag(block: &Block4x4) -> Block4x4 {
    core::array::from_fn(|i| block[ZIGZAG4X4[i]])
}

/// Restores a zigzag-ordered block to row-major order.
pub fn from_zigzag(zz: &Block4x4) -> Block4x4 {
    let mut out = [0i32; 16];
    for (i, &pos) in ZIGZAG4X4.iter().enumerate() {
        out[pos] = zz[i];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_quantizes_to_zero() {
        let z = [0i32; 16];
        assert_eq!(quantize(&z, 20, true), z);
        assert_eq!(dequantize(&z, 20), z);
    }

    #[test]
    fn qp_plus_six_halves_levels() {
        // The defining property of H.264 quantisation: step doubles per +6.
        let coeffs: Block4x4 = core::array::from_fn(|i| (i as i32 + 1) * 640);
        for qp in [10u8, 20, 30] {
            let a = quantize(&coeffs, qp, false);
            let b = quantize(&coeffs, qp + 6, false);
            for i in 0..16 {
                assert!(
                    (a[i] / 2 - b[i]).abs() <= 1,
                    "qp={qp} i={i}: {} vs {}",
                    a[i],
                    b[i]
                );
            }
        }
    }

    #[test]
    fn sign_symmetry() {
        let coeffs: Block4x4 = core::array::from_fn(|i| (i as i32 * 97) - 700);
        let neg: Block4x4 = core::array::from_fn(|i| -coeffs[i]);
        let qa = quantize(&coeffs, 24, true);
        let qb = quantize(&neg, 24, true);
        for i in 0..16 {
            assert_eq!(qa[i], -qb[i]);
        }
    }

    #[test]
    fn zigzag_is_a_permutation_roundtrip() {
        let block: Block4x4 = core::array::from_fn(|i| i as i32);
        let zz = to_zigzag(&block);
        assert_eq!(from_zigzag(&zz), block);
        // Zigzag starts at DC and visits every position once.
        let mut seen = [false; 16];
        for &p in &ZIGZAG4X4 {
            assert!(!seen[p]);
            seen[p] = true;
        }
        assert_eq!(zz[0], block[0]);
    }

    #[test]
    #[should_panic(expected = "qp out of range")]
    fn qp_out_of_range_rejected() {
        quantize(&[0; 16], 52, false);
    }

    #[test]
    fn fused_forward_quant_matches_scalar_pair() {
        for qp in 0..=MAX_QP {
            for intra in [false, true] {
                let r: Block4x4 =
                    core::array::from_fn(|i| ((i as i32 * 173 + qp as i32 * 31) % 511) - 255);
                assert_eq!(
                    forward_quant(&r, qp, intra),
                    quantize(&crate::transform::forward4x4(&r), qp, intra),
                    "qp={qp} intra={intra}"
                );
            }
        }
    }

    #[test]
    fn fused_dequant_inverse_matches_scalar_pair() {
        for qp in 0..=MAX_QP {
            // Levels as the encoder would produce them: quantised 8-bit
            // residual coefficients.
            let r: Block4x4 =
                core::array::from_fn(|i| ((i as i32 * 89 + qp as i32 * 17) % 511) - 255);
            let levels = forward_quant(&r, qp, false);
            assert_eq!(
                dequant_inverse(&levels, qp),
                crate::transform::inverse4x4(&dequantize(&levels, qp)),
                "qp={qp}"
            );
        }
    }

    #[test]
    fn intra_rounding_is_more_generous() {
        // With the same coefficient near a quantisation boundary, the intra
        // offset (1/3) rounds up where the inter offset (1/6) rounds down.
        let mut found = false;
        for v in 1..4000 {
            let c: Block4x4 = core::array::from_fn(|i| if i == 0 { v } else { 0 });
            if quantize(&c, 28, true)[0] > quantize(&c, 28, false)[0] {
                found = true;
                break;
            }
        }
        assert!(found);
    }
}
