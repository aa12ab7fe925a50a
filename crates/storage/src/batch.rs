//! Bitsliced batch BCH decoding: 64 error patterns per `u64` op.
//!
//! This is the crate's only BCH decoder, and it decodes bare error
//! patterns, never stored codewords: syndromes are linear and vanish on
//! codewords, so a pattern `e` and any `codeword + e` get the same
//! outcome and the same corrections. A [`BlockBatch`] holds up to 64
//! patterns as one bit-*plane* per codeword bit position, so bit `b` of
//! plane `k` is bit `k` of lane `b`. Over the planes, using the tables
//! [`Bch::new`] builds, [`Bch::decode_batch`]
//!
//! * accumulates the **odd syndromes** bitsliced (`S_j += α^{j·deg(k)}`
//!   per set plane, as 10 accumulator planes per syndrome),
//! * ORs those planes into the **dirty-lane mask**: a word is a codeword
//!   iff `S_1 … S_2t` all vanish, and `S_2j = S_j²`, so the odd ones
//!   decide,
//! * derives the **even syndromes** by that Frobenius identity — squaring
//!   is GF(2)-linear, a fixed 10×10 bit matrix applied plane-wise,
//! * runs the scalar Berlekamp–Massey / closed-form locators / Chien
//!   search in [`crate::bch`] on the dirty lanes only, reading their 2t
//!   syndromes straight out of the planes.
//!
//! Zero planes are skipped, so a sparse pattern costs only its set bits.
//! The test-only scalar oracle `bch::reference::ScalarBch` (a real
//! encoder and decoder) pins it bit for bit.

use crate::bch::{
    berlekamp_massey, chien_search, locate_deg1, locate_deg2, Bch, DecodeOutcome, DATA_BITS,
    GF_BITS,
};
use crate::gf::Gf1024;

/// Blocks per batch: one lane per bit of the plane words.
pub const LANES: usize = 64;

/// Up to 64 error patterns of one code, stored as bit-planes.
#[derive(Clone, Debug)]
pub struct BlockBatch {
    /// One `u64` per codeword bit position; bit `b` = that bit of lane `b`.
    planes: Vec<u64>,
    lanes: usize,
}

impl BlockBatch {
    /// An all-zero batch of `lanes` error patterns.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is 0 or exceeds [`LANES`].
    pub fn zeroed(code: &Bch, lanes: usize) -> Self {
        assert!((1..=LANES).contains(&lanes), "lanes must be 1..=64");
        BlockBatch {
            planes: vec![0u64; code.codeword_bits()],
            lanes,
        }
    }

    /// Flips codeword bit `bit` of lane `lane` (layout as in [`Bch`]).
    ///
    /// # Panics
    ///
    /// Panics if `lane` or `bit` is out of range.
    #[inline]
    pub fn flip(&mut self, lane: usize, bit: usize) {
        assert!(lane < self.lanes, "lane out of range");
        self.planes[bit] ^= 1u64 << lane;
    }

    /// Codeword bit `bit` of every lane at once: bit `b` is lane `b`'s.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is out of range.
    #[inline]
    pub fn plane(&self, bit: usize) -> u64 {
        self.planes[bit]
    }
}

impl Bch {
    /// Decodes a batch of error patterns in place: bitsliced syndromes
    /// and dirty-lane detection across all lanes, scalar locator fallback
    /// only for the dirty ones. Corrections are applied to the planes,
    /// so each lane is left holding its residual (zero after a true
    /// correction). Each lane's outcome is tallied in the
    /// `storage.bch.clean` / `.corrected` / `.uncorrectable` counters
    /// (plus `storage.bch.bits_corrected`).
    ///
    /// # Panics
    ///
    /// Panics if the batch was built for a different code strength.
    pub fn decode_batch(&self, batch: &mut BlockBatch) -> Vec<DecodeOutcome> {
        let n = self.codeword_bits();
        assert_eq!(batch.planes.len(), n, "batch built for a different code");
        let parity = self.parity_bits();
        let lanes = batch.lanes;
        let _span = vapp_obs::span!("storage.batch.decode", lanes);
        let active: u64 = if lanes == LANES {
            !0
        } else {
            (1u64 << lanes) - 1
        };

        // Bitsliced odd syndromes by table accumulation over the nonzero
        // planes; syndrome j = 2i+1 lives at slot j-1.
        let t = self.t();
        let t2 = 2 * t;
        let mut sp = vec![0u64; t2 * GF_BITS];
        for (k, &p) in batch.planes.iter().enumerate() {
            if p == 0 {
                continue;
            }
            for (i, &c) in self.syn_const[k * t..(k + 1) * t].iter().enumerate() {
                let base = 2 * i * GF_BITS;
                let mut c = c;
                while c != 0 {
                    sp[base + c.trailing_zeros() as usize] ^= p;
                    c &= c - 1;
                }
            }
        }

        // A lane is dirty iff it is not a codeword, iff one of its odd
        // syndromes is nonzero (the even ones are their squares).
        let dirty = sp
            .chunks(GF_BITS)
            .step_by(2)
            .flatten()
            .fold(0u64, |acc, &p| acc | p)
            & active;
        // Per-batch dirty-lane distribution: deterministic at a fixed
        // seed, so it doubles as a drift-gate signal for obs_report.
        vapp_obs::histogram!("storage.batch.dirty_lanes", u64::from(dirty.count_ones()));
        if dirty == 0 {
            vapp_obs::counter!("storage.bch.clean", lanes as u64);
            return vec![DecodeOutcome::Clean; lanes];
        }

        // Even syndromes by plane-wise Frobenius squaring.
        for j2 in (2..=t2).step_by(2) {
            let (src, dst) = sp.split_at_mut((j2 - 1) * GF_BITS);
            let src = &src[(j2 / 2 - 1) * GF_BITS..(j2 / 2 - 1) * GF_BITS + GF_BITS];
            for (u, &p) in src.iter().enumerate() {
                if p == 0 {
                    continue;
                }
                let mut c = self.sq[u];
                while c != 0 {
                    dst[c.trailing_zeros() as usize] ^= p;
                    c &= c - 1;
                }
            }
        }

        // Scalar fallback per dirty lane: extract its syndromes from the
        // planes and run the shared BM / locator path.
        let gf = Gf1024::get();
        let mut outcomes = vec![DecodeOutcome::Clean; lanes];
        let (mut corrected, mut bits_corrected, mut uncorrectable) = (0u64, 0u64, 0u64);
        let mut m = dirty;
        let mut syn = vec![0u16; t2];
        while m != 0 {
            let lane = m.trailing_zeros() as usize;
            m &= m - 1;
            for (j, s) in syn.iter_mut().enumerate() {
                let mut v = 0u16;
                for (u, &p) in sp[j * GF_BITS..(j + 1) * GF_BITS].iter().enumerate() {
                    v |= (((p >> lane) & 1) as u16) << u;
                }
                *s = v;
            }
            let sigma = berlekamp_massey(&syn, gf);
            let deg = sigma.len() - 1;
            let positions = if deg == 0 || deg > t {
                None
            } else {
                match deg {
                    1 => locate_deg1(&sigma, n, gf),
                    2 => locate_deg2(&sigma, n, gf),
                    _ => chien_search(&sigma, n, gf),
                }
            };
            match positions {
                Some(positions) => {
                    for &k in &positions {
                        // Coefficient x^k: parity bit below `parity`,
                        // data bit above.
                        let bit = if k < parity {
                            DATA_BITS + k
                        } else {
                            k - parity
                        };
                        batch.planes[bit] ^= 1u64 << lane;
                    }
                    outcomes[lane] = DecodeOutcome::Corrected(positions.len());
                    corrected += 1;
                    bits_corrected += positions.len() as u64;
                }
                None => {
                    outcomes[lane] = DecodeOutcome::Uncorrectable;
                    uncorrectable += 1;
                }
            }
        }
        let clean = lanes as u64 - corrected - uncorrectable;
        if clean > 0 {
            vapp_obs::counter!("storage.bch.clean", clean);
        }
        if corrected > 0 {
            vapp_obs::counter!("storage.bch.corrected", corrected);
            vapp_obs::counter!("storage.bch.bits_corrected", bits_corrected);
        }
        if uncorrectable > 0 {
            vapp_obs::counter!("storage.bch.uncorrectable", uncorrectable);
        }
        outcomes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bch::reference::{batch_decode, pattern, random_data, xor, ScalarBch};
    use crate::bits::BitBuf;
    use vapp_check::RngExt;

    #[test]
    fn all_clean_batch_short_circuits() {
        let code = Bch::cached(6);
        let mut batch = BlockBatch::zeroed(code, 5);
        let outcomes = code.decode_batch(&mut batch);
        assert_eq!(outcomes, vec![DecodeOutcome::Clean; 5]);
        assert!((0..code.codeword_bits()).all(|bit| batch.plane(bit) == 0));
    }

    #[test]
    fn mixed_batch_corrects_dirty_lanes_only() {
        let code = Bch::cached(10);
        let oracle = ScalarBch::new(10);
        let n = code.codeword_bits();
        let parity = code.parity_bits();
        let zero = pattern(code, []);
        let mut patterns = vec![zero.clone(); LANES];
        // Lanes 0, 7, 63: correctable; lane 20: beyond the radius.
        for (lane, errs) in [(0usize, 1usize), (7, 2), (63, 10)] {
            patterns[lane] = pattern(code, (0..errs).map(|e| (e * 101 + 17) % n));
        }
        patterns[20] = pattern(code, (0..25).map(|e| (e * 37 + 3) % n));
        // Lane 42: x^95·m1(x), m1 = x^10 + x^3 + 1 the minimal polynomial
        // of α (the field's primitive polynomial). S_1 and its conjugates
        // vanish but S_3 does not: not a codeword, so the lane is dirty
        // only if the mask looks past S_1.
        let gf = crate::gf::Gf1024::get();
        assert_eq!(gf.alpha_pow(10) ^ gf.alpha_pow(3) ^ 1, 0, "m1(α) = 0");
        let coeff_bit = |d: usize| {
            if d < parity {
                DATA_BITS + d
            } else {
                d - parity
            }
        };
        patterns[42] = pattern(code, [95, 98, 105].map(coeff_bit));

        let mut residual = patterns.clone();
        let outcomes = batch_decode(code, &mut residual);
        assert_eq!(outcomes[0], DecodeOutcome::Corrected(1));
        assert_eq!(outcomes[7], DecodeOutcome::Corrected(2));
        assert_eq!(outcomes[63], DecodeOutcome::Corrected(10));
        assert_eq!(outcomes[42], DecodeOutcome::Corrected(3));
        for lane in [0usize, 7, 42, 63] {
            assert_eq!(residual[lane], zero, "lane {lane} not cleared");
        }
        // The dirty lanes must behave exactly like the oracle.
        for lane in [20usize, 42] {
            let mut want = patterns[lane].clone();
            assert_eq!(outcomes[lane], oracle.decode(&mut want), "lane {lane}");
            assert_eq!(residual[lane], want, "lane {lane} residual");
        }
        for lane in (1..LANES).filter(|l| ![7, 20, 42, 63].contains(l)) {
            assert_eq!(outcomes[lane], DecodeOutcome::Clean);
            assert_eq!(residual[lane], zero, "clean lane {lane} moved");
        }
    }

    #[test]
    fn sparse_error_batches_match_scalar_reference() {
        // Edge positions (first and last data bits, first and last parity
        // bits, a t + 1 run) decode as the oracle decodes
        // `encode(data) + pattern`; random patterns get the same check in
        // `bch::tests::fast_kernels_match_scalar_reference`.
        let code = Bch::cached(6);
        let oracle = ScalarBch::new(6);
        let n = code.codeword_bits();
        let edges = [
            vec![5],
            vec![0, 511, 512, n - 1],
            vec![1, 2, 3, 4, 5, 6, 7],
            vec![100, 200, 300, 400, 450, 500],
        ];
        let errors: Vec<BitBuf> = edges.iter().map(|f| pattern(code, f.clone())).collect();
        let mut residuals = errors.clone();
        let outcomes = batch_decode(code, &mut residuals);
        for (lane, e) in errors.iter().enumerate() {
            let stored = oracle.encode(&random_data(9 + lane as u64));
            let mut read = xor(&stored, e);
            assert_eq!(outcomes[lane], oracle.decode(&mut read), "lane {lane}");
            assert_eq!(
                read,
                xor(&stored, &residuals[lane]),
                "lane {lane} read-back"
            );
        }
    }

    /// The BCH bound the exact store path relies on to skip decoding:
    /// any pattern of weight 1 ≤ w ≤ t is `Corrected(w)` and decodes to
    /// zero, through the batch engine and through the scalar oracle.
    #[test]
    fn patterns_within_the_radius_decode_to_zero() {
        for t in [1usize, 2, 3, 6, 10, 16] {
            let code = Bch::cached(t);
            let oracle = ScalarBch::new(t);
            let n = code.codeword_bits();
            let zero = pattern(code, []);
            vapp_check::check(&format!("within_radius_t{t}"), 6, |rng| {
                let lanes = rng.random_range(1..=LANES);
                let errors: Vec<BitBuf> = (0..lanes)
                    .map(|_| {
                        let w = rng.random_range(1..=t);
                        pattern(code, vapp_check::gen::distinct(rng, 0..n, w))
                    })
                    .collect();
                let mut residuals = errors.clone();
                let outcomes = batch_decode(code, &mut residuals);
                for (lane, e) in errors.iter().enumerate() {
                    let want = DecodeOutcome::Corrected(e.hamming_distance(&zero));
                    assert_eq!(outcomes[lane], want, "t={t} batch lane {lane}");
                    assert_eq!(residuals[lane], zero, "t={t} batch residual, lane {lane}");
                    let mut cw = e.clone();
                    assert_eq!(oracle.decode(&mut cw), want, "t={t} scalar lane {lane}");
                    assert_eq!(cw, zero, "t={t} scalar residual, lane {lane}");
                }
            });
        }
    }

    /// Burst-shaped error patterns (page-sized runs spread by bit
    /// interleaving across `depth` blocks, plus i.i.d. background) —
    /// dense, often overloaded patterns far from the sparse i.i.d.
    /// population — must decode exactly as the oracle decodes them.
    #[test]
    fn burst_patterns_match_scalar_reference() {
        for t in [6usize, 10] {
            let code = Bch::cached(t);
            let oracle = ScalarBch::new(t);
            let nb = code.codeword_bits();
            vapp_check::check(&format!("batch_burst_equivalence_t{t}"), 16, |rng| {
                let blocks = rng.random_range(1..80usize);
                let depth = rng.random_range(1..=blocks);
                let mut patterns: Vec<BitBuf> = (0..blocks).map(|_| BitBuf::zeroed(nb)).collect();
                // A few physical bursts, each wiping a contiguous run whose
                // bits garble with probability 1/2 (what a lost page does).
                // Physical bit `pos` of a group holds bit `pos / depth` of
                // its block `pos % depth`.
                for _ in 0..rng.random_range(0..4usize) {
                    let span = rng.random_range(1..3 * depth.max(2));
                    let group = rng.random_range(0..blocks.div_ceil(depth));
                    let start = rng.random_range(0..depth * nb - span);
                    for pos in start..start + span {
                        if rng.random_bool(0.5) {
                            let block = group * depth + pos % depth;
                            if block < blocks {
                                patterns[block].flip(pos / depth);
                            }
                        }
                    }
                }
                // Background i.i.d. floor.
                for _ in 0..rng.random_range(0..20usize) {
                    let block = rng.random_range(0..blocks);
                    let bit = rng.random_range(0..nb);
                    patterns[block].flip(bit);
                }
                let mut reference = patterns.clone();
                let ref_outcomes: Vec<DecodeOutcome> =
                    reference.iter_mut().map(|p| oracle.decode(p)).collect();
                let batch_outcomes = batch_decode(code, &mut patterns);
                assert_eq!(batch_outcomes, ref_outcomes, "t={t} outcomes diverge");
                for (i, (got, want)) in patterns.iter().zip(&reference).enumerate() {
                    assert_eq!(got, want, "t={t} pattern {i} diverges after decode");
                }
            });
        }
    }
}
