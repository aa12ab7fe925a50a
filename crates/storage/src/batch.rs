//! Bitsliced batch BCH kernels: 64 blocks per `u64` op.
//!
//! This is the crate's only BCH engine: the per-block [`Bch::encode`] /
//! [`Bch::decode`] are one-lane calls into it. It pivots the problem
//! into a struct-of-arrays layout (`BlockBatch`): up to 64 codewords are
//! transposed into one bit-*plane* per codeword bit position, so bit `b`
//! of plane `k` is bit `k` of block `b`. Over the planes, using the
//! tables [`Bch::new`] builds,
//!
//! * **encode** and **clean detection** derive every block's parity in
//!   one pass (plane `k` XORs into the parity rows selected by
//!   `R_k = x^{parity+k} mod g`); decode diffs that against the stored
//!   parity planes — the OR of the diffs is a 64-bit dirty-lane mask,
//! * **syndromes** accumulate bitsliced for the *odd* powers
//!   (`S_j += α^{j·deg(k)}` per set plane, as 10 accumulator planes per
//!   syndrome) and derive the even powers by the Frobenius identity
//!   `S_2j = S_j²` — squaring is GF(2)-linear, a fixed 10×10 bit matrix
//!   applied plane-wise,
//! * only **dirty lanes** fall back to the scalar Berlekamp–Massey /
//!   closed-form locators / Chien search in [`crate::bch`], reading their
//!   2t syndromes straight out of the planes.
//!
//! Zero planes are skipped everywhere, so the same engine is fast both
//! for dense content batches (throughput benches) and for the pipeline's
//! sparse error-pattern batches. The test-only scalar oracle
//! `bch::reference::ScalarBch` pins it to byte-identical behavior.

use crate::bch::{
    berlekamp_massey, chien_search, locate_deg1, locate_deg2, Bch, DecodeOutcome, DATA_BITS,
    GF_BITS,
};
use crate::bits::{transpose64, words_for, BitBuf};
use crate::gf::Gf1024;

/// Blocks per batch: one lane per bit of the plane words.
pub const LANES: usize = 64;

/// Up to 64 codewords of one code, stored as bit-planes.
#[derive(Clone, Debug)]
pub struct BlockBatch {
    /// One `u64` per codeword bit position; bit `b` = that bit of lane `b`.
    planes: Vec<u64>,
    lanes: usize,
}

impl BlockBatch {
    /// An all-zero batch of `lanes` codewords (each the zero codeword).
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

    /// Transposes up to 64 codewords into planes.
    ///
    /// # Panics
    ///
    /// Panics if `cws` is empty, longer than [`LANES`], or any codeword
    /// has the wrong length for `code`.
    pub fn from_codewords(code: &Bch, cws: &[BitBuf]) -> Self {
        let n = code.codeword_bits();
        let mut batch = BlockBatch::zeroed(code, cws.len());
        for (w, planes) in batch.planes.chunks_mut(64).enumerate() {
            let mut m = [0u64; 64];
            for (lane, cw) in cws.iter().enumerate() {
                assert_eq!(cw.len(), n, "codeword length mismatch");
                m[lane] = cw.words()[w];
            }
            transpose64(&mut m);
            planes.copy_from_slice(&m[..planes.len()]);
        }
        batch
    }

    /// Number of active lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Flips codeword bit `bit` of lane `lane` — how the pipeline builds
    /// sparse error-pattern batches without materializing codewords.
    ///
    /// # Panics
    ///
    /// Panics if `lane` or `bit` is out of range.
    #[inline]
    pub fn flip(&mut self, lane: usize, bit: usize) {
        assert!(lane < self.lanes, "lane out of range");
        self.planes[bit] ^= 1u64 << lane;
    }

    /// Reads codeword bit `bit` of lane `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` or `bit` is out of range.
    #[inline]
    pub fn get(&self, lane: usize, bit: usize) -> bool {
        assert!(lane < self.lanes, "lane out of range");
        (self.planes[bit] >> lane) & 1 == 1
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

    /// Transposes the planes back into per-lane codewords, overwriting
    /// `cws` (which must have one entry per active lane).
    ///
    /// # Panics
    ///
    /// Panics if `cws.len()` differs from the active lane count.
    pub fn write_codewords(&self, code: &Bch, cws: &mut [BitBuf]) {
        assert_eq!(cws.len(), self.lanes, "lane count mismatch");
        let n = code.codeword_bits();
        let wpl = words_for(n);
        let mut words = vec![vec![0u64; wpl]; self.lanes];
        for (w, planes) in self.planes.chunks(64).enumerate() {
            let mut m = [0u64; 64];
            m[..planes.len()].copy_from_slice(planes);
            transpose64(&mut m);
            for (lane, lw) in words.iter_mut().enumerate() {
                lw[w] = m[lane];
            }
        }
        for (cw, lw) in cws.iter_mut().zip(words) {
            *cw = BitBuf::from_words(lw, n);
        }
    }
}

impl Bch {
    /// Encodes up to 64 data blocks per transpose through the bitsliced
    /// parity kernel. Accepts any number of blocks (chunked internally).
    ///
    /// # Panics
    ///
    /// Panics if any block is not exactly 512 bits.
    pub fn encode_batch(&self, blocks: &[BitBuf]) -> Vec<BitBuf> {
        let parity = self.parity_bits();
        let mut out = Vec::with_capacity(blocks.len());
        for chunk in blocks.chunks(LANES) {
            // Transpose the data words into 512 planes.
            let mut planes = [0u64; DATA_BITS];
            for (w, group) in planes.chunks_mut(64).enumerate() {
                let mut m = [0u64; 64];
                for (lane, data) in chunk.iter().enumerate() {
                    assert_eq!(data.len(), DATA_BITS, "data must be 512 bits");
                    m[lane] = data.words()[w];
                }
                transpose64(&mut m);
                group.copy_from_slice(&m);
            }
            let par = self.parity_planes(&planes);
            // Assemble codewords: original data words + transposed parity.
            let pw = parity.div_ceil(64);
            let mut pwords = vec![[0u64; 64]; pw];
            for (w, m) in pwords.iter_mut().enumerate() {
                let avail = (parity - w * 64).min(64);
                m[..avail].copy_from_slice(&par[w * 64..w * 64 + avail]);
                transpose64(m);
            }
            for (lane, data) in chunk.iter().enumerate() {
                let mut words = Vec::with_capacity(DATA_BITS / 64 + pw);
                words.extend_from_slice(data.words());
                for m in &pwords {
                    words.push(m[lane]);
                }
                out.push(BitBuf::from_words(words, self.codeword_bits()));
            }
        }
        out
    }

    /// Decodes a batch in place: bitsliced clean detection and syndrome
    /// accumulation across all lanes, scalar locator fallback only for
    /// the dirty ones. Corrections are applied to the planes; each lane's
    /// outcome is tallied in the `storage.bch.clean` / `.corrected` /
    /// `.uncorrectable` counters (plus `storage.bch.bits_corrected`).
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

        // Bitsliced clean check: recompute every lane's parity from the
        // data planes and diff against the stored parity planes. A lane
        // is dirty iff any diff bit is set — iff it is not a codeword.
        let data: &[u64; DATA_BITS] = batch.planes[..DATA_BITS].try_into().expect("plane layout");
        let par = self.parity_planes(data);
        let dirty = or_diff(&par, &batch.planes[DATA_BITS..]) & active;
        // Per-batch dirty-lane distribution: deterministic at a fixed
        // seed, so it doubles as a drift-gate signal for obs_report.
        vapp_obs::histogram!("storage.batch.dirty_lanes", u64::from(dirty.count_ones()));
        if dirty == 0 {
            vapp_obs::counter!("storage.bch.clean", lanes as u64);
            return vec![DecodeOutcome::Clean; lanes];
        }

        // Bitsliced syndromes: odd powers by table accumulation over the
        // nonzero planes, even powers by plane-wise Frobenius squaring.
        let t = self.t();
        let t2 = 2 * t;
        let mut sp = vec![0u64; t2 * GF_BITS];
        for (k, &p) in batch.planes.iter().enumerate() {
            if p == 0 {
                continue;
            }
            for (i, &c) in self.syn_const[k * t..(k + 1) * t].iter().enumerate() {
                let base = 2 * i * GF_BITS; // syndrome j = 2i+1 lives at slot j-1
                let mut c = c;
                while c != 0 {
                    sp[base + c.trailing_zeros() as usize] ^= p;
                    c &= c - 1;
                }
            }
        }
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
            // Parity mismatch implies nonzero syndromes; stay defensive
            // regardless.
            if syn.iter().all(|&s| s == 0) {
                continue;
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

    /// Batch decode over owned codewords: transposes in, runs
    /// [`Bch::decode_batch`], transposes the (corrected) codewords back
    /// out. Chunked by [`LANES`], so any number of codewords works.
    ///
    /// # Panics
    ///
    /// Panics if any codeword has the wrong length.
    pub fn decode_blocks(&self, cws: &mut [BitBuf]) -> Vec<DecodeOutcome> {
        let mut out = Vec::with_capacity(cws.len());
        for chunk in cws.chunks_mut(LANES) {
            let mut batch = BlockBatch::from_codewords(self, chunk);
            out.extend(self.decode_batch(&mut batch));
            batch.write_codewords(self, chunk);
        }
        out
    }

    /// Recomputed parity planes for a batch's 512 data planes: plane `j`
    /// collects `Σ_k data[k]·R_k[j]` over the nonzero data planes.
    fn parity_planes(&self, data: &[u64; DATA_BITS]) -> Vec<u64> {
        let mut par = vec![0u64; self.parity_bits()];
        for (k, &p) in data.iter().enumerate() {
            if p == 0 {
                continue;
            }
            let row = &self.par_pos[self.par_off[k] as usize..self.par_off[k + 1] as usize];
            for &j in row {
                par[j as usize] ^= p;
            }
        }
        par
    }
}

/// OR-reduction of the element-wise XOR of two plane slices — the
/// dirty-lane mask of the clean check. The slices must have equal lengths.
fn or_diff(a: &[u64], b: &[u64]) -> u64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).fold(0u64, |acc, (&x, &y)| acc | (x ^ y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bch::reference::ScalarBch;
    use crate::interleave::Interleaver;
    use vapp_check::RngExt;

    fn pattern_data(seed: u64) -> BitBuf {
        let mut d = BitBuf::zeroed(DATA_BITS);
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        for i in 0..DATA_BITS {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            d.set(i, (s >> 60) & 1 == 1);
        }
        d
    }

    #[test]
    fn or_diff_dispatch_matches_scalar() {
        let a: Vec<u64> = (0..67u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let mut b = a.clone();
        assert_eq!(or_diff(&a, &b), 0);
        b[13] ^= 1 << 7;
        b[66] ^= 1 << 63;
        assert_eq!(or_diff(&a, &b), (1 << 7) | (1 << 63));
    }

    #[test]
    fn codeword_transpose_round_trips() {
        let code = Bch::cached(6);
        let cws: Vec<BitBuf> = (0..17).map(|i| code.encode(&pattern_data(i))).collect();
        let batch = BlockBatch::from_codewords(code, &cws);
        assert_eq!(batch.lanes(), 17);
        assert_eq!(batch.get(3, 0), cws[3].get(0));
        let mut out = vec![BitBuf::new(); 17];
        batch.write_codewords(code, &mut out);
        assert_eq!(out, cws);
    }

    #[test]
    fn all_clean_batch_short_circuits() {
        let code = Bch::cached(6);
        let mut cws: Vec<BitBuf> = (0..5).map(|i| code.encode(&pattern_data(i + 40))).collect();
        let expect = cws.clone();
        let outcomes = code.decode_blocks(&mut cws);
        assert!(outcomes.iter().all(|&o| o == DecodeOutcome::Clean));
        assert_eq!(cws, expect);
    }

    #[test]
    fn mixed_batch_corrects_dirty_lanes_only() {
        let code = Bch::cached(10);
        let clean: Vec<BitBuf> = (0..LANES)
            .map(|i| code.encode(&pattern_data(i as u64)))
            .collect();
        let mut cws = clean.clone();
        // Lanes 0, 7, 63: correctable; lane 20: beyond the radius.
        for (lane, errs) in [(0usize, 1usize), (7, 2), (63, 10)] {
            for e in 0..errs {
                cws[lane].flip((e * 101 + 17) % code.codeword_bits());
            }
        }
        let n = code.codeword_bits();
        let mut reference = cws[20].clone();
        for e in 0..25 {
            cws[20].flip((e * 37 + 3) % n);
            reference.flip((e * 37 + 3) % n);
        }
        let outcomes = code.decode_blocks(&mut cws);
        assert_eq!(outcomes[0], DecodeOutcome::Corrected(1));
        assert_eq!(outcomes[7], DecodeOutcome::Corrected(2));
        assert_eq!(outcomes[63], DecodeOutcome::Corrected(10));
        for lane in [0usize, 7, 63] {
            assert_eq!(cws[lane], clean[lane], "lane {lane} not restored");
        }
        // The overloaded lane must behave exactly like the oracle.
        let expect_out = ScalarBch::new(10).decode(&mut reference);
        assert_eq!(outcomes[20], expect_out);
        assert_eq!(cws[20], reference);
        for lane in (1..LANES).filter(|&l| ![7, 20, 63].contains(&l)) {
            assert_eq!(outcomes[lane], DecodeOutcome::Clean);
            assert_eq!(cws[lane], clean[lane], "clean lane {lane} moved");
        }
    }

    /// Decodes the bare error patterns as one sparse batch and checks each
    /// lane's outcome against the oracle on `encode(data) + pattern`, with
    /// data drawn from `seed` — the pipeline identity: syndromes are
    /// linear and vanish on codewords, so the data cannot matter.
    fn assert_sparse_matches_shifted(t: usize, patterns: &[Vec<usize>], seed: u64) {
        let code = Bch::cached(t);
        let oracle = ScalarBch::new(t);
        let mut batch = BlockBatch::zeroed(code, patterns.len());
        for (lane, flips) in patterns.iter().enumerate() {
            for &f in flips {
                batch.flip(lane, f);
            }
        }
        let sparse = code.decode_batch(&mut batch);
        for (lane, flips) in patterns.iter().enumerate() {
            let mut cw = oracle.encode(&pattern_data(seed.wrapping_add(lane as u64)));
            for &f in flips {
                cw.flip(f);
            }
            assert_eq!(sparse[lane], oracle.decode(&mut cw), "t={t} lane {lane}");
        }
    }

    #[test]
    fn sparse_error_batches_match_scalar_reference() {
        // The fast store path feeds the batch decoder bare error patterns
        // instead of codeword+error; this keeps it byte-identical to the
        // oracle. Fixed edge positions first, then random patterns.
        let n = Bch::cached(6).codeword_bits();
        let edges = [
            vec![5],
            vec![0, 511, 512, n - 1],
            vec![1, 2, 3, 4, 5, 6, 7],
            vec![100, 200, 300, 400, 450, 500],
        ];
        assert_sparse_matches_shifted(6, &edges, 9);
        for t in [6usize, 10, 16] {
            let n = Bch::cached(t).codeword_bits();
            vapp_check::check(&format!("sparse_error_batch_t{t}"), 12, |rng| {
                let blocks = rng.random_range(1..=LANES);
                let patterns: Vec<Vec<usize>> = (0..blocks)
                    .map(|_| {
                        let errors = rng.random_range(0..t + 3);
                        vapp_check::gen::distinct(rng, 0..n, errors)
                            .into_iter()
                            .collect()
                    })
                    .collect();
                assert_sparse_matches_shifted(t, &patterns, rng.random());
            });
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
            vapp_check::check(&format!("within_radius_t{t}"), 6, |rng| {
                let lanes = rng.random_range(1..=LANES);
                let patterns: Vec<Vec<usize>> = (0..lanes)
                    .map(|_| {
                        let w = rng.random_range(1..=t);
                        vapp_check::gen::distinct(rng, 0..n, w)
                            .into_iter()
                            .collect()
                    })
                    .collect();
                let mut batch = BlockBatch::zeroed(code, lanes);
                for (lane, flips) in patterns.iter().enumerate() {
                    for &f in flips {
                        batch.flip(lane, f);
                    }
                }
                let outcomes = code.decode_batch(&mut batch);
                for (lane, flips) in patterns.iter().enumerate() {
                    let want = DecodeOutcome::Corrected(flips.len());
                    assert_eq!(outcomes[lane], want, "t={t} batch lane {lane}");
                    let mut cw = BitBuf::zeroed(n);
                    for &f in flips {
                        cw.flip(f);
                    }
                    assert_eq!(oracle.decode(&mut cw), want, "t={t} scalar lane {lane}");
                    assert_eq!(cw.count_ones(), 0, "t={t} scalar residual, lane {lane}");
                }
                assert!(
                    (0..n).all(|bit| batch.plane(bit) == 0),
                    "t={t} batch residual"
                );
            });
        }
    }

    /// Burst-shaped error patterns (page-sized runs spread by the block
    /// interleaving plus i.i.d. background) — dense, often overloaded
    /// patterns far from the sparse i.i.d. population — must decode
    /// exactly as the oracle decodes them.
    #[test]
    fn burst_patterns_match_scalar_reference() {
        for t in [6usize, 10] {
            let code = Bch::cached(t);
            let oracle = ScalarBch::new(t);
            let nb = code.codeword_bits();
            vapp_check::check(&format!("batch_burst_equivalence_t{t}"), 16, |rng| {
                let blocks = rng.random_range(1..80usize);
                let depth = rng.random_range(1..=blocks);
                let il = Interleaver::new(depth, depth * nb);
                let mut patterns: Vec<BitBuf> = (0..blocks).map(|_| BitBuf::zeroed(nb)).collect();
                // A few physical bursts, each wiping a contiguous run whose
                // bits garble with probability 1/2 (what a lost page does).
                for _ in 0..rng.random_range(0..4usize) {
                    let span = rng.random_range(1..3 * depth.max(2));
                    let group = rng.random_range(0..blocks.div_ceil(depth));
                    let start = rng.random_range(0..depth * nb - span);
                    for pos in start..start + span {
                        if rng.random_bool(0.5) {
                            let l = il.inverse(pos);
                            let block = group * depth + l / nb;
                            if block < blocks {
                                patterns[block].flip(l % nb);
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
                let batch_outcomes = code.decode_blocks(&mut patterns);
                assert_eq!(batch_outcomes, ref_outcomes, "t={t} outcomes diverge");
                for (i, (got, want)) in patterns.iter().zip(&reference).enumerate() {
                    assert_eq!(got, want, "t={t} pattern {i} diverges after decode");
                }
            });
        }
    }
}
