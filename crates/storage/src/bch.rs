//! BCH error-correcting codes over GF(2^10).
//!
//! The paper's variable error correction (Fig. 8, Table 1) uses BCH-X
//! codes protecting 512-bit blocks: X correctable errors cost exactly
//! 10·X parity bits (11.7% overhead for BCH-6 up to 31.3% for BCH-16).
//! This module implements the real thing: generator synthesis from
//! cyclotomic cosets (which fixes the parity length) and syndrome /
//! Berlekamp–Massey / Chien-search decoding. The codes are
//! *self-correcting* — parity bits are part of the protected codeword.
//!
//! No codeword is ever stored: syndromes are linear and vanish on
//! codewords, so every caller decodes a block's bare error pattern (see
//! DESIGN.md, "Storage kernels"). [`Bch::new`] builds the code's
//! bitslicing tables; [`Bch::decode_batch`] in [`crate::batch`] reads
//! them to decode up to 64 patterns per pass, and is the only decode
//! entry point. This module holds the scalar algebra that decoder runs
//! on its dirty lanes: Berlekamp–Massey, closed-form locators for one
//! and two errors, and an incremental Chien search.
//!
//! The test-only `reference::ScalarBch` is a bit-at-a-time systematic
//! encoder and decoder; property tests pin the engine to it bit for bit.

use crate::gf::{Gf1024, GF_ORDER};

/// Data bits per protected block (the paper's 512-bit PCM block).
pub const DATA_BITS: usize = 512;

/// GF(2^10) elements are 10 bits wide: planes per syndrome.
pub(crate) const GF_BITS: usize = 10;

/// Outcome of decoding one block's error pattern.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeOutcome {
    /// No errors detected.
    Clean,
    /// Errors were found and corrected (count given).
    Corrected(usize),
    /// More errors than the code can correct; data left as-is.
    Uncorrectable,
}

/// A BCH-X code over a 512-bit data block.
///
/// Codeword layout, for the bit positions of a
/// [`BlockBatch`](crate::batch::BlockBatch): bits `0..512` are data (bit
/// `i` = coefficient of `x^(parity + i)`), bits `512..` parity (bit `j` =
/// coefficient of `x^j`).
///
/// # Example
///
/// ```
/// use vapp_storage::batch::BlockBatch;
/// use vapp_storage::bch::{Bch, DecodeOutcome};
///
/// let code = Bch::new(6);
/// // Two blocks' error patterns: none, and two flipped bits.
/// let mut errs = BlockBatch::zeroed(&code, 2);
/// errs.flip(1, 100);
/// errs.flip(1, 540);
/// let out = code.decode_batch(&mut errs);
/// assert_eq!(out, [DecodeOutcome::Clean, DecodeOutcome::Corrected(2)]);
/// assert_eq!(errs.plane(100) | errs.plane(540), 0); // nothing left
/// ```
#[derive(Clone, Debug)]
pub struct Bch {
    t: usize,
    parity: usize,
    /// `α^{j·deg(k)}` for the odd syndromes `j = 2i+1`, laid out
    /// `[k][i]` over all `n` codeword bit positions.
    pub(crate) syn_const: Vec<u16>,
    /// Frobenius matrix: `sq[u]` = square of the basis element `x^u`.
    pub(crate) sq: [u16; GF_BITS],
}

impl Bch {
    /// Builds the BCH code correcting `t` errors.
    ///
    /// # Panics
    ///
    /// Panics if `t` is 0 or so large the shortened code cannot hold 512
    /// data bits.
    pub fn new(t: usize) -> Self {
        assert!(t >= 1, "t must be at least 1");
        let parity = generator_poly(t).len() - 1;
        assert!(
            DATA_BITS + parity <= GF_ORDER,
            "code too strong for 512-bit blocks"
        );

        // Odd-syndrome constants per codeword bit. Bit k of the layout is
        // polynomial degree `parity + k` (data) or `k - 512` (parity).
        let gf = Gf1024::get();
        let mut syn_const = Vec::with_capacity((DATA_BITS + parity) * t);
        for k in 0..DATA_BITS + parity {
            let deg = if k < DATA_BITS {
                parity + k
            } else {
                k - DATA_BITS
            };
            syn_const.extend((0..t).map(|i| gf.alpha_pow((2 * i + 1) * deg)));
        }

        Bch {
            t,
            parity,
            syn_const,
            sq: std::array::from_fn(|u| gf.square(1 << u)),
        }
    }

    /// The process-wide cached instance for `t`: generator synthesis and
    /// table construction happen once, callers share one `'static` code.
    pub fn cached(t: usize) -> &'static Bch {
        use std::collections::HashMap;
        use std::sync::{Mutex, OnceLock};
        static REGISTRY: OnceLock<Mutex<HashMap<usize, &'static Bch>>> = OnceLock::new();
        let mut map = REGISTRY
            .get_or_init(|| Mutex::new(HashMap::new()))
            .lock()
            .expect("BCH registry poisoned");
        map.entry(t)
            .or_insert_with(|| Box::leak(Box::new(Bch::new(t))))
    }

    /// Number of correctable errors.
    pub fn t(&self) -> usize {
        self.t
    }

    /// Parity bits per block (degree of the generator; 10·t for our range).
    pub fn parity_bits(&self) -> usize {
        self.parity
    }

    /// Codeword length in bits (512 data + parity).
    pub fn codeword_bits(&self) -> usize {
        DATA_BITS + self.parity
    }

    /// Storage overhead relative to the data (paper Fig. 8 x-axis).
    pub fn overhead(&self) -> f64 {
        self.parity_bits() as f64 / DATA_BITS as f64
    }
}

/// Single error: σ(x) = 1 + σ1·x has the root α^{-k} = 1/σ1, so
/// k = log σ1 directly.
pub(crate) fn locate_deg1(sigma: &[u16], n: usize, gf: &Gf1024) -> Option<Vec<usize>> {
    let s1 = sigma[1];
    if s1 == 0 {
        return None; // actual degree 0: no roots, count mismatch
    }
    let k = gf.log(s1) as usize;
    (k < n).then(|| vec![k])
}

/// Two errors: normalize σ2·x² + σ1·x + 1 via x = (σ1/σ2)·y into
/// y² + y = σ2/σ1² and solve with the precomputed quadratic table; the
/// two roots map back to the two error positions.
pub(crate) fn locate_deg2(sigma: &[u16], n: usize, gf: &Gf1024) -> Option<Vec<usize>> {
    let (s1, s2) = (sigma[1], sigma[2]);
    if s1 == 0 || s2 == 0 {
        // Degenerate locator (a repeated root, or actual degree < 2):
        // a Chien sweep cannot find two distinct roots either.
        return None;
    }
    let c = gf.mul(s2, gf.inv(gf.mul(s1, s1)));
    let y0 = gf.solve_quadratic(c)?;
    let scale = gf.mul(s1, gf.inv(s2));
    let mut positions = Vec::with_capacity(2);
    for y in [y0, y0 ^ 1] {
        let x = gf.mul(scale, y); // y ≠ 0 since c ≠ 0
        let k = (GF_ORDER - gf.log(x) as usize) % GF_ORDER;
        if k >= n {
            return None;
        }
        positions.push(k);
    }
    Some(positions)
}

/// Chien search over positions 0..n, incrementally: q_d holds
/// σ_d·α^{-kd}, updated with one fixed-multiplier product per
/// coefficient per step; σ(α^{-k}) is then just the xor of the q_d.
/// Early-exits once `deg` roots are found (a degree-`deg` polynomial
/// has no more).
pub(crate) fn chien_search(sigma: &[u16], n: usize, gf: &Gf1024) -> Option<Vec<usize>> {
    let deg = sigma.len() - 1;
    let mut q = sigma.to_vec();
    let mut positions = Vec::with_capacity(deg);
    for k in 0..n {
        let mut acc = 0u16;
        for &v in &q {
            acc ^= v;
        }
        if acc == 0 {
            positions.push(k);
            if positions.len() == deg {
                break;
            }
        }
        for (d, v) in q.iter_mut().enumerate().skip(1) {
            *v = gf.mul_alpha_log(*v, GF_ORDER - d);
        }
    }
    (positions.len() == deg).then_some(positions)
}

/// Berlekamp–Massey over GF(2^10): returns σ(x) coefficients, σ[0] = 1.
///
/// `#[inline]` because the RS decoder in `rs.rs` calls it too: without
/// the hint, whether it inlines there depends on how rustc splits the
/// crate into codegen units, which moved the burst channel's
/// `corrupt_stream` by ~4%.
#[inline]
pub(crate) fn berlekamp_massey(syndromes: &[u16], gf: &Gf1024) -> Vec<u16> {
    let mut sigma = vec![1u16];
    let mut b = vec![1u16];
    let mut l = 0usize;
    let mut m = 1usize;
    let mut bb = 1u16;
    for n in 0..syndromes.len() {
        // Discrepancy.
        let mut d = syndromes[n];
        for i in 1..=l.min(sigma.len() - 1) {
            d ^= gf.mul(sigma[i], syndromes[n - i]);
        }
        if d == 0 {
            m += 1;
        } else if 2 * l <= n {
            let t_poly = sigma.clone();
            let coef = gf.mul(d, gf.inv(bb));
            grow_xor(&mut sigma, &b, coef, m, gf);
            l = n + 1 - l;
            b = t_poly;
            bb = d;
            m = 1;
        } else {
            let coef = gf.mul(d, gf.inv(bb));
            grow_xor(&mut sigma, &b, coef, m, gf);
            m += 1;
        }
    }
    sigma.truncate(l + 1);
    sigma
}

/// sigma ^= coef · b(x) · x^shift, growing sigma as needed.
fn grow_xor(sigma: &mut Vec<u16>, b: &[u16], coef: u16, shift: usize, gf: &Gf1024) {
    let need = b.len() + shift;
    if sigma.len() < need {
        sigma.resize(need, 0);
    }
    for (i, &bi) in b.iter().enumerate() {
        sigma[i + shift] ^= gf.mul(coef, bi);
    }
}

/// Generator polynomial of the t-error-correcting BCH code over GF(2^10):
/// lcm of the minimal polynomials of α^1 … α^{2t}. Coefficients in GF(2).
fn generator_poly(t: usize) -> Vec<bool> {
    let gf = Gf1024::get();
    let mut seen = vec![false; GF_ORDER];
    // g as a GF(2) polynomial, bool per coefficient.
    let mut g = vec![true]; // constant 1
    for i in 1..=2 * t {
        if seen[i % GF_ORDER] {
            continue;
        }
        // Cyclotomic coset of i.
        let mut coset = Vec::new();
        let mut j = i % GF_ORDER;
        loop {
            if seen[j] {
                break;
            }
            seen[j] = true;
            coset.push(j);
            j = (j * 2) % GF_ORDER;
            if j == i % GF_ORDER {
                break;
            }
        }
        // Minimal polynomial: Π (x − α^j) over the coset, in GF(2^10).
        let mut min_poly: Vec<u16> = vec![1];
        for &e in &coset {
            let root = gf.alpha_pow(e);
            let mut next = vec![0u16; min_poly.len() + 1];
            for (d, &c) in min_poly.iter().enumerate() {
                next[d + 1] ^= c; // · x
                next[d] ^= gf.mul(c, root); // · root (− = + in GF(2^m))
            }
            min_poly = next;
        }
        // The product has binary coefficients by construction.
        let min_bits: Vec<bool> = min_poly
            .iter()
            .map(|&c| {
                debug_assert!(c <= 1, "minimal polynomial not binary");
                c == 1
            })
            .collect();
        // g *= min_poly over GF(2).
        let mut product = vec![false; g.len() + min_bits.len() - 1];
        for (a, &ga) in g.iter().enumerate() {
            if !ga {
                continue;
            }
            for (b, &mb) in min_bits.iter().enumerate() {
                if mb {
                    product[a + b] ^= true;
                }
            }
        }
        g = product;
    }
    g
}

/// The scalar bit-at-a-time encoder and decoder, kept as the single
/// oracle for the engine's equivalence property tests.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use crate::batch::{BlockBatch, LANES};
    use crate::bits::BitBuf;

    /// An error pattern for `code` with the given positions flipped.
    pub fn pattern(code: &Bch, flips: impl IntoIterator<Item = usize>) -> BitBuf {
        let mut p = BitBuf::zeroed(code.codeword_bits());
        for f in flips {
            p.flip(f);
        }
        p
    }

    /// `base` with every bit set in `by` flipped.
    pub fn xor(base: &BitBuf, by: &BitBuf) -> BitBuf {
        let mut x = base.clone();
        for bit in (0..by.len()).filter(|&bit| by.get(bit)) {
            x.flip(bit);
        }
        x
    }

    /// 512 pseudo-random data bits drawn from `seed`.
    pub fn random_data(seed: u64) -> BitBuf {
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

    /// Runs [`Bch::decode_batch`] over per-block error patterns, 64 lanes
    /// per batch, and writes each lane's residual back into its pattern.
    pub fn batch_decode(code: &Bch, patterns: &mut [BitBuf]) -> Vec<DecodeOutcome> {
        let n = code.codeword_bits();
        let mut out = Vec::with_capacity(patterns.len());
        for chunk in patterns.chunks_mut(LANES) {
            let mut batch = BlockBatch::zeroed(code, chunk.len());
            for (lane, p) in chunk.iter().enumerate() {
                assert_eq!(p.len(), n, "pattern length mismatch");
                for bit in (0..n).filter(|&bit| p.get(bit)) {
                    batch.flip(lane, bit);
                }
            }
            out.extend(code.decode_batch(&mut batch));
            for (lane, p) in chunk.iter_mut().enumerate() {
                for bit in 0..n {
                    p.set(bit, (batch.plane(bit) >> lane) & 1 == 1);
                }
            }
        }
        out
    }

    pub struct ScalarBch {
        t: usize,
        generator: Vec<bool>,
    }

    impl ScalarBch {
        pub fn new(t: usize) -> Self {
            ScalarBch {
                t,
                generator: generator_poly(t),
            }
        }

        fn parity_bits(&self) -> usize {
            self.generator.len() - 1
        }

        pub fn codeword_bits(&self) -> usize {
            DATA_BITS + self.parity_bits()
        }

        fn coeff(&self, cw: &BitBuf, k: usize) -> bool {
            let p = self.parity_bits();
            if k < p {
                cw.get(DATA_BITS + k)
            } else {
                cw.get(k - p)
            }
        }

        fn set_coeff(&self, cw: &mut BitBuf, k: usize, v: bool) {
            let p = self.parity_bits();
            if k < p {
                cw.set(DATA_BITS + k, v);
            } else {
                cw.set(k - p, v);
            }
        }

        pub fn encode(&self, data: &BitBuf) -> BitBuf {
            assert_eq!(data.len(), DATA_BITS, "data must be 512 bits");
            let p = self.parity_bits();
            // LFSR division of m(x)·x^p by g(x): message high-order first.
            let mut reg = vec![false; p];
            for i in (0..DATA_BITS).rev() {
                let feedback = data.get(i) ^ reg[p - 1];
                for j in (1..p).rev() {
                    reg[j] = reg[j - 1] ^ (feedback && self.generator[j]);
                }
                reg[0] = feedback && self.generator[0];
            }
            let mut cw = BitBuf::zeroed(self.codeword_bits());
            for i in 0..DATA_BITS {
                cw.set(i, data.get(i));
            }
            for (j, &r) in reg.iter().enumerate() {
                cw.set(DATA_BITS + j, r);
            }
            cw
        }

        pub fn decode(&self, cw: &mut BitBuf) -> DecodeOutcome {
            assert_eq!(cw.len(), self.codeword_bits(), "codeword length mismatch");
            let gf = Gf1024::get();
            let n = self.codeword_bits();

            // Syndromes S_j = c(α^j), j = 1..2t, via full-codeword Horner.
            let mut syndromes = vec![0u16; 2 * self.t];
            for (ji, s) in syndromes.iter_mut().enumerate() {
                let j = ji + 1;
                let aj = gf.alpha_pow(j);
                let mut acc = 0u16;
                for k in (0..n).rev() {
                    acc = gf.mul(acc, aj);
                    if self.coeff(cw, k) {
                        acc ^= 1;
                    }
                }
                *s = acc;
            }
            if syndromes.iter().all(|&s| s == 0) {
                return DecodeOutcome::Clean;
            }

            let sigma = berlekamp_massey(&syndromes, gf);
            let deg = sigma.len() - 1;
            if deg == 0 || deg > self.t {
                return DecodeOutcome::Uncorrectable;
            }

            // Chien search: position k errs iff σ(α^(−k)) = 0.
            let mut positions = Vec::new();
            for k in 0..n {
                let x = gf.alpha_pow((GF_ORDER - k % GF_ORDER) % GF_ORDER);
                let mut acc = 0u16;
                for (d, &c) in sigma.iter().enumerate() {
                    acc ^= gf.mul(c, gf.pow(x, d));
                }
                if acc == 0 {
                    positions.push(k);
                    if positions.len() > deg {
                        break;
                    }
                }
            }
            if positions.len() != deg {
                return DecodeOutcome::Uncorrectable;
            }
            for &k in &positions {
                let v = self.coeff(cw, k);
                self.set_coeff(cw, k, !v);
            }
            DecodeOutcome::Corrected(positions.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{batch_decode, pattern, random_data, xor, ScalarBch};
    use super::*;
    use crate::batch::{BlockBatch, LANES};
    use crate::bits::BitBuf;

    #[test]
    fn parity_is_ten_bits_per_corrected_error() {
        // The paper's Fig. 8 overhead column depends on this exactly.
        for t in [6usize, 7, 8, 9, 10, 11, 16] {
            let code = Bch::new(t);
            assert_eq!(code.parity_bits(), 10 * t, "t = {t}");
        }
        let b6 = Bch::new(6);
        assert!((b6.overhead() - 0.1171875).abs() < 1e-9); // 11.7%
        let b16 = Bch::new(16);
        assert!((b16.overhead() - 0.3125).abs() < 1e-9); // 31.3%
    }

    #[test]
    fn cached_returns_one_instance_per_t() {
        let a = Bch::cached(6) as *const Bch;
        let b = Bch::cached(6) as *const Bch;
        assert_eq!(a, b);
        assert_eq!(Bch::cached(10).t(), 10);
    }

    #[test]
    fn zero_pattern_decodes_clean() {
        for t in [6usize, 8] {
            let code = Bch::new(t);
            let mut p = [pattern(&code, [])];
            assert_eq!(batch_decode(&code, &mut p), [DecodeOutcome::Clean]);
            assert_eq!(p[0], pattern(&code, []));
        }
        // First data bit and a parity bit at t = 8.
        let code = Bch::new(8);
        let mut p = [pattern(&code, [0, 550])];
        assert_eq!(batch_decode(&code, &mut p), [DecodeOutcome::Corrected(2)]);
        assert_eq!(p[0], pattern(&code, []));
    }

    #[test]
    fn corrects_up_to_t_errors_anywhere() {
        for t in [6usize, 10, 16] {
            let code = Bch::new(t);
            // Spread errors over data and parity regions.
            let n = code.codeword_bits();
            let mut flipped = Vec::new();
            for e in 0..t {
                let pos = (e * 97 + 13) % n;
                if !flipped.contains(&pos) {
                    flipped.push(pos);
                }
            }
            let mut p = [pattern(&code, flipped.iter().copied())];
            let out = batch_decode(&code, &mut p);
            assert_eq!(out, [DecodeOutcome::Corrected(flipped.len())], "t = {t}");
            assert_eq!(p[0], pattern(&code, []), "t = {t}: pattern not cleared");
        }
    }

    #[test]
    fn single_error_in_parity_corrected() {
        let code = Bch::new(6);
        let mut p = [pattern(&code, [DATA_BITS + 5])];
        assert_eq!(batch_decode(&code, &mut p), [DecodeOutcome::Corrected(1)]);
        assert_eq!(p[0], pattern(&code, []));
    }

    #[test]
    fn more_than_t_errors_detected_as_uncorrectable_or_miscorrected() {
        // With t+1 errors, BCH must not silently "correct" back to the
        // original: it either flags uncorrectable or lands on a different
        // codeword. Either way a nonzero residual is left.
        let code = Bch::new(6);
        let mut patterns = Vec::new();
        for trial in 0..10u64 {
            let mut s = trial.wrapping_mul(0x12345) | 1;
            let mut flipped = std::collections::BTreeSet::new();
            while flipped.len() < 7 {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                flipped.insert((s >> 33) as usize % code.codeword_bits());
            }
            patterns.push(pattern(&code, flipped));
        }
        let outcomes = batch_decode(&code, &mut patterns);
        for (trial, (out, p)) in outcomes.iter().zip(&patterns).enumerate() {
            assert_ne!(*out, DecodeOutcome::Clean, "trial {trial}");
            assert_ne!(
                *p,
                pattern(&code, []),
                "trial {trial}: 7 errors restored silently"
            );
        }
    }

    #[test]
    #[should_panic(expected = "batch built for a different code")]
    fn batch_of_another_code_rejected() {
        let mut batch = BlockBatch::zeroed(Bch::cached(6), 1);
        Bch::cached(10).decode_batch(&mut batch);
    }

    #[test]
    fn fast_kernels_match_scalar_reference() {
        // The batch engine against the scalar oracle: 1..2·LANES+10
        // error patterns (partial tails and multi-batch inputs), each
        // with 0..=t+2 random flips (clean, correctable and beyond-radius
        // lanes mixed in one batch), for the three code strengths the
        // figures use. Outcomes and the residual each lane is left with
        // must agree exactly with the oracle decoding the bare pattern,
        // and with it decoding `encode(data) + pattern`: the pipeline
        // identity (syndromes are linear and vanish on codewords, so the
        // stored data cannot matter).
        use vapp_check::RngExt;
        for t in [6usize, 10, 16] {
            let fast = Bch::cached(t);
            let slow = ScalarBch::new(t);
            let n = fast.codeword_bits();
            vapp_check::check(&format!("bch_fast_matches_scalar_t{t}"), 12, |rng| {
                let blocks = rng.random_range(1..2 * LANES + 10);
                let errors: Vec<BitBuf> = (0..blocks)
                    .map(|_| {
                        let w = rng.random_range(0..=t + 2);
                        pattern(fast, vapp_check::gen::distinct(rng, 0..n, w))
                    })
                    .collect();
                let seed: u64 = rng.random();
                let mut residuals = errors.clone();
                let outcomes = batch_decode(fast, &mut residuals);
                for (i, (e, residual)) in errors.iter().zip(&residuals).enumerate() {
                    let mut bare = e.clone();
                    assert_eq!(outcomes[i], slow.decode(&mut bare), "t = {t} block {i}");
                    assert_eq!(*residual, bare, "t = {t} block {i}: residual mismatch");
                    let stored = slow.encode(&random_data(seed.wrapping_add(i as u64)));
                    let mut read = xor(&stored, e);
                    let shifted = slow.decode(&mut read);
                    assert_eq!(outcomes[i], shifted, "t = {t} block {i}: data mattered");
                    assert_eq!(read, xor(&stored, residual), "t = {t} block {i}: read-back");
                }
            });
        }
    }
}
