//! Reed–Solomon codes over GF(2^10), built on the same [`crate::gf`]
//! arithmetic tables as the BCH decoder.
//!
//! RS is the natural protection for *bursty* channels: a whole lost page
//! or a blocky transcode artifact damages many adjacent bits, but after
//! symbol interleaving each codeword sees only a few 10-bit symbols of
//! the burst — and RS corrects symbols, not bits, so a fully garbled
//! symbol costs the same budget as a single flipped bit inside it. With
//! known loss locations (page-granular erasure channels) the code
//! corrects twice as much: `2·errors + erasures ≤ parity`.
//!
//! Layout convention: a codeword is the coefficient vector `c[0..n]` of
//! `c(x) = d(x)·x^p + (d(x)·x^p mod g(x))` — parity in positions
//! `0..p`, data in positions `p..n` (`c[p + i]` = data symbol `i`).
//! Roots of the generator are `α^0 .. α^{p-1}`, which gives the
//! cleanest Forney magnitude formula
//! (`e_k = X_k · Ω(X_k⁻¹) / Ψ'(X_k⁻¹)`).
//!
//! Like the BCH path, pipeline callers feed the decoder bare *error
//! patterns*: syndromes are linear and vanish on codewords, so
//! `synd(cw + e) = synd(e)` and outcomes depend only on the pattern.

use crate::bch::{berlekamp_massey, DecodeOutcome};
use crate::gf::{Gf1024, GF_ORDER};

/// Symbol width in bits (GF(2^10)).
pub const SYM_BITS: usize = 10;

/// Data symbols per full-length codeword in the storage profile:
/// 102 symbols = 1020 bits, chosen so the RS ladder's overhead per
/// protection strength `t` (`2t/102 = t/51`) tracks the BCH ladder's
/// (`10t/512 = t/51.2`) and the importance-partitioned assignment
/// transfers across substrates without re-tuning.
pub const RS_DATA_SYMS: usize = 102;

/// A systematic Reed–Solomon code over GF(2^10).
#[derive(Clone, Debug)]
pub struct Rs {
    data_syms: usize,
    parity: usize,
    /// Generator `g(x) = Π_{i=0}^{p-1} (x + α^i)`, low `p` coefficients
    /// (monic leading term implicit).
    gen: Vec<u16>,
}

impl Rs {
    /// Builds an `(data_syms + parity, data_syms)` code.
    ///
    /// # Panics
    ///
    /// Panics on a zero dimension or a codeword longer than the field
    /// allows (`n ≤ 1023`).
    pub fn new(data_syms: usize, parity: usize) -> Self {
        assert!(data_syms > 0 && parity > 0, "degenerate RS dimensions");
        assert!(
            data_syms + parity <= GF_ORDER,
            "RS codeword exceeds field size"
        );
        let gf = Gf1024::get();
        // Multiply out g(x) = Π (x + α^i) iteratively.
        let mut gen = vec![0u16; parity + 1];
        gen[0] = 1;
        for i in 0..parity {
            let root = gf.alpha_pow(i);
            // (current g) · (x + root): shift up once, add root · g.
            for j in (1..=i + 1).rev() {
                gen[j] = gen[j - 1] ^ gf.mul(gen[j], root);
            }
            gen[0] = gf.mul(gen[0], root);
        }
        debug_assert_eq!(gen[parity], 1, "generator must be monic");
        gen.truncate(parity);
        Rs {
            data_syms,
            parity,
            gen,
        }
    }

    /// The storage-profile code for BCH-equivalent strength `t`
    /// (102 data symbols, `2t` parity symbols), from a process-wide
    /// cache. Corrects `t` symbol errors, or up to `2t` erasures.
    ///
    /// # Panics
    ///
    /// Panics if `t == 0` or the ladder entry is degenerate.
    pub fn cached(t: usize) -> &'static Rs {
        use std::collections::HashMap;
        use std::sync::{Mutex, OnceLock};
        static CACHE: OnceLock<Mutex<HashMap<usize, &'static Rs>>> = OnceLock::new();
        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        let mut map = match cache.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        map.entry(t)
            .or_insert_with(|| Box::leak(Box::new(Rs::new(RS_DATA_SYMS, 2 * t))))
    }

    /// Data symbols per codeword.
    pub fn data_syms(&self) -> usize {
        self.data_syms
    }

    /// Parity symbols per codeword.
    pub fn parity_syms(&self) -> usize {
        self.parity
    }

    /// Total symbols per codeword.
    pub fn codeword_syms(&self) -> usize {
        self.data_syms + self.parity
    }

    /// Storage overhead (parity / data), the RS analogue of
    /// [`crate::bch::Bch::overhead`].
    pub fn overhead(&self) -> f64 {
        self.parity as f64 / self.data_syms as f64
    }

    /// Systematic encode: returns the full codeword `parity ++ data`.
    /// Symbols must fit the field (`< 1024`).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != data_syms`.
    pub fn encode(&self, data: &[u16]) -> Vec<u16> {
        assert_eq!(data.len(), self.data_syms, "wrong data length");
        let gf = Gf1024::get();
        let p = self.parity;
        let mut cw = vec![0u16; p + self.data_syms];
        cw[p..].copy_from_slice(data);
        // Synthetic division of d(x)·x^p by g(x), high coefficient first.
        let (rem, data) = cw.split_at_mut(p);
        for i in (0..data.len()).rev() {
            let coef = data[i] ^ rem[p - 1];
            for j in (1..p).rev() {
                rem[j] = rem[j - 1] ^ gf.mul(coef, self.gen[j]);
            }
            rem[0] = gf.mul(coef, self.gen[0]);
        }
        cw
    }

    /// Syndromes `S_i = c(α^i)` for `i = 0..parity`. All-zero iff `cw`
    /// is a codeword (or an undetectable error pattern).
    pub fn syndromes(&self, cw: &[u16]) -> Vec<u16> {
        let gf = Gf1024::get();
        (0..self.parity)
            .map(|i| {
                // Horner from the top coefficient down.
                let mut acc = 0u16;
                for &c in cw.iter().rev() {
                    acc = gf.mul_alpha_log(acc, i) ^ c;
                }
                acc
            })
            .collect()
    }

    /// Decodes `cw` in place, treating `erasures` (position indices into
    /// the codeword, duplicates ignored) as known-location losses.
    /// Corrects any combination with `2·errors + erasures ≤ parity`.
    ///
    /// Returns [`DecodeOutcome::Clean`] when the syndromes already
    /// vanish, `Corrected(e)` (total corrected symbols, erasures
    /// included) on success, and `Uncorrectable` — with `cw` unmodified
    /// — when the damage exceeds the code's radius.
    pub fn decode(&self, cw: &mut [u16], erasures: &[usize]) -> DecodeOutcome {
        assert_eq!(cw.len(), self.codeword_syms(), "wrong codeword length");
        let gf = Gf1024::get();
        let p = self.parity;
        let synd = self.syndromes(cw);
        if synd.iter().all(|&s| s == 0) {
            return DecodeOutcome::Clean;
        }
        // Deduplicated erasure locators X_e = α^pos.
        let mut seen = vec![false; cw.len()];
        let mut xs: Vec<u16> = Vec::with_capacity(erasures.len());
        for &e in erasures {
            assert!(e < cw.len(), "erasure position out of range");
            if !seen[e] {
                seen[e] = true;
                xs.push(gf.alpha_pow(e));
            }
        }
        let n_eras = xs.len();
        if n_eras > p {
            return DecodeOutcome::Uncorrectable;
        }
        // Erasure locator Γ(x) = Π (1 + X_e x).
        let mut gamma = vec![0u16; p + 1];
        gamma[0] = 1;
        for (i, &x) in xs.iter().enumerate() {
            for j in (1..=i + 1).rev() {
                gamma[j] ^= gf.mul(gamma[j - 1], x);
            }
        }
        // Forney syndromes T = S·Γ mod x^p expose the unknown errors.
        let t_synd = poly_mul_mod(&synd, &gamma, p);
        // Berlekamp–Massey on T_{E}..T_{p-1} finds the error locator Λ.
        let lambda = berlekamp_massey(&t_synd[n_eras..], gf);
        let n_errs = lambda.len() - 1;
        if 2 * n_errs + n_eras > p {
            return DecodeOutcome::Uncorrectable;
        }
        // Full locator Ψ = Λ·Γ and evaluator Ω = S·Ψ mod x^p.
        let psi = poly_mul_mod(&lambda, &gamma, p + 1);
        let omega = poly_mul_mod(&synd, &psi, p);
        // Chien search over codeword positions; Ψ must split completely
        // with exactly deg Ψ roots or the locator is bogus.
        let deg_psi = psi
            .iter()
            .rposition(|&c| c != 0)
            .expect("psi has unit constant term");
        let mut fixes: Vec<(usize, u16)> = Vec::with_capacity(deg_psi);
        for pos in 0..cw.len() {
            // x = X_pos⁻¹ = α^{-pos}
            let log_x = (GF_ORDER - pos % GF_ORDER) % GF_ORDER;
            if poly_eval_log(gf, &psi, log_x) != 0 {
                continue;
            }
            // Forney: e = X · Ω(x) / Ψ'(x); in char 2, Ψ'(x) keeps the
            // odd-degree terms of Ψ only.
            let num = poly_eval_log(gf, &omega, log_x);
            let den = poly_eval_deriv_log(gf, &psi, log_x);
            if den == 0 {
                return DecodeOutcome::Uncorrectable;
            }
            let e = gf.mul(gf.alpha_pow(pos), gf.mul(num, gf.inv(den)));
            if e != 0 {
                fixes.push((pos, e));
            }
        }
        // Every locator root must land on a codeword position. A root
        // count short of deg Ψ means roots outside [0, n) or repeated
        // factors — a bogus locator from damage past the radius. (Roots
        // with zero magnitude — erased symbols whose garbage happened to
        // match — still count as roots; they are found above with e = 0.)
        let mut roots = 0usize;
        for pos in 0..cw.len() {
            let log_x = (GF_ORDER - pos % GF_ORDER) % GF_ORDER;
            if poly_eval_log(gf, &psi, log_x) == 0 {
                roots += 1;
            }
        }
        if roots != deg_psi {
            return DecodeOutcome::Uncorrectable;
        }
        for &(pos, e) in &fixes {
            cw[pos] ^= e;
        }
        // Defensive re-check: corrected word must be a codeword.
        if self.syndromes(cw).iter().any(|&s| s != 0) {
            for &(pos, e) in &fixes {
                cw[pos] ^= e;
            }
            return DecodeOutcome::Uncorrectable;
        }
        DecodeOutcome::Corrected(fixes.len())
    }
}

/// `a·b mod x^k` (coefficients low-to-high, truncated to `k` terms).
fn poly_mul_mod(a: &[u16], b: &[u16], k: usize) -> Vec<u16> {
    let gf = Gf1024::get();
    let mut out = vec![0u16; k];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 || i >= k {
            continue;
        }
        for (j, &bj) in b.iter().enumerate() {
            if i + j >= k {
                break;
            }
            if bj != 0 {
                out[i + j] ^= gf.mul(ai, bj);
            }
        }
    }
    out
}

/// Evaluates `p(α^log_x)` with the point already in log form.
fn poly_eval_log(gf: &Gf1024, p: &[u16], log_x: usize) -> u16 {
    let mut acc = 0u16;
    for &c in p.iter().rev() {
        acc = gf.mul_alpha_log(acc, log_x) ^ c;
    }
    acc
}

/// Evaluates the formal derivative `p'(α^log_x)`. In characteristic 2
/// the derivative keeps exactly the odd-degree coefficients:
/// `p'(x) = Σ_{j odd} p_j x^{j-1}`.
fn poly_eval_deriv_log(gf: &Gf1024, p: &[u16], log_x: usize) -> u16 {
    let mut acc = 0u16;
    let log_x2 = (2 * log_x) % GF_ORDER;
    for j in (1..p.len()).rev() {
        if j % 2 == 1 {
            acc = gf.mul_alpha_log(acc, log_x2) ^ p[j];
        }
    }
    // acc now holds Σ p_j x^{j-1} over odd j, factored as a polynomial
    // in x²; no further x factor is needed because consecutive odd
    // degrees differ by 2 and the lowest odd degree contributes x^0.
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use vapp_rand::rngs::StdRng;
    use vapp_rand::{RngExt, SeedableRng};

    fn random_data(rng: &mut StdRng, k: usize) -> Vec<u16> {
        (0..k).map(|_| (rng.random::<u16>()) & 0x3FF).collect()
    }

    #[test]
    fn clean_roundtrip() {
        let code = Rs::new(16, 8);
        let mut rng = StdRng::seed_from_u64(1);
        let data = random_data(&mut rng, 16);
        let mut cw = code.encode(&data);
        assert!(code.syndromes(&cw).iter().all(|&s| s == 0));
        assert_eq!(code.decode(&mut cw, &[]), DecodeOutcome::Clean);
        assert_eq!(&cw[8..], &data[..]);
    }

    #[test]
    fn corrects_t_symbol_errors() {
        let code = Rs::cached(6); // parity 12, corrects 6 errors
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let data = random_data(&mut rng, RS_DATA_SYMS);
            let clean = code.encode(&data);
            let mut cw = clean.clone();
            for pos in vapp_sim::pick_k_positions(&[0..cw.len() as u64], 6, &mut rng) {
                cw[pos as usize] ^= 1 + (rng.random::<u16>() & 0x3FE);
            }
            let out = code.decode(&mut cw, &[]);
            assert!(matches!(out, DecodeOutcome::Corrected(_)), "{out:?}");
            assert_eq!(cw, clean);
        }
    }

    #[test]
    fn corrects_2t_erasures() {
        let code = Rs::cached(4); // parity 8, corrects 8 erasures
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let data = random_data(&mut rng, RS_DATA_SYMS);
            let clean = code.encode(&data);
            let mut cw = clean.clone();
            let eras: Vec<usize> = vapp_sim::pick_k_positions(&[0..cw.len() as u64], 8, &mut rng)
                .into_iter()
                .map(|p| p as usize)
                .collect();
            for &e in &eras {
                cw[e] = rng.random::<u16>() & 0x3FF; // garbage, may equal original
            }
            let out = code.decode(&mut cw, &eras);
            assert!(
                matches!(out, DecodeOutcome::Corrected(_) | DecodeOutcome::Clean),
                "{out:?}"
            );
            assert_eq!(cw, clean);
        }
    }

    #[test]
    fn pattern_decoding_matches_content_decoding() {
        // Syndrome linearity: decoding the bare error pattern must reach
        // the same outcome as decoding content + pattern.
        let code = Rs::cached(3);
        let mut rng = StdRng::seed_from_u64(4);
        let data = random_data(&mut rng, RS_DATA_SYMS);
        let mut content = code.encode(&data);
        let mut pattern = vec![0u16; code.codeword_syms()];
        for pos in vapp_sim::pick_k_positions(&[0..content.len() as u64], 3, &mut rng) {
            let e = 1 + (rng.random::<u16>() & 0x3FE);
            pattern[pos as usize] = e;
            content[pos as usize] ^= e;
        }
        let out_content = code.decode(&mut content, &[]);
        let out_pattern = code.decode(&mut pattern, &[]);
        assert_eq!(out_content, out_pattern);
        assert!(pattern.iter().all(|&s| s == 0), "pattern corrects to zero");
    }

    #[test]
    fn rejects_damage_past_the_radius() {
        let code = Rs::cached(2); // parity 4
        let mut rng = StdRng::seed_from_u64(5);
        let data = random_data(&mut rng, RS_DATA_SYMS);
        let clean = code.encode(&data);
        let mut cw = clean.clone();
        // 6 errors >> capacity 2: must not silently "correct".
        for pos in vapp_sim::pick_k_positions(&[0..cw.len() as u64], 6, &mut rng) {
            cw[pos as usize] ^= 1 + (rng.random::<u16>() & 0x3FE);
        }
        let before = cw.clone();
        let out = code.decode(&mut cw, &[]);
        if out == DecodeOutcome::Uncorrectable {
            assert_eq!(cw, before, "uncorrectable must leave the word alone");
        } else {
            // Miscorrection is possible but must at least yield a valid
            // codeword (checked internally); it must not equal clean by
            // construction of 6 distinct nonzero errors.
            assert!(code.syndromes(&cw).iter().all(|&s| s == 0));
        }
    }
}
