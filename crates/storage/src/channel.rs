//! Pluggable error substrates: the error channel as a first-class trait.
//!
//! The paper's headline (47% of the EC overhead eliminated at < 0.3 dB)
//! assumes i.i.d. MLC PCM bit flips. Real lossy channels are often
//! *bursty* (a NAND page dies whole) or *re-encoding* (payload stored as
//! video survives a transcode, Vstorage-style). [`Substrate`] abstracts
//! the channel so the importance-partitioned-vs-uniform comparison can
//! be rerun per channel without touching the pipeline:
//!
//! - [`MlcPcm`] — the paper's multi-level-cell PCM channel: i.i.d. flips
//!   at a drift-calibrated raw BER, BCH-protected. This wraps the exact
//!   corruption code the pipeline always ran; seeded outputs are
//!   byte-identical to the pre-trait implementation (pinned digests in
//!   `tests/determinism.rs` are the gate).
//! - [`BurstErasure`] — whole-page loss with configurable burst length
//!   plus a background i.i.d. floor. Protected by the in-repo
//!   Reed–Solomon code over GF(2^10) ([`crate::rs`]) behind a symbol
//!   interleaver ([`crate::interleave`]), with page-granular *erasure*
//!   locations handed to the decoder.
//! - [`DataInVideo`] — the payload round-trips through our own lossy
//!   codec at a configurable quant level (`vapp-codec`, all-intra),
//!   RS-protected. Damage is content-dependent, deterministic, and
//!   spatially clustered — the opposite of the i.i.d. assumption.
//!
//! Each channel has one realization. The two RS channels share one
//! interleaved decode-and-deliver path and differ only in how they
//! build each codeword's error pattern: the burst channel draws it
//! (with erasure locations), the video channel measures it.
//!
//! # Determinism contract for implementors
//!
//! `corrupt_stream` MUST be a pure function of `(data, bits, t, exact,
//! seed)` — independent of thread count, call order, and global state.
//! The pipeline derives one sub-seed per protection level up front
//! (`vapp_sim::derive_subseeds`) and fans levels out on `vapp-par`;
//! any internal parallelism must likewise derive per-unit sub-seeds
//! before fanning out. Implementations may *ignore* the seed when the
//! channel is intrinsically deterministic (`DataInVideo`'s damage is a
//! function of the carrier content alone), but must never draw from
//! ambient randomness. Every RNG an implementation runs must be seeded
//! from `seed` (directly or via `derive_subseeds`) and consumed in a
//! deterministic order.

use std::sync::{Arc, OnceLock};

use crate::batch::{self, BlockBatch};
use crate::bch::{Bch, DecodeOutcome, DATA_BITS};
use crate::bits::BitBuf;
use crate::interleave::Interleaver;
use crate::rs::{Rs, RS_DATA_SYMS, SYM_BITS};
use crate::uber;
use vapp_codec::{Encoder, EncoderConfig};
use vapp_media::{Frame, Video};
use vapp_rand::rngs::StdRng;
use vapp_rand::{RngExt, SeedableRng};
use vapp_sim::{derive_subseeds, pick_k_positions, pick_positions};

/// Per-stream corruption tally returned by [`Substrate::corrupt_stream`]
/// and folded into the pipeline's per-level observability counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CorruptTally {
    /// Raw bit flips injected into the physical medium (codeword space
    /// for coded realizations — parity damage counts too).
    pub flips: u64,
    /// Protected blocks/codewords that saw no damage at all.
    pub clean: u64,
    /// Blocks/codewords with damage fully corrected.
    pub corrected: u64,
    /// Blocks/codewords past the realization's correction radius.
    pub uncorrectable: u64,
}

impl CorruptTally {
    fn absorb(&mut self, other: CorruptTally) {
        self.flips += other.flips;
        self.clean += other.clean;
        self.corrected += other.corrected;
        self.uncorrectable += other.uncorrectable;
    }
}

/// An error substrate: the physical medium's density surface, its
/// analytic error model, and its seeded corruption simulators.
///
/// Protection strength is expressed as the ladder parameter `t` (the
/// `EcScheme::Bch(t)` strength; `t == 0` means unprotected). Each
/// substrate *realizes* `t` with whatever code suits its channel — BCH
/// for i.i.d. flips, interleaved RS for bursts — at its own
/// [`overhead`](Substrate::overhead), so one importance assignment
/// transfers across substrates.
pub trait Substrate: Send + Sync + std::fmt::Debug {
    /// Short stable identifier (`"mlc"`, `"burst"`, `"video"`).
    fn name(&self) -> &'static str;

    /// Storage density: payload bits per physical cell.
    fn bits_per_cell(&self) -> u32;

    /// Marginal per-bit error rate of the unprotected channel.
    fn raw_ber(&self) -> f64;

    /// EC overhead (parity bits per data bit) this substrate's
    /// realization of strength `t` costs. `t == 0` costs nothing.
    fn overhead(&self, t: usize) -> f64;

    /// Analytic probability that one protected block fails at strength
    /// `t` (for bursty/clustered channels this is a documented i.i.d.
    /// approximation; the corruption simulators are the ground truth).
    fn block_failure_rate(&self, t: usize) -> f64;

    /// Corrupts one protection stream in place (MSB-first bit order,
    /// matching codec payloads). `bits` is the live payload length;
    /// `data` may be longer. `exact` selects the exact block simulator
    /// over an analytic shortcut where the substrate offers both.
    /// See the module docs for the determinism contract.
    fn corrupt_stream(
        &self,
        data: &mut [u8],
        bits: u64,
        t: usize,
        exact: bool,
        seed: u64,
    ) -> CorruptTally;
}

/// Shorthand for the paper's MLC PCM substrate at a given raw BER.
pub fn mlc_pcm(raw_ber: f64) -> Arc<dyn Substrate> {
    Arc::new(MlcPcm::new(raw_ber))
}

/// Shorthand for a [`BurstErasure`] substrate.
pub fn burst_erasure(cfg: BurstConfig) -> Arc<dyn Substrate> {
    Arc::new(BurstErasure::new(cfg))
}

/// Shorthand for a [`DataInVideo`] substrate.
pub fn data_in_video(cfg: VideoChannelConfig) -> Arc<dyn Substrate> {
    Arc::new(DataInVideo::new(cfg))
}

/// Flips one bit in an MSB-first byte stream (same convention as
/// `vapp_codec::bitstream::flip_bit`; duplicated here so the storage
/// crate's hot loop does not reach across the crate boundary).
#[inline]
fn flip_stream_bit(bytes: &mut [u8], bit_index: u64) {
    let byte = (bit_index / 8) as usize;
    if byte < bytes.len() {
        bytes[byte] ^= 1 << (7 - (bit_index % 8));
    }
}

/// Reads one bit of an MSB-first byte stream (the read side of
/// [`flip_stream_bit`]).
#[inline]
fn stream_bit(bytes: &[u8], bit_index: u64) -> bool {
    (bytes[(bit_index / 8) as usize] >> (7 - bit_index % 8)) & 1 == 1
}

/// The i.i.d.-flip + BCH corruption engine behind [`MlcPcm`].
///
/// This is the pipeline's original `corrupt_stream_bits`, moved here
/// verbatim (dispatching on `t` instead of `EcScheme`): RNG construction,
/// draw order, block grouping and counter emission are unchanged, so
/// seeded outputs stay byte-identical to the pre-trait pipeline at any
/// worker count.
fn corrupt_iid_bch(
    data: &mut [u8],
    bits: u64,
    t: usize,
    exact: bool,
    raw_ber: f64,
    seed: u64,
) -> CorruptTally {
    let mut stats = CorruptTally::default();
    if bits == 0 || raw_ber == 0.0 {
        return stats;
    }
    if t == 0 {
        let mut rng = StdRng::seed_from_u64(seed);
        for pos in pick_positions(&[0..bits], raw_ber, &mut rng) {
            flip_stream_bit(data, pos);
            stats.flips += 1;
        }
    } else if !exact {
        // Analytic block model: each 512-bit block fails independently
        // with the binomial-tail probability; a failed block keeps
        // t + 1 raw errors (the dominant tail term).
        let code = Bch::cached(t);
        // One hash lookup after the first call: the binomial tails
        // behind these rates cost ~100 µs of `ln_gamma` sums, which
        // used to dominate analytic-mode `store_load`.
        let (q, p_corr) = uber::cached_block_rates(code, raw_ber);
        let blocks = bits.div_ceil(DATA_BITS as u64);
        let mut rng = StdRng::seed_from_u64(seed);
        for b in 0..blocks {
            if !rng.random_bool(q) {
                continue;
            }
            stats.uncorrectable += 1;
            let start = b * DATA_BITS as u64;
            let end = ((b + 1) * DATA_BITS as u64).min(bits);
            for pos in pick_k_positions(&[start..end], t as u64 + 1, &mut rng) {
                flip_stream_bit(data, pos);
                stats.flips += 1;
            }
        }
        // Corrected-block tally for this mode is the binomial
        // expectation, computed deterministically — no extra draws.
        stats.corrected =
            ((blocks as f64 * p_corr).round() as u64).min(blocks - stats.uncorrectable);
        stats.clean = blocks - stats.uncorrectable - stats.corrected;
        let reg = vapp_obs::current();
        reg.counter("storage.bch.blocks").add(blocks);
        reg.counter("storage.bch.clean").add(stats.clean);
        reg.counter("storage.bch.corrected").add(stats.corrected);
        reg.counter("storage.bch.uncorrectable")
            .add(stats.uncorrectable);
    } else {
        // Exact model, bitsliced: sub-seeds stay per 512-bit block, but
        // blocks decode in 64-lane batches on the batch engine, fed the
        // bare injected *error patterns*. That is outcome-equivalent to
        // encode+flip+decode of the real content: syndromes are linear
        // and vanish on codewords, so syndromes(cw + e) = syndromes(e),
        // decode outcomes depend only on syndromes, and the stream bytes
        // change only on Uncorrectable — where the decoder applies no
        // corrections and the damage delivered is exactly the injected
        // flips that land inside the block's live data bits
        // (property-pinned in `tests/batch_equivalence.rs`).
        let code = Bch::cached(t);
        let blocks = bits.div_ceil(DATA_BITS as u64) as usize;
        vapp_obs::counter!("storage.bch.blocks", blocks as u64);
        let block_seeds = derive_subseeds(seed, blocks);
        let used = (bits.div_ceil(8) as usize).min(data.len());
        let group_bytes = (DATA_BITS / 8) * batch::LANES;
        let per_group = vapp_par::par_chunks(&mut data[..used], group_bytes, |g, chunk| {
            let base = g * batch::LANES;
            let group_blocks = (blocks - base).min(batch::LANES);
            let mut st = CorruptTally::default();
            // Flip positions depend only on each block's sub-seed,
            // never its contents, so they draw first: blocks with no
            // flips (the common case at realistic BERs) round-trip
            // clean without touching the code at all.
            let mut dirty: Vec<(usize, Vec<u64>)> = Vec::new();
            for lb in 0..group_blocks {
                let mut rng = StdRng::seed_from_u64(block_seeds[base + lb]);
                let flips = pick_positions(&[0..code.codeword_bits() as u64], raw_ber, &mut rng);
                if flips.is_empty() {
                    st.clean += 1;
                } else {
                    st.flips += flips.len() as u64;
                    dirty.push((lb, flips));
                }
            }
            if st.clean > 0 {
                vapp_obs::counter!("storage.bch.clean", st.clean);
            }
            if dirty.is_empty() {
                return st;
            }
            // One batch lane per dirty block, holding just its error
            // pattern; the batch decoder tallies the `storage.bch.*`
            // outcome counters itself.
            let mut errs = BlockBatch::zeroed(code, dirty.len());
            for (lane, (_, flips)) in dirty.iter().enumerate() {
                for &f in flips {
                    errs.flip(lane, f as usize);
                }
            }
            let outcomes = code.decode_batch(&mut errs);
            for ((lb, flips), outcome) in dirty.iter().zip(&outcomes) {
                match outcome {
                    DecodeOutcome::Clean => st.clean += 1,
                    DecodeOutcome::Corrected(_) => st.corrected += 1,
                    DecodeOutcome::Uncorrectable => {
                        st.uncorrectable += 1;
                        // Deliver the damage as read: injected flips in
                        // the block's live data bits (MSB-first stream
                        // byte order); parity-region and padding flips
                        // are never part of the stored payload.
                        let start = (base + lb) as u64 * DATA_BITS as u64;
                        let nbits = (start + DATA_BITS as u64).min(bits) - start;
                        let block = &mut chunk[lb * (DATA_BITS / 8)..];
                        for &f in flips {
                            if f < nbits {
                                block[(f / 8) as usize] ^= 0x80u8 >> (f % 8);
                            }
                        }
                    }
                }
            }
            st
        });
        for st in per_group {
            stats.absorb(st);
        }
    }
    stats
}

/// The paper's multi-level-cell PCM substrate: 3 bits/cell, i.i.d. bit
/// flips at a drift-calibrated raw BER, BCH-protected.
#[derive(Clone, Debug)]
pub struct MlcPcm {
    raw_ber: f64,
}

impl MlcPcm {
    /// A substrate with a fixed raw BER (the paper's 1e-3 at the 90-day
    /// scrub interval).
    ///
    /// # Panics
    ///
    /// Panics if `raw_ber` is not a probability.
    pub fn new(raw_ber: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&raw_ber),
            "raw BER must be a probability"
        );
        MlcPcm { raw_ber }
    }
}

impl Substrate for MlcPcm {
    fn name(&self) -> &'static str {
        "mlc"
    }

    fn bits_per_cell(&self) -> u32 {
        3
    }

    fn raw_ber(&self) -> f64 {
        self.raw_ber
    }

    fn overhead(&self, t: usize) -> f64 {
        if t == 0 {
            0.0
        } else {
            Bch::cached(t).overhead()
        }
    }

    fn block_failure_rate(&self, t: usize) -> f64 {
        if t == 0 {
            uber::binomial_tail(DATA_BITS as u64, self.raw_ber, 0)
        } else {
            uber::block_failure_rate(Bch::cached(t), self.raw_ber)
        }
    }

    fn corrupt_stream(
        &self,
        data: &mut [u8],
        bits: u64,
        t: usize,
        exact: bool,
        seed: u64,
    ) -> CorruptTally {
        vapp_obs::counter!("storage.substrate.streams", 1);
        corrupt_iid_bch(data, bits, t, exact, self.raw_ber, seed)
    }
}

/// The symbol-interleaved Reed–Solomon layout of one protection stream,
/// shared by the RS-protected channels ([`BurstErasure`] and
/// [`DataInVideo`]).
///
/// The stream's `bits` split into 10-bit MSB-first data symbols,
/// [`RS_DATA_SYMS`] per codeword; every codeword of the stream
/// interleaves column-major over the physical medium. A codeword is
/// `[parity; p] ++ [data; k]`, so symbol `j >= p` of codeword `c` is
/// stream data symbol `c * k + j - p`.
struct RsStream {
    code: &'static Rs,
    bits: u64,
    total_syms: usize,
    cws: usize,
    il: Interleaver,
}

impl RsStream {
    fn new(bits: u64, t: usize) -> Self {
        let code = Rs::cached(t);
        let total_syms = (bits as usize).div_ceil(SYM_BITS);
        let cws = total_syms.div_ceil(RS_DATA_SYMS).max(1);
        let il = Interleaver::new(cws, cws * code.codeword_syms());
        RsStream {
            code,
            bits,
            total_syms,
            cws,
            il,
        }
    }

    /// Symbols on the physical medium: every codeword, parity included.
    fn phys_syms(&self) -> usize {
        self.il.len()
    }

    /// `(codeword, symbol)` stored at physical symbol `phys`.
    fn locate(&self, phys: usize) -> (usize, usize) {
        let l = self.il.inverse(phys);
        let n = self.code.codeword_syms();
        (l / n, l % n)
    }

    /// Stream data symbol `gs`; bits past the stream read as zero.
    fn data_sym(&self, data: &[u8], gs: usize) -> u16 {
        (0..SYM_BITS).fold(0u16, |v, b| {
            let pos = (gs * SYM_BITS + b) as u64;
            (v << 1) | (pos < self.bits && stream_bit(data, pos)) as u16
        })
    }

    /// Decodes each codeword's error pattern and delivers the damage of
    /// the uncorrectable ones to the stream. `erasures[c]` lists the
    /// erased symbols of codeword `c`; a channel without erasure
    /// knowledge passes an empty slice. Syndromes are linear, so
    /// decoding the bare pattern gives the outcome of decoding the
    /// damaged codeword, and an uncorrectable codeword reads back with
    /// its pattern still applied: data-symbol damage reaches the stream,
    /// parity and padding damage does not.
    fn decode_and_deliver(
        &self,
        data: &mut [u8],
        mut patterns: Vec<Vec<u16>>,
        erasures: &[Vec<usize>],
    ) -> CorruptTally {
        let mut tally = CorruptTally::default();
        let p = self.code.parity_syms();
        vapp_obs::counter!("storage.substrate.rs.codewords", self.cws as u64);
        for (c, pattern) in patterns.iter_mut().enumerate() {
            tally.flips += pattern.iter().map(|&v| v.count_ones() as u64).sum::<u64>();
            let eras = erasures.get(c).map_or(&[][..], Vec::as_slice);
            if eras.is_empty() && pattern.iter().all(|&v| v == 0) {
                tally.clean += 1;
                continue;
            }
            match self.code.decode(pattern, eras) {
                // Clean despite damage means the erased symbols' garbage
                // matched the original (zero pattern): nothing to deliver.
                DecodeOutcome::Clean | DecodeOutcome::Corrected(_) => tally.corrected += 1,
                DecodeOutcome::Uncorrectable => {
                    tally.uncorrectable += 1;
                    for (j, &v) in pattern.iter().enumerate().skip(p) {
                        let gs = c * RS_DATA_SYMS + (j - p);
                        if v == 0 || gs >= self.total_syms {
                            continue;
                        }
                        for b in 0..SYM_BITS {
                            let pos = (gs * SYM_BITS + b) as u64;
                            if (v >> (SYM_BITS - 1 - b)) & 1 == 1 && pos < self.bits {
                                flip_stream_bit(data, pos);
                            }
                        }
                    }
                }
            }
        }
        let reg = vapp_obs::current();
        reg.counter("storage.substrate.rs.clean").add(tally.clean);
        reg.counter("storage.substrate.rs.corrected")
            .add(tally.corrected);
        reg.counter("storage.substrate.rs.uncorrectable")
            .add(tally.uncorrectable);
        tally
    }
}

/// Configuration for the [`BurstErasure`] substrate.
#[derive(Clone, Debug, PartialEq)]
pub struct BurstConfig {
    /// Page size in bits (the atomic loss unit).
    pub page_bits: u64,
    /// Probability that a loss event starts at any given page.
    pub page_loss: f64,
    /// Consecutive pages wiped per loss event.
    pub burst_pages: u64,
    /// Background independent bit error rate on top of page loss.
    pub iid_ber: f64,
    /// Cell density of the underlying medium.
    pub bits_per_cell: u32,
}

impl Default for BurstConfig {
    fn default() -> Self {
        BurstConfig {
            page_bits: 2048,
            page_loss: 1e-3,
            burst_pages: 4,
            iid_ber: 1e-5,
            bits_per_cell: 3,
        }
    }
}

/// Bursty page-loss substrate: loss events wipe `burst_pages`
/// consecutive pages (their bits read back as garbage — each flips with
/// probability 1/2) and an i.i.d. floor runs underneath. Loss locations
/// are *known* (a dead page announces itself), so the RS realization
/// decodes them as erasures — worth 2× the correction budget of an
/// unknown error.
#[derive(Clone, Debug)]
pub struct BurstErasure {
    cfg: BurstConfig,
}

impl BurstErasure {
    /// Builds the substrate.
    ///
    /// # Panics
    ///
    /// Panics on non-probability rates or a zero page/burst size.
    pub fn new(cfg: BurstConfig) -> Self {
        assert!((0.0..=1.0).contains(&cfg.page_loss), "page_loss range");
        assert!((0.0..=1.0).contains(&cfg.iid_ber), "iid_ber range");
        assert!(cfg.page_bits > 0 && cfg.burst_pages > 0, "page geometry");
        BurstErasure { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &BurstConfig {
        &self.cfg
    }

    /// Marginal probability that any given page is lost.
    fn page_marginal(&self) -> f64 {
        1.0 - (1.0 - self.cfg.page_loss).powf(self.cfg.burst_pages as f64)
    }

    /// Sorted indices of lost pages: each page starts a loss event with
    /// probability `page_loss`; an event wipes `burst_pages` consecutive
    /// pages and the scan resumes after the burst.
    fn draw_lost_pages(&self, n_pages: u64, rng: &mut StdRng) -> Vec<u64> {
        let mut lost = Vec::new();
        let mut i = 0u64;
        while i < n_pages {
            if rng.random_bool(self.cfg.page_loss) {
                let end = (i + self.cfg.burst_pages).min(n_pages);
                lost.extend(i..end);
                i = end;
            } else {
                i += 1;
            }
        }
        lost
    }

    /// Unprotected damage: lost pages garble the data bits directly.
    fn corrupt_raw(&self, data: &mut [u8], bits: u64, seed: u64) -> CorruptTally {
        let mut tally = CorruptTally::default();
        let seeds = derive_subseeds(seed, 3);
        let n_pages = bits.div_ceil(self.cfg.page_bits);
        let lost = self.draw_lost_pages(n_pages, &mut StdRng::seed_from_u64(seeds[0]));
        vapp_obs::counter!("storage.substrate.burst.pages_lost", lost.len() as u64);
        let mut garble = StdRng::seed_from_u64(seeds[1]);
        for &page in &lost {
            let start = page * self.cfg.page_bits;
            let end = (start + self.cfg.page_bits).min(bits);
            for pos in start..end {
                if garble.random_bool(0.5) {
                    flip_stream_bit(data, pos);
                    tally.flips += 1;
                }
            }
        }
        let mut iid = StdRng::seed_from_u64(seeds[2]);
        for pos in pick_positions(&[0..bits], self.cfg.iid_ber, &mut iid) {
            flip_stream_bit(data, pos);
            tally.flips += 1;
        }
        tally
    }

    /// RS realization: draw page losses over the interleaved physical
    /// space of the stream's codewords ([`RsStream`]) and decode each
    /// codeword's *error pattern* with the lost symbols as erasures.
    fn corrupt_rs(&self, data: &mut [u8], bits: u64, t: usize, seed: u64) -> CorruptTally {
        let rs = RsStream::new(bits, t);
        let phys_syms = rs.phys_syms();
        let phys_bits = (phys_syms * SYM_BITS) as u64;

        let seeds = derive_subseeds(seed, 3);
        let n_pages = phys_bits.div_ceil(self.cfg.page_bits);
        let lost = self.draw_lost_pages(n_pages, &mut StdRng::seed_from_u64(seeds[0]));
        vapp_obs::counter!("storage.substrate.burst.pages_lost", lost.len() as u64);

        // Erased physical symbols: any symbol overlapping a lost page.
        let mut erased = vec![false; phys_syms];
        for &page in &lost {
            let start = (page * self.cfg.page_bits) as usize / SYM_BITS;
            let end = ((page + 1) * self.cfg.page_bits).div_ceil(SYM_BITS as u64) as usize;
            for s in erased.iter_mut().take(end.min(phys_syms)).skip(start) {
                *s = true;
            }
        }

        // Per-codeword error patterns. Erased symbols read back as
        // garbage; garbage XOR original is uniform, so drawing the
        // pattern value directly is distribution-exact and needs no
        // content. Values draw in ascending physical order.
        let mut patterns = vec![vec![0u16; rs.code.codeword_syms()]; rs.cws];
        let mut erasures: Vec<Vec<usize>> = vec![Vec::new(); rs.cws];
        let mut garble = StdRng::seed_from_u64(seeds[1]);
        for (phys, flag) in erased.iter().enumerate() {
            if !flag {
                continue;
            }
            let (c, j) = rs.locate(phys);
            patterns[c][j] = garble.random::<u16>() & 0x3FF;
            erasures[c].push(j);
        }
        let mut iid = StdRng::seed_from_u64(seeds[2]);
        for pos in pick_positions(&[0..phys_bits], self.cfg.iid_ber, &mut iid) {
            let (c, j) = rs.locate((pos as usize) / SYM_BITS);
            patterns[c][j] ^= 1 << (SYM_BITS - 1 - (pos as usize) % SYM_BITS);
        }
        rs.decode_and_deliver(data, patterns, &erasures)
    }
}

impl Substrate for BurstErasure {
    fn name(&self) -> &'static str {
        "burst"
    }

    fn bits_per_cell(&self) -> u32 {
        self.cfg.bits_per_cell
    }

    fn raw_ber(&self) -> f64 {
        (0.5 * self.page_marginal() + self.cfg.iid_ber).min(0.5)
    }

    fn overhead(&self, t: usize) -> f64 {
        if t == 0 {
            0.0
        } else {
            Rs::cached(t).overhead()
        }
    }

    fn block_failure_rate(&self, t: usize) -> f64 {
        // I.i.d. approximation over symbols/bits: after deep
        // interleaving, one codeword's units are nearly independent.
        if t == 0 {
            return uber::binomial_tail(DATA_BITS as u64, self.raw_ber(), 0);
        }
        let code = Rs::cached(t);
        let p_erase = self.page_marginal();
        let p_err = 1.0 - (1.0 - self.cfg.iid_ber).powi(SYM_BITS as i32);
        // Budget: 2·errors + erasures ≤ parity. Approximate the mixed
        // count with one binomial at the budget-weighted rate.
        uber::binomial_tail(
            code.codeword_syms() as u64,
            (p_erase + 2.0 * p_err).min(1.0),
            code.parity_syms() as u64,
        )
    }

    fn corrupt_stream(
        &self,
        data: &mut [u8],
        bits: u64,
        t: usize,
        _exact: bool,
        seed: u64,
    ) -> CorruptTally {
        vapp_obs::counter!("storage.substrate.streams", 1);
        if bits == 0 {
            return CorruptTally::default();
        }
        if t == 0 {
            self.corrupt_raw(data, bits, seed)
        } else {
            self.corrupt_rs(data, bits, t, seed)
        }
    }
}

/// Configuration for the [`DataInVideo`] substrate.
#[derive(Clone, Debug, PartialEq)]
pub struct VideoChannelConfig {
    /// Quant level of the carrier encode (higher = lossier channel).
    pub crf: u8,
    /// Carrier frame width in pixels.
    pub frame_width: usize,
    /// Carrier frame height in pixels.
    pub frame_height: usize,
    /// Modulation cell side in pixels (one payload bit per cell²).
    pub cell: usize,
    /// Luma written for a 0 bit.
    pub low: u8,
    /// Luma written for a 1 bit.
    pub high: u8,
}

impl Default for VideoChannelConfig {
    fn default() -> Self {
        // Calibrated so the default channel actually loses bits
        // (~1.5e-4 raw BER): 1-pixel cells at full luma swing sit just
        // past the codec's quantization cliff at crf 43. Larger cells
        // or closer crf round-trip losslessly and make the substrate a
        // no-op.
        VideoChannelConfig {
            crf: 43,
            frame_width: 192,
            frame_height: 128,
            cell: 1,
            low: 48,
            high: 208,
        }
    }
}

/// Data-stored-as-video substrate (the Vstorage idea): payload bits
/// modulate luma cells of a carrier clip, which round-trips through our
/// own lossy codec at `crf`. Read-back thresholds each cell; quant noise
/// near the threshold flips bits, spatially clustered along block
/// boundaries. Damage is *content-dependent and deterministic* — the
/// seed is unused (see the module determinism contract) — and the RS
/// realization spreads it with the symbol interleaver.
#[derive(Debug)]
pub struct DataInVideo {
    cfg: VideoChannelConfig,
    calibrated: OnceLock<f64>,
}

impl DataInVideo {
    /// Builds the substrate.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate geometry (frame dimensions must be
    /// nonzero and the cell must divide both) or inverted luma levels.
    pub fn new(cfg: VideoChannelConfig) -> Self {
        assert!(cfg.cell > 0, "cell size");
        assert!(
            cfg.frame_width > 0 && cfg.frame_height > 0,
            "frame dimensions"
        );
        assert!(
            cfg.frame_width.is_multiple_of(cfg.cell) && cfg.frame_height.is_multiple_of(cfg.cell),
            "cell must tile the frame"
        );
        assert!(cfg.low < cfg.high, "luma levels inverted");
        DataInVideo {
            cfg,
            calibrated: OnceLock::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &VideoChannelConfig {
        &self.cfg
    }

    /// Payload bits per carrier frame.
    fn capacity(&self) -> usize {
        (self.cfg.frame_width / self.cfg.cell) * (self.cfg.frame_height / self.cfg.cell)
    }

    /// Modulate → encode → reconstruct → threshold: returns the bits a
    /// reader gets back. Pure function of `(payload, cfg)`.
    fn roundtrip(&self, payload: &BitBuf) -> BitBuf {
        let _span = vapp_obs::span!("storage.video.roundtrip");
        let (w, h, cell) = (self.cfg.frame_width, self.cfg.frame_height, self.cfg.cell);
        let cells_x = w / cell;
        let cap = self.capacity();
        let nbits = payload.len();
        let frames = nbits.div_ceil(cap).max(1);
        let mut video = Video::new(w, h, 30.0);
        for f in 0..frames {
            let mut frame = Frame::filled(w, h, self.cfg.low);
            for i in 0..cap {
                let idx = f * cap + i;
                if idx >= nbits {
                    break;
                }
                if payload.get(idx) {
                    let (cx, cy) = (i % cells_x, i / cells_x);
                    for y in 0..cell {
                        for x in 0..cell {
                            frame
                                .plane_mut()
                                .set(cx * cell + x, cy * cell + y, self.cfg.high);
                        }
                    }
                }
            }
            video.push(frame);
        }
        // All-intra: every frame decodes independently, so payload
        // damage stays local to its frame (and the carrier stream has
        // no motion-compensation state to diverge on).
        let result = Encoder::new(EncoderConfig {
            crf: self.cfg.crf,
            keyint: 1,
            bframes: 0,
            ..EncoderConfig::default()
        })
        .encode(&video);
        vapp_obs::counter!("storage.substrate.video.carrier_bits", nbits as u64);
        let thresh = (self.cfg.low as u32 + self.cfg.high as u32) / 2;
        let mut out = BitBuf::zeroed(nbits);
        for (f, frame) in result.reconstruction.frames().iter().enumerate() {
            for i in 0..cap {
                let idx = f * cap + i;
                if idx >= nbits {
                    break;
                }
                let (cx, cy) = (i % cells_x, i / cells_x);
                let mut sum = 0u32;
                for y in 0..cell {
                    for x in 0..cell {
                        sum += frame.plane().get(cx * cell + x, cy * cell + y) as u32;
                    }
                }
                if sum >= thresh * (cell * cell) as u32 {
                    out.set(idx, true);
                }
            }
        }
        out
    }
}

impl Substrate for DataInVideo {
    fn name(&self) -> &'static str {
        "video"
    }

    fn bits_per_cell(&self) -> u32 {
        // One payload bit per modulation cell: the carrier's pixel cost
        // is the "cell" of this medium.
        1
    }

    fn raw_ber(&self) -> f64 {
        // Calibrated once per substrate: round-trip a fixed pseudo-random
        // payload and measure the flip fraction. Deterministic.
        *self.calibrated.get_or_init(|| {
            let n = 16 * self.capacity().max(1024);
            let mut rng = StdRng::seed_from_u64(0xDA7A_1DE0);
            let mut payload = BitBuf::zeroed(n);
            for i in 0..n {
                payload.set(i, rng.random_bool(0.5));
            }
            let back = self.roundtrip(&payload);
            payload.hamming_distance(&back) as f64 / n as f64
        })
    }

    fn overhead(&self, t: usize) -> f64 {
        if t == 0 {
            0.0
        } else {
            Rs::cached(t).overhead()
        }
    }

    fn block_failure_rate(&self, t: usize) -> f64 {
        // I.i.d. approximation; transcode damage clusters along coding
        // blocks, so this underestimates the tails — the round-trip
        // simulator is the ground truth.
        let ber = self.raw_ber();
        if t == 0 {
            return uber::binomial_tail(DATA_BITS as u64, ber, 0);
        }
        let code = Rs::cached(t);
        let p_sym = 1.0 - (1.0 - ber).powi(SYM_BITS as i32);
        uber::binomial_tail(code.codeword_syms() as u64, p_sym, t as u64)
    }

    fn corrupt_stream(
        &self,
        data: &mut [u8],
        bits: u64,
        t: usize,
        _exact: bool,
        _seed: u64,
    ) -> CorruptTally {
        vapp_obs::counter!("storage.substrate.streams", 1);
        if bits == 0 {
            return CorruptTally::default();
        }
        if t == 0 {
            let mut tally = CorruptTally::default();
            // Unprotected: the data bits are the carrier payload.
            let mut carrier = BitBuf::zeroed(bits as usize);
            for pos in 0..bits as usize {
                carrier.set(pos, stream_bit(data, pos as u64));
            }
            let back = self.roundtrip(&carrier);
            for pos in 0..bits as usize {
                if carrier.get(pos) != back.get(pos) {
                    flip_stream_bit(data, pos as u64);
                    tally.flips += 1;
                }
            }
            return tally;
        }
        // RS-protected: materialize real codewords (transcode damage
        // depends on content, so — unlike the i.i.d. channels — the
        // pattern trick alone cannot model it), interleave symbols,
        // round-trip, decode the read-back difference.
        let rs = RsStream::new(bits, t);
        let phys_syms = rs.phys_syms();
        let cwords: Vec<Vec<u16>> = (0..rs.cws)
            .map(|c| {
                let d: Vec<u16> = (0..RS_DATA_SYMS)
                    .map(|i| rs.data_sym(data, c * RS_DATA_SYMS + i))
                    .collect();
                rs.code.encode(&d)
            })
            .collect();

        let mut carrier = BitBuf::zeroed(phys_syms * SYM_BITS);
        for phys in 0..phys_syms {
            let (c, j) = rs.locate(phys);
            let v = cwords[c][j];
            for b in 0..SYM_BITS {
                carrier.set(phys * SYM_BITS + b, (v >> (SYM_BITS - 1 - b)) & 1 == 1);
            }
        }
        let back = self.roundtrip(&carrier);

        // Received-minus-sent error patterns, de-interleaved: each
        // read-back symbol XORs into the codeword symbol that was sent.
        let mut patterns = cwords;
        for phys in 0..phys_syms {
            let (c, j) = rs.locate(phys);
            patterns[c][j] ^=
                (0..SYM_BITS).fold(0u16, |v, b| (v << 1) | back.get(phys * SYM_BITS + b) as u16);
        }
        rs.decode_and_deliver(data, patterns, &[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.random::<u8>()).collect()
    }

    #[test]
    fn mlc_trait_matches_iid_engine() {
        let sub = MlcPcm::new(2e-2);
        let bits = 4096u64;
        let mut a = pattern_bytes(512, 9);
        let mut b = a.clone();
        let ta = sub.corrupt_stream(&mut a, bits, 6, true, 42);
        let tb = corrupt_iid_bch(&mut b, bits, 6, true, 2e-2, 42);
        assert_eq!(a, b);
        assert_eq!(ta, tb);
    }

    #[test]
    fn burst_rs_is_deterministic_and_seed_sensitive() {
        let sub = BurstErasure::new(BurstConfig {
            page_loss: 0.02,
            ..BurstConfig::default()
        });
        let bits = 40_000u64;
        let mut a = pattern_bytes(5000, 1);
        let mut b = a.clone();
        let mut c = a.clone();
        let ta = sub.corrupt_stream(&mut a, bits, 6, true, 7);
        let tb = sub.corrupt_stream(&mut b, bits, 6, true, 7);
        assert_eq!(a, b, "same seed, same damage");
        assert_eq!(ta, tb);
        let _ = sub.corrupt_stream(&mut c, bits, 6, true, 8);
        assert!(ta.flips > 0, "2% page loss over 40k bits must hit");
    }

    #[test]
    fn burst_rs_erasures_beat_unprotected() {
        // With realistic loss, RS-protected data survives what raw
        // data does not.
        let sub = BurstErasure::new(BurstConfig {
            page_loss: 5e-3,
            ..BurstConfig::default()
        });
        let bits = 80_000u64;
        let mut protected = pattern_bytes(10_000, 2);
        let orig = protected.clone();
        let mut raw = protected.clone();
        let tp = sub.corrupt_stream(&mut protected, bits, 8, true, 3);
        let tr = sub.corrupt_stream(&mut raw, bits, 0, true, 3);
        assert!(tp.flips > 0 || tr.flips > 0);
        // RS with erasure decoding should correct everything here.
        assert_eq!(tp.uncorrectable, 0, "{tp:?}");
        assert_eq!(protected, orig);
        assert_ne!(raw, orig, "unprotected page loss garbles data");
    }

    #[test]
    fn video_roundtrip_flips_some_bits_at_high_crf() {
        let sub = DataInVideo::new(VideoChannelConfig {
            frame_width: 64,
            frame_height: 32,
            crf: 46,
            ..VideoChannelConfig::default()
        });
        let ber = sub.raw_ber();
        assert!(ber > 0.0, "crf 46 must flip something, got {ber}");
        assert!(ber < 0.5, "channel must still carry information");
        // Calibration is cached and stable.
        assert_eq!(sub.raw_ber(), ber);
    }

    #[test]
    fn video_substrate_is_deterministic_and_seed_independent() {
        let sub = DataInVideo::new(VideoChannelConfig {
            frame_width: 64,
            frame_height: 32,
            crf: 44,
            ..VideoChannelConfig::default()
        });
        let bits = 6000u64;
        let mut a = pattern_bytes(750, 5);
        let mut b = a.clone();
        let ta = sub.corrupt_stream(&mut a, bits, 4, true, 1);
        let tb = sub.corrupt_stream(&mut b, bits, 4, true, 999);
        assert_eq!(a, b, "video damage is content-determined");
        assert_eq!(ta, tb);
    }

    #[test]
    #[should_panic(expected = "frame dimensions")]
    fn video_rejects_zero_frame_dimensions() {
        DataInVideo::new(VideoChannelConfig {
            frame_width: 0,
            ..VideoChannelConfig::default()
        });
    }

    #[test]
    fn substrate_objects_are_usable_behind_arc_dyn() {
        let subs: Vec<Arc<dyn Substrate>> =
            vec![mlc_pcm(1e-3), burst_erasure(BurstConfig::default())];
        for s in subs {
            assert!(s.bits_per_cell() >= 1);
            assert!(s.overhead(6) > 0.0);
            assert!(s.block_failure_rate(6) <= 1.0);
            assert!(s.raw_ber() < 0.5);
        }
    }
}
