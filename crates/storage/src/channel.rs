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
//!   Reed–Solomon code over GF(2^10) ([`crate::rs`]) with its symbols
//!   interleaved column-major over the medium (`RsStream`), and
//!   page-granular *erasure* locations handed to the decoder.
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
//! (`vapp_sim::derive_subseeds`); an implementation that splits a
//! stream into units (the exact MLC arm's 512-bit blocks) likewise
//! derives one sub-seed per unit (the exact arm streams the same
//! SplitMix64 sequence instead of collecting it), so no unit's draws
//! depend on another unit's. Implementations may *ignore* the seed
//! when the channel is intrinsically deterministic (`DataInVideo`'s
//! damage is a function of the carrier content alone), but must never
//! draw from ambient randomness. Every RNG an implementation runs must
//! be seeded from `seed` (directly or via `derive_subseeds`) and
//! consumed in a deterministic order.

use std::sync::{Arc, OnceLock};

use crate::batch::{self, BlockBatch};
use crate::bch::{Bch, DecodeOutcome, DATA_BITS};
use crate::bits::BitBuf;
use crate::rs::{Rs, RS_DATA_SYMS, SYM_BITS};
use crate::uber;
use vapp_codec::{Encoder, EncoderConfig};
use vapp_media::{Frame, Video};
use vapp_rand::rngs::StdRng;
use vapp_rand::{RngCore, RngExt, SeedableRng, SplitMix64};
use vapp_sim::{derive_subseeds, pick_k_positions, pick_positions, FlipCount};

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
    /// Live payload bits (below `bits`) whose value differs after the
    /// call: what the read changed, net of any bit flipped twice. Zero
    /// exactly when the stream reads back as it was stored.
    pub changed_bits: u64,
}

impl std::ops::AddAssign for CorruptTally {
    fn add_assign(&mut self, rhs: CorruptTally) {
        self.flips += rhs.flips;
        self.clean += rhs.clean;
        self.corrected += rhs.corrected;
        self.uncorrectable += rhs.uncorrectable;
        self.changed_bits += rhs.changed_bits;
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
/// crate's hot loop does not reach across the crate boundary). Returns
/// whether the bit lies inside `bytes` and was flipped.
#[inline]
fn flip_stream_bit(bytes: &mut [u8], bit_index: u64) -> bool {
    let byte = (bit_index / 8) as usize;
    let inside = byte < bytes.len();
    if inside {
        bytes[byte] ^= 1 << (7 - (bit_index % 8));
    }
    inside
}

/// Reads one bit of an MSB-first byte stream (the read side of
/// [`flip_stream_bit`]).
#[inline]
fn stream_bit(bytes: &[u8], bit_index: u64) -> bool {
    (bytes[(bit_index / 8) as usize] >> (7 - bit_index % 8)) & 1 == 1
}

/// The i.i.d.-flip + BCH corruption engine behind [`MlcPcm`].
///
/// RNG construction, draw order, block grouping and counter totals are
/// those of the pipeline's original `corrupt_stream_bits`, so seeded
/// outputs are a pure function of the arguments at any worker count.
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
            stats.changed_bits += flip_stream_bit(data, pos) as u64;
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
                stats.changed_bits += flip_stream_bit(data, pos) as u64;
                stats.flips += 1;
            }
        }
        // Corrected-block tally for this mode is the binomial
        // expectation, computed deterministically — no extra draws.
        stats.corrected =
            ((blocks as f64 * p_corr).round() as u64).min(blocks - stats.uncorrectable);
        stats.clean = blocks - stats.uncorrectable - stats.corrected;
        vapp_obs::counter!("storage.bch.blocks", blocks);
        vapp_obs::counter!("storage.bch.clean", stats.clean);
        vapp_obs::counter!("storage.bch.corrected", stats.corrected);
        vapp_obs::counter!("storage.bch.uncorrectable", stats.uncorrectable);
    } else {
        // Exact model on bare error patterns. Sub-seeds stay per 512-bit
        // block, and a block's flips depend only on its sub-seed, never
        // its contents. Its outcome follows from the pattern's weight w:
        //
        // * w = 0 (the common case at realistic BERs): clean;
        // * 1 ≤ w ≤ t: `Corrected(w)` without decoding. The designed
        //   distance is 2t + 1, so the bounded-distance decoder returns
        //   exactly the drawn pattern and leaves nothing behind
        //   (property-pinned against `decode_batch` and `ScalarBch`);
        // * w > t: decoded in 64-lane batches on the batch engine. That
        //   is outcome-equivalent to encode+flip+decode of the real
        //   content: syndromes are linear and vanish on codewords, so
        //   syndromes(cw + e) = syndromes(e) and the decoder makes the
        //   same corrections. The block reads back with the residual
        //   (pattern ⊕ corrections) in its live data bits — the whole
        //   pattern when Uncorrectable, the wrong codeword's bits on a
        //   miscorrection ([`deliver_residual`]).
        //
        // So a block draws its weight first, and only a block past the
        // radius goes on to pick positions, from the same RNG: that is
        // `pick_positions`' own draw order, so heavy lanes get exactly
        // the positions it would. Weights are tallied over the stream and
        // `sim.flips.per_draw` gets one counted record per distinct
        // weight, the same histogram as one record per block.
        let code = Bch::cached(t);
        let n = code.codeword_bits() as u64;
        let count = FlipCount::new(n, raw_ber);
        let blocks = bits.div_ceil(DATA_BITS as u64) as usize;
        vapp_obs::counter!("storage.bch.blocks", blocks as u64);
        // Streams the values `derive_subseeds(seed, blocks)` would hold.
        let mut block_seeds = SplitMix64::new(seed);
        let mut blocks_by_weight: Vec<u64> = Vec::new();
        let used = (bits.div_ceil(8) as usize).min(data.len());
        let group_bytes = (DATA_BITS / 8) * batch::LANES;
        for (g, chunk) in data[..used].chunks_mut(group_bytes).enumerate() {
            let base = g * batch::LANES;
            let group_blocks = (blocks - base).min(batch::LANES);
            let mut heavy: Vec<(usize, Vec<u64>)> = Vec::new();
            for lb in 0..group_blocks {
                let mut rng = StdRng::seed_from_u64(block_seeds.next_u64());
                let w = count.draw(&mut rng);
                if blocks_by_weight.len() <= w as usize {
                    blocks_by_weight.resize(w as usize + 1, 0);
                }
                blocks_by_weight[w as usize] += 1;
                if w > t as u64 {
                    heavy.push((lb, pick_k_positions(&[0..n], w, &mut rng)));
                }
            }
            if heavy.is_empty() {
                continue;
            }
            // One batch lane per block past the radius, holding just its
            // error pattern; the batch decoder tallies these lanes'
            // `storage.bch.*` outcome counters itself.
            let mut errs = BlockBatch::zeroed(code, heavy.len());
            for (lane, (_, flips)) in heavy.iter().enumerate() {
                for &f in flips {
                    errs.flip(lane, f as usize);
                }
            }
            for outcome in code.decode_batch(&mut errs) {
                match outcome {
                    DecodeOutcome::Clean => stats.clean += 1,
                    DecodeOutcome::Corrected(_) => stats.corrected += 1,
                    DecodeOutcome::Uncorrectable => stats.uncorrectable += 1,
                }
            }
            let lane_blocks: Vec<usize> = heavy.iter().map(|&(lb, _)| lb).collect();
            stats.changed_bits += deliver_residual(&errs, &lane_blocks, chunk, base, bits);
        }
        // The tally settles every block within the radius: weight 0 is
        // clean, 1..=t is `Corrected(w)`.
        let (mut flip_free, mut within, mut within_bits) = (0u64, 0u64, 0u64);
        for (w, &k) in (0u64..).zip(&blocks_by_weight) {
            vapp_obs::histogram!("sim.flips.per_draw", w, k);
            stats.flips += w * k;
            if w == 0 {
                flip_free = k;
            } else if w <= t as u64 {
                within += k;
                within_bits += w * k;
            }
        }
        if flip_free > 0 {
            vapp_obs::counter!("storage.bch.clean", flip_free);
        }
        if within > 0 {
            vapp_obs::counter!("storage.bch.corrected", within);
            vapp_obs::counter!("storage.bch.bits_corrected", within_bits);
        }
        stats.clean += flip_free;
        stats.corrected += within;
    }
    stats
}

/// Applies what decoding left of each batch lane's error pattern to the
/// stream: lane `i` holds block `lane_blocks[i]` of the 64-block group
/// `chunk` (whose first block is stream block `base`), and every data
/// bit still set in it flips that bit of the block, MSB-first. Bits past
/// the stream's live `bits`, and parity-region bits, are never part of
/// the stored payload. Returns the number of stream bits flipped.
fn deliver_residual(
    errs: &BlockBatch,
    lane_blocks: &[usize],
    chunk: &mut [u8],
    base: usize,
    bits: u64,
) -> u64 {
    let mut changed = 0;
    for bit in 0..DATA_BITS {
        let mut lanes = errs.plane(bit);
        while lanes != 0 {
            let lb = lane_blocks[lanes.trailing_zeros() as usize];
            lanes &= lanes - 1;
            if (((base + lb) * DATA_BITS + bit) as u64) < bits {
                chunk[lb * (DATA_BITS / 8) + bit / 8] ^= 0x80u8 >> (bit % 8);
                changed += 1;
            }
        }
    }
    changed
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
/// [`RS_DATA_SYMS`] per codeword. The `cws` codewords interleave
/// column-major over the physical medium: physical symbol `phys` holds
/// symbol `phys / cws` of codeword `phys % cws`, so a run of `B`
/// consecutive physical symbols hits any one codeword at most
/// `ceil(B / cws)` times. A codeword is `[parity; p] ++ [data; k]`, so
/// symbol `j >= p` of codeword `c` is stream data symbol `c * k + j - p`.
struct RsStream {
    code: &'static Rs,
    bits: u64,
    total_syms: usize,
    cws: usize,
}

impl RsStream {
    fn new(bits: u64, t: usize) -> Self {
        let total_syms = (bits as usize).div_ceil(SYM_BITS);
        RsStream {
            code: Rs::cached(t),
            bits,
            total_syms,
            cws: total_syms.div_ceil(RS_DATA_SYMS).max(1),
        }
    }

    /// Symbols on the physical medium: every codeword, parity included.
    fn phys_syms(&self) -> usize {
        self.cws * self.code.codeword_syms()
    }

    /// `(codeword, symbol)` stored at physical symbol `phys`.
    fn locate(&self, phys: usize) -> (usize, usize) {
        (phys % self.cws, phys / self.cws)
    }

    /// Stream data symbol `gs`; bits past the stream read as zero.
    fn data_sym(&self, data: &[u8], gs: usize) -> u16 {
        (0..SYM_BITS).fold(0u16, |v, b| {
            let pos = (gs * SYM_BITS + b) as u64;
            (v << 1) | (pos < self.bits && stream_bit(data, pos)) as u16
        })
    }

    /// Decodes each codeword's error pattern and delivers what decoding
    /// leaves of it to the stream. `erasures[c]` lists the erased
    /// symbols of codeword `c` in strictly ascending order; a channel
    /// without erasure knowledge passes an empty slice. Syndromes are
    /// linear, so decoding the bare pattern gives the outcome — and the
    /// corrections — of decoding the damaged codeword. A codeword within
    /// the radius `2·errors + erasures ≤ parity` that [`Rs::decode`]
    /// guarantees decodes to a zero pattern (Clean if the erased
    /// symbols' garbage matched), so it counts as corrected without
    /// running the decoder. Any other reads back with its residual: the
    /// whole pattern when Uncorrectable, the wrong codeword's symbols on
    /// a miscorrection ([`Self::deliver`]).
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
            let errors = (pattern.iter().enumerate())
                .filter(|&(j, &v)| v != 0 && eras.binary_search(&j).is_err())
                .count();
            if 2 * errors + eras.len() <= p {
                tally.corrected += 1;
                continue;
            }
            match self.code.decode(pattern, eras) {
                DecodeOutcome::Clean | DecodeOutcome::Corrected(_) => tally.corrected += 1,
                DecodeOutcome::Uncorrectable => tally.uncorrectable += 1,
            }
            tally.changed_bits += self.deliver(data, c, pattern);
        }
        vapp_obs::counter!("storage.substrate.rs.clean", tally.clean);
        vapp_obs::counter!("storage.substrate.rs.corrected", tally.corrected);
        vapp_obs::counter!("storage.substrate.rs.uncorrectable", tally.uncorrectable);
        tally
    }

    /// Flips the stream bits that codeword `c`'s (decoded) error
    /// `pattern` still holds in its data symbols; parity and padding
    /// damage is never part of the stored payload. Returns the number of
    /// stream bits flipped.
    fn deliver(&self, data: &mut [u8], c: usize, pattern: &[u16]) -> u64 {
        let p = self.code.parity_syms();
        let mut changed = 0;
        for (j, &v) in pattern.iter().enumerate().skip(p) {
            let gs = c * RS_DATA_SYMS + (j - p);
            if v == 0 || gs >= self.total_syms {
                continue;
            }
            for b in 0..SYM_BITS {
                let pos = (gs * SYM_BITS + b) as u64;
                if (v >> (SYM_BITS - 1 - b)) & 1 == 1 && pos < self.bits {
                    changed += flip_stream_bit(data, pos) as u64;
                }
            }
        }
        changed
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

    /// Unprotected damage: lost pages garble the data bits directly. An
    /// i.i.d. flip on a bit the garble already flipped restores it, so
    /// `changed_bits` counts it back out.
    fn corrupt_raw(&self, data: &mut [u8], bits: u64, seed: u64) -> CorruptTally {
        let mut tally = CorruptTally::default();
        let seeds = derive_subseeds(seed, 3);
        let n_pages = bits.div_ceil(self.cfg.page_bits);
        let lost = self.draw_lost_pages(n_pages, &mut StdRng::seed_from_u64(seeds[0]));
        vapp_obs::counter!("storage.substrate.burst.pages_lost", lost.len() as u64);
        let mut garble = StdRng::seed_from_u64(seeds[1]);
        // Ascending, since lost pages come sorted.
        let mut garbled = Vec::new();
        for &page in &lost {
            let start = page * self.cfg.page_bits;
            let end = (start + self.cfg.page_bits).min(bits);
            for pos in start..end {
                if garble.random_bool(0.5) {
                    if flip_stream_bit(data, pos) {
                        garbled.push(pos);
                    }
                    tally.flips += 1;
                }
            }
        }
        tally.changed_bits = garbled.len() as u64;
        let mut iid = StdRng::seed_from_u64(seeds[2]);
        for pos in pick_positions(&[0..bits], self.cfg.iid_ber, &mut iid) {
            if flip_stream_bit(data, pos) {
                if garbled.binary_search(&pos).is_ok() {
                    tally.changed_bits -= 1;
                } else {
                    tally.changed_bits += 1;
                }
            }
            tally.flips += 1;
        }
        tally
    }

    /// RS realization: draw page losses over the interleaved physical
    /// space of the stream's codewords ([`RsStream`]) and decode each
    /// codeword's *error pattern* with the lost symbols as erasures.
    fn corrupt_rs(&self, data: &mut [u8], bits: u64, t: usize, seed: u64) -> CorruptTally {
        let (rs, patterns, erasures) = self.draw_rs_patterns(bits, t, seed);
        rs.decode_and_deliver(data, patterns, &erasures)
    }

    /// The stream's RS layout, each codeword's error pattern and each
    /// codeword's erased symbols, drawn from `seed` alone.
    fn draw_rs_patterns(
        &self,
        bits: u64,
        t: usize,
        seed: u64,
    ) -> (RsStream, Vec<Vec<u16>>, Vec<Vec<usize>>) {
        let rs = RsStream::new(bits, t);
        let phys_syms = rs.phys_syms();
        let phys_bits = (phys_syms * SYM_BITS) as u64;

        let seeds = derive_subseeds(seed, 3);
        let n_pages = phys_bits.div_ceil(self.cfg.page_bits);
        let lost = self.draw_lost_pages(n_pages, &mut StdRng::seed_from_u64(seeds[0]));
        vapp_obs::counter!("storage.substrate.burst.pages_lost", lost.len() as u64);

        // Per-codeword error patterns. Every symbol overlapping a lost
        // page is erased and reads back as garbage; garbage XOR
        // original is uniform, so drawing the pattern value directly
        // is distribution-exact and needs no content. Lost pages come
        // sorted, so values draw in ascending physical order, a symbol
        // straddling two lost pages draws once, and each codeword's
        // erasure list comes out strictly ascending.
        let mut patterns = vec![vec![0u16; rs.code.codeword_syms()]; rs.cws];
        let mut erasures: Vec<Vec<usize>> = vec![Vec::new(); rs.cws];
        let mut garble = StdRng::seed_from_u64(seeds[1]);
        let mut drawn = 0;
        for &page in &lost {
            let start = (page * self.cfg.page_bits) as usize / SYM_BITS;
            let end = ((page + 1) * self.cfg.page_bits).div_ceil(SYM_BITS as u64) as usize;
            for phys in start.max(drawn)..end.min(phys_syms) {
                let (c, j) = rs.locate(phys);
                patterns[c][j] = garble.random::<u16>() & 0x3FF;
                erasures[c].push(j);
            }
            drawn = end;
        }
        let mut iid = StdRng::seed_from_u64(seeds[2]);
        for pos in pick_positions(&[0..phys_bits], self.cfg.iid_ber, &mut iid) {
            let (c, j) = rs.locate((pos as usize) / SYM_BITS);
            patterns[c][j] ^= 1 << (SYM_BITS - 1 - (pos as usize) % SYM_BITS);
        }
        (rs, patterns, erasures)
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
/// realization spreads it by interleaving codeword symbols.
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
                    tally.changed_bits += flip_stream_bit(data, pos as u64) as u64;
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

    /// Bits that differ between two equal-length byte streams.
    fn differing_bits(a: &[u8], b: &[u8]) -> u64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x ^ y).count_ones() as u64)
            .sum()
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

    /// The counters a corruption call leaves, read from a fresh registry.
    fn with_counters<T>(names: &[&str], f: impl FnOnce() -> T) -> (T, Vec<u64>) {
        let reg = Arc::new(vapp_obs::Registry::new());
        let out = vapp_obs::registry::with_registry(reg.clone(), f);
        (out, names.iter().map(|n| reg.counter(n).get()).collect())
    }

    const BCH_COUNTERS: [&str; 5] = [
        "storage.bch.blocks",
        "storage.bch.clean",
        "storage.bch.corrected",
        "storage.bch.bits_corrected",
        "storage.bch.uncorrectable",
    ];

    /// Each block's drawn flips, exactly as the exact arm draws them.
    fn block_flips(bits: u64, t: usize, raw_ber: f64, seed: u64) -> Vec<Vec<u64>> {
        let n = Bch::cached(t).codeword_bits() as u64;
        derive_subseeds(seed, bits.div_ceil(DATA_BITS as u64) as usize)
            .into_iter()
            .map(|s| pick_positions(&[0..n], raw_ber, &mut StdRng::seed_from_u64(s)))
            .collect()
    }

    /// The exact arm as it was before the radius rule: every block with
    /// a flip goes through `decode_batch`, whatever its weight.
    fn always_decode(
        data: &mut [u8],
        bits: u64,
        t: usize,
        raw_ber: f64,
        seed: u64,
    ) -> CorruptTally {
        let code = Bch::cached(t);
        let flips = block_flips(bits, t, raw_ber, seed);
        vapp_obs::counter!("storage.bch.blocks", flips.len() as u64);
        let mut stats = CorruptTally::default();
        let used = bits.div_ceil(8) as usize;
        let stored = data.to_vec();
        let groups = data[..used].chunks_mut((DATA_BITS / 8) * batch::LANES);
        for ((g, chunk), group) in groups.enumerate().zip(flips.chunks(batch::LANES)) {
            let dirty: Vec<usize> = (0..group.len())
                .filter(|&lb| !group[lb].is_empty())
                .collect();
            stats.flips += group.iter().map(|f| f.len() as u64).sum::<u64>();
            let flip_free = (group.len() - dirty.len()) as u64;
            vapp_obs::counter!("storage.bch.clean", flip_free);
            stats.clean += flip_free;
            if dirty.is_empty() {
                continue;
            }
            let mut errs = BlockBatch::zeroed(code, dirty.len());
            for (lane, &lb) in dirty.iter().enumerate() {
                for &f in &group[lb] {
                    errs.flip(lane, f as usize);
                }
            }
            for outcome in code.decode_batch(&mut errs) {
                match outcome {
                    DecodeOutcome::Clean => stats.clean += 1,
                    DecodeOutcome::Corrected(_) => stats.corrected += 1,
                    DecodeOutcome::Uncorrectable => stats.uncorrectable += 1,
                }
            }
            deliver_residual(&errs, &dirty, chunk, g * batch::LANES, bits);
        }
        stats.changed_bits = differing_bits(&stored, data);
        stats
    }

    #[test]
    fn exact_arm_matches_the_always_decode_oracle() {
        // Ragged stream lengths exercise the partial last block and group.
        for (i, &ber) in [1e-3, 5e-3, 1e-2, 2e-2].iter().enumerate() {
            for t in [1usize, 2, 3, 6, 10, 16] {
                for (j, bits) in [4096u64, 40_003, 70_000].into_iter().enumerate() {
                    let seed = (i * 100 + t * 10 + j) as u64;
                    let orig = pattern_bytes(bits.div_ceil(8) as usize, seed);
                    let (mut a, mut b) = (orig.clone(), orig.clone());
                    let (ta, ca) = with_counters(&BCH_COUNTERS, || {
                        corrupt_iid_bch(&mut a, bits, t, true, ber, seed)
                    });
                    let (tb, cb) =
                        with_counters(&BCH_COUNTERS, || always_decode(&mut b, bits, t, ber, seed));
                    let at = format!("ber {ber} t {t} bits {bits}");
                    assert_eq!(ta, tb, "tally, {at}");
                    assert_eq!(ca, cb, "storage.bch.* counters, {at}");
                    assert!(a == b, "bytes, {at}");
                }
            }
        }
    }

    /// The tally, `storage.bch.*` counters and `sim.flips.per_draw`
    /// histogram a corruption call leaves in a fresh registry.
    fn observe(
        f: impl FnOnce() -> CorruptTally,
    ) -> (CorruptTally, Vec<u64>, Option<vapp_obs::HistogramSnapshot>) {
        let reg = Arc::new(vapp_obs::Registry::new());
        let tally = vapp_obs::registry::with_registry(reg.clone(), f);
        let snap = reg.snapshot();
        let counters = BCH_COUNTERS.iter().map(|c| snap.counter(c)).collect();
        let flips_per_draw = snap.histogram("sim.flips.per_draw").cloned();
        (tally, counters, flips_per_draw)
    }

    #[test]
    fn exact_arm_observables_match_the_per_block_oracle() {
        // The exact arm tallies block weights and flushes one counted
        // `sim.flips.per_draw` record per weight; the oracle draws each
        // block through `pick_positions`, one record per block. At 1e-3
        // nearly every block is within the radius; at 2e-2 (λ ≈ 11–13)
        // most lanes are heavy. Both must leave the same histogram and
        // `storage.bch.*` counters.
        let name = "exact_arm_observables_match_the_per_block_oracle";
        vapp_check::check(name, 12, |rng| {
            let t = [1usize, 2, 3, 6, 10, 16][vapp_check::gen::index(rng, 6)];
            let bits = rng.random_range(1..=40_000u64);
            let seed: u64 = rng.random();
            let orig = pattern_bytes(bits.div_ceil(8) as usize, seed);
            for ber in [1e-3, 2e-2] {
                let (mut a, mut b) = (orig.clone(), orig.clone());
                let arm = observe(|| corrupt_iid_bch(&mut a, bits, t, true, ber, seed));
                let oracle = observe(|| always_decode(&mut b, bits, t, ber, seed));
                let at = format!("ber {ber} t {t} bits {bits} seed {seed:#x}");
                assert_eq!(arm.0, oracle.0, "tally, {at}");
                assert_eq!(arm.1, oracle.1, "storage.bch.* counters, {at}");
                assert!(arm.2.is_some(), "sim.flips.per_draw recorded, {at}");
                assert_eq!(arm.2, oracle.2, "sim.flips.per_draw, {at}");
            }
        });
    }

    #[test]
    fn exact_arm_reads_back_what_real_decoding_leaves() {
        // Encode the real content, apply each block's drawn flips, run
        // the scalar oracle decoder and read the data bits back: that is
        // what the stream must hold. At t = 1 and ~3 flips per block,
        // many blocks land within one flip of a wrong codeword and
        // miscorrect; their damage must reach the stream, and
        // `changed_bits` must count it. The last block is partial: what
        // decoding leaves past `bits` is not payload and must not count.
        use crate::bch::reference::ScalarBch;
        let (t, ber, bits) = (1usize, 6e-3, 64 * DATA_BITS as u64 - 77);
        let oracle = ScalarBch::new(t);
        let orig = pattern_bytes(bits.div_ceil(8) as usize, 3);
        let (mut miscorrected_triples, mut past_end) = (0, 0);
        for seed in 11..16u64 {
            let mut got = orig.clone();
            let tally = corrupt_iid_bch(&mut got, bits, t, true, ber, seed);
            assert_eq!(
                tally.changed_bits,
                differing_bits(&orig, &got),
                "seed {seed}"
            );
            for (b, flips) in block_flips(bits, t, ber, seed).iter().enumerate() {
                let start = (b * DATA_BITS) as u64;
                let live = (bits - start).min(DATA_BITS as u64) as usize;
                let mut block = BitBuf::zeroed(DATA_BITS);
                for i in 0..live {
                    block.set(i, stream_bit(&orig, start + i as u64));
                }
                let clean = oracle.encode(&block);
                let mut cw = clean.clone();
                for &f in flips {
                    cw.flip(f as usize);
                }
                let outcome = oracle.decode(&mut cw);
                if flips.len() == 3 && outcome == DecodeOutcome::Corrected(1) && cw != clean {
                    miscorrected_triples += 1;
                }
                past_end += (live..DATA_BITS)
                    .filter(|&i| cw.get(i) != clean.get(i))
                    .count();
                for i in 0..live {
                    assert_eq!(
                        stream_bit(&got, start + i as u64),
                        cw.get(i),
                        "seed {seed} block {b} bit {i} ({} flips, {outcome:?})",
                        flips.len()
                    );
                }
            }
        }
        assert!(
            miscorrected_triples > 0,
            "the fixture must miscorrect a 3-flip block"
        );
        assert!(
            past_end > 0,
            "some seed must leave a residual past `bits` in the last block"
        );
    }

    #[test]
    fn rs_layout_is_a_bijection_that_spreads_bursts() {
        for (bits, t) in [
            (1u64, 1usize),
            (1020, 2),
            (3067, 3),
            (30_011, 6),
            (524_288, 16),
        ] {
            let rs = RsStream::new(bits, t);
            let (cws, n) = (rs.cws, rs.code.codeword_syms());
            assert_eq!(rs.phys_syms(), cws * n);
            let mut seen = vec![false; cws * n];
            for phys in 0..rs.phys_syms() {
                let (c, j) = rs.locate(phys);
                assert!(
                    c < cws && j < n,
                    "bits {bits} t {t}: phys {phys} → ({c}, {j})"
                );
                assert!(
                    !seen[c * n + j],
                    "bits {bits} t {t}: ({c}, {j}) located twice"
                );
                seen[c * n + j] = true;
            }
            // Slide every window of `burst` consecutive physical symbols
            // and track the most hits any one codeword takes.
            for burst in [1, cws.max(2) - 1, cws, cws + 1, 3 * cws + 2, 205] {
                let burst = burst.min(rs.phys_syms());
                let mut hits = vec![0usize; cws];
                let mut worst = 0;
                for phys in 0..rs.phys_syms() {
                    let c = rs.locate(phys).0;
                    hits[c] += 1;
                    worst = worst.max(hits[c]);
                    if phys + 1 >= burst {
                        hits[rs.locate(phys + 1 - burst).0] -= 1;
                    }
                }
                let bound = burst.div_ceil(cws);
                assert!(
                    worst <= bound,
                    "bits {bits} t {t} burst {burst}: a codeword took {worst} > {bound} symbols"
                );
            }
        }
    }

    #[test]
    fn rs_delivery_matches_the_always_decode_oracle() {
        // Burst patterns straddle the radius: mixes of erasures (lost
        // pages) and unknown symbol errors (the i.i.d. floor).
        let counters = [
            "storage.substrate.rs.clean",
            "storage.substrate.rs.corrected",
            "storage.substrate.rs.uncorrectable",
        ];
        let mut overall = CorruptTally::default();
        for (page_loss, iid_ber) in [(1e-3, 1e-5), (1e-2, 1e-3), (3e-2, 5e-3), (6e-2, 2e-2)] {
            let sub = BurstErasure::new(BurstConfig {
                page_loss,
                iid_ber,
                ..BurstConfig::default()
            });
            for t in [1usize, 2, 3, 6, 10] {
                let (bits, seed) = (30_011u64, (t as u64) << 8 ^ (page_loss * 1e4) as u64);
                let orig = pattern_bytes(bits.div_ceil(8) as usize, seed);
                let (mut a, mut b) = (orig.clone(), orig.clone());
                let (ta, ca) = with_counters(&counters, || {
                    sub.corrupt_stream(&mut a, bits, t, true, seed)
                });
                let (rs, patterns, erasures) = sub.draw_rs_patterns(bits, t, seed);
                let (tb, cb) = with_counters(&counters, || {
                    let mut tally = CorruptTally::default();
                    for (c, mut pattern) in patterns.into_iter().enumerate() {
                        tally.flips += pattern.iter().map(|&v| v.count_ones() as u64).sum::<u64>();
                        let eras = &erasures[c];
                        if eras.is_empty() && pattern.iter().all(|&v| v == 0) {
                            tally.clean += 1;
                            continue;
                        }
                        match rs.code.decode(&mut pattern, eras) {
                            DecodeOutcome::Uncorrectable => tally.uncorrectable += 1,
                            _ => tally.corrected += 1,
                        }
                        rs.deliver(&mut b, c, &pattern);
                    }
                    tally.changed_bits = differing_bits(&orig, &b);
                    vapp_obs::counter!("storage.substrate.rs.clean", tally.clean);
                    vapp_obs::counter!("storage.substrate.rs.corrected", tally.corrected);
                    vapp_obs::counter!("storage.substrate.rs.uncorrectable", tally.uncorrectable);
                    tally
                });
                let at = format!("page_loss {page_loss} iid {iid_ber} t {t}");
                assert_eq!(ta, tb, "tally, {at}");
                assert_eq!(ca, cb, "counters, {at}");
                assert!(a == b, "bytes, {at}");
                overall.corrected += ta.corrected;
                overall.uncorrectable += ta.uncorrectable;
            }
        }
        assert!(
            overall.corrected > 0 && overall.uncorrectable > 0,
            "both sides of the radius: {overall:?}"
        );
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
