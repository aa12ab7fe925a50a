//! Context-adaptive binary arithmetic coding core (CABAC-class).
//!
//! A classic Witten–Neal–Cleary binary arithmetic coder with 12-bit
//! adaptive probability models. This is the property the paper's error
//! analysis (§3) hinges on: symbols occupy *fractional* bits, the model
//! state adapts with every coded bin, and a single flipped bit therefore
//! desynchronises both the interval and the probability contexts for the
//! rest of the frame.
//!
//! The decoder is total: it consumes zero bits past the end of the buffer
//! and never fails, it just produces garbage bins — exactly the behaviour a
//! robust video decoder needs on an approximate substrate.

use crate::bitstream::BitWriter;

const PROB_BITS: u32 = 12;
const PROB_ONE: u32 = 1 << PROB_BITS;
/// Adaptation rate: higher = slower adaptation.
const ADAPT_SHIFT: u32 = 5;

const TOP: u64 = 1 << 32;
const HALF: u64 = TOP / 2;
const QUARTER: u64 = TOP / 4;
const THREE_QUARTERS: u64 = 3 * TOP / 4;
const MASK: u64 = TOP - 1;

/// An adaptive binary probability model (one "context").
///
/// Stores P(bin = 0) in 12-bit fixed point and adapts exponentially toward
/// the observed bins, like CABAC's state machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BinContext {
    p0: u16,
}

impl Default for BinContext {
    fn default() -> Self {
        Self::new()
    }
}

impl BinContext {
    /// Creates an unbiased context (P(0) = 1/2).
    pub fn new() -> Self {
        BinContext {
            p0: (PROB_ONE / 2) as u16,
        }
    }

    /// Current probability of a zero bin, in 1/4096 units.
    pub fn p0(&self) -> u16 {
        self.p0
    }

    #[inline]
    fn update(&mut self, bin: bool) {
        if bin {
            // A one was observed: decrease P(0).
            self.p0 -= self.p0 >> ADAPT_SHIFT;
        } else {
            self.p0 += ((PROB_ONE - self.p0 as u32) >> ADAPT_SHIFT) as u16;
        }
        // Keep probabilities away from 0/1 so the interval split is valid.
        self.p0 = self.p0.clamp(32, (PROB_ONE - 32) as u16);
    }
}

/// Arithmetic encoder writing to a [`BitWriter`].
#[derive(Debug)]
pub struct ArithEncoder {
    low: u64,
    high: u64,
    pending: u64,
    bins: u64,
    writer: BitWriter,
}

impl Default for ArithEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl ArithEncoder {
    /// Creates a fresh encoder.
    pub fn new() -> Self {
        ArithEncoder {
            low: 0,
            high: MASK,
            pending: 0,
            bins: 0,
            writer: BitWriter::new(),
        }
    }

    /// Number of bins (binary decisions) coded so far, context-coded and
    /// bypass alike — the `codec.arith.bins` observability counter.
    pub fn bins_coded(&self) -> u64 {
        self.bins
    }

    /// Approximate number of bits produced so far (exact up to carry
    /// bookkeeping). Monotone — used to record macroblock bit spans.
    pub fn bit_pos(&self) -> u64 {
        self.writer.bit_len() + self.pending
    }

    #[inline]
    fn emit(&mut self, bit: bool) {
        self.writer.put_bit(bit);
        while self.pending > 0 {
            self.writer.put_bit(!bit);
            self.pending -= 1;
        }
    }

    /// Encodes one bin with an adaptive context.
    pub fn encode(&mut self, ctx: &mut BinContext, bin: bool) {
        let p0 = ctx.p0 as u64;
        self.encode_raw(bin, p0);
        ctx.update(bin);
    }

    /// Encodes one equiprobable ("bypass") bin.
    pub fn encode_bypass(&mut self, bin: bool) {
        self.encode_raw(bin, (PROB_ONE / 2) as u64);
    }

    fn encode_raw(&mut self, bin: bool, p0: u64) {
        self.bins += 1;
        let range = self.high - self.low + 1;
        let split = self.low + ((range * p0) >> PROB_BITS).clamp(1, range - 1) - 1;
        if bin {
            self.low = split + 1;
        } else {
            self.high = split;
        }
        loop {
            if self.high < HALF {
                self.emit(false);
            } else if self.low >= HALF {
                self.emit(true);
                self.low -= HALF;
                self.high -= HALF;
            } else if self.low >= QUARTER && self.high < THREE_QUARTERS {
                self.pending += 1;
                self.low -= QUARTER;
                self.high -= QUARTER;
            } else {
                break;
            }
            self.low <<= 1;
            self.high = (self.high << 1) | 1;
        }
    }

    /// Flushes the interval state and returns the coded bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.pending += 1;
        let bit = self.low >= QUARTER;
        self.emit(bit);
        // Pad so the decoder's initial 32-bit fill reads real data.
        self.writer.put_bit(true);
        self.writer.finish()
    }
}

/// Arithmetic decoder reading from a byte slice.
///
/// Mirrors [`ArithEncoder`] exactly when the data is intact; on corrupted
/// or truncated data it keeps producing deterministic (garbage) bins.
///
/// Input bits come from a 64-bit window refilled a byte at a time (bytes
/// past the end read as zero), and renormalisation shifts whole runs of
/// bits at once. Both are exact rewrites of the bit-serial
/// Witten–Neal–Cleary loop: `low <= code <= high` holds throughout, so
/// `code` shares every leading bit pattern of `low` and `high` the
/// renormalisation steps test.
#[derive(Debug)]
pub struct ArithDecoder<'a> {
    low: u64,
    high: u64,
    code: u64,
    bytes: &'a [u8],
    /// Next byte to load into the window (may run past the end).
    next: usize,
    /// Unconsumed input bits, MSB first; bits below `avail` are zero.
    window: u64,
    avail: u32,
}

impl<'a> ArithDecoder<'a> {
    /// Creates a decoder over coded bytes.
    pub fn new(bytes: &'a [u8]) -> Self {
        let mut dec = ArithDecoder {
            low: 0,
            high: MASK,
            code: 0,
            bytes,
            next: 0,
            window: 0,
            avail: 0,
        };
        dec.code = dec.take(32);
        dec
    }

    /// Whether the decoder has consumed all real input bits.
    pub fn exhausted(&self) -> bool {
        self.next as u64 * 8 - self.avail as u64 >= self.bytes.len() as u64 * 8
    }

    /// Consumes the next `n` (0..=32) input bits, MSB first.
    #[inline]
    fn take(&mut self, n: u32) -> u64 {
        if self.avail < n {
            while self.avail <= 56 {
                let byte = self.bytes.get(self.next).copied().unwrap_or(0);
                self.window |= (byte as u64) << (56 - self.avail);
                self.avail += 8;
                self.next += 1;
            }
        }
        let bits = (self.window >> 1) >> (63 - n);
        self.window <<= n;
        self.avail -= n;
        bits
    }

    /// Decodes one bin with an adaptive context.
    #[inline]
    pub fn decode(&mut self, ctx: &mut BinContext) -> bool {
        let bin = self.decode_raw(ctx.p0 as u64);
        ctx.update(bin);
        bin
    }

    /// Decodes one bypass bin.
    pub fn decode_bypass(&mut self) -> bool {
        self.decode_raw((PROB_ONE / 2) as u64)
    }

    #[inline]
    fn decode_raw(&mut self, p0: u64) -> bool {
        // Renormalisation leaves `range > QUARTER` and `p0` lies in
        // [32, 4064], so the scaled split is at least `range / 128` from
        // either end and the encoder's `clamp(1, range - 1)` never binds.
        let range = self.high - self.low + 1;
        debug_assert!(range > QUARTER);
        let split = self.low + ((range * p0) >> PROB_BITS) - 1;
        let bin = self.code > split;
        if bin {
            self.low = split + 1;
        } else {
            self.high = split;
        }
        // Renormalise without branching on the data. Leading bits shared by
        // `low` and `high` (the `high < HALF` / `low >= HALF` steps) are
        // settled: shift all `n` out at once.
        let n = ((self.low ^ self.high) as u32).leading_zeros();
        self.low = (self.low << n) & MASK;
        self.high = ((self.high << n) & MASK) | ((1 << n) - 1);
        self.code = ((self.code << n) & MASK) | self.take(n);
        // Now low = 0.., high = 1..; each midpoint-straddling step (low =
        // 01.., high = 10..) keeps the top bit and deletes the next one.
        // The run has one step per leading position with low 1, high 0.
        let k = (!(((self.low & !self.high) as u32) << 1)).leading_zeros();
        self.low = (self.low << k) & (HALF - 1);
        self.high = HALF | ((self.high << k) & (HALF - 1)) | ((1 << k) - 1);
        self.code = (self.code & HALF) | ((self.code << k) & (HALF - 1)) | self.take(k);
        bin
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(bits: &[bool], contexts: usize) {
        let mut enc = ArithEncoder::new();
        let mut ctxs = vec![BinContext::new(); contexts];
        for (i, &b) in bits.iter().enumerate() {
            enc.encode(&mut ctxs[i % contexts], b);
        }
        let bytes = enc.finish();
        let mut dec = ArithDecoder::new(&bytes);
        let mut ctxs = vec![BinContext::new(); contexts];
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(dec.decode(&mut ctxs[i % contexts]), b, "bin {i}");
        }
    }

    #[test]
    fn roundtrip_simple_patterns() {
        roundtrip(&[true, false, true, true, false], 1);
        roundtrip(&vec![false; 500], 1);
        roundtrip(&vec![true; 500], 1);
        let alternating: Vec<bool> = (0..300).map(|i| i % 2 == 0).collect();
        roundtrip(&alternating, 2);
    }

    #[test]
    fn roundtrip_pseudo_random_with_many_contexts() {
        let mut state = 0x12345678u64;
        let bits: Vec<bool> = (0..5000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 40) & 1 == 1
            })
            .collect();
        roundtrip(&bits, 17);
    }

    #[test]
    fn bypass_roundtrip() {
        let mut enc = ArithEncoder::new();
        let bits = [true, true, false, true, false, false, true];
        for &b in &bits {
            enc.encode_bypass(b);
        }
        let bytes = enc.finish();
        let mut dec = ArithDecoder::new(&bytes);
        for &b in &bits {
            assert_eq!(dec.decode_bypass(), b);
        }
    }

    #[test]
    fn skewed_input_compresses() {
        // 1000 zeros with an adaptive context must come out far below
        // 1000 bits — the whole point of arithmetic coding (paper §2.3.4).
        let mut enc = ArithEncoder::new();
        let mut ctx = BinContext::new();
        for _ in 0..1000 {
            enc.encode(&mut ctx, false);
        }
        let bytes = enc.finish();
        assert!(bytes.len() * 8 < 200, "got {} bits", bytes.len() * 8);
    }

    #[test]
    fn adaptation_tracks_statistics() {
        let mut ctx = BinContext::new();
        for _ in 0..100 {
            ctx.update(false);
        }
        assert!(ctx.p0() > 3800, "p0 = {}", ctx.p0());
        for _ in 0..100 {
            ctx.update(true);
        }
        assert!(ctx.p0() < 300, "p0 = {}", ctx.p0());
    }

    #[test]
    fn truncated_stream_decodes_deterministically() {
        let mut enc = ArithEncoder::new();
        let mut ctx = BinContext::new();
        for i in 0..200 {
            enc.encode(&mut ctx, i % 3 == 0);
        }
        let mut bytes = enc.finish();
        bytes.truncate(bytes.len() / 2);
        // Two decoders over the same truncated data agree bin-for-bin.
        let mut d1 = ArithDecoder::new(&bytes);
        let mut d2 = ArithDecoder::new(&bytes);
        let mut c1 = BinContext::new();
        let mut c2 = BinContext::new();
        for _ in 0..200 {
            assert_eq!(d1.decode(&mut c1), d2.decode(&mut c2));
        }
    }

    #[test]
    fn corrupted_bit_changes_downstream_bins() {
        // A flip early in the buffer must change decoded bins (error
        // propagation through the entropy coder, paper §3).
        let mut enc = ArithEncoder::new();
        let mut ctx = BinContext::new();
        let bits: Vec<bool> = (0..400).map(|i| (i * 7) % 5 == 0).collect();
        for &b in &bits {
            enc.encode(&mut ctx, b);
        }
        let clean = enc.finish();
        let mut dirty = clean.clone();
        dirty[1] ^= 0x10;
        let mut dd = ArithDecoder::new(&dirty);
        let mut cd = BinContext::new();
        let decoded: Vec<bool> = (0..400).map(|_| dd.decode(&mut cd)).collect();
        assert_ne!(decoded, bits);
    }

    #[test]
    fn bit_pos_is_monotone() {
        let mut enc = ArithEncoder::new();
        let mut ctx = BinContext::new();
        let mut last = 0;
        for i in 0..500 {
            enc.encode(&mut ctx, i % 11 == 0);
            let pos = enc.bit_pos();
            assert!(pos >= last);
            last = pos;
        }
    }
}
