//! The entropy-coding layer: one symbol API, two coders.
//!
//! H.264 offers two entropy coders (paper §2.3.4): CABAC (context-adaptive
//! binary arithmetic coding — denser, fragile) and CAVLC (variable-length
//! codes — cheaper, more error-tolerant). The encoder and decoder are
//! generic over [`SymbolWriter`] / [`SymbolReader`]; [`CabacWriter`] models
//! the former with per-element adaptive contexts (including
//! neighbour-conditioned context increments), [`CavlcWriter`] the latter
//! with Exp-Golomb codes.
//!
//! Contexts are created fresh per frame (or per slice), which is what
//! resynchronises the entropy decoder at frame boundaries (§3).

use crate::arith::{ArithDecoder, ArithEncoder, BinContext};
use crate::bitstream::{BitReader, BitWriter};
use crate::expgolomb;

/// Syntax-element categories. Each gets its own context set; `inc` (the
/// context increment, derived from neighbouring macroblocks) selects within
/// the set, mirroring CABAC's neighbour-conditioned context modelling.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Element {
    /// P/B macroblock skip flag (inc: number of non-skipped neighbours).
    Skip,
    /// Intra-vs-inter flag in P/B frames (inc: intra neighbours).
    Intra,
    /// Intra 16x16 prediction mode.
    IntraMode,
    /// Intra partition flag: 16x16 (0) vs 4x4 (1).
    Intra4,
    /// Intra 4x4 prediction mode of one block.
    Intra4Mode,
    /// Inter partition shape.
    PartShape,
    /// 8x8 sub-partition shape.
    SubShape,
    /// B-frame prediction direction (forward/backward/bi).
    PredDir,
    /// Motion-vector difference, x component (inc: neighbour MVD class).
    MvdX,
    /// Motion-vector difference, y component.
    MvdY,
    /// Per-macroblock quantiser delta.
    QpDelta,
    /// Coded-block-pattern bit for one 8x8 (inc: 8x8 index).
    Cbp,
    /// "This 4x4 block has coefficients" flag.
    Blk4,
    /// Significance flag (inc: coefficient position).
    Sig,
    /// Last-significant flag (inc: coefficient position).
    Last,
    /// Coefficient level magnitude.
    Level,
}

/// (number of context increments, number of context-coded bins) per
/// element, indexed by `Element as usize` (declaration order).
const DIMS: [(usize, usize); 16] = [
    (3, 1),  // Skip
    (3, 1),  // Intra
    (1, 3),  // IntraMode
    (1, 1),  // Intra4
    (1, 3),  // Intra4Mode
    (1, 3),  // PartShape
    (1, 3),  // SubShape
    (1, 2),  // PredDir
    (3, 5),  // MvdX
    (3, 5),  // MvdY
    (1, 3),  // QpDelta
    (4, 1),  // Cbp
    (4, 1),  // Blk4
    (15, 1), // Sig
    (15, 1), // Last
    (2, 5),  // Level
];

/// First context slot of each element; the last entry is the table size.
const OFFSETS: [usize; 17] = {
    let mut out = [0; 17];
    let mut i = 0;
    while i < 16 {
        out[i + 1] = out[i] + DIMS[i].0 * DIMS[i].1;
        i += 1;
    }
    out
};

/// Truncated-unary prefix length before switching to the Exp-Golomb escape
/// in `put_uint`/`get_uint` (UEG0 binarisation, as CABAC uses for MVD).
const TU_LIMIT: u32 = 4;
/// Cap on Exp-Golomb escape prefixes when decoding corrupt data.
const MAX_EG_PREFIX: u32 = 32;

/// Context table shared by the CABAC writer and reader; layout must match
/// on both sides. Each element owns `incs * bins` consecutive slots from
/// its [`OFFSETS`] entry, so a lookup is two table reads.
#[derive(Clone, Debug)]
struct ContextTable {
    ctxs: [BinContext; OFFSETS[16]],
}

impl ContextTable {
    fn new() -> Self {
        ContextTable {
            ctxs: [BinContext::new(); OFFSETS[16]],
        }
    }

    #[inline]
    fn index(el: Element, inc: usize, bin: usize) -> usize {
        let (incs, bins) = DIMS[el as usize];
        OFFSETS[el as usize] + inc.min(incs - 1) * bins + bin.min(bins - 1)
    }

    #[inline]
    fn ctx_mut(&mut self, el: Element, inc: usize, bin: usize) -> &mut BinContext {
        &mut self.ctxs[Self::index(el, inc, bin)]
    }
}

/// Writes syntax symbols into a coded payload.
pub trait SymbolWriter {
    /// Writes a flag for element `el` with context increment `inc`.
    fn put_flag(&mut self, el: Element, inc: usize, bit: bool);
    /// Writes an unsigned value.
    fn put_uint(&mut self, el: Element, inc: usize, value: u32);
    /// Writes a signed value.
    fn put_sint(&mut self, el: Element, inc: usize, value: i32) {
        self.put_uint(el, inc, value.unsigned_abs());
        if value != 0 {
            self.put_sign(value < 0);
        }
    }
    /// Writes a raw sign/bypass bit.
    fn put_sign(&mut self, negative: bool);
    /// Bits produced so far (monotone; used for macroblock bit spans).
    fn bit_pos(&self) -> u64;
    /// Binary decisions coded so far (CABAC bins, or emitted VLC bits) —
    /// feeds the `codec.arith.bins` observability counter.
    fn bins_coded(&self) -> u64;
    /// Flushes and returns the payload bytes.
    fn finish(self) -> Vec<u8>;
}

/// Reads syntax symbols from a coded payload. Total: corrupt or truncated
/// data yields deterministic garbage values, never an error.
pub trait SymbolReader {
    /// Reads a flag.
    fn get_flag(&mut self, el: Element, inc: usize) -> bool;
    /// Reads an unsigned value (unclamped; caller clamps to its domain).
    fn get_uint(&mut self, el: Element, inc: usize) -> u32;
    /// Reads a signed value.
    fn get_sint(&mut self, el: Element, inc: usize) -> i32 {
        let mag = self.get_uint(el, inc);
        if mag == 0 {
            return 0;
        }
        let neg = self.get_sign();
        let v = mag.min(i32::MAX as u32) as i32;
        if neg {
            -v
        } else {
            v
        }
    }
    /// Reads a raw sign/bypass bit.
    fn get_sign(&mut self) -> bool;
    /// Whether all real input bits have been consumed.
    fn exhausted(&self) -> bool;
}

// ---------------------------------------------------------------- CABAC --

/// CABAC-style writer: adaptive binary arithmetic coding with per-element
/// contexts.
#[derive(Debug)]
pub struct CabacWriter {
    enc: ArithEncoder,
    table: ContextTable,
}

impl Default for CabacWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl CabacWriter {
    /// Creates a writer with fresh (unbiased) contexts.
    pub fn new() -> Self {
        CabacWriter {
            enc: ArithEncoder::new(),
            table: ContextTable::new(),
        }
    }

    fn put_ueg(&mut self, el: Element, inc: usize, value: u32) {
        // Truncated-unary prefix, context coded per bin.
        let prefix = value.min(TU_LIMIT);
        for bin in 0..prefix {
            let ctx = self.table.ctx_mut(el, inc, bin as usize);
            self.enc.encode(ctx, true);
        }
        if prefix < TU_LIMIT {
            let ctx = self.table.ctx_mut(el, inc, prefix as usize);
            self.enc.encode(ctx, false);
            return;
        }
        // Exp-Golomb order-0 escape in bypass bins.
        let rest = (value - TU_LIMIT) as u64 + 1;
        let n = 64 - rest.leading_zeros();
        for _ in 0..n - 1 {
            self.enc.encode_bypass(true);
        }
        self.enc.encode_bypass(false);
        for i in (0..n - 1).rev() {
            self.enc.encode_bypass((rest >> i) & 1 == 1);
        }
    }
}

impl SymbolWriter for CabacWriter {
    fn put_flag(&mut self, el: Element, inc: usize, bit: bool) {
        let ctx = self.table.ctx_mut(el, inc, 0);
        self.enc.encode(ctx, bit);
    }

    fn put_uint(&mut self, el: Element, inc: usize, value: u32) {
        self.put_ueg(el, inc, value);
    }

    fn put_sign(&mut self, negative: bool) {
        self.enc.encode_bypass(negative);
    }

    fn bit_pos(&self) -> u64 {
        self.enc.bit_pos()
    }

    fn bins_coded(&self) -> u64 {
        self.enc.bins_coded()
    }

    fn finish(self) -> Vec<u8> {
        self.enc.finish()
    }
}

/// CABAC-style reader.
#[derive(Debug)]
pub struct CabacReader<'a> {
    dec: ArithDecoder<'a>,
    table: ContextTable,
}

impl<'a> CabacReader<'a> {
    /// Creates a reader with fresh contexts over payload bytes.
    pub fn new(bytes: &'a [u8]) -> Self {
        CabacReader {
            dec: ArithDecoder::new(bytes),
            table: ContextTable::new(),
        }
    }

    fn get_ueg(&mut self, el: Element, inc: usize) -> u32 {
        let mut prefix = 0u32;
        while prefix < TU_LIMIT {
            let ctx = self.table.ctx_mut(el, inc, prefix as usize);
            if !self.dec.decode(ctx) {
                return prefix;
            }
            prefix += 1;
        }
        // Escape: Exp-Golomb order 0 in bypass.
        let mut ones = 0u32;
        while self.dec.decode_bypass() {
            ones += 1;
            if ones >= MAX_EG_PREFIX {
                break;
            }
        }
        let mut rest: u64 = 1;
        for _ in 0..ones {
            rest = (rest << 1) | self.dec.decode_bypass() as u64;
        }
        (TU_LIMIT as u64 + rest - 1).min(u32::MAX as u64) as u32
    }
}

impl<'a> SymbolReader for CabacReader<'a> {
    fn get_flag(&mut self, el: Element, inc: usize) -> bool {
        self.dec.decode(self.table.ctx_mut(el, inc, 0))
    }

    fn get_uint(&mut self, el: Element, inc: usize) -> u32 {
        self.get_ueg(el, inc)
    }

    fn get_sign(&mut self) -> bool {
        self.dec.decode_bypass()
    }

    fn exhausted(&self) -> bool {
        self.dec.exhausted()
    }
}

// ---------------------------------------------------------------- CAVLC --

/// CAVLC-style writer: plain bits and Exp-Golomb codes (no adaptive
/// contexts, integral code lengths, better error resilience).
#[derive(Debug, Default)]
pub struct CavlcWriter {
    writer: BitWriter,
}

impl CavlcWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SymbolWriter for CavlcWriter {
    fn put_flag(&mut self, _el: Element, _inc: usize, bit: bool) {
        self.writer.put_bit(bit);
    }

    fn put_uint(&mut self, _el: Element, _inc: usize, value: u32) {
        expgolomb::write_ue(&mut self.writer, value);
    }

    fn put_sign(&mut self, negative: bool) {
        self.writer.put_bit(negative);
    }

    fn bit_pos(&self) -> u64 {
        self.writer.bit_len()
    }

    fn bins_coded(&self) -> u64 {
        // Every emitted VLC bit is one binary decision.
        self.writer.bit_len()
    }

    fn finish(self) -> Vec<u8> {
        self.writer.finish()
    }
}

/// CAVLC-style reader.
#[derive(Debug)]
pub struct CavlcReader<'a> {
    reader: BitReader<'a>,
}

impl<'a> CavlcReader<'a> {
    /// Creates a reader over payload bytes.
    pub fn new(bytes: &'a [u8]) -> Self {
        CavlcReader {
            reader: BitReader::new(bytes),
        }
    }
}

impl<'a> SymbolReader for CavlcReader<'a> {
    fn get_flag(&mut self, _el: Element, _inc: usize) -> bool {
        self.reader.get_bit()
    }

    fn get_uint(&mut self, _el: Element, _inc: usize) -> u32 {
        expgolomb::read_ue(&mut self.reader)
    }

    fn get_sign(&mut self) -> bool {
        self.reader.get_bit()
    }

    fn exhausted(&self) -> bool {
        self.reader.exhausted()
    }
}

/// Which entropy coder a stream uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EntropyMode {
    /// Context-adaptive binary arithmetic coding (denser, error-fragile).
    #[default]
    Cabac,
    /// Variable-length (Exp-Golomb) coding (cheaper, error-tolerant).
    Cavlc,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn symbol_roundtrip<W, FR>(mut w: W, mk_reader: FR)
    where
        W: SymbolWriter,
        FR: FnOnce(Vec<u8>) -> Box<dyn FnMut(&mut dyn FnMut(&mut dyn SymbolReader))>,
    {
        let script: Vec<(Element, usize, i64, bool)> = vec![
            (Element::Skip, 0, 1, true),
            (Element::Skip, 2, 0, true),
            (Element::MvdX, 1, -17, false),
            (Element::MvdY, 0, 3, false),
            (Element::Level, 0, 255, false),
            (Element::QpDelta, 0, -2, false),
            (Element::Cbp, 3, 1, true),
            (Element::Sig, 7, 0, true),
            (Element::MvdX, 2, 1000, false),
        ];
        for &(el, inc, v, is_flag) in &script {
            if is_flag {
                w.put_flag(el, inc, v != 0);
            } else {
                w.put_sint(el, inc, v as i32);
            }
        }
        let bytes = w.finish();
        let mut run = mk_reader(bytes);
        run(&mut |r: &mut dyn SymbolReader| {
            for &(el, inc, v, is_flag) in &script {
                if is_flag {
                    assert_eq!(r.get_flag(el, inc), v != 0, "{el:?}");
                } else {
                    assert_eq!(r.get_sint(el, inc), v as i32, "{el:?}");
                }
            }
        });
    }

    /// The original layout: offsets accumulated over the elements in
    /// declaration order, each lookup a linear search by element.
    fn legacy_index(el: Element, inc: usize, bin: usize) -> usize {
        let dims = |e: Element| match e {
            Element::Skip | Element::Intra => (3, 1),
            Element::IntraMode
            | Element::Intra4Mode
            | Element::PartShape
            | Element::SubShape
            | Element::QpDelta => (1, 3),
            Element::Intra4 => (1, 1),
            Element::PredDir => (1, 2),
            Element::MvdX | Element::MvdY => (3, 5),
            Element::Cbp | Element::Blk4 => (4, 1),
            Element::Sig | Element::Last => (15, 1),
            Element::Level => (2, 5),
        };
        let mut offsets = Vec::new();
        let mut total = 0;
        for e in ALL_ELEMENTS {
            let (incs, bins) = dims(e);
            offsets.push((e, total, incs, bins));
            total += incs * bins;
        }
        let &(_, offset, incs, bins) = offsets.iter().find(|&&(e, ..)| e == el).unwrap();
        offset + inc.min(incs - 1) * bins + bin.min(bins - 1)
    }

    const ALL_ELEMENTS: [Element; 16] = [
        Element::Skip,
        Element::Intra,
        Element::IntraMode,
        Element::Intra4,
        Element::Intra4Mode,
        Element::PartShape,
        Element::SubShape,
        Element::PredDir,
        Element::MvdX,
        Element::MvdY,
        Element::QpDelta,
        Element::Cbp,
        Element::Blk4,
        Element::Sig,
        Element::Last,
        Element::Level,
    ];

    #[test]
    fn array_indexed_contexts_match_the_legacy_layout() {
        let mut slots = std::collections::BTreeSet::new();
        for el in ALL_ELEMENTS {
            // Out-of-range increments and bins clamp to the last slot.
            for inc in 0..20 {
                for bin in 0..8 {
                    let i = ContextTable::index(el, inc, bin);
                    assert_eq!(i, legacy_index(el, inc, bin), "{el:?} inc {inc} bin {bin}");
                    slots.insert(i);
                }
            }
        }
        // Every slot is reachable and the table has no spare slots.
        assert_eq!(slots.len(), OFFSETS[16]);
        assert_eq!(slots.last(), Some(&(OFFSETS[16] - 1)));
    }

    #[test]
    fn cabac_symbol_roundtrip() {
        symbol_roundtrip(CabacWriter::new(), |bytes| {
            Box::new(move |f| {
                let mut r = CabacReader::new(&bytes);
                f(&mut r);
            })
        });
    }

    #[test]
    fn cavlc_symbol_roundtrip() {
        symbol_roundtrip(CavlcWriter::new(), |bytes| {
            Box::new(move |f| {
                let mut r = CavlcReader::new(&bytes);
                f(&mut r);
            })
        });
    }

    #[test]
    fn cabac_uint_roundtrip_wide_range() {
        let values = [0u32, 1, 2, 3, 4, 5, 9, 20, 100, 5000, 1 << 20];
        let mut w = CabacWriter::new();
        for &v in &values {
            w.put_uint(Element::Level, 1, v);
        }
        let bytes = w.finish();
        let mut r = CabacReader::new(&bytes);
        for &v in &values {
            assert_eq!(r.get_uint(Element::Level, 1), v);
        }
    }

    #[test]
    fn cabac_learns_and_beats_cavlc_on_skewed_flags() {
        // 2000 mostly-false skip flags: CABAC's adaptive contexts should
        // compress far below CAVLC's one-bit-per-flag floor (paper: CABAC
        // gives up to 15% better compression).
        let flags: Vec<bool> = (0..2000).map(|i| i % 50 == 0).collect();
        let mut cw = CabacWriter::new();
        let mut vw = CavlcWriter::new();
        for &f in &flags {
            cw.put_flag(Element::Skip, 0, f);
            vw.put_flag(Element::Skip, 0, f);
        }
        let cl = cw.finish().len();
        let vl = vw.finish().len();
        assert!(cl * 2 < vl, "cabac {cl}B vs cavlc {vl}B");
    }

    #[test]
    fn context_increments_are_independent() {
        // Different `inc` values must use distinct adaptive state: train
        // inc 0 toward ones, inc 2 toward zeros, and verify both decode.
        let mut w = CabacWriter::new();
        for _ in 0..100 {
            w.put_flag(Element::Intra, 0, true);
            w.put_flag(Element::Intra, 2, false);
        }
        let bytes = w.finish();
        let mut r = CabacReader::new(&bytes);
        for _ in 0..100 {
            assert!(r.get_flag(Element::Intra, 0));
            assert!(!r.get_flag(Element::Intra, 2));
        }
    }

    #[test]
    fn out_of_range_inc_is_clamped_not_panicking() {
        let mut w = CabacWriter::new();
        w.put_flag(Element::Skip, 99, true);
        let bytes = w.finish();
        let mut r = CabacReader::new(&bytes);
        assert!(r.get_flag(Element::Skip, 99));
    }

    #[test]
    fn corrupt_cabac_payload_reads_totally() {
        let mut w = CabacWriter::new();
        for i in 0..300 {
            w.put_sint(Element::MvdX, i % 3, (i as i32 % 7) - 3);
        }
        let mut bytes = w.finish();
        for b in bytes.iter_mut() {
            *b ^= 0xA5;
        }
        let mut r = CabacReader::new(&bytes);
        for i in 0..300 {
            let _ = r.get_sint(Element::MvdX, i % 3); // must not panic/hang
        }
    }
}
