//! The word-backed [`BitBuf`] (LSB-first within a word) plus size and
//! transpose helpers.
//!
//! The storage stack moves data around as packed bit vectors: BCH
//! codewords are not byte multiples (512 data + 10·X parity bits), and MLC
//! cells hold three bits each. `BitBuf` is backed by `Vec<u64>` so the hot
//! paths (BCH encode/decode, hamming distances, cell packing) run on
//! machine words: 64 bits per shift/xor/popcount instead of one bit per
//! loop iteration.

/// Number of bytes needed for `bits` bits.
#[inline]
pub fn bytes_for(bits: usize) -> usize {
    bits.div_ceil(8)
}

/// Number of 64-bit words needed for `bits` bits.
#[inline]
pub fn words_for(bits: usize) -> usize {
    bits.div_ceil(64)
}

/// A growable, bit-addressed buffer backed by 64-bit words.
///
/// Bit `i` lives in word `i / 64` at position `i % 64` (LSB-first), which
/// byte-for-byte matches the old `Vec<u8>` LSB-first layout on any
/// little-endian serialization. Invariant: bits at or past `len` in the
/// last word are zero, so equality, hashing, popcounts and hamming
/// distances need no tail masking.
///
/// # Example
///
/// ```
/// use vapp_storage::bits::BitBuf;
///
/// let mut b = BitBuf::new();
/// b.push(true);
/// b.push(false);
/// b.push(true);
/// assert_eq!(b.len(), 3);
/// assert!(b.get(0));
/// assert!(!b.get(1));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct BitBuf {
    words: Vec<u64>,
    len: usize,
}

impl BitBuf {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a zeroed buffer of `bits` bits.
    pub fn zeroed(bits: usize) -> Self {
        BitBuf {
            words: vec![0u64; words_for(bits)],
            len: bits,
        }
    }

    /// Builds a buffer from the low `bits` bits of `bytes` (LSB-first
    /// within each byte). Bits past `bits` are dropped.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is too short for `bits`.
    pub fn from_bytes(bytes: &[u8], bits: usize) -> Self {
        assert!(bytes.len() * 8 >= bits, "byte buffer too short");
        let used = &bytes[..bytes_for(bits)];
        let mut words = vec![0u64; words_for(bits)];
        for (w, chunk) in words.iter_mut().zip(used.chunks(8)) {
            let mut le = [0u8; 8];
            le[..chunk.len()].copy_from_slice(chunk);
            *w = u64::from_le_bytes(le);
        }
        let mut out = BitBuf { words, len: bits };
        out.mask_tail();
        out
    }

    /// Builds a buffer directly from words (bit `i` of the buffer = bit
    /// `i % 64` of `words[i / 64]`). Bits past `bits` are masked off.
    ///
    /// # Panics
    ///
    /// Panics if `words` is too short for `bits`.
    pub fn from_words(words: Vec<u64>, bits: usize) -> Self {
        assert!(words.len() >= words_for(bits), "word buffer too short");
        let mut words = words;
        words.truncate(words_for(bits));
        let mut out = BitBuf { words, len: bits };
        out.mask_tail();
        out
    }

    /// Zeroes any bits at or past `len` in the last word.
    #[inline]
    fn mask_tail(&mut self) {
        let r = self.len % 64;
        if r != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << r) - 1;
            }
        }
    }

    /// The backing words (bits past `len` in the last word are zero).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of bits stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index out of range");
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, v: bool) {
        assert!(i < self.len, "bit index out of range");
        if v {
            self.words[i / 64] |= 1u64 << (i % 64);
        } else {
            self.words[i / 64] &= !(1u64 << (i % 64));
        }
    }

    /// Flips bit `i` (a single word-level xor).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn flip(&mut self, i: usize) {
        assert!(i < self.len, "bit index out of range");
        self.words[i / 64] ^= 1u64 << (i % 64);
    }

    /// Appends one bit.
    pub fn push(&mut self, v: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        if v {
            self.words[self.len / 64] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Reads `n` bits starting at `i` as an integer (bit `i` in the low
    /// position), `1 <= n <= 64`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or `n` is not in `1..=64`.
    #[inline]
    pub fn get_bits(&self, i: usize, n: usize) -> u64 {
        assert!((1..=64).contains(&n), "n must be 1..=64");
        assert!(i + n <= self.len, "bit range out of bounds");
        let w = i / 64;
        let s = i % 64;
        let mut v = self.words[w] >> s;
        if s != 0 && s + n > 64 {
            v |= self.words[w + 1] << (64 - s);
        }
        if n < 64 {
            v &= (1u64 << n) - 1;
        }
        v
    }

    /// Writes the low `n` bits of `v` starting at bit `i`, `1 <= n <= 64`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or `n` is not in `1..=64`.
    #[inline]
    pub fn set_bits(&mut self, i: usize, n: usize, v: u64) {
        assert!((1..=64).contains(&n), "n must be 1..=64");
        assert!(i + n <= self.len, "bit range out of bounds");
        let mask = if n < 64 { (1u64 << n) - 1 } else { !0u64 };
        let v = v & mask;
        let w = i / 64;
        let s = i % 64;
        self.words[w] = (self.words[w] & !(mask << s)) | (v << s);
        if s != 0 && s + n > 64 {
            let spill = s + n - 64; // bits landing in the next word
            let hi_mask = (1u64 << spill) - 1;
            self.words[w + 1] = (self.words[w + 1] & !hi_mask) | (v >> (64 - s));
        }
    }

    /// Appends the low `n` bits of `v`, `1 <= n <= 64`.
    fn push_bits(&mut self, v: u64, n: usize) {
        debug_assert!((1..=64).contains(&n));
        let v = if n < 64 { v & ((1u64 << n) - 1) } else { v };
        let o = self.len % 64;
        if o == 0 {
            self.words.push(v);
        } else {
            let last = self.words.len() - 1;
            self.words[last] |= v << o;
            if o + n > 64 {
                self.words.push(v >> (64 - o));
            }
        }
        self.len += n;
    }

    /// Appends `count` bits from `other` starting at `from`, copying up
    /// to 64 bits per step (word-shift, not bit-by-bit).
    ///
    /// # Panics
    ///
    /// Panics if the source range is out of bounds.
    pub fn extend_from(&mut self, other: &BitBuf, from: usize, count: usize) {
        assert!(from + count <= other.len, "source range out of bounds");
        self.words.reserve(words_for(count) + 1);
        let mut done = 0;
        while done < count {
            let n = (count - done).min(64);
            self.push_bits(other.get_bits(from + done, n), n);
            done += n;
        }
    }

    /// The packed little-endian bytes (trailing bits of the last byte are
    /// zero).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(bytes_for(self.len));
        for &w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.truncate(bytes_for(self.len));
        out
    }

    /// XORs `other` into `self`, word by word.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn xor_with(&mut self, other: &BitBuf) {
        assert_eq!(self.len, other.len, "length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= b;
        }
    }

    /// Number of set bits (word-level popcount).
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over the indices of set bits via `trailing_zeros`, so the
    /// cost scales with the popcount, not the length.
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes {
            words: &self.words,
            word_idx: 0,
            cur: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Number of bits that differ from `other` (vectorized xor+popcount;
    /// the tail invariant makes padding self-cancelling).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn hamming_distance(&self, other: &BitBuf) -> usize {
        assert_eq!(self.len, other.len, "length mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// Bit-at-a-time `extend_from` — the pre-word-level reference
    /// implementation, kept for equivalence property tests.
    #[cfg(test)]
    pub(crate) fn extend_from_bitwise(&mut self, other: &BitBuf, from: usize, count: usize) {
        assert!(from + count <= other.len, "source range out of bounds");
        for i in 0..count {
            self.push(other.get(from + i));
        }
    }
}

/// Transposes a 64×64 bit matrix in place: on return, bit `i` of
/// `m[j]` equals bit `j` of the input's `m[i]` (LSB-first columns).
///
/// This is the struct-of-arrays pivot behind the batch BCH kernels: 64
/// codeword words (one per block) become 64 bit-planes (one per bit
/// position), so a whole batch advances with single `u64` ops per bit
/// position. Recursive block swaps (Hacker's Delight §7-3, adapted to
/// the LSB-first column convention), six passes of masked exchanges.
pub fn transpose64(m: &mut [u64; 64]) {
    let mut j = 32usize;
    let mut mask: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0usize;
        while k < 64 {
            let t = ((m[k] >> j) ^ m[k + j]) & mask;
            m[k] ^= t << j;
            m[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

/// Iterator over set-bit indices of a [`BitBuf`].
pub struct IterOnes<'a> {
    words: &'a [u64],
    word_idx: usize,
    cur: u64,
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.cur == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.cur = self.words[self.word_idx];
        }
        let tz = self.cur.trailing_zeros() as usize;
        self.cur &= self.cur - 1;
        Some(self.word_idx * 64 + tz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_set() {
        let mut b = BitBuf::new();
        for i in 0..20 {
            b.push(i % 3 == 0);
        }
        assert_eq!(b.len(), 20);
        for i in 0..20 {
            assert_eq!(b.get(i), i % 3 == 0);
        }
        b.set(1, true);
        assert!(b.get(1));
        b.flip(1);
        assert!(!b.get(1));
    }

    #[test]
    fn zeroed_and_from_bytes() {
        let z = BitBuf::zeroed(17);
        assert_eq!(z.len(), 17);
        assert!((0..17).all(|i| !z.get(i)));
        let f = BitBuf::from_bytes(&[0b0000_0101, 0xFF], 10);
        assert!(f.get(0));
        assert!(!f.get(1));
        assert!(f.get(2));
        assert!(f.get(8));
    }

    #[test]
    fn from_bytes_masks_bits_past_len() {
        // Bits 10..16 of the source are set but past `len`: they must not
        // leak into equality or popcounts.
        let dirty = BitBuf::from_bytes(&[0x00, 0xFF], 10);
        let mut clean = BitBuf::zeroed(10);
        clean.set(8, true);
        clean.set(9, true);
        assert_eq!(dirty, clean);
        assert_eq!(dirty.count_ones(), 2);
    }

    #[test]
    fn from_words_and_words_round_trip() {
        let b = BitBuf::from_words(vec![0xDEAD_BEEF_0123_4567, 0xFFFF], 70);
        assert_eq!(b.words().len(), 2);
        assert_eq!(b.words()[0], 0xDEAD_BEEF_0123_4567);
        assert_eq!(b.words()[1], 0x3F, "tail masked to 6 bits");
        assert_eq!(BitBuf::from_words(b.words().to_vec(), 70), b);
    }

    #[test]
    fn get_set_bits_cross_word_boundaries() {
        let mut b = BitBuf::zeroed(200);
        b.set_bits(60, 10, 0b10_1101_0111);
        assert_eq!(b.get_bits(60, 10), 0b10_1101_0111);
        for (i, expect) in [(60, true), (61, true), (62, true), (63, false)] {
            assert_eq!(b.get(i), expect, "bit {i}");
        }
        b.set_bits(64, 64, u64::MAX);
        assert_eq!(b.get_bits(64, 64), u64::MAX);
        assert_eq!(b.get_bits(100, 1), 1);
        b.set_bits(60, 10, 0);
        // Bits 60..70 are now clear and 70..128 still set, so the 64-bit
        // window at 32 sees ones only at result positions 38..=63.
        assert_eq!(b.get_bits(32, 64), u64::MAX << 38);
    }

    #[test]
    fn extend_from_copies_ranges() {
        let mut a = BitBuf::new();
        for i in 0..16 {
            a.push(i % 2 == 0);
        }
        let mut b = BitBuf::new();
        b.extend_from(&a, 4, 8);
        assert_eq!(b.len(), 8);
        for i in 0..8 {
            assert_eq!(b.get(i), (i + 4) % 2 == 0);
        }
    }

    #[test]
    fn extend_from_matches_bitwise_reference() {
        // Word-shift copies against the bit-at-a-time reference over
        // random offsets, lengths and starting alignments.
        vapp_check::check("extend_from_matches_bitwise_reference", 128, |rng| {
            use vapp_check::RngExt;
            let src_bits = rng.random_range(1..400usize);
            let mut src = BitBuf::zeroed(src_bits);
            for i in 0..src_bits {
                if rng.random::<bool>() {
                    src.set(i, true);
                }
            }
            let from = rng.random_range(0..src_bits);
            let count = rng.random_range(0..=(src_bits - from));
            let pre = rng.random_range(0..100usize);
            let mut fast = BitBuf::zeroed(pre);
            let mut slow = fast.clone();
            fast.extend_from(&src, from, count);
            slow.extend_from_bitwise(&src, from, count);
            assert_eq!(fast, slow, "pre={pre} from={from} count={count}");
        });
    }

    #[test]
    fn to_bytes_matches_bit_layout() {
        let mut b = BitBuf::zeroed(19);
        b.set(0, true);
        b.set(9, true);
        b.set(18, true);
        assert_eq!(b.to_bytes(), vec![0b0000_0001, 0b0000_0010, 0b0000_0100]);
    }

    #[test]
    fn xor_count_and_iter_ones() {
        let mut a = BitBuf::zeroed(130);
        let mut b = BitBuf::zeroed(130);
        a.set(0, true);
        a.set(64, true);
        a.set(129, true);
        b.set(64, true);
        assert_eq!(a.count_ones(), 3);
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![0, 64, 129]);
        a.xor_with(&b);
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![0, 129]);
        assert_eq!(BitBuf::zeroed(70).iter_ones().next(), None);
    }

    #[test]
    fn hamming_distance_ignores_padding() {
        let mut a = BitBuf::zeroed(9);
        let mut b = BitBuf::zeroed(9);
        a.set(8, true);
        assert_eq!(a.hamming_distance(&b), 1);
        b.set(8, true);
        assert_eq!(a.hamming_distance(&b), 0);
        a.set(0, true);
        assert_eq!(a.hamming_distance(&b), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        BitBuf::zeroed(4).get(4);
    }

    #[test]
    fn transpose64_matches_naive_and_is_involution() {
        vapp_check::check("transpose64_matches_naive", 32, |rng| {
            use vapp_check::RngExt;
            let mut m = [0u64; 64];
            for w in m.iter_mut() {
                *w = rng.random::<u64>();
            }
            let original = m;
            transpose64(&mut m);
            // Indexing both matrices by (i, j) is the statement of the
            // transpose property itself.
            #[allow(clippy::needless_range_loop)]
            for i in 0..64 {
                for j in 0..64 {
                    assert_eq!(
                        (m[j] >> i) & 1,
                        (original[i] >> j) & 1,
                        "bit ({i},{j}) misplaced"
                    );
                }
            }
            transpose64(&mut m);
            assert_eq!(m, original, "transpose must be an involution");
        });
    }
}
