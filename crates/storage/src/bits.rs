//! The word-backed [`BitBuf`] (LSB-first within a word).
//!
//! The storage stack moves data around as packed bit vectors: BCH
//! codewords are not byte multiples (512 data + 10·X parity bits), and MLC
//! cells hold three bits each. `BitBuf` is backed by `Vec<u64>` so the hot
//! paths (cell packing, hamming distances) run on machine words: 64 bits
//! per shift/xor/popcount instead of one bit per loop iteration.

/// A fixed-length, bit-addressed buffer backed by 64-bit words.
///
/// Bit `i` lives in word `i / 64` at position `i % 64` (LSB-first).
/// Invariant: bits at or past `len` in the last word are zero (every
/// write is range-checked), so equality, hashing and hamming
/// distances need no tail masking.
///
/// # Example
///
/// ```
/// use vapp_storage::bits::BitBuf;
///
/// let mut b = BitBuf::zeroed(3);
/// b.set(0, true);
/// b.flip(2);
/// assert_eq!(b.len(), 3);
/// assert!(b.get(0));
/// assert!(!b.get(1));
/// assert_eq!(b.hamming_distance(&BitBuf::zeroed(3)), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct BitBuf {
    words: Vec<u64>,
    len: usize,
}

impl BitBuf {
    /// Creates a zeroed buffer of `bits` bits.
    pub fn zeroed(bits: usize) -> Self {
        BitBuf {
            words: vec![0u64; bits.div_ceil(64)],
            len: bits,
        }
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_flip() {
        let mut b = BitBuf::zeroed(70);
        assert_eq!(b.len(), 70);
        assert!((0..70).all(|i| !b.get(i)));
        for i in (0..70).filter(|i| i % 3 == 0) {
            b.set(i, true);
        }
        for i in 0..70 {
            assert_eq!(b.get(i), i % 3 == 0, "bit {i}");
        }
        b.set(1, true);
        assert!(b.get(1));
        b.flip(1);
        assert!(!b.get(1));
        b.flip(68);
        assert!(b.get(68));
        b.set(0, false);
        assert!(!b.get(0));
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
}
