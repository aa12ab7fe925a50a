//! A fixed-capacity block bank: the physical device handle the archive
//! layer shards over.
//!
//! A [`Bank`] is one independent failure/capacity domain: a flat array
//! of 512-bit blocks ([`BLOCK_BYTES`] each) on one error [`Substrate`].
//! Writes land pristine; damage is applied on *read* through
//! [`Bank::decode_read`], which hands the read-back copy to the bank's
//! substrate with the caller's protection strength and seed — so a read
//! is a pure function of `(stored bytes, bits, t, seed)` and re-reading
//! (e.g. after a cache eviction) reproduces the same corrected bytes.
//! On the i.i.d. substrates the exact path decodes in 64-block batch
//! groups (see [`crate::batch`]).
//!
//! Extent bookkeeping (what lives where) is deliberately *not* here:
//! the archive's namespace owns placement, the bank owns bytes.

use std::sync::Arc;

use crate::bch::DATA_BITS;
use crate::channel::{CorruptTally, Substrate};

/// Bytes per bank block (one 512-bit BCH data block).
pub const BLOCK_BYTES: usize = DATA_BITS / 8;

/// One sharded storage bank: `blocks ×` [`BLOCK_BYTES`] bytes on a
/// pluggable error substrate.
#[derive(Clone, Debug)]
pub struct Bank {
    data: Vec<u8>,
    substrate: Arc<dyn Substrate>,
}

impl Bank {
    /// Creates an all-zero bank with `blocks` blocks.
    ///
    /// # Panics
    ///
    /// Panics on a zero-block bank.
    pub fn new(blocks: u64, substrate: Arc<dyn Substrate>) -> Self {
        assert!(blocks > 0, "bank needs at least one block");
        Bank {
            data: vec![0u8; blocks as usize * BLOCK_BYTES],
            substrate,
        }
    }

    /// Number of blocks in the bank.
    pub fn blocks(&self) -> u64 {
        (self.data.len() / BLOCK_BYTES) as u64
    }

    /// The error substrate this bank stores onto.
    pub fn substrate(&self) -> &Arc<dyn Substrate> {
        &self.substrate
    }

    /// Writes `bytes` starting at `start_block`. A partial tail block is
    /// zero-padded (blocks are the allocation granularity).
    ///
    /// # Panics
    ///
    /// Panics if the write runs past the end of the bank.
    pub fn write(&mut self, start_block: u64, bytes: &[u8]) {
        let start = start_block as usize * BLOCK_BYTES;
        let blocks = bytes.len().div_ceil(BLOCK_BYTES);
        let end = start + blocks * BLOCK_BYTES;
        assert!(end <= self.data.len(), "write past end of bank");
        self.data[start..start + bytes.len()].copy_from_slice(bytes);
        self.data[start + bytes.len()..end].fill(0);
    }

    /// Appends `len` raw stored bytes starting at `start_block` to `out`.
    ///
    /// # Panics
    ///
    /// Panics if the read runs past the end of the bank.
    pub fn read_into(&self, start_block: u64, len: usize, out: &mut Vec<u8>) {
        let start = start_block as usize * BLOCK_BYTES;
        assert!(start + len <= self.data.len(), "read past end of bank");
        out.extend_from_slice(&self.data[start..start + len]);
    }

    /// Runs the bank's error channel over a read-back buffer: `bits`
    /// live payload bits protected at strength `t`, damage drawn from
    /// `seed`. Always takes the exact block machinery (the batch-BCH
    /// engine on i.i.d. substrates), never the analytic shortcut — a
    /// bank read returns real decoded bytes, not a statistical model.
    pub fn decode_read(&self, data: &mut [u8], bits: u64, t: usize, seed: u64) -> CorruptTally {
        self.substrate.corrupt_stream(data, bits, t, true, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::mlc_pcm;

    fn bytes(n: usize, seed: u64) -> Vec<u8> {
        use vapp_rand::rngs::StdRng;
        use vapp_rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.random::<u8>()).collect()
    }

    #[test]
    fn write_read_roundtrip_and_tail_padding() {
        let mut bank = Bank::new(8, mlc_pcm(0.0));
        let payload = bytes(100, 1); // 1 full block + 36-byte tail
        bank.write(2, &payload);
        let mut back = Vec::new();
        bank.read_into(2, 100, &mut back);
        assert_eq!(back, payload);
        // The tail block's padding reads back as zero.
        let mut tail = Vec::new();
        bank.read_into(2, 2 * BLOCK_BYTES, &mut tail);
        assert!(tail[100..].iter().all(|&b| b == 0));
    }

    #[test]
    fn decode_read_is_a_pure_function_of_the_seed() {
        let bank = Bank::new(32, mlc_pcm(2e-2));
        let stored = bytes(20 * BLOCK_BYTES, 3);
        let bits = (stored.len() * 8) as u64;
        let mut a = stored.clone();
        let mut b = stored.clone();
        let ta = bank.decode_read(&mut a, bits, 6, 77);
        let tb = bank.decode_read(&mut b, bits, 6, 77);
        assert_eq!(a, b, "same seed must reproduce the same read");
        assert_eq!(ta, tb);
        let mut c = stored.clone();
        let tc = bank.decode_read(&mut c, bits, 6, 78);
        assert!(ta.flips > 0 && tc.flips > 0, "2e-2 over 10k bits must flip");
    }

    #[test]
    #[should_panic(expected = "write past end of bank")]
    fn oversized_write_panics() {
        let mut bank = Bank::new(2, mlc_pcm(0.0));
        bank.write(1, &bytes(2 * BLOCK_BYTES, 4));
    }
}
