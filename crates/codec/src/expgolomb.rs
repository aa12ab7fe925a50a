//! Exponential-Golomb codes (the `ue(v)`/`se(v)` of H.264).
//!
//! Used directly by the CAVLC-style entropy coder and for header fields.
//! Decoding is clamped: a corrupted prefix cannot make the decoder consume
//! unbounded bits or overflow.

use crate::bitstream::{BitReader, BitWriter};

/// Longest accepted Exp-Golomb prefix when decoding. A genuine encoder
/// never emits more than 32; corrupt data is clamped here.
const MAX_PREFIX: u32 = 32;

/// Writes an unsigned Exp-Golomb code (`ue(v)`).
pub fn write_ue(w: &mut BitWriter, value: u32) {
    let v = value as u64 + 1;
    let bits = 64 - v.leading_zeros();
    for _ in 0..bits - 1 {
        w.put_bit(false);
    }
    for i in (0..bits).rev() {
        w.put_bit((v >> i) & 1 == 1);
    }
}

/// Reads an unsigned Exp-Golomb code; corrupt prefixes are clamped.
pub fn read_ue(r: &mut BitReader<'_>) -> u32 {
    let mut zeros = 0u32;
    while !r.get_bit() {
        zeros += 1;
        if zeros >= MAX_PREFIX {
            // Corrupt stream: pretend the run ended; yields a large value.
            break;
        }
    }
    let mut v: u64 = 1;
    for _ in 0..zeros {
        v = (v << 1) | r.get_bit() as u64;
    }
    (v - 1).min(u32::MAX as u64) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ue_known_codewords() {
        // Classic table: 0 -> "1", 1 -> "010", 2 -> "011", 3 -> "00100".
        let mut w = BitWriter::new();
        write_ue(&mut w, 0);
        write_ue(&mut w, 1);
        write_ue(&mut w, 2);
        write_ue(&mut w, 3);
        assert_eq!(w.bit_len(), 1 + 3 + 3 + 5);
        let b = w.finish();
        let mut r = BitReader::new(&b);
        assert_eq!(read_ue(&mut r), 0);
        assert_eq!(read_ue(&mut r), 1);
        assert_eq!(read_ue(&mut r), 2);
        assert_eq!(read_ue(&mut r), 3);
    }

    #[test]
    fn ue_roundtrip_large_values() {
        let values = [0u32, 5, 255, 1 << 16, u32::MAX - 1];
        let mut w = BitWriter::new();
        for &v in &values {
            write_ue(&mut w, v);
        }
        let b = w.finish();
        let mut r = BitReader::new(&b);
        for &v in &values {
            assert_eq!(read_ue(&mut r), v);
        }
    }

    #[test]
    fn corrupt_prefix_terminates() {
        // All zeros: the ue prefix never ends; decode must clamp, not hang.
        let zeros = vec![0u8; 64];
        let mut r = BitReader::new(&zeros);
        let _ = read_ue(&mut r);
        assert!(r.bit_pos() <= 2 * MAX_PREFIX as u64 + 2);
    }
}
