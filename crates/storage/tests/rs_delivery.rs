//! Pins the Reed–Solomon delivery path of the burst and video channels.
//!
//! The store/load digests in the root `tests/determinism.rs` only see
//! protected levels that come back fully corrected. These cases push
//! both RS channels past their correction radius, so the bytes pinned
//! here include data symbols delivered back from `Uncorrectable`
//! codewords, and the tally must show both outcomes.

use vapp_storage::channel::{
    BurstConfig, BurstErasure, CorruptTally, DataInVideo, Substrate, VideoChannelConfig,
};

/// 64-bit FNV-1a.
fn digest(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn payload(bits: u64) -> Vec<u8> {
    (0..bits.div_ceil(8) as usize)
        .map(|i| (i * 31 % 251) as u8)
        .collect()
}

fn run(sub: &dyn Substrate, bits: u64, t: usize, seed: u64) -> (u64, CorruptTally) {
    let mut data = payload(bits);
    let tally = sub.corrupt_stream(&mut data, bits, t, true, seed);
    assert!(
        tally.corrected > 0 && tally.uncorrectable > 0,
        "{}: the pin must cover both decode branches, got {tally:?}",
        sub.name()
    );
    (digest(&data), tally)
}

#[test]
fn burst_rs_uncorrectable_delivery_is_pinned() {
    let sub = BurstErasure::new(BurstConfig {
        page_loss: 0.03,
        ..BurstConfig::default()
    });
    let (d, tally) = run(&sub, 80_000, 10, 7);
    assert_eq!(tally, BURST_TALLY, "burst tally moved");
    assert_eq!(d, BURST_DIGEST, "burst bytes moved (digest {d:#018x})");
}

#[test]
fn video_rs_uncorrectable_delivery_is_pinned() {
    let sub = DataInVideo::new(VideoChannelConfig {
        frame_width: 64,
        frame_height: 32,
        crf: 44,
        ..VideoChannelConfig::default()
    });
    let (d, tally) = run(&sub, 12_000, 8, 0);
    assert_eq!(tally, VIDEO_TALLY, "video tally moved");
    assert_eq!(d, VIDEO_DIGEST, "video bytes moved (digest {d:#018x})");
}

// Captured before the burst and video channels shared one RS decode
// loop; any change to these is a change in delivered bytes.
const BURST_TALLY: CorruptTally = CorruptTally {
    flips: 8383,
    clean: 0,
    corrected: 20,
    uncorrectable: 59,
};
const BURST_DIGEST: u64 = 0xb9ad_9e7d_f5b8_e812;
const VIDEO_TALLY: CorruptTally = CorruptTally {
    flips: 101,
    clean: 0,
    corrected: 8,
    uncorrectable: 4,
};
const VIDEO_DIGEST: u64 = 0xefeb_8e90_6b30_0afd;
