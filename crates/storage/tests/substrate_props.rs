//! Property tests for the substrate building blocks: Reed–Solomon
//! round-trips at the mixed erasure/error budget boundary, seed purity
//! of the burst substrate, and every channel arm's `changed_bits`
//! against the bits a read really changed. (The RS channels' symbol layout — a
//! bijection that bounds each codeword's share of a burst — is a unit
//! test in `channel.rs`; the BCH engine's burst-pattern equivalence
//! against the scalar oracle is a unit test in `batch.rs`.)

use std::cell::Cell;

use vapp_check::{RngExt, StdRng};
use vapp_storage::bch::DecodeOutcome;
use vapp_storage::channel::{
    BurstConfig, BurstErasure, CorruptTally, DataInVideo, MlcPcm, Substrate, VideoChannelConfig,
};
use vapp_storage::rs::Rs;

fn random_syms(rng: &mut StdRng, n: usize) -> Vec<u16> {
    (0..n).map(|_| rng.random::<u16>() & 0x3FF).collect()
}

#[test]
fn rs_corrects_mixed_erasures_and_errors_at_the_budget() {
    // The decoding budget is 2·errors + erasures ≤ 2t. Drive it exactly
    // to the boundary: t erasures leave t budget for t/2 errors.
    for t in [4usize, 8, 16] {
        let code = Rs::cached(t);
        let name = format!("rs_mixed_budget_t{t}");
        vapp_check::check(&name, 24, |rng| {
            let data = random_syms(rng, code.data_syms());
            let clean = code.encode(&data);
            let mut cw = clean.clone();

            let n_eras = t;
            let n_errs = t / 2;
            let positions: Vec<usize> =
                vapp_check::gen::distinct(rng, 0..code.codeword_syms(), n_eras + n_errs)
                    .into_iter()
                    .collect();
            let (eras, errs) = positions.split_at(n_eras);
            for &pos in eras {
                cw[pos] = rng.random::<u16>() & 0x3FF; // may equal the original
            }
            for &pos in errs {
                cw[pos] ^= 1 + (rng.random::<u16>() & 0x3FE); // guaranteed damage
            }
            let outcome = code.decode(&mut cw, eras);
            assert!(
                matches!(outcome, DecodeOutcome::Clean | DecodeOutcome::Corrected(_)),
                "t={t}: {n_eras} erasures + {n_errs} errors must decode, got {outcome:?}"
            );
            assert_eq!(cw, clean, "t={t}: decoded codeword diverges");
        });
    }
}

#[test]
fn rs_erasure_only_budget_is_double_the_error_budget() {
    for t in [3usize, 6] {
        let code = Rs::cached(t);
        let name = format!("rs_2t_erasures_t{t}");
        vapp_check::check(&name, 24, |rng| {
            let data = random_syms(rng, code.data_syms());
            let clean = code.encode(&data);
            let mut cw = clean.clone();
            let eras: Vec<usize> = vapp_check::gen::distinct(rng, 0..code.codeword_syms(), 2 * t)
                .into_iter()
                .collect();
            for &pos in &eras {
                cw[pos] = rng.random::<u16>() & 0x3FF;
            }
            let outcome = code.decode(&mut cw, &eras);
            assert!(
                matches!(outcome, DecodeOutcome::Clean | DecodeOutcome::Corrected(_)),
                "t={t}: 2t erasures must decode, got {outcome:?}"
            );
            assert_eq!(cw, clean);
        });
    }
}

/// The public corruption surface of `BurstErasure` must be a pure
/// function of the seed: same seed → same bytes, across construction
/// instances (nothing cached mutates results).
#[test]
fn burst_substrate_is_seed_pure_across_instances() {
    vapp_check::check("burst_seed_pure", 12, |rng| {
        let cfg = BurstConfig {
            page_loss: 0.01,
            burst_pages: rng.random_range(1..6u64),
            ..BurstConfig::default()
        };
        let bits = rng.random_range(1..60_000u64);
        let seed = rng.random::<u64>();
        let t = [0usize, 6, 10][rng.random_range(0..3usize)];
        let mut a: Vec<u8> = (0..bits.div_ceil(8)).map(|_| rng.random::<u8>()).collect();
        let mut b = a.clone();
        let ta = BurstErasure::new(cfg.clone()).corrupt_stream(&mut a, bits, t, true, seed);
        let tb = BurstErasure::new(cfg).corrupt_stream(&mut b, bits, t, true, seed);
        assert_eq!(a, b, "same seed, different bytes");
        assert_eq!(ta, tb, "same seed, different tally");
    });
}

/// One corruption call on a random payload one byte longer than its
/// live `bits`; asserts that `changed_bits` is popcount(stored ⊕ loaded)
/// over the whole buffer, so a change past `bits` would show too.
fn assert_changed_bits(
    sub: &dyn Substrate,
    rng: &mut StdRng,
    bits: u64,
    t: usize,
    exact: bool,
) -> CorruptTally {
    let stored: Vec<u8> = (0..bits.div_ceil(8) + 1)
        .map(|_| rng.random::<u8>())
        .collect();
    let mut loaded = stored.clone();
    let tally = sub.corrupt_stream(&mut loaded, bits, t, exact, rng.random());
    let changed: u64 = (stored.iter().zip(&loaded))
        .map(|(a, b)| (a ^ b).count_ones() as u64)
        .sum();
    assert_eq!(
        tally.changed_bits,
        changed,
        "{} t {t} exact {exact} bits {bits}: {tally:?}",
        sub.name()
    );
    tally
}

#[test]
fn mlc_changed_bits_are_the_bits_the_read_changed() {
    // t = 0, the analytic arm and the exact arm, at rates where exact
    // blocks go past the radius (the exact arm's miscorrections and its
    // partial-last-block residual are pinned in `channel.rs`).
    let uncorrectable = Cell::new(0);
    vapp_check::check("mlc_changed_bits", 24, |rng| {
        let sub = MlcPcm::new([1e-3, 6e-3, 2e-2][rng.random_range(0..3usize)]);
        let bits = rng.random_range(1..40_000u64);
        let t = [0usize, 1, 2, 6, 16][rng.random_range(0..5usize)];
        let exact = rng.random_bool(0.5);
        let tally = assert_changed_bits(&sub, rng, bits, t, exact);
        uncorrectable.set(uncorrectable.get() + tally.uncorrectable);
    });
    assert!(uncorrectable.get() > 0, "no case went past the radius");
}

#[test]
fn burst_changed_bits_are_the_bits_the_read_changed() {
    // The raw arm runs at an i.i.d. rate high enough that flips land on
    // bits the page garble already flipped, which restores them.
    let overlapped = Cell::new(false);
    vapp_check::check("burst_changed_bits", 16, |rng| {
        let raw = BurstErasure::new(BurstConfig {
            page_loss: 0.05,
            burst_pages: rng.random_range(1..5u64),
            iid_ber: 0.05,
            ..BurstConfig::default()
        });
        let bits = rng.random_range(1..40_000u64);
        let tally = assert_changed_bits(&raw, rng, bits, 0, true);
        overlapped.set(overlapped.get() || tally.changed_bits < tally.flips);
        let rs = BurstErasure::new(BurstConfig {
            page_loss: [1e-3, 1e-2, 5e-2][rng.random_range(0..3usize)],
            iid_ber: [1e-5, 1e-3][rng.random_range(0..2usize)],
            ..BurstConfig::default()
        });
        let t = [1usize, 2, 6, 10][rng.random_range(0..4usize)];
        assert_changed_bits(&rs, rng, bits, t, true);
    });
    assert!(overlapped.get(), "no i.i.d. flip undid a garbled bit");
}

#[test]
fn video_changed_bits_are_the_bits_the_read_changed() {
    let sub = DataInVideo::new(VideoChannelConfig {
        frame_width: 64,
        frame_height: 32,
        crf: 44,
        ..VideoChannelConfig::default()
    });
    let changed = Cell::new((0, 0));
    vapp_check::check("video_changed_bits", 4, |rng| {
        let bits = rng.random_range(1000..12_000u64);
        let raw = assert_changed_bits(&sub, rng, bits, 0, true);
        let t = [2usize, 8][rng.random_range(0..2usize)];
        let rs = assert_changed_bits(&sub, rng, bits, t, true);
        let (r, p) = changed.get();
        changed.set((r + raw.changed_bits, p + rs.changed_bits));
    });
    let (raw, rs) = changed.get();
    assert!(
        raw > 0 && rs > 0,
        "both video arms must change bits: {raw}, {rs}"
    );
}
