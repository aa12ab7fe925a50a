//! Property tests for the substrate building blocks: Reed–Solomon
//! round-trips at the mixed erasure/error budget boundary, interleaver
//! bijectivity on arbitrary partial tails, and seed purity of the burst
//! substrate. (The BCH engine's burst-pattern equivalence against the
//! scalar oracle is a `vapp-storage` unit test in `batch.rs`.)

use vapp_check::{RngExt, StdRng};
use vapp_storage::bch::DecodeOutcome;
use vapp_storage::channel::{BurstConfig, BurstErasure, Substrate};
use vapp_storage::interleave::Interleaver;
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

#[test]
fn interleaver_is_a_bijection_on_random_partial_tails() {
    vapp_check::check("interleaver_bijection", 64, |rng| {
        let total = rng.random_range(1..5000usize);
        let depth = rng.random_range(1..200usize);
        let il = Interleaver::new(depth, total);
        let mut seen = vec![false; total];
        for l in 0..total {
            let p = il.forward(l);
            assert!(p < total, "physical out of range");
            assert!(!seen[p], "depth {depth} total {total}: physical {p} reused");
            seen[p] = true;
            assert_eq!(il.inverse(p), l, "inverse mismatch at logical {l}");
        }
    });
}

#[test]
fn interleaver_bounds_burst_damage_per_row() {
    // The guarantee the whole design rests on: a physical burst of B
    // units touches each row at most ceil(B/depth) + 1 times.
    vapp_check::check("interleaver_burst_bound", 48, |rng| {
        let depth = rng.random_range(2..64usize);
        let total = rng.random_range(depth..4000usize);
        let il = Interleaver::new(depth, total);
        let burst = rng.random_range(1..total.min(300));
        let start = rng.random_range(0..total - burst + 1);
        let mut per_row = vec![0usize; il.depth()];
        for p in start..start + burst {
            per_row[il.inverse(p) / il.cols()] += 1;
        }
        let bound = burst.div_ceil(il.depth()) + 1;
        for (r, &hits) in per_row.iter().enumerate() {
            assert!(
                hits <= bound,
                "depth {depth} total {total} burst {burst}: row {r} hit {hits} > {bound}"
            );
        }
    });
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
