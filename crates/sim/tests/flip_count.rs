//! The count-first draw is the same draw. A caller that takes a unit's
//! flip count from one reused [`FlipCount`] and only then picks that
//! many positions with [`pick_k_positions`] on the same RNG (the exact
//! MLC arm does, for the blocks past the BCH radius) must get exactly
//! the positions [`pick_positions`] returns and leave the RNG at the same
//! point. Cases cover empty range spaces, rates 0 and 1, Knuth's small-λ
//! branch and the λ ≥ 30 normal branch.

use std::ops::Range;
use vapp_check::{check, RngExt, SeedableRng, StdRng};
use vapp_sim::{pick_k_positions, pick_positions, total_bits, FlipCount};

/// One to three disjoint ranges, or none at all; rate 1 keeps the space
/// small because picking every bit is a coupon collector's draw.
fn random_ranges(rng: &mut StdRng, max_bits: u64) -> Vec<Range<u64>> {
    let mut start = rng.random_range(0..1000u64);
    (0..rng.random_range(0..4usize))
        .map(|_| {
            let len = rng.random_range(0..=max_bits / 3);
            let r = start..start + len;
            start += len + rng.random_range(0..100u64);
            r
        })
        .collect()
}

fn random_rate(rng: &mut StdRng, n: u64) -> f64 {
    match rng.random_range(0..6u32) {
        0 => 0.0,
        1 => 1.0,
        // λ ≥ 30: the normal approximation (rate capped at 1).
        2 => (rng.random_range(30.0..200.0) / n.max(1) as f64).min(1.0),
        3 => 1e-3,
        // Log-uniform over [1e-6, 0.5].
        _ => 10f64.powf(rng.random_range(-6.0..(0.5f64).log10())),
    }
}

#[test]
fn count_then_pick_matches_pick_positions() {
    check("sim_count_then_pick_matches_pick_positions", 64, |rng| {
        let rate_one = rng.random_bool(0.2);
        let ranges = random_ranges(rng, if rate_one { 96 } else { 2400 });
        let n = total_bits(&ranges);
        let rate = if rate_one { 1.0 } else { random_rate(rng, n) };
        let seed: u64 = rng.random();
        let count = FlipCount::new(n, rate);
        // One sampler serves a run of units, as it does a whole stream.
        let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        for unit in 0..4 {
            let w = count.draw(&mut a);
            let got = pick_k_positions(&ranges, w, &mut a);
            let want = pick_positions(&ranges, rate, &mut b);
            let at = format!("n {n} rate {rate} seed {seed:#x} unit {unit}");
            assert_eq!(got.len() as u64, w, "{at}");
            assert_eq!(got, want, "{at}");
            assert_eq!(a.random::<u64>(), b.random::<u64>(), "rng state, {at}");
        }
    });
}
