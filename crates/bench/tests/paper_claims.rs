//! The paper's claims, asserted on the experiments' typed results at the
//! scale `VAPP_SCALE` selects (small by default).
//!
//! The experiments take about half a minute in a release build, so these
//! are tier-2 tests: `cargo test --release -p vapp-bench --test
//! paper_claims -- --ignored`. The §5 claim that OFB and CTR contain a
//! ciphertext flip to exactly that plaintext bit is checked end to end by
//! `tests/encrypted_pipeline.rs` and not repeated here.

use vapp_bench::experiments::{fig10, fig11, fig3, fig9, table1};
use vapp_bench::ExpConfig;
use videoapp::EcScheme;

/// Fig 9 boundaries allowed to invert by more than 0.5 dB at 1e-2. The
/// small scale has 3 (5 trials per point); more means importance stopped
/// predicting measured damage.
const FIG9_INVERSION_BUDGET: usize = 3;

/// Fig 10 (rate, class boundary) pairs allowed to invert by more than
/// 0.5 dB. The small scale has 4 (one each at 1e-5, 1e-4, 1e-3 and
/// 1e-2; 5 trials per point); more means the cumulative classes stopped
/// losing in importance order.
const FIG10_INVERSION_BUDGET: usize = 4;

#[test]
#[ignore = "runs the Fig 3 experiment"]
fn fig3_bottom_right_flips_damage_less_than_top_left() {
    let (top_left, bottom_right) = fig3::run(&ExpConfig::from_env()).corners();
    assert!(
        bottom_right > top_left,
        "{bottom_right} dB vs {top_left} dB"
    );
}

#[test]
#[ignore = "runs the Fig 9 experiment"]
fn fig9_loss_follows_bin_importance_within_the_budget() {
    let r = fig9::run(&ExpConfig::from_env());
    let inversions = r.inversions(0.5);
    assert!(
        inversions <= FIG9_INVERSION_BUDGET,
        "{inversions} inversions"
    );
    assert!(r.max_importance.windows(2).all(|b| b[0] <= b[1]));
}

#[test]
#[ignore = "runs the Fig 10 experiment"]
fn fig10_classes_lose_in_order_within_the_budget() {
    let r = fig10::run(&ExpConfig::from_env());
    let inversions = r.inversions(0.5);
    assert!(
        inversions <= FIG10_INVERSION_BUDGET,
        "{inversions} inversions"
    );
    assert!(r.storage_pct.windows(2).all(|c| c[0] <= c[1]));
    assert_eq!(r.storage_pct.last().copied(), Some(100.0));
}

#[test]
#[ignore = "runs the Table 1 experiment"]
fn table1_gives_each_class_the_weakest_admissible_scheme() {
    let r = table1::run(&ExpConfig::from_env());
    let a = &r.assignment;
    let total: u64 = r.classes.iter().map(|&(_, bits)| bits).sum();
    let rung = |s| {
        EcScheme::LADDER
            .iter()
            .position(|&l| l == s)
            .expect("on the ladder")
    };
    // The algorithm never weakens protection with class, and charges each
    // class only the loss beyond what the weaker classes already account for.
    let (mut min_rung, mut prev_loss) = (0, 0.0);
    for ((&(exp, bits, scheme), curve), &(class_exp, _)) in
        a.per_class.iter().zip(&r.curves).zip(&r.classes)
    {
        assert_eq!(exp, class_exp);
        let share = a.budget_db * bits as f64 / total as f64;
        let loss = |s: EcScheme| curve.loss_at(s.residual_ber(1e-3));
        let fits = |s: EcScheme| -(loss(s) - prev_loss).min(0.0) <= share;
        let chosen = rung(scheme);
        assert!(chosen >= min_rung, "class 2^{exp}: protection weakened");
        assert!(
            fits(scheme) || scheme == EcScheme::PRECISE,
            "class 2^{exp}: {scheme} over budget"
        );
        for &weaker in &EcScheme::LADDER[min_rung..chosen] {
            assert!(
                !fits(weaker),
                "class 2^{exp}: {weaker} fits but {scheme} was chosen"
            );
        }
        (min_rung, prev_loss) = (chosen, loss(scheme));
    }
    assert_eq!(a.header_scheme, EcScheme::PRECISE);
}

#[test]
#[ignore = "runs the Fig 11 experiment"]
fn fig11_orders_the_designs_and_meets_the_headline_numbers() {
    let rows = fig11::run(&ExpConfig::from_env());
    for row in &rows {
        let [uniform, variable, ideal] = row.designs.map(|(cells, _)| cells);
        assert!(
            uniform > variable && variable > ideal,
            "CRF {}: {:?}",
            row.crf,
            row.designs
        );
        assert!(
            row.worst_delta_db >= -0.3,
            "CRF {}: {} dB",
            row.crf,
            row.worst_delta_db
        );
    }
    let ec_cut = rows[0].first.ec_overhead_reduction();
    assert!(ec_cut >= 0.40, "EC overhead cut {ec_cut}");
}
