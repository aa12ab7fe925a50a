//! The paper's claims, asserted on the experiments' typed results at the
//! scale `VAPP_SCALE` selects (small by default).
//!
//! The experiments take about half a minute in a release build, so these
//! are tier-2 tests: `cargo test --release -p vapp-bench --test
//! paper_claims -- --ignored`.

use vapp_bench::experiments::{
    fig10, fig11, fig3, fig7, fig9, sec431, sec61, sec62, sec63, table1,
};
use vapp_bench::ExpConfig;
use vapp_crypto::CipherMode;
use videoapp::{EcScheme, QUALITY_BUDGET_DB};

/// Fig 3 neighbour pairs (row-major and vertical) allowed to fall by
/// more than 0.5 dB along the scan order. The small scale has 3, each a
/// dip of under 1 dB between neighbours in a row; more means position
/// stopped predicting single-flip damage.
const FIG3_INVERSION_BUDGET: usize = 3;

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
#[ignore = "runs the Fig 3 experiment"]
fn fig3_psnr_rises_along_the_scan_order_within_the_budget() {
    let inversions = fig3::run(&ExpConfig::from_env()).inversions(0.5);
    assert!(
        inversions <= FIG3_INVERSION_BUDGET,
        "{inversions} inversions"
    );
}

#[test]
#[ignore = "runs the §5 experiment"]
fn fig7_only_ofb_and_ctr_survive_approximate_storage() {
    for (damage, report) in fig7::run(&ExpConfig::from_env()) {
        let stream_cipher = matches!(report.mode, CipherMode::Ofb | CipherMode::Ctr);
        assert_eq!(report.compatible(), stream_cipher, "{:?}", report.mode);
        if stream_cipher {
            assert!(
                damage.exact && damage.damaged_bits == 1,
                "{:?}: {damage:?}",
                report.mode
            );
        }
    }
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

#[test]
#[ignore = "runs the §6.3 experiment"]
fn sec63_compression_costs_more_than_the_approximation_budget() {
    for step in sec63::run(&ExpConfig::from_env()) {
        let per_10 = step.db_per_10pct();
        assert!(
            per_10 > QUALITY_BUDGET_DB,
            "CRF +{}: {per_10} dB per 10%",
            step.delta
        );
    }
}

#[test]
#[ignore = "runs the §6.2 experiment"]
fn sec62_substrate_is_calibrated_and_partitioning_pays_on_every_channel() {
    let r = sec62::run(&ExpConfig::from_env());
    // The biased placement keeps the raw BER inside this window over the
    // whole scrub interval; the cell array must read back inside it.
    let window = (sec62::AGES.iter().map(|&t| r.tuned.raw_ber(t)))
        .fold((f64::MAX, 0.0f64), |(lo, hi), b| (lo.min(b), hi.max(b)));
    let measured = r.array.2;
    assert!(
        window.0 <= measured && measured <= window.1,
        "measured BER {measured} outside {window:?}"
    );
    for (name, _, report, _) in &r.channels {
        assert!(
            report.avg_payload_overhead < report.precise_overhead,
            "{name}: {} vs {}",
            report.avg_payload_overhead,
            report.precise_overhead
        );
    }
}

#[test]
#[ignore = "runs the §6.1 experiment"]
fn sec61_all_four_metrics_fall_together() {
    let r = sec61::run(&ExpConfig::from_env());
    assert!(r.fall_together(), "{:?}", r.metrics);
    // Every non-zero rate damages the clip, so each of its rows is below
    // the clean row on all four metrics.
    let clean = r.metrics[0];
    for row in &r.metrics[1..] {
        for m in 0..4 {
            assert!(row[m] < clean[m], "metric {m}: {row:?} vs {clean:?}");
        }
    }
}

#[test]
#[ignore = "runs the §4.3.1 experiment"]
fn sec431_dependency_records_are_smaller_than_the_raw_video() {
    for (name, graph, raw) in sec431::run(&ExpConfig::from_env()) {
        assert!(graph < raw, "{name}: {graph} vs {raw} bytes");
    }
}
