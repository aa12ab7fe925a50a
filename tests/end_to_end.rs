//! End-to-end integration: encode → analyse → assign → store → corrupt →
//! correct → decode → measure, across crates.

use vapp_codec::{decode, Encoder, EncoderConfig, FrameType};
use vapp_metrics::video_psnr;
use vapp_rand::rngs::StdRng;
use vapp_rand::SeedableRng;
use vapp_workloads::{ClipSpec, SceneKind};
use videoapp::{
    mlc_pcm, ApproxStore, Assignment, DependencyGraph, EcScheme, ImportanceMap, LossCurve,
    PivotTable, StoragePolicy, QUALITY_BUDGET_DB,
};

fn encode_clip() -> (vapp_media::Video, vapp_codec::EncodeResult) {
    let video = ClipSpec::new(96, 64, 18, SceneKind::MovingBlocks)
        .seed(314)
        .generate();
    let result = Encoder::new(EncoderConfig {
        keyint: 9,
        bframes: 2,
        ..EncoderConfig::default()
    })
    .encode(&video);
    (video, result)
}

#[test]
fn full_pipeline_stays_within_quality_budget() {
    let (video, result) = encode_clip();
    let importance = ImportanceMap::compute(&DependencyGraph::from_analysis(&result.analysis));

    // A conservative hand-rolled policy: BCH-6 for the unimportant tail,
    // stronger codes above.
    let thresholds = vec![16.0, 256.0];
    let table = PivotTable::build(&result.analysis, &importance, &thresholds);
    let store = ApproxStore::new(StoragePolicy {
        ladder_levels: vec![EcScheme::Bch(6), EcScheme::Bch(8), EcScheme::Bch(10)],
        thresholds,
        substrate: mlc_pcm(1e-3),
        exact_bch: false,
    });

    let base = video_psnr(&video, &result.reconstruction);
    let mut worst = 0.0f64;
    for t in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(t);
        let loaded = store.store_load(&result.stream, &table, &mut rng);
        let decoded = decode(&loaded);
        worst = worst.min(video_psnr(&video, &decoded) - base);
    }
    assert!(
        worst >= -QUALITY_BUDGET_DB,
        "quality change {worst} dB exceeds the 0.3 dB budget"
    );

    let report = store.report(&result.stream, &table, video.total_pixels() as u64);
    assert!(
        report.density_vs_slc() > 2.0,
        "density {}",
        report.density_vs_slc()
    );
    assert!(report.ec_overhead_reduction() > 0.3);
}

#[test]
fn assignment_driven_policy_round_trips() {
    let (video, result) = encode_clip();
    let importance = ImportanceMap::compute(&DependencyGraph::from_analysis(&result.analysis));
    let classes = videoapp::importance_classes(&result.analysis, &importance);

    // Synthetic-but-shaped curves (cheap stand-in for measured Fig. 10
    // data): class i tolerates rates up to ~10^-(i/2 + 2).
    let class_meta: Vec<(u32, u64)> = classes.iter().map(|c| (c.exp, c.bits)).collect();
    let curves: Vec<LossCurve> = classes
        .iter()
        .enumerate()
        .map(|(i, _)| {
            let knee = 10f64.powf(-(0.5 * i as f64 + 2.0));
            LossCurve::new(vec![
                (knee * 1e-2, -0.01),
                (knee, -0.2),
                (knee * 100.0, -6.0),
            ])
        })
        .collect();
    let assignment = Assignment::compute(&class_meta, &curves, QUALITY_BUDGET_DB, 1e-3);
    assert_eq!(assignment.header_scheme, EcScheme::PRECISE);

    let policy = StoragePolicy::from_assignment_mlc(&assignment, 1e-3);
    let table = PivotTable::build(&result.analysis, &importance, &policy.thresholds);
    let store = ApproxStore::new(policy);
    let mut rng = StdRng::seed_from_u64(99);
    let loaded = store.store_load(&result.stream, &table, &mut rng);
    let decoded = decode(&loaded);
    assert_eq!(decoded.len(), video.len());

    // Accounting is self-consistent.
    let report = store.report(&result.stream, &table, video.total_pixels() as u64);
    let level_total: u64 = report.level_bits.iter().sum();
    assert_eq!(level_total, result.stream.payload_bits());
    assert!(report.total_cells_mlc <= report.cells_uniform + report.pivot_bits as f64);
}

/// §4.3.1: importance can be evaluated GOP by GOP. `ImportanceMap::compute`
/// reads only a node's compensation children and its in-frame coding
/// successor, so when every compensation dependency stays inside one
/// I-frame-delimited GOP (in display order), a sweep restricted to one GOP
/// computes the same values as the sweep over the whole video.
#[test]
fn streaming_importance_allows_gop_local_processing() {
    let (_, result) = encode_clip();
    let frames = &result.analysis.frames;
    let mut i_displays: Vec<usize> = frames
        .iter()
        .filter(|f| f.frame_type == FrameType::I)
        .map(|f| f.display_index)
        .collect();
    i_displays.sort_unstable();
    assert!(i_displays.len() >= 2, "the clip must span several GOPs");
    // The GOP of a coding-order frame: the last I frame at or before it
    // in display order.
    let gop = |coding_index: usize| {
        let display = frames[coding_index].display_index;
        i_displays.partition_point(|&d| d <= display) - 1
    };
    let mut temporal = 0;
    for f in frames {
        for mb in &f.mbs {
            for d in &mb.deps {
                assert_eq!(
                    gop(d.frame),
                    gop(f.coding_index),
                    "frame {} MB depends on frame {} in another GOP",
                    f.coding_index,
                    d.frame
                );
                temporal += usize::from(d.frame != f.coding_index);
            }
        }
    }
    assert!(temporal > 0, "no temporal dependency was checked");
}

/// Tier-2 soak: the quality-budget invariant over a much larger Monte
/// Carlo sample, with the exact (polynomial) BCH decoder engaged.
///
/// Run with `cargo test -- --ignored` (CI tier-2 job).
#[test]
#[ignore = "tier-2 soak: ~minutes of Monte Carlo; run via `cargo test -- --ignored`"]
fn soak_quality_budget_many_trials_exact_bch() {
    let (video, result) = encode_clip();
    let importance = ImportanceMap::compute(&DependencyGraph::from_analysis(&result.analysis));
    let thresholds = vec![16.0, 256.0];
    let table = PivotTable::build(&result.analysis, &importance, &thresholds);
    let store = ApproxStore::new(StoragePolicy {
        ladder_levels: vec![EcScheme::Bch(6), EcScheme::Bch(8), EcScheme::Bch(10)],
        thresholds,
        substrate: mlc_pcm(1e-3),
        exact_bch: true,
    });

    let base = video_psnr(&video, &result.reconstruction);
    let mut worst = 0.0f64;
    for t in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(0x5eed_0000 + t);
        let loaded = store.store_load(&result.stream, &table, &mut rng);
        let decoded = decode(&loaded);
        worst = worst.min(video_psnr(&video, &decoded) - base);
    }
    assert!(
        worst >= -QUALITY_BUDGET_DB,
        "quality change {worst} dB exceeds the 0.3 dB budget over 40 trials"
    );
}

#[test]
fn exact_bch_pipeline_smoke() {
    let (video, result) = encode_clip();
    let importance = ImportanceMap::compute(&DependencyGraph::from_analysis(&result.analysis));
    let table = PivotTable::build(&result.analysis, &importance, &[32.0]);
    let mut policy = StoragePolicy {
        ladder_levels: vec![EcScheme::Bch(6), EcScheme::Bch(6)],
        thresholds: vec![32.0],
        substrate: mlc_pcm(1e-3),
        exact_bch: true,
    };
    policy.exact_bch = true;
    let store = ApproxStore::new(policy);
    let mut rng = StdRng::seed_from_u64(5);
    let loaded = store.store_load(&result.stream, &table, &mut rng);
    // Raw 1e-3 on BCH-6: block failure ~2e-6 — overwhelmingly clean.
    assert_eq!(loaded, result.stream);
    assert_eq!(decode(&loaded), result.reconstruction);
    let _ = video;
}
