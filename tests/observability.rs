//! Observability integration: the `vapp-obs` counters must reconcile with
//! the pipeline's own accounting (`PipelineReport`), and the snapshot JSON
//! must round-trip through the crate's own parser.

use std::sync::Arc;
use vapp_codec::{Encoder, EncoderConfig};
use vapp_obs::json::Value;
use vapp_obs::registry::with_registry;
use vapp_obs::Registry;
use vapp_rand::rngs::StdRng;
use vapp_rand::SeedableRng;
use vapp_storage::density;
use vapp_workloads::{ClipSpec, SceneKind};
use videoapp::{
    mlc_pcm, ApproxStore, DependencyGraph, EcScheme, ImportanceMap, PipelineReport, PivotTable,
    StoragePolicy,
};

const BCH_BLOCK_BITS: u64 = 512;

fn setup() -> (vapp_codec::EncodedVideo, PivotTable, u64) {
    let video = ClipSpec::new(96, 64, 8, SceneKind::MovingBlocks)
        .seed(23)
        .generate();
    let result = Encoder::new(EncoderConfig {
        keyint: 4,
        bframes: 1,
        ..EncoderConfig::default()
    })
    .encode(&video);
    let imp = ImportanceMap::compute(&DependencyGraph::from_analysis(&result.analysis));
    let table = PivotTable::build(&result.analysis, &imp, &[8.0, 64.0]);
    (result.stream, table, video.total_pixels() as u64)
}

fn policy() -> StoragePolicy {
    StoragePolicy {
        ladder_levels: vec![EcScheme::Bch(6), EcScheme::Bch(9), EcScheme::Bch(16)],
        thresholds: vec![8.0, 64.0],
        substrate: mlc_pcm(1e-3),
        exact_bch: false,
    }
}

#[test]
fn report_level_bits_sum_to_payload() {
    let (stream, table, pixels) = setup();
    let store = ApproxStore::new(policy());
    let report = store.report(&stream, &table, pixels);
    assert_eq!(
        report.level_bits.iter().sum::<u64>(),
        report.payload_bits,
        "per-level bits must partition the payload"
    );
    assert_eq!(report.payload_bits, stream.payload_bits());
}

#[test]
fn report_density_matches_hand_computation() {
    let (stream, table, pixels) = setup();
    let store = ApproxStore::new(policy());
    let report = store.report(&stream, &table, pixels);

    // Bit-weighted average overhead, recomputed from the report's own
    // per-level breakdown.
    let weighted: f64 = report
        .level_bits
        .iter()
        .zip(&report.level_schemes)
        .map(|(&b, s)| s.overhead() * b as f64)
        .sum::<f64>()
        / report.payload_bits as f64;
    assert!((report.avg_payload_overhead - weighted).abs() < 1e-12);

    // Total MLC cells: per-level payload cells plus precise metadata.
    let payload_cells: f64 = report
        .level_bits
        .iter()
        .zip(&report.level_schemes)
        .map(|(&b, s)| density::cells_for(b, s.overhead(), 3))
        .sum();
    let meta_cells = density::cells_for(
        report.header_bits + report.pivot_bits,
        EcScheme::PRECISE.overhead(),
        3,
    );
    assert!((report.total_cells_mlc - (payload_cells + meta_cells)).abs() < 1e-9);

    // Derived ratios agree with the density helpers.
    let cpp = density::cells_per_pixel(report.total_cells_mlc, pixels);
    assert!((report.cells_per_pixel() - cpp).abs() < 1e-12);
    let rel = density::relative_density(report.total_cells_mlc, report.cells_slc);
    assert!((report.density_vs_slc() - rel).abs() < 1e-12);
}

#[test]
fn obs_counters_reconcile_with_report_after_store_load() {
    let (stream, table, pixels) = setup();
    let store = ApproxStore::new(policy());
    let report = store.report(&stream, &table, pixels);

    let reg = Arc::new(Registry::new());
    with_registry(reg.clone(), || {
        let mut rng = StdRng::seed_from_u64(99);
        let _ = store.store_load(&stream, &table, &mut rng);
    });
    let snap = reg.snapshot();

    // Per-level stored bits match the report's level accounting and sum
    // to the payload.
    let mut stored = 0u64;
    for (level, &bits) in report.level_bits.iter().enumerate() {
        let c = snap.counter(&format!("core.level.{level}.stored_bits"));
        assert_eq!(c, bits, "level {level} stored bits");
        stored += c;
    }
    assert_eq!(stored, report.payload_bits);

    // Block outcome tallies partition the block population.
    let blocks = snap.counter("storage.bch.blocks");
    let expected_blocks: u64 = report
        .level_bits
        .iter()
        .filter(|&&b| b > 0)
        .map(|&b| b.div_ceil(BCH_BLOCK_BITS))
        .sum();
    assert_eq!(blocks, expected_blocks);
    assert_eq!(
        snap.counter("storage.bch.clean")
            + snap.counter("storage.bch.corrected")
            + snap.counter("storage.bch.uncorrectable"),
        blocks
    );

    // Total injected flips are exactly the per-level sum.
    let per_level_flips: u64 = (0..report.level_bits.len())
        .map(|l| snap.counter(&format!("core.level.{l}.flips")))
        .sum();
    assert_eq!(snap.counter("core.flips.injected"), per_level_flips);

    // The store/load round trip is covered by spans.
    let calls = |name: &str| -> u64 {
        snap.profile
            .iter()
            .filter(|p| p.name() == name)
            .map(|p| p.count)
            .sum()
    };
    assert_eq!(calls("core.store.load"), 1);
    assert!(calls("core.streams.split") > 0);
    assert!(calls("core.streams.merge") > 0);
}

#[test]
fn exact_and_analytic_modes_tally_the_same_block_count() {
    let (stream, table, _) = setup();
    let mut counts = Vec::new();
    for exact in [false, true] {
        let mut p = policy();
        p.exact_bch = exact;
        let store = ApproxStore::new(p);
        let reg = Arc::new(Registry::new());
        with_registry(reg.clone(), || {
            let mut rng = StdRng::seed_from_u64(7);
            let _ = store.store_load(&stream, &table, &mut rng);
        });
        let snap = reg.snapshot();
        counts.push(snap.counter("storage.bch.blocks"));
        assert_eq!(
            snap.counter("storage.bch.clean")
                + snap.counter("storage.bch.corrected")
                + snap.counter("storage.bch.uncorrectable"),
            snap.counter("storage.bch.blocks"),
            "exact={exact}: outcomes must partition blocks"
        );
    }
    assert_eq!(counts[0], counts[1]);
}

#[test]
fn snapshot_json_parses_and_carries_the_counters() {
    let (stream, table, _) = setup();
    let store = ApproxStore::new(policy());
    let reg = Arc::new(Registry::new());
    with_registry(reg.clone(), || {
        let mut rng = StdRng::seed_from_u64(5);
        let _ = store.store_load(&stream, &table, &mut rng);
    });
    let snap = reg.snapshot();
    let json = snap.to_json("test_run");
    let v = Value::parse(&json).expect("snapshot JSON must parse");
    assert_eq!(v.get("run").and_then(Value::as_str), Some("test_run"));
    assert_eq!(
        v.get("schema_version").and_then(Value::as_str),
        Some(vapp_obs::SCHEMA_VERSION)
    );
    let counters = v
        .get("counters")
        .and_then(Value::as_obj)
        .expect("counters object");
    assert_eq!(
        counters
            .get("core.level.0.stored_bits")
            .and_then(Value::as_u64),
        Some(snap.counter("core.level.0.stored_bits"))
    );
    let profile = v.get("profile").and_then(Value::as_obj).expect("profile");
    assert!(profile.contains_key("core.store.load"));
    // Every histogram carries the full quantile block. (The analytic
    // policy may record none — the exact-BCH runs in tests/profiling.rs
    // pin histogram presence.)
    let histograms = v
        .get("histograms")
        .and_then(Value::as_obj)
        .expect("histograms object");
    for (name, h) in histograms {
        let q = h.get("quantiles").expect("quantiles present");
        for p in ["p50", "p90", "p95", "p99", "p999"] {
            assert!(q.get(p).and_then(Value::as_f64).is_some(), "{name}: {p}");
        }
    }
    // The profile section mirrors the call tree: the load span is a
    // root path and the per-level corruption nests under it.
    let profile = v
        .get("profile")
        .and_then(Value::as_obj)
        .expect("profile object");
    assert!(profile.contains_key("core.store.load"));
    assert!(profile
        .keys()
        .any(|p| p.starts_with("core.store.load>") && p.ends_with("core.level.corrupt")));
    // And the whole document round-trips through the typed parser.
    let (run, parsed) = vapp_obs::Snapshot::from_json(&json).expect("from_json");
    assert_eq!(run, "test_run");
    assert_eq!(parsed.counters, snap.counters);
    assert_eq!(parsed.profile, snap.profile);
}

#[test]
fn report_json_parses_and_matches_fields() {
    let (stream, table, pixels) = setup();
    let store = ApproxStore::new(policy());
    let report: PipelineReport = store.report(&stream, &table, pixels);
    let v = Value::parse(&report.to_json()).expect("report JSON must parse");
    assert_eq!(
        v.get("payload_bits").and_then(Value::as_u64),
        Some(report.payload_bits)
    );
    let level_bits = v
        .get("level_bits")
        .and_then(Value::as_arr)
        .expect("level_bits array");
    assert_eq!(level_bits.len(), report.level_bits.len());
    let schemes = v
        .get("level_schemes")
        .and_then(Value::as_arr)
        .expect("level_schemes array");
    assert_eq!(schemes[0].as_str(), Some("Bch(6)"));
    let d = v
        .get("density_vs_slc")
        .and_then(Value::as_f64)
        .expect("density");
    assert!((d - report.density_vs_slc()).abs() < 1e-9);
}
