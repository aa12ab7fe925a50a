//! Tier-1 determinism: parallelism changes wall-clock, never results.
//!
//! Every RNG-consuming pipeline stage derives per-unit sub-seeds up
//! front (`vapp_sim::derive_subseeds`), so its output is a pure function
//! of the master seed — byte-identical at any worker count. These tests
//! pin that invariant by running each stage under `with_threads(1)` and
//! `with_threads(8)` and comparing outputs bit for bit, plus the
//! observability counters the parallel regions record (atomics commute,
//! so totals must reconcile exactly).

use std::sync::Arc;

use vapp_codec::{EncodeResult, Encoder, EncoderConfig};
use vapp_obs::registry::with_registry;
use vapp_obs::Registry;
use vapp_rand::rngs::StdRng;
use vapp_rand::{RngExt, SeedableRng};
use vapp_sim::Trials;
use vapp_workloads::{ClipSpec, SceneKind};
use videoapp::pipeline::measure_loss_curve;
use videoapp::{
    burst_erasure, data_in_video, mlc_pcm, ApproxStore, BurstConfig, DependencyGraph, EcScheme,
    ImportanceMap, PivotTable, StoragePolicy, Substrate, VideoChannelConfig,
};

fn fixture() -> (vapp_media::Video, EncodeResult, PivotTable) {
    let video = ClipSpec::new(96, 64, 8, SceneKind::MovingBlocks)
        .seed(11)
        .generate();
    let result = Encoder::new(EncoderConfig {
        keyint: 8,
        bframes: 2,
        ..EncoderConfig::default()
    })
    .encode(&video);
    let imp = ImportanceMap::compute(&DependencyGraph::from_analysis(&result.analysis));
    let table = PivotTable::build(&result.analysis, &imp, &[4.0, 64.0]);
    (video, result, table)
}

#[test]
fn trials_run_is_thread_count_invariant() {
    let trials = Trials::new(13, 99);
    let seq = vapp_par::with_threads(1, || trials.run(|i, rng| (i, rng.random::<u64>())));
    let par = vapp_par::with_threads(8, || trials.run(|i, rng| (i, rng.random::<u64>())));
    assert_eq!(seq, par);
}

#[test]
fn store_load_is_thread_count_invariant_and_counters_reconcile() {
    let (_video, result, table) = fixture();
    let ladder = vec![EcScheme::None, EcScheme::Bch(6), EcScheme::Bch(10)];
    for exact in [false, true] {
        let policy = StoragePolicy {
            ladder_levels: ladder.clone(),
            thresholds: vec![4.0, 64.0],
            substrate: mlc_pcm(1e-3),
            exact_bch: exact,
        };
        let run = |threads: usize, reg: Arc<Registry>| {
            with_registry(reg, || {
                vapp_par::with_threads(threads, || {
                    let store = ApproxStore::new(policy.clone());
                    let mut rng = StdRng::seed_from_u64(7);
                    store.store_load(&result.stream, &table, &mut rng)
                })
            })
        };
        let reg1 = Arc::new(Registry::new());
        let reg8 = Arc::new(Registry::new());
        let seq = run(1, reg1.clone());
        let par = run(8, reg8.clone());
        assert_eq!(seq, par, "exact={exact}: loaded stream differs");

        for (label, reg) in [("1 thread", &reg1), ("8 threads", &reg8)] {
            // Per-level flip tallies partition the global injected count.
            let injected = reg.counter("core.flips.injected").get();
            let per_level: u64 = (0..ladder.len())
                .map(|l| reg.counter(&format!("core.level.{l}.flips")).get())
                .sum();
            assert_eq!(per_level, injected, "exact={exact} {label}: flip partition");
            // Every BCH block decodes to exactly one outcome.
            let blocks = reg.counter("storage.bch.blocks").get();
            assert!(blocks > 0, "exact={exact} {label}: no blocks recorded");
            let outcomes = reg.counter("storage.bch.clean").get()
                + reg.counter("storage.bch.corrected").get()
                + reg.counter("storage.bch.uncorrectable").get();
            assert_eq!(outcomes, blocks, "exact={exact} {label}: block partition");
        }
        // Both worker counts recorded identical totals.
        for name in [
            "core.flips.injected",
            "storage.bch.blocks",
            "storage.bch.clean",
            "storage.bch.corrected",
            "storage.bch.uncorrectable",
        ] {
            assert_eq!(
                reg1.counter(name).get(),
                reg8.counter(name).get(),
                "exact={exact}: `{name}` differs across worker counts"
            );
        }
    }
}

/// FNV-1a over every frame payload of a loaded stream — a stable
/// fingerprint of the corruption pattern a given master seed produces.
fn stream_digest(stream: &vapp_codec::EncodedVideo) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for f in &stream.frames {
        for &b in &f.payload {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Seeded corruption is part of the repo's compatibility surface: the
/// same master seed must keep producing the same bytes across
/// refactors of the storage kernels (word-level BitBuf, table-driven
/// BCH), not just across thread counts. These digests were captured
/// from the scalar bit-at-a-time implementation; any change to them
/// means a seeded-RNG stream or the BCH decode behavior moved.
#[test]
fn seeded_store_load_digests_are_pinned() {
    let (_video, result, table) = fixture();
    let ladder = vec![EcScheme::None, EcScheme::Bch(6), EcScheme::Bch(10)];
    // Raw BER high enough that both arms corrupt (exact-BCH sees real
    // corrected and uncorrectable blocks, not an all-clean pass).
    for (exact, raw_ber, expect) in [
        (false, 1e-3, DIGEST_ANALYTIC),
        (true, 1e-3, DIGEST_EXACT),
        (true, 2e-2, DIGEST_EXACT_HIGH_BER),
    ] {
        let policy = StoragePolicy {
            ladder_levels: ladder.clone(),
            thresholds: vec![4.0, 64.0],
            substrate: mlc_pcm(raw_ber),
            exact_bch: exact,
        };
        let store = ApproxStore::new(policy);
        let mut rng = StdRng::seed_from_u64(7);
        let loaded = store.store_load(&result.stream, &table, &mut rng);
        assert_eq!(
            stream_digest(&loaded),
            expect,
            "exact={exact} raw_ber={raw_ber}: seeded output bytes moved"
        );
    }
}

// At 1e-3 the analytic and exact digests coincide: the BCH-protected
// levels come back fully corrected in both modes and the unprotected
// level-0 flips derive from the same sub-seed. The 2e-2 case drives the
// exact decoder through real corrected *and* uncorrectable blocks.
const DIGEST_ANALYTIC: u64 = 0x1a4a_ae54_9303_7118;
const DIGEST_EXACT: u64 = 0x1a4a_ae54_9303_7118;
const DIGEST_EXACT_HIGH_BER: u64 = 0x2957_d67f_842e_bab1;

/// The new substrates obey the same contract as MLC: store/load output
/// is a pure function of the master seed, byte-identical at any worker
/// count, and its digest is pinned so seeded burst/video corruption
/// stays part of the compatibility surface.
#[test]
fn substrate_store_load_is_thread_count_invariant_and_pinned() {
    let (_video, result, table) = fixture();
    let ladder = vec![EcScheme::None, EcScheme::Bch(6), EcScheme::Bch(10)];
    let cases: [(&str, Arc<dyn Substrate>, u64); 2] = [
        (
            "burst-rs",
            burst_erasure(BurstConfig {
                page_loss: 5e-3, // high enough that pages actually drop
                ..BurstConfig::default()
            }),
            DIGEST_BURST_RS,
        ),
        (
            "video",
            data_in_video(VideoChannelConfig::default()),
            DIGEST_VIDEO,
        ),
    ];
    for (name, substrate, expect) in cases {
        let policy = StoragePolicy {
            ladder_levels: ladder.clone(),
            thresholds: vec![4.0, 64.0],
            substrate,
            exact_bch: true,
        };
        let run = |threads: usize| {
            vapp_par::with_threads(threads, || {
                let store = ApproxStore::new(policy.clone());
                let mut rng = StdRng::seed_from_u64(7);
                store.store_load(&result.stream, &table, &mut rng)
            })
        };
        let seq = run(1);
        let par = run(8);
        assert_eq!(seq, par, "{name}: loaded stream differs across workers");
        assert_eq!(
            stream_digest(&seq),
            expect,
            "{name}: seeded output bytes moved (digest {:#018x})",
            stream_digest(&seq)
        );
    }
}

const DIGEST_BURST_RS: u64 = 0xa7e5_d8fe_f57f_6ac8;
const DIGEST_VIDEO: u64 = 0xa672_7538_2e4e_80eb;

#[test]
fn loss_curve_is_thread_count_invariant() {
    let (video, result, _table) = fixture();
    let ranges = [0..result.stream.payload_bits()];
    let rates = [1e-4, 1e-3, 1e-2];
    let trials = Trials::new(4, 55);
    let seq = vapp_par::with_threads(1, || {
        measure_loss_curve(&result.stream, &video, &ranges, &rates, trials)
    });
    let par = vapp_par::with_threads(8, || {
        measure_loss_curve(&result.stream, &video, &ranges, &rates, trials)
    });
    for &r in &rates {
        assert_eq!(
            seq.loss_at(r).to_bits(),
            par.loss_at(r).to_bits(),
            "rate {r}: loss differs across worker counts"
        );
    }
}
