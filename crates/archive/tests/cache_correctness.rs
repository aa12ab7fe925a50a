//! Cache correctness: a cache-served read must be byte-identical to a
//! cold read through the substrate decode path — including after the
//! object is evicted and re-faulted. Plus the tier-2 `#[ignore]` soak:
//! a thousands-of-clients fleet, thread-count invariant.

use std::sync::Arc;

use vapp_archive::{
    run_fleet, Archive, ArchiveService, Completion, FleetConfig, Request, ServiceConfig,
    TenantPolicy,
};
use vapp_obs::registry::with_registry;
use vapp_obs::Registry;
use vapp_rand::rngs::StdRng;
use vapp_rand::{RngExt, SeedableRng};
use vapp_storage::channel::mlc_pcm;

fn payload(n: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.random::<u8>()).collect()
}

fn service(cache_bytes: u64) -> ArchiveService {
    // A damaging substrate: corrected bytes are NOT the stored bytes'
    // identity function, so any cache/decode mismatch shows up.
    let archive = Archive::new(2, 4096, mlc_pcm(2e-2), TenantPolicy::default_tiers(), 31);
    ArchiveService::new(
        archive,
        ServiceConfig {
            queue_depth: 64,
            batch: 16,
            cache_bytes,
            compact_fragments: 1000,
        },
    )
}

fn read_one(svc: &mut ArchiveService, id: u64) -> Completion {
    svc.submit(Request::Read { id }).unwrap();
    let mut done = svc.drain_all();
    assert_eq!(done.len(), 1);
    done.pop().unwrap()
}

#[test]
fn cache_hit_matches_cold_read_and_refault_after_eviction() {
    with_registry(Arc::new(Registry::new()), || {
        let mut svc = service(64 * 1024);
        for id in 0..4u64 {
            svc.preload(id, id as u32 % 3, &payload(1500, id)).unwrap();
        }
        // Cold read (miss), then hot read (hit): identical payloads and
        // identical degraded verdicts.
        let cold = read_one(&mut svc, 0);
        let hot = read_one(&mut svc, 0);
        match (&cold, &hot) {
            (
                Completion::ReadDone {
                    bytes: Some(a),
                    cache_hit: false,
                    degraded: da,
                    ..
                },
                Completion::ReadDone {
                    bytes: Some(b),
                    cache_hit: true,
                    degraded: db,
                    ..
                },
            ) => {
                assert_eq!(a, b, "cache hit must serve the decode's bytes");
                assert_eq!(da, db);
            }
            other => panic!("expected miss then hit, got {other:?}"),
        }
    });
}

#[test]
fn evicted_object_refaults_byte_identical() {
    with_registry(Arc::new(Registry::new()), || {
        // Cache fits roughly one object: every switch evicts.
        let mut svc = service(2048);
        for id in 0..6u64 {
            svc.preload(id, 0, &payload(1500, 100 + id)).unwrap();
        }
        let first: Vec<Completion> = (0..6u64).map(|id| read_one(&mut svc, id)).collect();
        // Each object was evicted by its successors; re-fault them all.
        let second: Vec<Completion> = (0..6u64).map(|id| read_one(&mut svc, id)).collect();
        for (a, b) in first.iter().zip(&second) {
            match (a, b) {
                (
                    Completion::ReadDone {
                        bytes: Some(x),
                        degraded: dx,
                        ..
                    },
                    Completion::ReadDone {
                        bytes: Some(y),
                        cache_hit,
                        degraded: dy,
                        ..
                    },
                ) => {
                    assert!(!cache_hit, "a one-object cache cannot hold the sweep");
                    assert_eq!(x, y, "re-fault after eviction must replay the decode");
                    assert_eq!(dx, dy);
                }
                other => panic!("expected served reads, got {other:?}"),
            }
        }
        let snap = vapp_obs::registry::current().snapshot();
        assert!(snap.counter("archive.cache.evictions") > 0);
        assert_eq!(snap.counter("archive.cache.hits"), 0);
    });
}

#[test]
fn deleted_object_is_invalidated_not_served_stale() {
    with_registry(Arc::new(Registry::new()), || {
        let mut svc = service(64 * 1024);
        svc.preload(9, 0, &payload(900, 9)).unwrap();
        let _warm = read_one(&mut svc, 9); // now cached
        svc.submit(Request::Delete { id: 9 }).unwrap();
        svc.drain_all();
        match read_one(&mut svc, 9) {
            Completion::ReadDone { bytes: None, .. } => {}
            other => panic!("deleted object served from cache: {other:?}"),
        }
    });
}

/// The `(id, cache_hit)` pairs of one drain cycle's read completions.
/// A read batch looks the cache up as it stood before the batch: its
/// misses enter the cache only after the whole batch is served.
fn batch_hits(svc: &mut ArchiveService, ids: &[u64]) -> Vec<(u64, bool)> {
    for &id in ids {
        svc.submit(Request::Read { id }).unwrap();
    }
    svc.drain_batch()
        .into_iter()
        .map(|c| match c {
            Completion::ReadDone {
                id,
                bytes: Some(_),
                cache_hit,
                ..
            } => (id, cache_hit),
            other => panic!("expected a served read, got {other:?}"),
        })
        .collect()
}

#[test]
fn an_uncached_id_read_twice_in_one_batch_misses_twice() {
    with_registry(Arc::new(Registry::new()), || {
        let mut svc = service(64 * 1024);
        svc.preload(1, 0, &payload(1500, 1)).unwrap();
        assert_eq!(batch_hits(&mut svc, &[1, 1]), [(1, false), (1, false)]);
        assert_eq!(batch_hits(&mut svc, &[1]), [(1, true)]);
    });
}

#[test]
fn a_hit_later_in_the_batch_survives_an_earlier_miss_that_evicts_it() {
    with_registry(Arc::new(Registry::new()), || {
        // Room for one object, `a` cached: in the batch `[b, a]`, `a` is
        // a hit although `b`'s insert evicts it afterwards.
        let (a, b) = (10, 11);
        let mut svc = service(2048);
        svc.preload(a, 0, &payload(1500, a)).unwrap();
        svc.preload(b, 0, &payload(1500, b)).unwrap();
        assert_eq!(batch_hits(&mut svc, &[a]), [(a, false)]);
        assert_eq!(batch_hits(&mut svc, &[b, a]), [(b, false), (a, true)]);
        assert_eq!(batch_hits(&mut svc, &[a]), [(a, false)]);
    });
}

/// Tier-2 soak: thousands of clients, full service path, 1-vs-8-thread
/// digest equality at scale. Run via the CI `--ignored` job:
/// `cargo test -q --release -- --ignored`.
#[test]
#[ignore = "tier-2 soak: thousands of clients (~minutes)"]
fn soak_fleet_thousands_of_clients_is_thread_count_invariant() {
    const SOAK_SEED: u64 = 0x50A4;
    let cfg = FleetConfig::soak();
    let seq = with_registry(Arc::new(Registry::new()), || {
        vapp_par::with_threads(1, || run_fleet(&cfg, SOAK_SEED))
    });
    let par = with_registry(Arc::new(Registry::new()), || {
        vapp_par::with_threads(8, || run_fleet(&cfg, SOAK_SEED))
    });
    assert_eq!(seq.digest, par.digest, "soak digest moved across threads");
    assert_eq!(seq.submitted, seq.completed + seq.rejected);
    assert!(seq.cache_hits > 0 && seq.reads_served > 0 && seq.ingested > 0);
}
