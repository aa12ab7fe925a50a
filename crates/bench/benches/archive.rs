//! Archive service timing: the smoke fleet end to end, the raw read
//! decode path, and the cache-hit fast path. `BENCH_archive.json` is
//! gated against `baselines/BENCH_archive.json` by `bench_compare` in
//! CI; the workload is seed-pinned so only wall-clock may move.

use std::hint::black_box;
use std::sync::Arc;

use vapp_archive::{run_fleet, Archive, FleetConfig, TenantPolicy};
use vapp_bench::harness::Criterion;
use vapp_bench::{criterion_group, criterion_main};
use vapp_obs::registry::with_registry;
use vapp_obs::Registry;
use vapp_rand::rngs::StdRng;
use vapp_rand::{RngExt, SeedableRng};
use vapp_storage::channel::mlc_pcm;

fn payload(n: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.random::<u8>()).collect()
}

fn bench_archive(c: &mut Criterion) {
    let mut group = c.benchmark_group("archive");
    group.sample_size(10);

    // The whole tier-1 fleet: queues, scheduler, cache, compaction.
    group.bench_function("fleet_smoke", |b| {
        let cfg = FleetConfig::smoke();
        b.iter(|| {
            with_registry(Arc::new(Registry::new()), || {
                black_box(run_fleet(&cfg, 0xA2C4_17E0))
            })
        });
    });

    // The miss path alone: substrate damage of a three-tier object mix,
    // no queue/cache machinery. Most blocks draw no flips or at most t,
    // which the BCH radius settles without decoding; only the rest reach
    // the batch decoder.
    let mut archive = Archive::new(2, 8192, mlc_pcm(1e-3), TenantPolicy::default_tiers(), 5);
    for id in 0..24u64 {
        archive
            .put(id, (id % 3) as u32, &payload(1536, id))
            .unwrap();
    }
    group.bench_function("read_decode_24_objects", |b| {
        b.iter(|| {
            for id in 0..24u64 {
                black_box(archive.read(id).unwrap());
            }
        });
    });

    // The hit path alone: LRU bookkeeping + payload clone.
    group.bench_function("cache_hit", |b| {
        let mut cache = vapp_archive::HotCache::new(1 << 20);
        for id in 0..16u64 {
            cache.insert(
                id,
                vapp_archive::CachedObject {
                    bytes: payload(1536, id),
                    degraded: false,
                },
            );
        }
        b.iter(|| {
            for id in 0..16u64 {
                black_box(cache.get(id).unwrap());
            }
        });
    });

    group.finish();
    vapp_obs::maybe_write_run_snapshot("archive");
}

criterion_group!(benches, bench_archive);
criterion_main!(benches);
