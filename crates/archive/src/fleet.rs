//! The fleet workload driver: thousands of simulated clients against one
//! archive service, as a pure function of a master seed.
//!
//! Every random decision — catalog payloads, per-round Poisson op
//! counts, Zipf read targets, upload sizes, delete victims — comes from
//! per-client sub-seeds fanned out of the master seed with
//! [`vapp_sim::derive_subseeds`]. Client plans are generated up front
//! (pure per client), then *submitted* in a fixed round-robin round
//! order, so the entire run — every stored byte, every served byte,
//! every queue rejection, every cache eviction — is a pure function of
//! the seed. The run digest folds the completion stream and the final
//! stable counters; wall-clock latencies go to `vapp-obs` sketches only
//! and are deliberately excluded.

use std::time::{Duration, Instant};

use vapp_rand::rngs::StdRng;
use vapp_rand::{RngExt, SeedableRng};
use vapp_sim::{derive_subseeds, sample_flip_count};
use vapp_storage::channel::mlc_pcm;

use crate::namespace::ObjectId;
use crate::service::{ArchiveService, Completion, Request, ServiceConfig};
use crate::store::{Archive, TenantPolicy};

/// Fleet shape and archive sizing.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Simulated clients.
    pub clients: usize,
    /// Scheduling rounds (each client submits its round's ops, round-robin).
    pub rounds: usize,
    /// Pre-loaded catalog objects (the Zipf read population).
    pub initial_objects: usize,
    /// Upper bound on object payload bytes (sizes draw from
    /// `[object_bytes/2, object_bytes)`).
    pub object_bytes: usize,
    /// Mean reads per client per round (Poisson-ish).
    pub read_rate: f64,
    /// Mean uploads per client per round.
    pub upload_rate: f64,
    /// Mean deletes per client per round (of the client's own uploads).
    pub delete_rate: f64,
    /// Zipf exponent for read popularity over the catalog.
    pub zipf_s: f64,
    /// Shard banks.
    pub banks: usize,
    /// Blocks per bank.
    pub bank_blocks: u64,
    /// Raw bit error rate of the MLC substrate.
    pub raw_ber: f64,
    /// Scheduler knobs (queue depth, batch, cache bytes, compaction).
    pub service: ServiceConfig,
}

impl FleetConfig {
    /// Tier-1 scale: small enough for CI, queues sized to provoke real
    /// backpressure and the cache sized to force evictions.
    pub fn smoke() -> Self {
        FleetConfig {
            clients: 24,
            rounds: 4,
            initial_objects: 48,
            object_bytes: 1536,
            read_rate: 2.0,
            upload_rate: 0.5,
            delete_rate: 0.25,
            zipf_s: 1.1,
            banks: 4,
            bank_blocks: 4096,
            raw_ber: 1e-3,
            service: ServiceConfig {
                queue_depth: 16,
                batch: 8,
                cache_bytes: 32 * 1024,
                compact_fragments: 2,
            },
        }
    }

    /// Tier-2 scale: thousands of clients (the `#[ignore]`d soak).
    pub fn soak() -> Self {
        FleetConfig {
            clients: 2000,
            rounds: 3,
            initial_objects: 400,
            object_bytes: 2048,
            read_rate: 1.0,
            upload_rate: 0.2,
            delete_rate: 0.1,
            zipf_s: 1.2,
            banks: 8,
            bank_blocks: 1 << 16,
            raw_ber: 1e-3,
            service: ServiceConfig {
                queue_depth: 256,
                batch: 64,
                cache_bytes: 256 * 1024,
                compact_fragments: 12,
            },
        }
    }
}

/// What a fleet run produced: the determinism digest plus the stable
/// counters (everything here is a pure function of the seed except
/// `elapsed`).
#[derive(Clone, Debug)]
pub struct FleetOutcome {
    /// FNV-1a over the completion stream + final stable counters.
    pub digest: u64,
    /// Submit attempts (accepted + rejected).
    pub submitted: u64,
    /// Typed queue-full rejections.
    pub rejected: u64,
    /// Completions delivered.
    pub completed: u64,
    /// Reads answered with payload bytes.
    pub reads_served: u64,
    /// Hot-cache hits / misses / evictions.
    pub cache_hits: u64,
    /// See `cache_hits`.
    pub cache_misses: u64,
    /// See `cache_hits`.
    pub cache_evictions: u64,
    /// Reads on which the substrate changed payload bits.
    pub degraded: u64,
    /// Objects ingested through the queue (excludes catalog preload).
    pub ingested: u64,
    /// Objects deleted.
    pub deleted: u64,
    /// Compaction sweeps that ran.
    pub compaction_runs: u64,
    /// Wall-clock run time (NOT part of the digest).
    pub elapsed: Duration,
}

/// One planned client operation. Upload payloads are regenerated from
/// `payload_seed` at submit time so plans stay small.
#[derive(Clone, Debug)]
enum PlannedOp {
    Upload { seq: u32, payload_seed: u64 },
    Read { id: ObjectId },
    Delete { seq: u32 },
}

struct ClientPlan {
    rounds: Vec<Vec<PlannedOp>>,
}

fn make_id(client: usize, seq: u32) -> ObjectId {
    ((client as u64 + 1) << 40) | seq as u64
}

/// Deterministic payload: size in `[max/2, max)`, bytes from the seed.
fn gen_payload(seed: u64, max_bytes: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let half = (max_bytes / 2).max(1);
    let n = half + rng.random_range(0..half as u64) as usize;
    (0..n).map(|_| rng.random::<u8>()).collect()
}

/// Zipf CDF over ranks `0..n` with weight `1/(r+1)^s`.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for r in 0..n {
        acc += 1.0 / ((r + 1) as f64).powf(s);
        cdf.push(acc);
    }
    cdf
}

fn sample_zipf(cdf: &[f64], rng: &mut StdRng) -> usize {
    let total = *cdf.last().expect("non-empty catalog");
    let u = rng.random::<f64>() * total;
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
}

/// Poisson-ish draw with mean `rate` (binomial with n=1000).
fn poisson_ish(rate: f64, rng: &mut StdRng) -> u64 {
    sample_flip_count(1000, rate / 1000.0, rng)
}

/// Builds one client's whole schedule from its sub-seed. Pure: same
/// seed + config → same plan, regardless of which worker runs it.
fn plan_client(seed: u64, cfg: &FleetConfig, cdf: &[f64]) -> ClientPlan {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next_seq = 0u32;
    // Own uploads from *earlier* rounds still alive (delete candidates).
    let mut alive: Vec<u32> = Vec::new();
    let mut rounds = Vec::with_capacity(cfg.rounds);
    for _ in 0..cfg.rounds {
        let mut ops = Vec::new();
        for _ in 0..poisson_ish(cfg.upload_rate, &mut rng) {
            ops.push(PlannedOp::Upload {
                seq: next_seq,
                payload_seed: rng.random::<u64>(),
            });
            next_seq += 1;
        }
        for _ in 0..poisson_ish(cfg.read_rate, &mut rng) {
            ops.push(PlannedOp::Read {
                id: sample_zipf(cdf, &mut rng) as ObjectId,
            });
        }
        for _ in 0..poisson_ish(cfg.delete_rate, &mut rng) {
            if alive.is_empty() {
                continue;
            }
            let k = rng.random_range(0..alive.len() as u64) as usize;
            ops.push(PlannedOp::Delete {
                seq: alive.swap_remove(k),
            });
        }
        // This round's uploads become next round's delete candidates.
        for op in &ops {
            if let PlannedOp::Upload { seq, .. } = op {
                alive.push(*seq);
            }
        }
        rounds.push(ops);
    }
    ClientPlan { rounds }
}

const FNV_BASIS: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fold_bytes(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

fn fold_u64(h: &mut u64, v: u64) {
    fold_bytes(h, &v.to_le_bytes());
}

fn fold_completions(h: &mut u64, completions: &[Completion]) {
    for c in completions {
        match c {
            Completion::Ingested { id, error } => {
                fold_u64(h, 1);
                fold_u64(h, *id);
                fold_u64(h, error.is_some() as u64);
            }
            Completion::ReadDone {
                id,
                bytes,
                cache_hit,
                degraded,
            } => {
                fold_u64(h, 2);
                fold_u64(h, *id);
                fold_u64(h, *cache_hit as u64);
                fold_u64(h, *degraded as u64);
                match bytes {
                    Some(b) => {
                        fold_u64(h, b.len() as u64);
                        fold_bytes(h, b);
                    }
                    None => fold_u64(h, u64::MAX),
                }
            }
            Completion::Deleted { id, existed } => {
                fold_u64(h, 3);
                fold_u64(h, *id);
                fold_u64(h, *existed as u64);
            }
        }
    }
}

/// Runs the fleet against a fresh archive. The returned digest and
/// counters are a pure function of `(cfg, master_seed)` — see
/// `tests/archive_service.rs` for the 1-vs-8-thread pin.
pub fn run_fleet(cfg: &FleetConfig, master_seed: u64) -> FleetOutcome {
    let _span = vapp_obs::span!("archive.fleet");
    let start = Instant::now();
    // Counters fold into the digest as *deltas* across this run, so a
    // second run in the same process (same registry) stays a pure
    // function of the seed.
    let snap0 = vapp_obs::registry::current().snapshot();
    let tenants = TenantPolicy::default_tiers();
    let n_tenants = tenants.len();

    let seeds = derive_subseeds(master_seed, 2 + cfg.clients);
    let archive_seed = seeds[0];
    let catalog_seed = seeds[1];

    let archive = Archive::new(
        cfg.banks,
        cfg.bank_blocks,
        mlc_pcm(cfg.raw_ber),
        tenants,
        archive_seed,
    );
    let mut service = ArchiveService::new(archive, cfg.service);

    // Catalog preload, in id order.
    let catalog_seeds = derive_subseeds(catalog_seed, cfg.initial_objects);
    for (i, &s) in catalog_seeds.iter().enumerate() {
        let payload = gen_payload(s, cfg.object_bytes);
        service
            .preload(i as ObjectId, (i % n_tenants) as u32, &payload)
            .expect("catalog must fit the configured banks");
    }

    // Client schedules: pure per client.
    let cdf = zipf_cdf(cfg.initial_objects, cfg.zipf_s);
    let plans: Vec<_> = seeds[2..]
        .iter()
        .map(|&s| plan_client(s, cfg, &cdf))
        .collect();

    // Drive: fixed round-robin submission order; on backpressure, drain
    // a batch (folding its completions) and resubmit — never drop.
    let mut digest = FNV_BASIS;
    for round in 0..cfg.rounds {
        for (client, plan) in plans.iter().enumerate() {
            for op in &plan.rounds[round] {
                let mut req = match op {
                    PlannedOp::Upload { seq, payload_seed } => Request::Ingest {
                        id: make_id(client, *seq),
                        tenant: (client % n_tenants) as u32,
                        payload: gen_payload(*payload_seed, cfg.object_bytes),
                    },
                    PlannedOp::Read { id } => Request::Read { id: *id },
                    PlannedOp::Delete { seq } => Request::Delete {
                        id: make_id(client, *seq),
                    },
                };
                loop {
                    match service.submit(req) {
                        Ok(()) => break,
                        Err(full) => {
                            req = full.item;
                            let done = service.drain_batch();
                            fold_completions(&mut digest, &done);
                        }
                    }
                }
            }
        }
    }
    let done = service.drain_all();
    fold_completions(&mut digest, &done);

    // Stable counters seal the digest; latency sketches stay out.
    let snap = vapp_obs::registry::current().snapshot();
    let c = |name: &str| snap.counter(name) - snap0.counter(name);
    let stable = [
        c("archive.req.submitted"),
        c("archive.req.rejected"),
        c("archive.req.completed"),
        c("archive.read.served"),
        c("archive.read.degraded"),
        c("archive.cache.hits"),
        c("archive.cache.misses"),
        c("archive.cache.evictions"),
        c("archive.ingest.objects"),
        c("archive.ingest.bytes"),
        c("archive.delete.objects"),
        c("archive.compact.runs"),
        c("archive.compact.moved_blocks"),
    ];
    for v in stable {
        fold_u64(&mut digest, v);
    }

    FleetOutcome {
        digest,
        submitted: stable[0],
        rejected: stable[1],
        completed: stable[2],
        reads_served: stable[3],
        degraded: stable[4],
        cache_hits: stable[5],
        cache_misses: stable[6],
        cache_evictions: stable[7],
        ingested: stable[8],
        deleted: stable[10],
        compaction_runs: stable[11],
        elapsed: start.elapsed(),
    }
}
