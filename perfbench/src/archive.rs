//! `archive`: the archive service under a closed loop of clients, each
//! with one request outstanding. 80% Zipf reads over a preloaded catalog,
//! 10% uploads and 10% deletes of the client's own uploads. Refused
//! requests are retried, and their wait counts in latency.
//!
//! The service has no clock: requests finish when the caller drains. The
//! load generator keeps a virtual clock that advances only inside calls into the
//! program (`submit`, `drain_batch`), so latency and throughput exclude
//! the load generator's own work (planning, payload generation, checking).

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use vapp_archive::{
    Archive, ArchiveService, Completion, ObjectId, Request, ServiceConfig, TenantPolicy,
};
use vapp_obs::registry::{with_registry, Registry};
use vapp_rand::rngs::StdRng;
use vapp_rand::{RngCore, RngExt, SeedableRng};
use vapp_storage::bank::BLOCK_BYTES;
use videoapp::mlc_pcm;

use crate::ledger::{per, Ledger};
use crate::stats::{nproc, Fnv, Reservoir};
use crate::{
    calib, layer, mix, ns_since, record_latency, timed_setup, Checkpoint, Outcome, RunCfg, Stop,
    RAW_BER,
};

/// Workload shape and service sizing.
#[derive(Clone, Copy, Debug)]
struct ArchiveCfg {
    /// Closed-loop clients, one outstanding request each.
    clients: usize,
    /// Preloaded catalog objects (the Zipf read population).
    catalog: usize,
    /// Object payload size range `[min, max)` in bytes.
    min_bytes: usize,
    /// See `min_bytes`.
    max_bytes: usize,
    /// Zipf exponent of read popularity.
    zipf_s: f64,
    /// Shard banks.
    banks: usize,
    /// Blocks per bank.
    bank_blocks: u64,
    /// Scheduler knobs.
    service: ServiceConfig,
    /// Uploads a client keeps alive at most; beyond it an upload turns
    /// into a delete, so the live population holds steady.
    live_cap: usize,
    /// Completions in the deterministic checkpoint.
    checkpoint_ops: u64,
    /// Warm-up completions inside each set-up.
    warmup_ops: u64,
}

impl ArchiveCfg {
    /// The benchmark's archive workload.
    const BENCH: ArchiveCfg = ArchiveCfg {
        clients: 64,
        catalog: 1000,
        min_bytes: 2048,
        max_bytes: 4096,
        zipf_s: 1.1,
        banks: 4,
        bank_blocks: 65_536,
        service: ServiceConfig {
            queue_depth: 32,
            batch: 16,
            cache_bytes: 512 * 1024,
            compact_fragments: 48,
        },
        live_cap: 16,
        checkpoint_ops: 4096,
        warmup_ops: 32_768,
    };
}

/// Share of requests that are reads; uploads take the next
/// [`UPLOAD_FRAC`], deletes the rest.
const READ_FRAC: f64 = 0.8;
/// See [`READ_FRAC`].
const UPLOAD_FRAC: f64 = 0.1;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Deleted ids re-read by the end-of-run verification.
const VERIFY_DELETED: usize = 64;

const CATALOG_SALT: u64 = 0xCA7A_1065;
const CLIENT_SALT: u64 = 0xC11E_4775;
const ARCHIVE_SALT: u64 = 0xA4C8_17E5;

/// Worker count of the measured phases. One: at two workers every
/// drain's read-miss fan-out spawns threads, and on a 2-vCPU shared VM
/// the cross-vCPU wake-ups and steal moved the request tail between 1.8
/// and 4.8 ms from one run to the next (and two workers were ~20% slower).
const WORKERS: usize = 1;

/// Worker count of the traced run's fan-out phase, which measures
/// `vapp-par`'s read-miss fan-out: two where the machine has them.
fn fanout_workers() -> usize {
    nproc().min(2)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Read,
    Upload,
    Delete,
}

/// A client's outstanding request.
struct Pending {
    /// The request while it still has to be (re)submitted.
    req: Option<Request>,
    kind: Kind,
    id: ObjectId,
    /// Virtual time of the first submit attempt.
    first_vt: Option<u64>,
    /// Length and checksum of an upload's payload.
    expect: (usize, u64),
}

struct Client {
    rng: StdRng,
    next_seq: u32,
    live: Vec<u32>,
    pending: Option<Pending>,
}

/// One measured phase.
#[derive(Default)]
struct Phase {
    /// Latency of every request in ns, first submit → completion.
    lat: Reservoir,
    /// Catalog reads only.
    read: Reservoir,
    /// Uploads only.
    write: Reservoir,
    /// Virtual time spent in program calls, scaled to reference speed.
    timed_ns: u64,
    /// The same, raw.
    raw_ns: u64,
    /// Completions.
    ops: u64,
    /// Completions that failed a check.
    failed: u64,
    /// Submit attempts, refusals among them.
    submitted: u64,
    /// See `submitted`.
    refused: u64,
}

impl Phase {
    fn ops_per_s(&self) -> f64 {
        per(self.ops as f64, self.timed_ns as f64 / 1e9)
    }
}

/// The closed-loop load generator around one service.
struct ClosedLoop {
    cfg: ArchiveCfg,
    service: ArchiveService,
    clients: Vec<Client>,
    cdf: Vec<f64>,
    tenants: usize,
    /// Length and checksum of each catalog object.
    catalog: Vec<(usize, u64)>,
    /// Length and checksum of each live upload.
    uploads: HashMap<ObjectId, (usize, u64)>,
    deleted: VecDeque<ObjectId>,
    /// Accepted requests awaiting completion, per id, in queue order.
    waiting: HashMap<ObjectId, VecDeque<usize>>,
    vt_ns: u64,
    raw_ns: u64,
    /// Requests planned (each must complete exactly once).
    planned: u64,
    /// Completions delivered since construction.
    completed: u64,
    phase: Phase,
    digest: Fnv,
    ck_done: u64,
    ck_hits: u64,
    ck_refused: u64,
    checkpoint: Option<Checkpoint>,
    /// Problems not tied to one request.
    failures: Vec<String>,
}

fn make_id(client: usize, seq: u32) -> ObjectId {
    ((client as u64 + 1) << 40) | seq as u64
}

fn gen_payload(rng: &mut StdRng, cfg: &ArchiveCfg) -> Vec<u8> {
    let n = cfg.min_bytes + rng.random_range(0..(cfg.max_bytes - cfg.min_bytes) as u64) as usize;
    let mut buf = vec![0u8; n];
    rng.fill_bytes(&mut buf);
    buf
}

fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    (0..n)
        .map(|r| {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            acc
        })
        .collect()
}

fn completion_id(c: &Completion) -> ObjectId {
    match c {
        Completion::Ingested { id, .. }
        | Completion::ReadDone { id, .. }
        | Completion::Deleted { id, .. } => *id,
    }
}

fn fold_completion(h: &mut Fnv, c: &Completion) {
    match c {
        Completion::Ingested { id, error } => {
            h.u64(1);
            h.u64(*id);
            h.u64(error.is_some() as u64);
        }
        Completion::ReadDone {
            id,
            bytes,
            cache_hit,
            degraded,
        } => {
            h.u64(2);
            h.u64(*id);
            h.u64(*cache_hit as u64);
            h.u64(*degraded as u64);
            match bytes {
                Some(b) => {
                    h.u64(b.len() as u64);
                    h.bytes(b);
                }
                None => h.u64(u64::MAX),
            }
        }
        Completion::Deleted { id, existed } => {
            h.u64(3);
            h.u64(*id);
            h.u64(*existed as u64);
        }
    }
}

/// The catalog payloads of a seed (input generation: never timed).
fn catalog_payloads(seed: u64, cfg: &ArchiveCfg) -> Vec<Vec<u8>> {
    (0..cfg.catalog as u64)
        .map(|i| gen_payload(&mut StdRng::seed_from_u64(mix(seed ^ CATALOG_SALT, i)), cfg))
        .collect()
}

impl ClosedLoop {
    /// Builds the archive, preloads the catalog and warms up; returns
    /// the load generator and the nanoseconds spent in program calls.
    fn setup(seed: u64, cfg: ArchiveCfg, payloads: &[Vec<u8>]) -> (ClosedLoop, u64) {
        let tenant_tiers = TenantPolicy::default_tiers();
        let tenants = tenant_tiers.len();
        let clients = (0..cfg.clients)
            .map(|c| Client {
                rng: StdRng::seed_from_u64(mix(seed ^ CLIENT_SALT, c as u64)),
                next_seq: 0,
                live: Vec::new(),
                pending: None,
            })
            .collect();
        let catalog = payloads.iter().map(|p| (p.len(), Fnv::of(p))).collect();
        let cdf = zipf_cdf(cfg.catalog, cfg.zipf_s);

        let start = Instant::now();
        let archive = Archive::new(
            cfg.banks,
            cfg.bank_blocks,
            mlc_pcm(RAW_BER),
            tenant_tiers,
            mix(seed, ARCHIVE_SALT),
        );
        let mut service = ArchiveService::new(archive, cfg.service);
        let preloaded = payloads
            .iter()
            .enumerate()
            .filter(|(i, p)| {
                service
                    .preload(*i as ObjectId, (i % tenants) as u32, p)
                    .is_ok()
            })
            .count();
        let preload_ns = ns_since(start);

        let mut d = ClosedLoop {
            cfg,
            service,
            clients,
            cdf,
            tenants,
            catalog,
            uploads: HashMap::new(),
            deleted: VecDeque::new(),
            waiting: HashMap::new(),
            vt_ns: 0,
            raw_ns: 0,
            planned: 0,
            completed: 0,
            phase: Phase::default(),
            digest: Fnv::default(),
            ck_done: 0,
            ck_hits: 0,
            ck_refused: 0,
            checkpoint: None,
            failures: Vec::new(),
        };
        if preloaded != payloads.len() {
            d.failures.push(format!(
                "catalog preload: {preloaded} of {} objects fit",
                payloads.len()
            ));
        }
        d.run(Stop::Ops(cfg.warmup_ops), false);
        let warm = d.take_phase();
        if warm.failed > 0 {
            d.failures
                .push(format!("{} warm-up requests failed", warm.failed));
        }
        (d, preload_ns + warm.raw_ns)
    }

    /// Plans client `c`'s next request.
    fn plan(&mut self, c: usize) -> Pending {
        let cfg = self.cfg;
        let client = &mut self.clients[c];
        let r: f64 = client.rng.random();
        let mut kind = if r < READ_FRAC {
            Kind::Read
        } else if r < READ_FRAC + UPLOAD_FRAC {
            Kind::Upload
        } else {
            Kind::Delete
        };
        if kind == Kind::Delete && client.live.is_empty() {
            kind = Kind::Upload;
        } else if kind == Kind::Upload && client.live.len() >= cfg.live_cap {
            kind = Kind::Delete;
        }
        self.planned += 1;
        let (id, req, expect) = match kind {
            Kind::Read => {
                let total = *self.cdf.last().expect("non-empty catalog");
                let u = client.rng.random::<f64>() * total;
                let rank = self
                    .cdf
                    .partition_point(|&x| x <= u)
                    .min(self.cdf.len() - 1);
                let id = rank as ObjectId;
                (id, Request::Read { id }, (0, 0))
            }
            Kind::Upload => {
                let id = make_id(c, client.next_seq);
                client.next_seq += 1;
                let payload = gen_payload(&mut client.rng, &cfg);
                let expect = (payload.len(), Fnv::of(&payload));
                let tenant = (c % self.tenants) as u32;
                (
                    id,
                    Request::Ingest {
                        id,
                        tenant,
                        payload,
                    },
                    expect,
                )
            }
            Kind::Delete => {
                let k = client.rng.random_range(0..client.live.len() as u64) as usize;
                let id = make_id(c, client.live.swap_remove(k));
                (id, Request::Delete { id }, (0, 0))
            }
        };
        Pending {
            req: Some(req),
            kind,
            id,
            first_vt: None,
            expect,
        }
    }

    /// One scheduler cycle: every client without a request plans one (if
    /// `generate`), every request not yet accepted is (re)submitted, then
    /// one drain.
    fn cycle(&mut self, generate: bool, traced: bool) {
        calib::tick();
        for c in 0..self.clients.len() {
            if self.clients[c].pending.is_none() && generate {
                let p = self.plan(c);
                self.clients[c].pending = Some(p);
            }
            let vt = self.vt_ns;
            let Some(p) = self.clients[c].pending.as_mut() else {
                continue;
            };
            let Some(req) = p.req.take() else {
                continue; // accepted, awaiting completion
            };
            p.first_vt.get_or_insert(vt);
            let id = p.id;
            let service = &mut self.service;
            let start = Instant::now();
            let res = layer(traced, "bench.archive.submit", || service.submit(req));
            self.advance(ns_since(start));
            self.phase.submitted += 1;
            match res {
                Ok(()) => self.waiting.entry(id).or_default().push_back(c),
                Err(full) => {
                    self.phase.refused += 1;
                    if let Some(p) = self.clients[c].pending.as_mut() {
                        p.req = Some(full.item);
                    }
                }
            }
        }
        let service = &mut self.service;
        let start = Instant::now();
        let done = layer(traced, "bench.archive.drain", || service.drain_batch());
        self.advance(ns_since(start));
        for comp in done {
            self.complete(comp);
        }
    }

    /// Advances the virtual clock by one program call of `ns`.
    fn advance(&mut self, ns: u64) {
        self.vt_ns += calib::scale(ns);
        self.raw_ns += ns;
    }

    /// Accounts one completion against the client that sent it.
    fn complete(&mut self, comp: Completion) {
        let id = completion_id(&comp);
        let client = self.waiting.get_mut(&id).and_then(VecDeque::pop_front);
        if self.waiting.get(&id).is_some_and(VecDeque::is_empty) {
            self.waiting.remove(&id);
        }
        let Some(c) = client else {
            self.failures
                .push(format!("completion for {id} nobody waits for"));
            return;
        };
        let p = self.clients[c]
            .pending
            .take()
            .expect("waiting client has a request");
        let lat = (self.vt_ns - p.first_vt.expect("submitted")) as f64 / 1e6;
        self.completed += 1;
        self.phase.ops += 1;
        self.phase.lat.record(lat);
        let ok = match (&comp, p.kind) {
            (
                Completion::ReadDone {
                    bytes, degraded, ..
                },
                Kind::Read,
            ) => {
                self.phase.read.record(lat);
                let (len, sum) = self.catalog[id as usize];
                matches!(bytes, Some(b) if b.len() == len && (*degraded || Fnv::of(b) == sum))
            }
            (Completion::Ingested { error, .. }, Kind::Upload) => {
                self.phase.write.record(lat);
                if error.is_none() {
                    self.uploads.insert(id, p.expect);
                    self.clients[c].live.push((id & 0xFF_FFFF_FFFF) as u32);
                }
                error.is_none()
            }
            (Completion::Deleted { existed, .. }, Kind::Delete) => {
                self.uploads.remove(&id);
                self.deleted.push_back(id);
                if self.deleted.len() > VERIFY_DELETED {
                    self.deleted.pop_front();
                }
                *existed
            }
            _ => false,
        };
        self.phase.failed += u64::from(!ok);
        if self.ck_done < self.cfg.checkpoint_ops {
            fold_completion(&mut self.digest, &comp);
            if let Completion::ReadDone {
                cache_hit: true, ..
            } = comp
            {
                self.ck_hits += 1;
            }
            self.ck_done += 1;
            if self.ck_done == self.cfg.checkpoint_ops {
                self.checkpoint = Some(Checkpoint {
                    digest: self.digest.0,
                    values: vec![
                        ("space_amp", self.space_amp()),
                        ("cache_hits", self.ck_hits as f64),
                        ("refused", (self.phase.refused - self.ck_refused) as f64),
                    ],
                });
            }
        }
    }

    /// Runs cycles until `stop` counts enough completions, then lets every
    /// outstanding request finish (no new ones).
    fn run(&mut self, stop: Stop, traced: bool) {
        while !stop.reached(self.phase.ops) {
            self.cycle(true, traced);
        }
        while self.clients.iter().any(|c| c.pending.is_some()) {
            self.cycle(false, traced);
        }
    }

    /// Returns the current phase's record and starts a new one. The phase
    /// time is the virtual clock's advance over it.
    fn take_phase(&mut self) -> Phase {
        let mut phase = std::mem::take(&mut self.phase);
        phase.timed_ns = self.vt_ns;
        phase.raw_ns = self.raw_ns;
        self.vt_ns = 0;
        self.raw_ns = 0;
        phase
    }

    /// Starts the deterministic checkpoint at the next completion.
    fn start_checkpoint(&mut self) {
        self.digest = Fnv::default();
        self.ck_done = 0;
        self.ck_hits = 0;
        self.ck_refused = self.phase.refused;
        self.checkpoint = None;
    }

    /// Allocated block bytes over live payload bytes.
    fn space_amp(&self) -> f64 {
        let archive = self.service.archive();
        let total = self.cfg.banks as u64 * self.cfg.bank_blocks;
        let allocated = (total - archive.free_blocks()) * BLOCK_BYTES as u64;
        let live: u64 = archive.namespace().iter().map(|(_, m)| m.bytes()).sum();
        per(allocated as f64, live as f64)
    }

    /// Whether every planned request completed exactly once and nothing
    /// is left queued or awaited.
    fn settled(&self) -> bool {
        self.planned == self.completed
            && self.waiting.is_empty()
            && self.clients.iter().all(|c| c.pending.is_none())
            && self.service.queue_lens() == (0, 0)
    }

    /// Reads back every live upload and the last deleted ids through the
    /// service (untimed). Returns (reads, failed reads).
    fn verify(&mut self) -> (u64, u64) {
        let mut expect: Vec<(ObjectId, Option<(usize, u64)>)> =
            self.uploads.iter().map(|(id, e)| (*id, Some(*e))).collect();
        expect.sort_unstable_by_key(|(id, _)| *id);
        expect.extend(self.deleted.iter().map(|id| (*id, None)));
        let mut done = Vec::new();
        for (id, _) in &expect {
            let mut req = Request::Read { id: *id };
            while let Err(full) = self.service.submit(req) {
                req = full.item;
                done.extend(self.service.drain_batch());
            }
        }
        done.extend(self.service.drain_all());
        let want: HashMap<ObjectId, Option<(usize, u64)>> = expect.iter().copied().collect();
        let mut failed = (expect.len() as u64).abs_diff(done.len() as u64);
        for c in &done {
            let ok = match (c, want.get(&completion_id(c))) {
                (
                    Completion::ReadDone {
                        bytes: Some(b),
                        degraded,
                        ..
                    },
                    Some(Some((len, sum))),
                ) => b.len() == *len && (*degraded || Fnv::of(b) == *sum),
                (Completion::ReadDone { bytes: None, .. }, Some(None)) => true,
                _ => false,
            };
            failed += u64::from(!ok);
        }
        (expect.len() as u64, failed)
    }
}

/// Service counters that must agree with the load generator's accounting.
fn req_counters() -> [u64; 3] {
    let reg = vapp_obs::registry::current();
    [
        reg.counter("archive.req.submitted").get(),
        reg.counter("archive.req.rejected").get(),
        reg.counter("archive.req.completed").get(),
    ]
}

/// Runs one phase and checks the service's own request accounting
/// against the load generator's.
fn phase(d: &mut ClosedLoop, stop: Stop, traced: bool, out: &mut Outcome) -> Phase {
    let before = req_counters();
    d.run(stop, traced);
    let after = req_counters();
    let p = d.take_phase();
    let delta = [
        after[0] - before[0],
        after[1] - before[1],
        after[2] - before[2],
    ];
    out.check(
        delta == [p.submitted, p.refused, p.ops],
        "service counters match the load generator (submitted, refused, completed)",
    );
    out.check(
        p.submitted == p.ops + p.refused,
        "submitted == completed + refused",
    );
    out.attempted += p.ops;
    out.failed += p.failed;
    p
}

/// The deterministic checkpoint alone, untimed.
pub fn checkpoint(seed: u64) -> Checkpoint {
    checkpoint_with(seed, ArchiveCfg::BENCH)
}

/// [`checkpoint`] for any configuration.
fn checkpoint_with(seed: u64, cfg: ArchiveCfg) -> Checkpoint {
    vapp_par::set_threads(Some(WORKERS));
    let payloads = catalog_payloads(seed, &cfg);
    let (mut d, _) = ClosedLoop::setup(seed, cfg, &payloads);
    d.start_checkpoint();
    d.run(Stop::Ops(cfg.checkpoint_ops), false);
    d.checkpoint.take().unwrap_or_default()
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    let acfg = ArchiveCfg::BENCH;
    vapp_par::set_threads(Some(WORKERS));
    let mut out = Outcome::default();
    let payloads = catalog_payloads(cfg.seed, &acfg);
    let (mut d, setup_s, note) =
        timed_setup(SETUP_REPS, || ClosedLoop::setup(cfg.seed, acfg, &payloads));
    drop(payloads);
    out.notes.push(note);
    out.notes.push(format!(
        "workers={} (fan-out phase {}) nproc={} clients={} catalog={} cache={} KiB",
        WORKERS,
        fanout_workers(),
        nproc(),
        acfg.clients,
        acfg.catalog,
        acfg.service.cache_bytes / 1024
    ));
    out.set("setup_s", setup_s);

    let secs = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    d.start_checkpoint();
    let plain = phase(
        &mut d,
        Stop::after(secs, acfg.checkpoint_ops),
        false,
        &mut out,
    );
    out.checkpoint = d.checkpoint.take().unwrap_or_default();
    out.check(!out.checkpoint.values.is_empty(), "checkpoint reached");
    out.set("ops_per_s", plain.ops_per_s());
    out.notes.push(format!(
        "raw (unscaled) ops_per_s {:.4}",
        per(plain.ops as f64, plain.raw_ns as f64 / 1e9)
    ));
    record_latency(
        &mut out,
        "request",
        &plain.lat,
        "latency_p50_ms",
        "latency_tail_ms",
    );
    record_latency(&mut out, "read", &plain.read, "read_p50_ms", "read_tail_ms");
    record_latency(
        &mut out,
        "upload",
        &plain.write,
        "write_p50_ms",
        "write_tail_ms",
    );
    if let Some((_, amp)) = out.checkpoint.values.first() {
        out.set("space_amp", *amp);
    }
    out.notes.push(format!(
        "refused {} of {} submits; space_amp at end {:.4}",
        plain.refused,
        plain.submitted,
        d.space_amp()
    ));

    if cfg.trace {
        let reg = Arc::new(Registry::new());
        let traced = with_registry(reg.clone(), || {
            phase(&mut d, Stop::after(secs, 1), true, &mut out)
        });
        let ledger = Ledger::new(reg.snapshot(), traced.ops, traced.raw_ns);
        let ops = traced.ops as f64;
        let hits = ledger.counter("archive.cache.hits") as f64;
        let misses = ledger.counter("archive.cache.misses") as f64;
        out.set(
            "archive.submit.us",
            ledger.per_call("bench.archive.submit", 1e3),
        );
        out.set(
            "archive.drain.ms",
            ledger.per_call("bench.archive.drain", 1e6),
        );
        out.set(
            "archive.read_hit.us",
            ledger.p50("archive.op.read_hit.ns", 1e3),
        );
        out.set(
            "archive.read_miss.us",
            ledger.p50("archive.op.read_miss.ns", 1e3),
        );
        out.set("archive.ingest.us", ledger.p50("archive.op.ingest.ns", 1e3));
        out.set("archive.delete.us", ledger.p50("archive.op.delete.ns", 1e3));
        out.set("archive.cache.hit_rate", per(hits, hits + misses));
        out.set(
            "archive.cache.evictions_per_op",
            per(ledger.counter("archive.cache.evictions") as f64, ops),
        );
        out.set(
            "archive.queue.refused_frac",
            per(traced.refused as f64, traced.submitted as f64),
        );
        out.set(
            "archive.compact.runs",
            ledger.counter("archive.compact.runs") as f64,
        );
        out.set(
            "archive.compact.moved_blocks_per_op",
            per(ledger.counter("archive.compact.moved_blocks") as f64, ops),
        );
        out.set(
            "archive.read.degraded_frac",
            per(
                ledger.counter("archive.read.degraded") as f64,
                ledger.counter("archive.read.served") as f64,
            ),
        );
        out.set("obs.spans_per_op", ledger.program_spans_per_op());
        out.set("bench.unattributed_pct", ledger.unattributed_pct());
        out.set(
            "bench.trace_overhead_pct",
            100.0 * per(plain.ops_per_s() - traced.ops_per_s(), plain.ops_per_s()),
        );
        out.set("bench.samples", ops);

        // Fan-out phase: the same service at `fanout_workers()`, untraced.
        vapp_par::set_threads(Some(fanout_workers()));
        let reg = Arc::new(Registry::new());
        let fan = with_registry(reg.clone(), || {
            phase(&mut d, Stop::after(secs / 2.0, 1), false, &mut out)
        });
        vapp_par::set_threads(Some(WORKERS));
        let ledger = Ledger::new(reg.snapshot(), fan.ops, fan.raw_ns);
        out.set("par.busy_frac", ledger.par_busy_frac());
        out.set(
            "par.fanout_speedup",
            per(fan.ops_per_s(), plain.ops_per_s()),
        );
    }

    out.check(d.settled(), "every request completed exactly once");
    let (reads, bad) = d.verify();
    out.attempted += reads;
    out.failed += bad;
    out.notes
        .push(format!("verification reads: {reads}, failed: {bad}"));
    for f in std::mem::take(&mut d.failures) {
        out.check(false, &f);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small, refusal-heavy configuration.
    const SMALL: ArchiveCfg = ArchiveCfg {
        clients: 24,
        catalog: 60,
        min_bytes: 256,
        max_bytes: 1024,
        zipf_s: 1.1,
        banks: 2,
        bank_blocks: 8192,
        service: ServiceConfig {
            queue_depth: 4,
            batch: 3,
            cache_bytes: 8 * 1024,
            compact_fragments: 4,
        },
        live_cap: 4,
        checkpoint_ops: 300,
        warmup_ops: 100,
    };

    #[test]
    fn closed_loop_completes_each_request_once_and_retries_refusals() {
        let payloads = catalog_payloads(7, &SMALL);
        let (mut d, _) = ClosedLoop::setup(7, SMALL, &payloads);
        d.run(Stop::Ops(1500), false);
        let p = d.take_phase();
        assert!(d.settled(), "every planned request completed exactly once");
        assert!(p.refused > 0, "the small queues must refuse");
        assert_eq!(
            p.submitted,
            p.ops + p.refused,
            "refusals are retried, never dropped"
        );
        assert_eq!(p.failed, 0);
        assert_eq!(p.lat.count(), p.ops);
        let (reads, bad) = d.verify();
        assert!(reads > 0);
        assert_eq!(bad, 0);
        assert!(d.failures.is_empty(), "{:?}", d.failures);
    }

    #[test]
    fn checkpoint_is_a_pure_function_of_the_seed() {
        let a = checkpoint_with(11, SMALL);
        let b = checkpoint_with(11, SMALL);
        let c = checkpoint_with(12, SMALL);
        assert_eq!(a, b);
        assert_ne!(a.digest, c.digest);
        assert!(a.values[0].1 >= 1.0, "space_amp {:?}", a.values);
    }
}
