//! The request scheduler: bounded queues in, batched archive work out.
//!
//! [`ArchiveService`] wraps an [`Archive`] with two bounded queues
//! (mutations and reads), a [`HotCache`] of corrected payloads, and a
//! drain loop that applies work in deterministic batches:
//!
//! 1. up to `batch` queued mutations, in FIFO order (ingest allocates
//!    and writes; delete releases and invalidates the cache),
//! 2. a compaction sweep of any bank whose free list fragmented past
//!    the configured threshold,
//! 3. up to `batch` queued reads, in FIFO order on the caller's thread:
//!    a hit answers from the cache and refreshes its recency, a miss
//!    reads the archive (the substrate decode runs the batch-BCH engine
//!    in 64-block groups); then the batch's misses enter the cache in
//!    request order, so every read of a batch looks the cache up as it
//!    stood before the batch.
//!
//! Every completed request records its wall-clock latency into a
//! per-class `vapp-obs` histogram (`archive.op.<class>.ns`). Latencies
//! feed the report's quantiles only — they are *not* part of the
//! deterministic outcome, which is pinned purely by completion order,
//! payload bytes, and stable counters.

use std::time::Instant;

use crate::cache::{CachedObject, HotCache};
use crate::namespace::ObjectId;
use crate::queue::{BoundedQueue, OpClass, QueueFull};
use crate::store::{Archive, PutError};

/// Scheduler tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Capacity of each queue (mutations, reads).
    pub queue_depth: usize,
    /// Requests drained per queue per cycle.
    pub batch: usize,
    /// Hot-cache budget in payload bytes.
    pub cache_bytes: u64,
    /// Compact a bank when its free list exceeds this many runs.
    pub compact_fragments: usize,
}

/// A client request.
#[derive(Clone, Debug)]
pub enum Request {
    /// Store a new object.
    Ingest {
        /// Object id (client-assigned, unique).
        id: ObjectId,
        /// Owning tenant index.
        tenant: u32,
        /// Pristine payload bytes.
        payload: Vec<u8>,
    },
    /// Retrieve an object.
    Read {
        /// Object id.
        id: ObjectId,
    },
    /// Remove an object.
    Delete {
        /// Object id.
        id: ObjectId,
    },
}

impl Request {
    /// The request's op class.
    pub fn class(&self) -> OpClass {
        match self {
            Request::Ingest { .. } => OpClass::Ingest,
            Request::Read { .. } => OpClass::Read,
            Request::Delete { .. } => OpClass::Delete,
        }
    }
}

/// A finished request, in completion order.
#[derive(Clone, Debug)]
pub enum Completion {
    /// Ingest outcome.
    Ingested {
        /// Object id.
        id: ObjectId,
        /// `None` on success, the refusal otherwise.
        error: Option<PutError>,
    },
    /// Read outcome.
    ReadDone {
        /// Object id.
        id: ObjectId,
        /// Decoded payload; `None` if the object doesn't exist.
        bytes: Option<Vec<u8>>,
        /// Served from the hot cache.
        cache_hit: bool,
        /// The substrate changed at least one payload bit on this read.
        degraded: bool,
    },
    /// Delete outcome.
    Deleted {
        /// Object id.
        id: ObjectId,
        /// Whether the object existed.
        existed: bool,
    },
}

/// The archive service: queues + scheduler + cache over an [`Archive`].
pub struct ArchiveService {
    archive: Archive,
    cfg: ServiceConfig,
    mutations: BoundedQueue<Request>,
    reads: BoundedQueue<ObjectId>,
    cache: HotCache,
}

impl ArchiveService {
    /// Wraps an archive with bounded queues and a hot cache.
    pub fn new(archive: Archive, cfg: ServiceConfig) -> Self {
        ArchiveService {
            mutations: BoundedQueue::new(OpClass::Ingest, cfg.queue_depth, cfg.batch),
            reads: BoundedQueue::new(OpClass::Read, cfg.queue_depth, cfg.batch),
            cache: HotCache::new(cfg.cache_bytes),
            archive,
            cfg,
        }
    }

    /// The underlying archive (tests, reports).
    pub fn archive(&self) -> &Archive {
        &self.archive
    }

    /// Queued requests (mutations, reads).
    pub fn queue_lens(&self) -> (usize, usize) {
        (self.mutations.len(), self.reads.len())
    }

    /// Loads an object directly, bypassing the queues (fleet preload).
    pub fn preload(&mut self, id: ObjectId, tenant: u32, payload: &[u8]) -> Result<(), PutError> {
        self.archive.put(id, tenant, payload)
    }

    /// Submits a request. Counts every attempt under
    /// `archive.req.submitted`; a full queue counts
    /// `archive.req.rejected` and returns the request with a retry
    /// hint — it is never dropped, so after a full drain
    /// `submitted == completed + rejected`.
    pub fn submit(&mut self, req: Request) -> Result<(), QueueFull<Request>> {
        vapp_obs::counter!("archive.req.submitted");
        let res = match req {
            Request::Read { id } => self.reads.push(id).map_err(|e| QueueFull {
                item: Request::Read { id: e.item },
                backpressure: e.backpressure,
            }),
            other => self.mutations.push(other),
        };
        if res.is_err() {
            vapp_obs::counter!("archive.req.rejected");
        }
        res
    }

    /// One scheduler cycle: a mutation batch, a compaction sweep, a read
    /// batch. Returns completions in deterministic order.
    pub fn drain_batch(&mut self) -> Vec<Completion> {
        let _span = vapp_obs::span!("archive.drain");
        let mut out = Vec::new();
        self.drain_mutations(&mut out);
        self.sweep_compaction();
        self.drain_reads(&mut out);
        vapp_obs::counter!("archive.req.completed", out.len() as u64);
        out
    }

    /// Drains until both queues are empty.
    pub fn drain_all(&mut self) -> Vec<Completion> {
        let mut out = Vec::new();
        while !self.mutations.is_empty() || !self.reads.is_empty() {
            out.extend(self.drain_batch());
        }
        out
    }

    fn drain_mutations(&mut self, out: &mut Vec<Completion>) {
        for req in self.mutations.pop_batch(self.cfg.batch) {
            let start = Instant::now();
            match req {
                Request::Ingest {
                    id,
                    tenant,
                    payload,
                } => {
                    let bytes = payload.len() as u64;
                    let error = self.archive.put(id, tenant, &payload).err();
                    if error.is_none() {
                        vapp_obs::counter!("archive.ingest.objects");
                        vapp_obs::counter!("archive.ingest.bytes", bytes);
                    }
                    vapp_obs::histogram!("archive.op.ingest.ns", elapsed_ns(start));
                    out.push(Completion::Ingested { id, error });
                }
                Request::Delete { id } => {
                    let existed = self.archive.delete(id);
                    self.cache.remove(id);
                    if existed {
                        vapp_obs::counter!("archive.delete.objects");
                    }
                    vapp_obs::histogram!("archive.op.delete.ns", elapsed_ns(start));
                    out.push(Completion::Deleted { id, existed });
                }
                Request::Read { .. } => unreachable!("reads route to the read queue"),
            }
        }
    }

    fn sweep_compaction(&mut self) {
        for bank in 0..self.archive.banks() {
            if self.archive.fragments(bank) > self.cfg.compact_fragments {
                let moved = self.archive.compact_bank(bank);
                vapp_obs::counter!("archive.compact.runs");
                vapp_obs::counter!("archive.compact.moved_blocks", moved);
            }
        }
    }

    fn drain_reads(&mut self, out: &mut Vec<Completion>) {
        let ids = self.reads.pop_batch(self.cfg.batch);
        let first = out.len();
        for id in ids {
            let start = Instant::now();
            let completion = if let Some(obj) = self.cache.get(id) {
                vapp_obs::counter!("archive.cache.hits");
                let obj = obj.clone();
                vapp_obs::histogram!("archive.op.read_hit.ns", elapsed_ns(start));
                Completion::ReadDone {
                    id,
                    bytes: Some(obj.bytes),
                    cache_hit: true,
                    degraded: obj.degraded,
                }
            } else {
                vapp_obs::counter!("archive.cache.misses");
                let r = self.archive.read(id);
                vapp_obs::histogram!("archive.op.read_miss.ns", elapsed_ns(start));
                let degraded = r.as_ref().is_some_and(|r| r.degraded);
                if degraded {
                    vapp_obs::counter!("archive.read.degraded");
                }
                Completion::ReadDone {
                    id,
                    bytes: r.map(|r| r.bytes),
                    cache_hit: false,
                    degraded,
                }
            };
            if matches!(&completion, Completion::ReadDone { bytes: Some(_), .. }) {
                vapp_obs::counter!("archive.read.served");
            }
            out.push(completion);
        }
        // Fill the cache only after the batch, in request order: every
        // read above saw the cache as it stood before the batch.
        for c in &out[first..] {
            if let Completion::ReadDone {
                id,
                bytes: Some(bytes),
                cache_hit: false,
                degraded,
            } = c
            {
                let evicted = self.cache.insert(
                    *id,
                    CachedObject {
                        bytes: bytes.clone(),
                        degraded: *degraded,
                    },
                );
                vapp_obs::counter!("archive.cache.evictions", evicted);
            }
        }
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}
