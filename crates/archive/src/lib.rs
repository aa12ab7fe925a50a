//! A sharded multi-tenant archive service over the approximate-storage
//! substrate.
//!
//! The pipeline crates answer "how do compressed/encrypted videos
//! survive an approximate medium?"; this crate answers "what does a
//! *service* built on that medium look like?". It composes:
//!
//! * [`store`] — the archive core: N independent [`vapp_storage::Bank`]
//!   shards (shard = hash of object id), per-bank extent allocation
//!   ([`extent`]), and a volume/object namespace ([`namespace`]) mapping
//!   each object to per-stream extents. Tenants choose a protection
//!   ladder ([`store::TenantPolicy`]): the syntax-critical slice of
//!   every object stays strongly coded while the tolerant bulk rides a
//!   weaker (or no) code — the paper's approximation contract priced as
//!   a storage tier.
//! * [`service`] — bounded ingest/read queues with typed backpressure
//!   ([`queue`]), a batched scheduler that serves each read batch on the
//!   caller's thread (batch-BCH in 64-block groups underneath), and a
//!   byte-bounded LRU of corrected payloads ([`cache`]).
//! * [`fleet`] — a deterministic fleet workload driver: Zipf readers and
//!   Poisson-ish uploaders whose every random choice derives from
//!   per-client sub-seeds, so a run is a pure function of the master
//!   seed.
//! * [`report`] — throughput + p50/p99/p999 per op class from the
//!   `vapp-obs` sketches.
//!
//! # Example
//!
//! ```
//! use vapp_archive::{run_fleet, FleetConfig};
//!
//! let mut cfg = FleetConfig::smoke();
//! cfg.clients = 4;
//! cfg.rounds = 2;
//! cfg.initial_objects = 8;
//! let a = run_fleet(&cfg, 7);
//! let b = run_fleet(&cfg, 7);
//! assert_eq!(a.digest, b.digest); // pure function of the seed
//! assert!(a.completed > 0);
//! ```

pub mod cache;
pub mod extent;
pub mod fleet;
pub mod namespace;
pub mod queue;
pub mod report;
pub mod service;
pub mod store;

pub use cache::{CachedObject, HotCache};
pub use extent::{Extent, ExtentAllocator};
pub use fleet::{run_fleet, FleetConfig, FleetOutcome};
pub use namespace::{shard_of, Namespace, ObjectId, ObjectMeta, StreamMeta};
pub use queue::{Backpressure, BoundedQueue, OpClass, QueueFull};
pub use service::{ArchiveService, Completion, Request, ServiceConfig};
pub use store::{Archive, PutError, ReadResult, Rung, TenantPolicy};
