//! # VideoApp — bit-level reliability partitioning for encoded video
//!
//! Reproduction of the core contribution of *"Approximate Storage of
//! Compressed and Encrypted Videos"* (ASPLOS 2017): accept an encoded
//! video, order all of its bits by the visual damage a flip would cause,
//! and map them onto an error-prone multi-level-cell substrate with
//! *variable* error correction so that density is maximised under a
//! quality-loss budget.
//!
//! The flow mirrors the paper:
//!
//! 1. encode with dependency recording ([`vapp_codec`]),
//! 2. build the weighted dependency graph ([`graph::DependencyGraph`]),
//! 3. compute per-macroblock **importance** ([`importance::ImportanceMap`],
//!    the paper's §4.3 eight-step algorithm),
//! 4. group bits into equal-storage bins (§7.1 validation) and log2
//!    importance classes (§7.2) ([`classes`]),
//! 5. derive per-frame **pivots** ([`pivots`]) exploiting the
//!    monotone importance order within each frame (§4.4),
//! 6. assign the weakest admissible BCH scheme per class under a 0.3 dB
//!    budget ([`assignment`]),
//! 7. split the payload into per-reliability streams, optionally
//!    encrypted with an approximation-compatible cipher mode
//!    ([`streams`]),
//! 8. store, corrupt, correct, decode and measure ([`pipeline`]).

pub mod assignment;
pub mod classes;
pub mod facade;
pub mod graph;
pub mod importance;
pub mod pipeline;
pub mod pivots;
pub mod streams;

pub use assignment::{Assignment, EcScheme, LossCurve, QUALITY_BUDGET_DB};
pub use classes::{equal_storage_bins, importance_classes, payload_layout, Bin, Class};
pub use facade::{Processed, VideoApp};
pub use graph::{DependencyGraph, NodeId};
pub use importance::ImportanceMap;
pub use pipeline::{ApproxStore, PipelineReport, StoragePolicy};
pub use pivots::{FramePivots, Pivot, PivotTable};
pub use streams::{merge_streams, split_streams, ProtectedStreams};
pub use vapp_storage::channel::{
    burst_erasure, data_in_video, mlc_pcm, BurstConfig, CorruptTally, Substrate, VideoChannelConfig,
};
