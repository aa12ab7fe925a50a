//! An H.264-style video codec with dependency recording, built for the
//! VideoApp reproduction.
//!
//! This crate substitutes for the paper's x264 integration (DESIGN.md §2).
//! It implements the pipeline of paper §2.3 end to end:
//!
//! * pixel-level prediction & compensation — intra 16x16 modes and
//!   integer-pel motion compensation with variable partitions
//!   (16x16 … 4x4),
//! * coding — the H.264 4x4 integer transform, QP quantisation,
//!   predictive metadata coding (median motion-vector prediction,
//!   QP deltas), and two entropy coders: CABAC-class adaptive binary
//!   arithmetic coding and CAVLC-class Exp-Golomb coding,
//! * I/P/B frames with configurable GOP structure and slices,
//! * a **total** decoder: corrupt payloads decode to (deterministic)
//!   garbage, never to a panic — required for approximate storage,
//! * **dependency recording** ([`AnalysisRecord`]): per-macroblock payload
//!   bit spans and pixel-weighted compensation dependencies, the input to
//!   VideoApp's importance analysis.
//!
//! # Example
//!
//! ```
//! use vapp_codec::{Encoder, EncoderConfig};
//! use vapp_media::{Frame, Video};
//!
//! let video = Video::from_frames(vec![Frame::filled(32, 32, 80); 4], 25.0);
//! let result = Encoder::new(EncoderConfig::default()).encode(&video);
//! let decoded = vapp_codec::decode(&result.stream);
//! assert_eq!(decoded.len(), video.len());
//! # assert_eq!(decoded, result.reconstruction);
//! ```

pub mod analysis;
pub mod arith;
pub mod bitstream;
pub mod container;
pub mod deblock;
mod decoder;
mod encoder;
pub mod entropy;
pub mod expgolomb;
pub mod inter;
pub mod intra;
pub mod mb;
pub mod quant;
pub mod syntax;
pub mod transform;
pub mod types;

pub use analysis::{AnalysisRecord, Dependency, FrameAnalysis, MbAnalysis};
pub use container::ParseContainerError;
pub use decoder::decode;
pub use encoder::{EncodeResult, Encoder, EncoderConfig};
pub use entropy::EntropyMode;
pub use syntax::{EncodedFrame, EncodedVideo, FrameHeader, StreamHeader};
pub use types::{
    FrameType, IntraMode, MotionVector, PartShape, PartitionLayout, PredDir, SubShape,
};
