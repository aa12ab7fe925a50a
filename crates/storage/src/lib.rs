//! The approximate storage substrate: multi-level-cell PCM plus BCH
//! error correction (papers §2.2 and §6.2).
//!
//! * [`mlc`] — the 8-level PCM cell model: Gaussian write/read noise,
//!   log-time resistance drift, drift-biased level placement and
//!   calibration to the paper's raw bit error rate of 1e-3 at a 3-month
//!   scrub interval,
//! * [`bch`] — real BCH-X codes over GF(2^10) on 512-bit blocks
//!   (10·X parity bits, matching the paper's Fig. 8 overheads exactly),
//! * [`batch`] — the bitsliced BCH decoder, 64 blocks' error patterns
//!   per `u64` operation (the crate stores no codewords: syndromes are
//!   linear, so decoding a block's bare error pattern is enough),
//! * [`rs`] — Reed–Solomon over the same GF(2^10) with erasure decoding
//!   (bursty channels know *where* a page died),
//! * [`channel`] — the [`channel::Substrate`] trait making the error
//!   channel pluggable: MLC PCM (i.i.d., BCH), burst page-erasure and
//!   data-stored-as-video (both on one RS decode path whose codewords
//!   interleave symbol by symbol over the medium, spreading bursts),
//! * [`uber`] — binomial-tail math for uncorrectable error rates,
//! * [`bank`] — a fixed-capacity block bank (one shard of the archive
//!   layer): pristine writes, substrate-decoded reads,
//! * [`mod@array`] — a physical cell array (bits ↔ Gray-coded levels) that
//!   validates the analytic rates against stored data,
//! * [`density`] — cells-per-pixel accounting for Fig. 11,
//! * [`gf`], [`bits`] — the underlying field arithmetic and bit buffers.
//!
//! # Example
//!
//! ```
//! use vapp_storage::batch::BlockBatch;
//! use vapp_storage::bch::{Bch, DecodeOutcome};
//! use vapp_storage::uber::block_failure_rate;
//!
//! let code = Bch::new(6);
//! assert_eq!(code.parity_bits(), 60); // 11.7% on a 512-bit block
//! let rate = block_failure_rate(&code, 1e-3);
//! assert!(rate < 1e-5 && rate > 1e-8); // Fig. 8: ~1e-6
//!
//! // One block whose stored bit 17 flipped: the error pattern decodes.
//! let mut errs = BlockBatch::zeroed(&code, 1);
//! errs.flip(0, 17);
//! assert_eq!(code.decode_batch(&mut errs), [DecodeOutcome::Corrected(1)]);
//! assert_eq!(errs.plane(17), 0);
//! ```

pub mod array;
pub mod bank;
pub mod batch;
pub mod bch;
pub mod bits;
pub mod channel;
pub mod density;
pub mod gf;
pub mod mlc;
pub mod rs;
pub mod uber;

pub use array::CellArray;
pub use bank::{Bank, BLOCK_BYTES};
pub use bch::{Bch, DecodeOutcome, DATA_BITS};
pub use bits::BitBuf;
pub use channel::{
    burst_erasure, data_in_video, mlc_pcm, BurstConfig, BurstErasure, CorruptTally, DataInVideo,
    MlcPcm, Substrate, VideoChannelConfig,
};
pub use mlc::{MlcConfig, MlcSubstrate, DEFAULT_SCRUB_DAYS, TARGET_RAW_BER};
pub use rs::Rs;
