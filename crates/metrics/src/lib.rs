//! Video quality metrics for the VideoApp reproduction.
//!
//! The paper's evaluation (§6.1) reports **average PSNR across frames** and
//! cross-checks against SSIM/MS-SSIM from the VQMT tool. This crate
//! implements:
//!
//! * [`frame_psnr`] / [`video_psnr`] — peak-signal-to-noise ratio,
//! * [`frame_ssim`] / [`video_ssim`] — structural similarity (8x8 windows,
//!   the standard constants `K1 = 0.01`, `K2 = 0.03`),
//! * [`video_ms_ssim`] — a multi-scale SSIM variant (dyadic downsampling,
//!   standard five-scale weights),
//! * [`video_vifp`] — pixel-domain Visual Information Fidelity,
//! * [`prob_any_flip`] — the forced-flip scale factor behind the
//!   "quality change in dB" that Figures 9–11 of the paper are
//!   expressed in.
//!
//! # Example
//!
//! ```
//! use vapp_media::{Frame, Video};
//! use vapp_metrics::video_psnr;
//!
//! let a = Video::from_frames(vec![Frame::filled(32, 32, 100); 4], 25.0);
//! let mut damaged = a.clone();
//! damaged.frames();
//! // Identical videos compare at the PSNR cap.
//! assert_eq!(video_psnr(&a, &a), vapp_metrics::PSNR_CAP);
//! ```

mod psnr;
mod quality;
mod ssim;
mod vif;

pub use psnr::{frame_psnr, video_psnr, video_psnr_per_frame, PSNR_CAP};
pub use quality::prob_any_flip;
pub use ssim::{frame_ssim, video_ms_ssim, video_ssim};
pub use vif::{frame_vifp, video_vifp};
