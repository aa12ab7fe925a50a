//! Dependency and bit-span records produced during encoding.
//!
//! This is the hook VideoApp consumes: for every macroblock, *where its
//! bits live* in the frame payload, and *which macroblocks it references*
//! (compensation dependencies with pixel-proportional weights, paper §4.1).
//! Coding dependencies are implied by the scan order within a slice and
//! are reconstructed by the analysis crate (weight 1 per §4.2), so they
//! are not stored per macroblock.

use crate::types::FrameType;
use vapp_media::MbGrid;

/// One incoming compensation dependency: this macroblock references
/// `weight` (fraction of its area) worth of pixels in macroblock `mb` of
/// the frame with coding index `frame`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Dependency {
    /// Coding index of the source frame (may equal the current frame for
    /// intra/spatial dependencies).
    pub frame: usize,
    /// Macroblock index within the source frame.
    pub mb: usize,
    /// Fraction of the destination macroblock's area compensated from the
    /// source (incoming weights sum to 1 for predicted macroblocks).
    pub weight: f64,
}

/// Per-macroblock analysis record.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MbAnalysis {
    /// First payload bit of this macroblock (within the frame payload).
    pub bit_start: u64,
    /// One past the last payload bit.
    pub bit_end: u64,
    /// Incoming compensation dependencies (sources this MB references).
    pub deps: Vec<Dependency>,
    /// Whether the macroblock was intra coded.
    pub intra: bool,
    /// Whether the macroblock was coded as a skip.
    pub skip: bool,
}

impl MbAnalysis {
    /// Number of payload bits occupied by this macroblock.
    pub fn bits(&self) -> u64 {
        self.bit_end.saturating_sub(self.bit_start)
    }
}

/// Per-frame analysis record (coding order).
#[derive(Clone, Debug, PartialEq)]
pub struct FrameAnalysis {
    /// Coding-order index.
    pub coding_index: usize,
    /// Display-order index.
    pub display_index: usize,
    /// Frame type.
    pub frame_type: FrameType,
    /// Bits of the precise frame header.
    pub header_bits: u64,
    /// Macroblock records in scan order.
    pub mbs: Vec<MbAnalysis>,
    /// First macroblock index of each slice (scan order); coding
    /// dependencies do not cross these boundaries (paper §8).
    pub slice_starts: Vec<usize>,
}

/// The complete analysis side-channel for an encoded video.
#[derive(Clone, Debug, PartialEq)]
pub struct AnalysisRecord {
    /// Macroblock grid shared by all frames.
    pub grid: MbGrid,
    /// Per-frame records in coding order.
    pub frames: Vec<FrameAnalysis>,
}

impl AnalysisRecord {
    /// Macroblocks per frame.
    pub fn mbs_per_frame(&self) -> usize {
        self.grid.mb_count()
    }

    /// Total macroblocks across all frames.
    pub fn total_mbs(&self) -> usize {
        self.frames.iter().map(|f| f.mbs.len()).sum()
    }

    /// Global node id of `(coding frame, mb)` for graph algorithms.
    pub fn node_id(&self, frame: usize, mb: usize) -> usize {
        frame * self.mbs_per_frame() + mb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_ids_are_dense_in_coding_order() {
        let rec = AnalysisRecord {
            grid: MbGrid::for_frame(64, 48),
            frames: Vec::new(),
        };
        let per = rec.mbs_per_frame();
        assert_eq!(per, 12);
        let ids: Vec<usize> = (0..5)
            .flat_map(|frame| (0..per).map(move |mb| (frame, mb)))
            .map(|(frame, mb)| rec.node_id(frame, mb))
            .collect();
        assert_eq!(ids, (0..5 * per).collect::<Vec<_>>());
    }

    #[test]
    fn mb_bits_are_span_length() {
        let mb = MbAnalysis {
            bit_start: 100,
            bit_end: 164,
            ..Default::default()
        };
        assert_eq!(mb.bits(), 64);
        let empty = MbAnalysis::default();
        assert_eq!(empty.bits(), 0);
    }
}
