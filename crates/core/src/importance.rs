//! Macroblock importance (paper §4.3).
//!
//! Importance of a macroblock ≈ the number of macroblocks a bit flip
//! there would damage. The paper's eight-step algorithm accumulates
//! backward twice:
//!
//! 1–4. On the *compensation-only* graph: initialise every node to 1 and
//!      walk a topological order backwards, adding each node's weighted
//!      child importances. Afterwards each node holds the number of MBs
//!      an error would reach through compensation.
//! 5–8. On the *coding-only* graph (the in-slice scan chain, weight 1):
//!      seed with the compensation importances and do the same backward
//!      accumulation.
//!
//! Compensation deps append to coding deps but not vice versa (§4.3),
//! which is why the passes run in this order. In this codec, coding
//! order already is topological for both graphs — references are coded
//! first, intra sources precede their dependents in scan order and the
//! coding chain runs forward — so one sweep over node ids in reverse does
//! all eight steps: when a node is reached, every child holds its final
//! compensation and total importance. Since the sweep reads only a
//! node's compensation children and its in-frame coding successor, and
//! no compensation edge leaves its GOP, running it GOP by GOP (§4.3.1)
//! is the same computation.

use crate::graph::DependencyGraph;

/// Per-macroblock importance values for a coded video.
#[derive(Clone, Debug, PartialEq)]
pub struct ImportanceMap {
    mbs_per_frame: usize,
    values: Vec<f64>,
}

impl ImportanceMap {
    /// Runs the eight-step algorithm as one backward sweep in coding
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if a compensation edge points backward in coding order
    /// (impossible for valid encoder output): coding order would then not
    /// be topological.
    pub fn compute(graph: &DependencyGraph) -> Self {
        let n = graph.node_count();
        let mut comp = vec![0.0f64; n];
        let mut values = vec![0.0f64; n];
        for node in (0..n).rev() {
            let mut acc = 1.0;
            for &(dest, w) in graph.comp_children(node) {
                assert!(
                    dest > node,
                    "compensation edge {node} -> {dest} points backward in coding order"
                );
                acc += w * comp[dest];
            }
            comp[node] = acc;
            values[node] = acc + graph.coding_child(node).map_or(0.0, |next| values[next]);
        }
        ImportanceMap {
            mbs_per_frame: graph.mbs_per_frame(),
            values,
        }
    }

    /// Importance of `(coding frame, mb)`.
    pub fn get(&self, frame: usize, mb: usize) -> f64 {
        self.values[frame * self.mbs_per_frame + mb]
    }

    /// All values, node-id order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Macroblocks per frame.
    pub fn mbs_per_frame(&self) -> usize {
        self.mbs_per_frame
    }

    /// The largest importance in the video.
    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(1.0, f64::max)
    }

    /// The importance class of a value on the paper's log2 scale: the
    /// smallest `i` with `importance ≤ 2^i` (§7.2).
    pub fn class_of(value: f64) -> u32 {
        assert!(value >= 0.0, "importance cannot be negative");
        value.max(1.0).log2().ceil() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vapp_codec::{
        AnalysisRecord, Dependency, Encoder, EncoderConfig, FrameAnalysis, FrameType, MbAnalysis,
    };
    use vapp_media::MbGrid;
    use vapp_workloads::{ClipSpec, SceneKind};

    fn importance_for(
        keyint: u16,
        bframes: u8,
        slices: u8,
    ) -> (AnalysisRecord, DependencyGraph, ImportanceMap) {
        let video = ClipSpec::new(64, 48, 12, SceneKind::MovingBlocks)
            .seed(4)
            .generate();
        let rec = Encoder::new(EncoderConfig {
            keyint,
            bframes,
            slices,
            ..Default::default()
        })
        .encode(&video)
        .analysis;
        let g = DependencyGraph::from_analysis(&rec);
        let m = ImportanceMap::compute(&g);
        (rec, g, m)
    }

    #[test]
    fn importance_at_least_one() {
        let (_, _, m) = importance_for(6, 2, 1);
        assert!(m.values().iter().all(|&v| v >= 1.0 - 1e-12));
        assert!(m.max() > 1.0);
    }

    #[test]
    fn within_frame_importance_is_strictly_decreasing() {
        // Paper §4.4: the coding chain imposes a strictly decreasing order
        // of MBs within a frame (per slice) — the basis for pivots.
        let (_, g, m) = importance_for(6, 2, 1);
        let per = g.mbs_per_frame();
        for f in 0..g.frames() {
            for mb in 0..per - 1 {
                let a = m.get(f, mb);
                let b = m.get(f, mb + 1);
                assert!(a > b, "frame {f} mb {mb}: {a} !> {b}");
            }
        }
    }

    #[test]
    fn early_frames_matter_more_than_late_b_frames() {
        let (rec, g, m) = importance_for(12, 2, 1);
        let per = g.mbs_per_frame();
        // The I frame's first MB damages (nearly) everything; a B frame's
        // last MB damages only itself.
        let i_first = m.get(0, 0);
        let mut b_last = f64::MAX;
        for f in &rec.frames {
            if f.frame_type == FrameType::B {
                b_last = b_last.min(m.get(f.coding_index, per - 1));
            }
        }
        assert!(i_first > 10.0 * b_last, "I {i_first} vs B {b_last}");
    }

    #[test]
    fn unreferenced_b_frame_tail_has_importance_one() {
        let (rec, g, m) = importance_for(12, 2, 1);
        let per = g.mbs_per_frame();
        // The last MB of a B frame with no intra dependents: importance 1.
        let mut found = false;
        for f in &rec.frames {
            if f.frame_type != FrameType::B {
                continue;
            }
            let ci = f.coding_index;
            let node = ci * per + per - 1;
            if g.comp_children(node).is_empty() {
                assert!((m.get(ci, per - 1) - 1.0).abs() < 1e-9);
                found = true;
            }
        }
        assert!(found, "no unreferenced B-frame tail found");
    }

    #[test]
    #[should_panic(expected = "points backward in coding order")]
    fn backward_compensation_edge_is_rejected() {
        // One I frame of two MBs whose first MB claims to be predicted
        // from the second: a dependency coding order cannot satisfy.
        let mb = |deps| MbAnalysis {
            deps,
            intra: true,
            ..Default::default()
        };
        let rec = AnalysisRecord {
            grid: MbGrid::for_frame(32, 16),
            frames: vec![FrameAnalysis {
                coding_index: 0,
                display_index: 0,
                frame_type: FrameType::I,
                header_bits: 0,
                mbs: vec![
                    mb(vec![Dependency {
                        frame: 0,
                        mb: 1,
                        weight: 1.0,
                    }]),
                    mb(Vec::new()),
                ],
                slice_starts: vec![0],
            }],
        };
        ImportanceMap::compute(&DependencyGraph::from_analysis(&rec));
    }

    #[test]
    fn class_of_log2_scale() {
        assert_eq!(ImportanceMap::class_of(1.0), 0);
        assert_eq!(ImportanceMap::class_of(2.0), 1);
        assert_eq!(ImportanceMap::class_of(2.1), 2);
        assert_eq!(ImportanceMap::class_of(1000.0), 10);
        assert_eq!(ImportanceMap::class_of(0.5), 0);
    }

    #[test]
    fn shorter_gops_reduce_max_importance() {
        let (_, _, long_gop) = importance_for(12, 0, 1);
        let (_, _, short_gop) = importance_for(3, 0, 1);
        assert!(
            long_gop.max() > short_gop.max(),
            "long {} vs short {}",
            long_gop.max(),
            short_gop.max()
        );
    }
}
