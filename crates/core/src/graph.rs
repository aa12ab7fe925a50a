//! The weighted macroblock dependency graph (paper §4).
//!
//! Nodes are macroblocks (one per MB per coded frame); edges carry the
//! visual damage an error in the *source* MB would transfer to the
//! *destination* MB:
//!
//! * **compensation edges** (§4.1) — pixel-domain references: motion
//!   compensation (possibly across several source MBs per block, weights
//!   proportional to referenced pixels) and intra prediction (spatial).
//!   Incoming weights sum to 1 for every predicted MB.
//! * **coding edges** (§4.2) — the static entropy/metadata propagation
//!   pattern: within a slice, each MB damages its scan-order successor
//!   with weight 1 (a weighted linked list).

use vapp_codec::AnalysisRecord;

/// A graph node (one macroblock of one coded frame).
pub type NodeId = usize;

/// The dependency graph in forward (source → dependents) form.
#[derive(Clone, Debug)]
pub struct DependencyGraph {
    mbs_per_frame: usize,
    frames: usize,
    /// Compensation dependents of each node: `(destination, weight)`.
    comp_children: Vec<Vec<(NodeId, f64)>>,
    /// Coding dependent of each node (scan-order successor in the slice).
    coding_child: Vec<Option<NodeId>>,
}

impl DependencyGraph {
    /// Builds the graph from an encoder analysis record.
    pub fn from_analysis(rec: &AnalysisRecord) -> Self {
        let mbs_per_frame = rec.mbs_per_frame();
        let frames = rec.frames.len();
        let n = mbs_per_frame * frames;
        let mut comp_children: Vec<Vec<(NodeId, f64)>> = vec![Vec::new(); n];
        let mut coding_child: Vec<Option<NodeId>> = vec![None; n];

        for f in &rec.frames {
            let base = f.coding_index * mbs_per_frame;
            // Compensation edges: recorded per destination MB as incoming
            // references; invert to source → destination. Aggregate
            // duplicates (paper: "multiple dependencies from one MB to
            // another can be aggregated by adding up their weights").
            for (mb, a) in f.mbs.iter().enumerate() {
                let dest = base + mb;
                for d in &a.deps {
                    let src = d.frame * mbs_per_frame + d.mb;
                    if let Some(entry) = comp_children[src].iter_mut().find(|(c, _)| *c == dest) {
                        entry.1 += d.weight;
                    } else {
                        comp_children[src].push((dest, d.weight));
                    }
                }
            }
            // Coding edges: a chain in scan order, restarting per slice.
            let mut starts = f.slice_starts.clone();
            starts.sort_unstable();
            for mb in 0..f.mbs.len() {
                let next = mb + 1;
                if next >= f.mbs.len() || starts.contains(&next) {
                    continue;
                }
                coding_child[base + mb] = Some(base + next);
            }
        }
        DependencyGraph {
            mbs_per_frame,
            frames,
            comp_children,
            coding_child,
        }
    }

    /// Total nodes.
    pub fn node_count(&self) -> usize {
        self.mbs_per_frame * self.frames
    }

    /// Macroblocks per frame.
    pub fn mbs_per_frame(&self) -> usize {
        self.mbs_per_frame
    }

    /// Number of coded frames.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Compensation dependents of `node`.
    pub fn comp_children(&self, node: NodeId) -> &[(NodeId, f64)] {
        &self.comp_children[node]
    }

    /// Coding dependent of `node` (the scan-order successor in the slice).
    pub fn coding_child(&self, node: NodeId) -> Option<NodeId> {
        self.coding_child[node]
    }

    /// Sum of incoming compensation weights per node (= 1 for predicted
    /// MBs, 0 for unpredicted ones) — a graph invariant check.
    pub fn incoming_comp_weights(&self) -> Vec<f64> {
        let mut w = vec![0.0; self.node_count()];
        for children in &self.comp_children {
            for &(dest, weight) in children {
                w[dest] += weight;
            }
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vapp_codec::{Encoder, EncoderConfig, FrameType};
    use vapp_workloads::{ClipSpec, SceneKind};

    fn analyzed(bframes: u8, slices: u8) -> AnalysisRecord {
        let video = ClipSpec::new(64, 48, 8, SceneKind::MovingBlocks)
            .seed(2)
            .generate();
        Encoder::new(EncoderConfig {
            keyint: 8,
            bframes,
            slices,
            ..Default::default()
        })
        .encode(&video)
        .analysis
    }

    #[test]
    fn incoming_comp_weights_are_one_or_zero() {
        let rec = analyzed(2, 1);
        let g = DependencyGraph::from_analysis(&rec);
        for (node, &w) in g.incoming_comp_weights().iter().enumerate() {
            assert!(
                w.abs() < 1e-9 || (w - 1.0).abs() < 1e-6,
                "node {node}: incoming weight {w}"
            );
        }
    }

    #[test]
    fn coding_chain_covers_each_frame() {
        let rec = analyzed(0, 1);
        let g = DependencyGraph::from_analysis(&rec);
        let per = g.mbs_per_frame();
        for f in 0..g.frames() {
            for mb in 0..per - 1 {
                assert_eq!(g.coding_child(f * per + mb), Some(f * per + mb + 1));
            }
            assert_eq!(g.coding_child(f * per + per - 1), None);
        }
    }

    #[test]
    fn slices_break_the_coding_chain() {
        let rec = analyzed(0, 2);
        let g = DependencyGraph::from_analysis(&rec);
        // With two slices over 3 MB rows (64x48 → 4x3 MBs), the chain must
        // break at the slice boundary (start of row 2 = MB 8).
        let f0 = &rec.frames[0];
        assert_eq!(f0.slice_starts.len(), 2);
        let boundary = f0.slice_starts[1];
        assert_eq!(g.coding_child(boundary - 1), None);
    }

    #[test]
    fn topo_sort_exists_and_matches_natural_order() {
        let rec = analyzed(2, 1);
        let g = DependencyGraph::from_analysis(&rec);
        // The natural (node id) order is topological: every comp edge
        // goes from a lower to a higher id.
        for src in 0..g.node_count() {
            for &(dest, _) in g.comp_children(src) {
                assert!(dest > src, "edge {src} -> {dest} violates coding order");
            }
        }
    }

    #[test]
    fn b_frames_have_no_dependents() {
        let rec = analyzed(2, 1);
        let g = DependencyGraph::from_analysis(&rec);
        let per = g.mbs_per_frame();
        for f in &rec.frames {
            if f.frame_type != FrameType::B {
                continue;
            }
            let ci = f.coding_index;
            for mb in 0..per {
                // B MBs may have *intra* (same-frame) dependents but no
                // temporal ones: nothing references a B frame.
                for &(dest, _) in g.comp_children(ci * per + mb) {
                    assert_eq!(dest / per, ci, "B frame referenced temporally");
                }
            }
        }
    }
}
