//! Common codec types: frame types, motion vectors, partitions.

/// Coded frame type (paper §2.3.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FrameType {
    /// Self-contained (intra-only) frame; resets error propagation.
    I,
    /// Predicted from one earlier anchor frame.
    P,
    /// Bi-predicted from the surrounding anchors; never referenced here
    /// (the paper's "no B-references" flag is this codec's default).
    B,
}

impl FrameType {
    /// Stable numeric tag for header serialisation.
    pub fn to_tag(self) -> u8 {
        match self {
            FrameType::I => 0,
            FrameType::P => 1,
            FrameType::B => 2,
        }
    }

    /// Parses a header tag, clamping unknown values to `I` (the safest
    /// interpretation: intra frames reference nothing).
    pub fn from_tag(tag: u8) -> Self {
        match tag {
            1 => FrameType::P,
            2 => FrameType::B,
            _ => FrameType::I,
        }
    }
}

/// An integer-pel motion vector.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct MotionVector {
    /// Horizontal displacement in pixels.
    pub x: i16,
    /// Vertical displacement in pixels.
    pub y: i16,
}

impl MotionVector {
    /// Zero motion.
    pub const ZERO: MotionVector = MotionVector { x: 0, y: 0 };

    /// Creates a motion vector.
    pub fn new(x: i16, y: i16) -> Self {
        MotionVector { x, y }
    }
}

/// Componentwise median of three motion vectors — the H.264 motion-vector
/// predictor (paper Fig. 1: MB D's vector is predicted as the median of
/// A, B and C; only the differences Δx, Δy are coded).
pub fn median_mv(a: MotionVector, b: MotionVector, c: MotionVector) -> MotionVector {
    fn med(a: i16, b: i16, c: i16) -> i16 {
        a.max(b).min(a.min(b).max(c))
    }
    MotionVector::new(med(a.x, b.x, c.x), med(a.y, b.y, c.y))
}

/// Predicts a motion vector from the neighbours (left A, above B,
/// above-right C), following the simplified H.264 rule: unavailable
/// neighbours count as zero, and a single available neighbour is used
/// directly.
pub fn predict_mv(
    left: Option<MotionVector>,
    above: Option<MotionVector>,
    above_right: Option<MotionVector>,
) -> MotionVector {
    let avail = [left, above, above_right];
    let n = avail.iter().filter(|m| m.is_some()).count();
    if n == 1 {
        return avail.iter().flatten().next().copied().unwrap_or_default();
    }
    median_mv(
        left.unwrap_or_default(),
        above.unwrap_or_default(),
        above_right.unwrap_or_default(),
    )
}

/// Macroblock-level inter partition shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PartShape {
    /// One 16x16 partition.
    P16x16,
    /// Two 16x8 partitions.
    P16x8,
    /// Two 8x16 partitions.
    P8x16,
    /// Four 8x8 quadrants, each with its own sub-shape.
    P8x8,
}

impl PartShape {
    /// Stable index for entropy coding.
    pub fn to_index(self) -> u32 {
        match self {
            PartShape::P16x16 => 0,
            PartShape::P16x8 => 1,
            PartShape::P8x16 => 2,
            PartShape::P8x8 => 3,
        }
    }

    /// Parses an index, clamping corrupt values.
    pub fn from_index(i: u32) -> Self {
        match i {
            0 => PartShape::P16x16,
            1 => PartShape::P16x8,
            2 => PartShape::P8x16,
            _ => PartShape::P8x8,
        }
    }
}

/// Sub-partition shape of one 8x8 quadrant (paper §4.1 models all of
/// 16x8, 8x16, 8x8, 4x8, 8x4 and 4x4 compensation units).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SubShape {
    /// One 8x8 block.
    S8x8,
    /// Two 8x4 blocks.
    S8x4,
    /// Two 4x8 blocks.
    S4x8,
    /// Four 4x4 blocks.
    S4x4,
}

impl SubShape {
    /// Stable index for entropy coding.
    pub fn to_index(self) -> u32 {
        match self {
            SubShape::S8x8 => 0,
            SubShape::S8x4 => 1,
            SubShape::S4x8 => 2,
            SubShape::S4x4 => 3,
        }
    }

    /// Parses an index, clamping corrupt values.
    pub fn from_index(i: u32) -> Self {
        match i {
            0 => SubShape::S8x8,
            1 => SubShape::S8x4,
            2 => SubShape::S4x8,
            _ => SubShape::S4x4,
        }
    }
}

/// The full partition layout of an inter macroblock.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PartitionLayout {
    /// Top-level shape.
    pub shape: PartShape,
    /// Sub-shapes of the four 8x8 quadrants (meaningful for `P8x8` only).
    pub subs: [SubShape; 4],
}

/// Geometry of one prediction block within a macroblock.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct BlockGeom {
    /// Offset within the macroblock.
    pub dx: usize,
    /// Offset within the macroblock.
    pub dy: usize,
    /// Block width.
    pub w: usize,
    /// Block height.
    pub h: usize,
}

/// The prediction blocks of one partition layout, inline (no allocation).
///
/// A macroblock has at most 16 blocks (four quadrants of four 4x4 blocks),
/// so the list fits a fixed array; [`PartitionLayout::blocks`] is called in
/// the encoder's per-candidate mode-decision loop, where a heap `Vec` per
/// call was measurable. Derefs to a slice, so iteration and indexing read
/// like before.
#[derive(Clone, Copy, Debug)]
pub struct BlockList {
    blocks: [BlockGeom; 16],
    len: usize,
}

impl BlockList {
    fn new() -> Self {
        BlockList {
            blocks: [BlockGeom::default(); 16],
            len: 0,
        }
    }

    fn push(&mut self, b: BlockGeom) {
        self.blocks[self.len] = b;
        self.len += 1;
    }

    /// The blocks as a slice (what [`std::ops::Deref`] also yields).
    pub fn as_slice(&self) -> &[BlockGeom] {
        &self.blocks[..self.len]
    }
}

impl std::ops::Deref for BlockList {
    type Target = [BlockGeom];

    fn deref(&self) -> &[BlockGeom] {
        self.as_slice()
    }
}

impl<'a> IntoIterator for &'a BlockList {
    type Item = &'a BlockGeom;
    type IntoIter = std::slice::Iter<'a, BlockGeom>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl PartitionLayout {
    /// A single 16x16 partition.
    pub fn whole() -> Self {
        PartitionLayout {
            shape: PartShape::P16x16,
            subs: [SubShape::S8x8; 4],
        }
    }

    /// How many prediction blocks [`blocks`](Self::blocks) lists.
    pub fn block_count(&self) -> usize {
        match self.shape {
            PartShape::P16x16 => 1,
            PartShape::P16x8 | PartShape::P8x16 => 2,
            PartShape::P8x8 => self
                .subs
                .iter()
                .map(|s| match s {
                    SubShape::S8x8 => 1,
                    SubShape::S8x4 | SubShape::S4x8 => 2,
                    SubShape::S4x4 => 4,
                })
                .sum(),
        }
    }

    /// Lists the prediction blocks of this layout in coding order.
    pub fn blocks(&self) -> BlockList {
        let b = |dx, dy, w, h| BlockGeom { dx, dy, w, h };
        let mut out = BlockList::new();
        match self.shape {
            PartShape::P16x16 => out.push(b(0, 0, 16, 16)),
            PartShape::P16x8 => {
                out.push(b(0, 0, 16, 8));
                out.push(b(0, 8, 16, 8));
            }
            PartShape::P8x16 => {
                out.push(b(0, 0, 8, 16));
                out.push(b(8, 0, 8, 16));
            }
            PartShape::P8x8 => {
                for (q, sub) in self.subs.iter().enumerate() {
                    let qx = (q % 2) * 8;
                    let qy = (q / 2) * 8;
                    match sub {
                        SubShape::S8x8 => out.push(b(qx, qy, 8, 8)),
                        SubShape::S8x4 => {
                            out.push(b(qx, qy, 8, 4));
                            out.push(b(qx, qy + 4, 8, 4));
                        }
                        SubShape::S4x8 => {
                            out.push(b(qx, qy, 4, 8));
                            out.push(b(qx + 4, qy, 4, 8));
                        }
                        SubShape::S4x4 => {
                            for sy in 0..2 {
                                for sx in 0..2 {
                                    out.push(b(qx + sx * 4, qy + sy * 4, 4, 4));
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// Prediction direction for one B-frame block.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PredDir {
    /// From the previous anchor (the only direction outside B frames).
    #[default]
    Forward,
    /// From the next anchor.
    Backward,
    /// Average of both.
    Bi,
}

impl PredDir {
    /// Stable index for entropy coding.
    pub fn to_index(self) -> u32 {
        match self {
            PredDir::Forward => 0,
            PredDir::Backward => 1,
            PredDir::Bi => 2,
        }
    }

    /// Parses an index, clamping corrupt values.
    pub fn from_index(i: u32) -> Self {
        match i {
            0 => PredDir::Forward,
            1 => PredDir::Backward,
            _ => PredDir::Bi,
        }
    }
}

/// Intra 16x16 prediction mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IntraMode {
    /// Mean of the available border pixels (128 when none).
    Dc,
    /// Extend the row above downward.
    Vertical,
    /// Extend the column to the left rightward.
    Horizontal,
    /// First-order plane fit of the borders.
    Plane,
}

impl IntraMode {
    /// All modes, in coding-index order.
    pub const ALL: [IntraMode; 4] = [
        IntraMode::Dc,
        IntraMode::Vertical,
        IntraMode::Horizontal,
        IntraMode::Plane,
    ];

    /// Stable index for entropy coding.
    pub fn to_index(self) -> u32 {
        match self {
            IntraMode::Dc => 0,
            IntraMode::Vertical => 1,
            IntraMode::Horizontal => 2,
            IntraMode::Plane => 3,
        }
    }

    /// Parses an index, clamping corrupt values.
    pub fn from_index(i: u32) -> Self {
        match i {
            1 => IntraMode::Vertical,
            2 => IntraMode::Horizontal,
            3 => IntraMode::Plane,
            _ => IntraMode::Dc,
        }
    }
}

/// Intra 4x4 prediction mode (a practical subset of H.264's nine).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Intra4Mode {
    /// Mean of the available border pixels.
    Dc,
    /// Extend the row above downward.
    Vertical,
    /// Extend the column to the left rightward.
    Horizontal,
    /// Diagonal down-left extrapolation of the row above.
    DiagDownLeft,
    /// Diagonal down-right extrapolation of the corner, row and column.
    DiagDownRight,
}

impl Intra4Mode {
    /// All modes, in coding-index order.
    pub const ALL: [Intra4Mode; 5] = [
        Intra4Mode::Dc,
        Intra4Mode::Vertical,
        Intra4Mode::Horizontal,
        Intra4Mode::DiagDownLeft,
        Intra4Mode::DiagDownRight,
    ];

    /// Stable index for entropy coding.
    pub fn to_index(self) -> u32 {
        match self {
            Intra4Mode::Dc => 0,
            Intra4Mode::Vertical => 1,
            Intra4Mode::Horizontal => 2,
            Intra4Mode::DiagDownLeft => 3,
            Intra4Mode::DiagDownRight => 4,
        }
    }

    /// Parses an index, clamping corrupt values to DC.
    pub fn from_index(i: u32) -> Self {
        *Intra4Mode::ALL.get(i as usize).unwrap_or(&Intra4Mode::Dc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_mv_examples() {
        let m = median_mv(
            MotionVector::new(1, 5),
            MotionVector::new(3, -2),
            MotionVector::new(2, 0),
        );
        assert_eq!(m, MotionVector::new(2, 0));
    }

    #[test]
    fn predict_mv_single_neighbor_used_directly() {
        let only = MotionVector::new(7, -3);
        assert_eq!(predict_mv(Some(only), None, None), only);
        assert_eq!(predict_mv(None, Some(only), None), only);
    }

    #[test]
    fn predict_mv_median_with_missing_as_zero() {
        let p = predict_mv(
            Some(MotionVector::new(4, 4)),
            Some(MotionVector::new(8, 8)),
            None,
        );
        assert_eq!(p, MotionVector::new(4, 4)); // median(4,8,0) = 4
        assert_eq!(predict_mv(None, None, None), MotionVector::ZERO);
    }

    #[test]
    fn partition_blocks_tile_the_macroblock() {
        let layouts = [
            PartitionLayout::whole(),
            PartitionLayout {
                shape: PartShape::P16x8,
                subs: [SubShape::S8x8; 4],
            },
            PartitionLayout {
                shape: PartShape::P8x16,
                subs: [SubShape::S8x8; 4],
            },
            PartitionLayout {
                shape: PartShape::P8x8,
                subs: [
                    SubShape::S8x8,
                    SubShape::S8x4,
                    SubShape::S4x8,
                    SubShape::S4x4,
                ],
            },
        ];
        #[allow(clippy::needless_range_loop)] // (x, y) pixel coordinates
        for layout in layouts {
            let mut covered = [[false; 16]; 16];
            for b in &layout.blocks() {
                for y in b.dy..b.dy + b.h {
                    for x in b.dx..b.dx + b.w {
                        assert!(!covered[y][x], "{layout:?} overlaps at ({x},{y})");
                        covered[y][x] = true;
                    }
                }
            }
            assert!(
                covered.iter().all(|row| row.iter().all(|&c| c)),
                "{layout:?} leaves holes"
            );
        }
    }

    #[test]
    fn all_sub_shapes_supported() {
        let layout = PartitionLayout {
            shape: PartShape::P8x8,
            subs: [SubShape::S4x4; 4],
        };
        assert_eq!(layout.blocks().len(), 16);
    }

    #[test]
    fn index_roundtrips_and_clamping() {
        for s in [
            PartShape::P16x16,
            PartShape::P16x8,
            PartShape::P8x16,
            PartShape::P8x8,
        ] {
            assert_eq!(PartShape::from_index(s.to_index()), s);
        }
        assert_eq!(PartShape::from_index(999), PartShape::P8x8);
        for s in [
            SubShape::S8x8,
            SubShape::S8x4,
            SubShape::S4x8,
            SubShape::S4x4,
        ] {
            assert_eq!(SubShape::from_index(s.to_index()), s);
        }
        for d in [PredDir::Forward, PredDir::Backward, PredDir::Bi] {
            assert_eq!(PredDir::from_index(d.to_index()), d);
        }
        for m in IntraMode::ALL {
            assert_eq!(IntraMode::from_index(m.to_index()), m);
        }
        assert_eq!(IntraMode::from_index(77), IntraMode::Dc);
        for m in Intra4Mode::ALL {
            assert_eq!(Intra4Mode::from_index(m.to_index()), m);
        }
        assert_eq!(Intra4Mode::from_index(99), Intra4Mode::Dc);
        for t in [FrameType::I, FrameType::P, FrameType::B] {
            assert_eq!(FrameType::from_tag(t.to_tag()), t);
        }
    }
}
