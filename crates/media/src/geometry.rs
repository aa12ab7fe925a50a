//! Macroblock-grid geometry.
//!
//! VideoApp's compensation-dependency model (paper §4.1) weighs an edge
//! from source macroblock X to destination macroblock Y by the number of
//! pixels of X that Y references. The geometry here answers exactly that
//! question: given a pixel rectangle referenced by a prediction unit, which
//! macroblocks does it overlap and by how many pixels each.

use crate::MB_SIZE;

/// An axis-aligned pixel rectangle with signed origin (motion vectors can
/// point outside the frame; overlap accounting clips to the frame).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Rect {
    /// Left edge (may be negative).
    pub x: isize,
    /// Top edge (may be negative).
    pub y: isize,
    /// Width in pixels.
    pub w: usize,
    /// Height in pixels.
    pub h: usize,
}

impl Rect {
    /// Creates a rectangle.
    pub fn new(x: isize, y: isize, w: usize, h: usize) -> Self {
        Rect { x, y, w, h }
    }

    /// Area in pixels.
    pub fn area(&self) -> usize {
        self.w * self.h
    }
}

/// One entry of an overlap query: `pixels` of the queried rectangle fall in
/// macroblock `mb_index`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MbOverlap {
    /// Raster-scan index of the overlapped macroblock.
    pub mb_index: usize,
    /// Number of overlapping pixels (after clipping to the frame).
    pub pixels: usize,
}

/// The macroblock grid of a frame: geometry queries over 16x16 tiles.
///
/// Frames whose dimensions are not multiples of 16 get partially-covered
/// edge macroblocks, exactly as in H.264 (the codec pads; the grid reports
/// the nominal 16x16 tiles clipped to the frame).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MbGrid {
    width: usize,
    height: usize,
    mb_cols: usize,
    mb_rows: usize,
}

impl MbGrid {
    /// Builds the macroblock grid for a `width x height` frame.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero.
    pub fn for_frame(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "frame dimensions must be nonzero");
        MbGrid {
            width,
            height,
            mb_cols: width.div_ceil(MB_SIZE),
            mb_rows: height.div_ceil(MB_SIZE),
        }
    }

    /// Frame width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Frame height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Macroblock columns.
    pub fn mb_cols(&self) -> usize {
        self.mb_cols
    }

    /// Macroblock rows.
    pub fn mb_rows(&self) -> usize {
        self.mb_rows
    }

    /// Total macroblocks per frame.
    pub fn mb_count(&self) -> usize {
        self.mb_cols * self.mb_rows
    }

    /// Raster-scan index of the macroblock at grid position `(col, row)`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the position is outside the grid.
    #[inline]
    pub fn mb_index(&self, col: usize, row: usize) -> usize {
        debug_assert!(col < self.mb_cols && row < self.mb_rows);
        row * self.mb_cols + col
    }

    /// Grid position `(col, row)` of a raster-scan macroblock index.
    #[inline]
    pub fn mb_position(&self, index: usize) -> (usize, usize) {
        debug_assert!(index < self.mb_count());
        (index % self.mb_cols, index / self.mb_cols)
    }

    /// Computes, for a referenced pixel rectangle, every overlapped
    /// macroblock and the per-macroblock overlap pixel count.
    ///
    /// The rectangle is clipped to the frame first — pixels that a clamped
    /// motion vector reads from border extension are attributed to the
    /// border macroblock that produces them, which is achieved by clamping
    /// the rectangle the same way [`crate::Plane::sample`] clamps reads.
    pub fn overlaps(&self, rect: Rect) -> Vec<MbOverlap> {
        if rect.w == 0 || rect.h == 0 {
            return Vec::new();
        }
        // Clamp each referenced pixel to the frame, like Plane::sample does:
        // a rect fully outside the frame collapses onto border pixels.
        let x0 = rect.x.clamp(0, self.width as isize - 1) as usize;
        let y0 = rect.y.clamp(0, self.height as isize - 1) as usize;
        let x1 = (rect.x + rect.w as isize - 1).clamp(0, self.width as isize - 1) as usize;
        let y1 = (rect.y + rect.h as isize - 1).clamp(0, self.height as isize - 1) as usize;

        let mut out = Vec::new();
        let mut row = y0 / MB_SIZE;
        while row * MB_SIZE <= y1 {
            let ry0 = (row * MB_SIZE).max(y0);
            let ry1 = ((row + 1) * MB_SIZE - 1).min(y1);
            // Rows of the *original* rect mapping into [ry0, ry1]: because of
            // clamping, edge rows absorb everything outside. Count source
            // rows rather than clipped rows so the weights still sum to the
            // full rect area.
            let rows_here = count_mapped(rect.y, rect.h, ry0, ry1, self.height);
            let mut col = x0 / MB_SIZE;
            while col * MB_SIZE <= x1 {
                let cx0 = (col * MB_SIZE).max(x0);
                let cx1 = ((col + 1) * MB_SIZE - 1).min(x1);
                let cols_here = count_mapped(rect.x, rect.w, cx0, cx1, self.width);
                let pixels = rows_here * cols_here;
                if pixels > 0 {
                    out.push(MbOverlap {
                        mb_index: self.mb_index(col, row),
                        pixels,
                    });
                }
                col += 1;
            }
            row += 1;
        }
        out
    }
}

/// Counts how many source coordinates `start..start+len`, after clamping to
/// `[0, bound)`, land inside `[lo, hi]`.
fn count_mapped(start: isize, len: usize, lo: usize, hi: usize, bound: usize) -> usize {
    let mut n = 0;
    for i in 0..len {
        let c = (start + i as isize).clamp(0, bound as isize - 1) as usize;
        if c >= lo && c <= hi {
            n += 1;
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_dimensions_round_up() {
        let g = MbGrid::for_frame(33, 17);
        assert_eq!(g.mb_cols(), 3);
        assert_eq!(g.mb_rows(), 2);
        assert_eq!(g.mb_count(), 6);
    }

    #[test]
    fn index_position_roundtrip() {
        let g = MbGrid::for_frame(64, 48);
        for i in 0..g.mb_count() {
            let (c, r) = g.mb_position(i);
            assert_eq!(g.mb_index(c, r), i);
        }
    }

    #[test]
    fn aligned_overlap_is_single_mb() {
        let g = MbGrid::for_frame(64, 64);
        let o = g.overlaps(Rect::new(16, 16, 16, 16));
        assert_eq!(
            o,
            vec![MbOverlap {
                mb_index: 5,
                pixels: 256
            }]
        );
    }

    #[test]
    fn straddling_overlap_splits_area() {
        let g = MbGrid::for_frame(64, 64);
        let o = g.overlaps(Rect::new(8, 8, 16, 16));
        assert_eq!(o.len(), 4);
        let total: usize = o.iter().map(|e| e.pixels).sum();
        assert_eq!(total, 256);
        assert!(o.iter().all(|e| e.pixels == 64));
    }

    #[test]
    fn overlap_weights_always_sum_to_rect_area() {
        // Even off-frame rects (clamped reads) must preserve total weight,
        // so that incoming compensation weights sum to 1 (paper §4.1).
        let g = MbGrid::for_frame(48, 32);
        for &(x, y) in &[(-8, -8), (40, 24), (-20, 10), (100, 100), (3, 5)] {
            let o = g.overlaps(Rect::new(x, y, 16, 16));
            let total: usize = o.iter().map(|e| e.pixels).sum();
            assert_eq!(total, 256, "rect at ({x},{y})");
        }
    }

    #[test]
    fn sub_partition_overlaps() {
        let g = MbGrid::for_frame(64, 64);
        // A 4x8 partition fully inside MB 0.
        let o = g.overlaps(Rect::new(4, 4, 4, 8));
        assert_eq!(
            o,
            vec![MbOverlap {
                mb_index: 0,
                pixels: 32
            }]
        );
        // Crossing a vertical MB boundary.
        let o = g.overlaps(Rect::new(14, 0, 4, 8));
        assert_eq!(o.len(), 2);
        assert_eq!(o.iter().map(|e| e.pixels).sum::<usize>(), 32);
    }

    #[test]
    fn empty_rect_has_no_overlap() {
        let g = MbGrid::for_frame(64, 64);
        assert!(g.overlaps(Rect::new(0, 0, 0, 16)).is_empty());
    }
}
