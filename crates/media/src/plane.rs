//! A bounds-safe 8-bit pixel plane.

use std::fmt;

/// An 8-bit grayscale pixel plane with row-major storage.
///
/// All sampling access is clamped to the plane borders ([`Plane::sample`]),
/// which mirrors the edge-extension rule H.264 uses for unrestricted motion
/// vectors and lets prediction code read "outside" the frame safely.
///
/// # Example
///
/// ```
/// use vapp_media::Plane;
///
/// let mut p = Plane::new(4, 4);
/// p.set(1, 2, 200);
/// assert_eq!(p.get(1, 2), 200);
/// // Clamped sampling never goes out of bounds:
/// assert_eq!(p.sample(-5, 2), p.get(0, 2));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Plane {
    width: usize,
    height: usize,
    data: Vec<u8>,
}

impl Plane {
    /// Creates a plane of the given size filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero.
    pub fn new(width: usize, height: usize) -> Self {
        Self::filled(width, height, 0)
    }

    /// Creates a plane filled with `value`.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero.
    pub fn filled(width: usize, height: usize, value: u8) -> Self {
        assert!(width > 0 && height > 0, "plane dimensions must be nonzero");
        Plane {
            width,
            height,
            data: vec![value; width * height],
        }
    }

    /// Creates a plane from row-major pixel data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != width * height` or a dimension is zero.
    pub fn from_data(width: usize, height: usize, data: Vec<u8>) -> Self {
        assert!(width > 0 && height > 0, "plane dimensions must be nonzero");
        assert_eq!(data.len(), width * height, "pixel buffer size mismatch");
        Plane {
            width,
            height,
            data,
        }
    }

    /// Plane width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Plane height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// The raw row-major pixel buffer.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Mutable access to the raw row-major pixel buffer.
    pub fn data_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Returns the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> u8 {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x]
    }

    /// Sets the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, value: u8) {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x] = value;
    }

    /// Samples the pixel at signed coordinates, clamping to the borders.
    ///
    /// This is the H.264 edge-extension rule: coordinates outside the plane
    /// read the nearest border pixel.
    #[inline]
    pub fn sample(&self, x: isize, y: isize) -> u8 {
        let cx = x.clamp(0, self.width as isize - 1) as usize;
        let cy = y.clamp(0, self.height as isize - 1) as usize;
        self.data[cy * self.width + cx]
    }

    /// Returns one row of pixels.
    ///
    /// # Panics
    ///
    /// Panics if `y` is out of bounds.
    #[inline]
    pub fn row(&self, y: usize) -> &[u8] {
        &self.data[y * self.width..(y + 1) * self.width]
    }

    /// Returns one row of pixels, mutably.
    ///
    /// # Panics
    ///
    /// Panics if `y` is out of bounds.
    #[inline]
    pub fn row_mut(&mut self, y: usize) -> &mut [u8] {
        &mut self.data[y * self.width..(y + 1) * self.width]
    }

    /// Copies a `w x h` block whose top-left corner is `(x, y)` into `out`
    /// (row-major, clamped at borders: every pixel equals [`Plane::sample`]
    /// at its position).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != w * h`.
    pub fn copy_block(&self, x: isize, y: isize, w: usize, h: usize, out: &mut [u8]) {
        assert_eq!(out.len(), w * h, "output buffer size mismatch");
        if w == 0 {
            return;
        }
        // Block columns `..left` clamp to the first plane column and
        // `right..` to the last; `left..right` lie inside the plane.
        let width = self.width as isize;
        let left = (-x).clamp(0, w as isize) as usize;
        let right = (width - x).clamp(left as isize, w as isize) as usize;
        for (by, dst) in out.chunks_exact_mut(w).enumerate() {
            let row = self.row((y + by as isize).clamp(0, self.height as isize - 1) as usize);
            dst[..left].fill(row[0]);
            let inside = (x + left as isize).clamp(0, width) as usize;
            dst[left..right].copy_from_slice(&row[inside..][..right - left]);
            dst[right..].fill(row[self.width - 1]);
        }
    }

    /// True when a `w x h` block at signed `(x, y)` lies fully inside the
    /// plane, i.e. clamped sampling degenerates to direct row access.
    #[inline]
    pub fn block_interior(&self, x: isize, y: isize, w: usize, h: usize) -> bool {
        x >= 0 && y >= 0 && x as usize + w <= self.width && y as usize + h <= self.height
    }

    /// Writes a `w x h` block at `(x, y)`; parts outside the plane are
    /// silently dropped.
    pub fn store_block(&mut self, x: usize, y: usize, w: usize, h: usize, block: &[u8]) {
        assert_eq!(block.len(), w * h, "input buffer size mismatch");
        let cw = w.min(self.width.saturating_sub(x));
        if cw == 0 {
            return;
        }
        for (by, src) in block
            .chunks_exact(w)
            .take(self.height.saturating_sub(y))
            .enumerate()
        {
            self.row_mut(y + by)[x..x + cw].copy_from_slice(&src[..cw]);
        }
    }

    /// Sum of absolute differences between the `w x h` block of this plane
    /// at `(x, y)` and the block of `other` at `(rx, ry)`. The cost function
    /// used by motion estimation.
    ///
    /// # Panics
    ///
    /// Panics unless both blocks lie fully inside their planes (see
    /// [`Plane::sad_bounded`]).
    #[allow(clippy::too_many_arguments)] // block geometry: x, y, w, h + reference
    pub fn sad(
        &self,
        x: usize,
        y: usize,
        w: usize,
        h: usize,
        other: &Plane,
        rx: isize,
        ry: isize,
    ) -> u64 {
        self.sad_bounded(x, y, w, h, other, rx, ry, u64::MAX)
    }

    /// [`Plane::sad`] with early exit: stops accumulating as soon as the
    /// running total strictly exceeds `bound` and returns that partial sum.
    ///
    /// The contract is *decision-identical* to the exact SAD for callers that
    /// only ever compare results against `bound` (a running best): a block
    /// whose true SAD is `<= bound` — including exact ties — is always summed
    /// in full and returned exactly, because every partial row total is `<=`
    /// the final sum. Only blocks that would lose anyway can return early,
    /// and the partial value they return is still `> bound`, so `<` and `==`
    /// comparisons against any value `<= bound` come out the same as with the
    /// exact SAD.
    ///
    /// Both blocks must be interior: rows are borrowed directly and compared
    /// 16 pixels at a time ([`crate::kernels::sad_slices`]). Callers that need
    /// clamped (edge-extended) reference sampling read an edge-extended copy
    /// of the reference at a clamped origin instead — the motion search's
    /// padded reference planes — so no per-pixel clamping path exists here.
    ///
    /// # Panics
    ///
    /// Panics if either block leaves its plane.
    #[allow(clippy::too_many_arguments)] // block geometry + reference + bound
    pub fn sad_bounded(
        &self,
        x: usize,
        y: usize,
        w: usize,
        h: usize,
        other: &Plane,
        rx: isize,
        ry: isize,
        bound: u64,
    ) -> u64 {
        assert!(
            x + w <= self.width && y + h <= self.height && other.block_interior(rx, ry, w, h),
            "SAD blocks must be interior: {w}x{h} at ({x}, {y}) against ({rx}, {ry})"
        );
        let (rx, ry) = (rx as usize, ry as usize);
        let mut total = 0u64;
        for by in 0..h {
            let a = &self.data[(y + by) * self.width + x..][..w];
            let b = &other.data[(ry + by) * other.width + rx..][..w];
            total += crate::kernels::sad_slices(a, b);
            if total > bound {
                return total;
            }
        }
        total
    }

    /// Sum of squared errors against another plane of the same size.
    ///
    /// # Panics
    ///
    /// Panics if the planes differ in size.
    pub fn sse(&self, other: &Plane) -> u64 {
        assert_eq!(self.width, other.width, "plane width mismatch");
        assert_eq!(self.height, other.height, "plane height mismatch");
        crate::kernels::sse_slices(&self.data, &other.data)
    }
}

impl fmt::Debug for Plane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Plane")
            .field("width", &self.width)
            .field("height", &self.height)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The original per-pixel SAD, retained as the reference the row-kernel
    /// implementation must match (same idiom as the storage crate's
    /// `ScalarBch`).
    #[allow(clippy::too_many_arguments)]
    fn sad_scalar_ref(
        cur: &Plane,
        x: usize,
        y: usize,
        w: usize,
        h: usize,
        other: &Plane,
        rx: usize,
        ry: usize,
    ) -> u64 {
        let mut total = 0u64;
        for by in 0..h {
            for bx in 0..w {
                let a = cur.get(x + bx, y + by) as i32;
                let b = other.get(rx + bx, ry + by) as i32;
                total += (a - b).unsigned_abs() as u64;
            }
        }
        total
    }

    fn textured(width: usize, height: usize, salt: u64) -> Plane {
        let mut p = Plane::new(width, height);
        for y in 0..height {
            for x in 0..width {
                let v = (x as u64)
                    .wrapping_mul(31)
                    .wrapping_add((y as u64).wrapping_mul(97))
                    .wrapping_add(salt.wrapping_mul(131));
                p.set(x, y, (v % 251) as u8);
            }
        }
        p
    }

    #[test]
    fn sad_matches_scalar_reference() {
        let cur = textured(40, 24, 1);
        let reference = textured(40, 24, 2);
        // Interior geometries touching every edge, plus widths that are not
        // multiples of 16, which exercise the per-pixel remainder after the
        // 16-pixel chunks (alone, and after one or two chunks).
        let cases: &[(usize, usize, usize, usize, usize, usize)] = &[
            (8, 4, 16, 16, 10, 6),
            (0, 0, 16, 16, 0, 0),
            (24, 8, 16, 16, 24, 8),
            (5, 3, 13, 7, 4, 2),
            (5, 3, 13, 7, 27, 17),
            (32, 16, 8, 8, 31, 15),
            (0, 0, 4, 4, 1, 1),
            (2, 1, 20, 5, 17, 9),
            (3, 2, 31, 9, 9, 15),
            (0, 0, 33, 3, 7, 21),
        ];
        for &(x, y, w, h, rx, ry) in cases {
            assert_eq!(
                cur.sad(x, y, w, h, &reference, rx as isize, ry as isize),
                sad_scalar_ref(&cur, x, y, w, h, &reference, rx, ry),
                "geometry ({x},{y}) {w}x{h} at ({rx},{ry})"
            );
        }
    }

    #[test]
    fn sad_bounded_is_exact_at_or_below_bound() {
        let cur = textured(40, 24, 3);
        let reference = textured(40, 24, 4);
        let exact = cur.sad(8, 4, 16, 16, &reference, 11, 7);
        // bound >= exact (including equality): the full exact sum comes back.
        assert_eq!(
            cur.sad_bounded(8, 4, 16, 16, &reference, 11, 7, exact),
            exact
        );
        assert_eq!(
            cur.sad_bounded(8, 4, 16, 16, &reference, 11, 7, exact + 1),
            exact
        );
        // bound < exact: whatever partial comes back still exceeds the bound.
        let partial = cur.sad_bounded(8, 4, 16, 16, &reference, 11, 7, exact - 1);
        assert!(partial > exact - 1);
        assert!(partial <= exact);
    }

    #[test]
    #[should_panic(expected = "interior")]
    fn sad_rejects_a_reference_block_off_the_plane() {
        let cur = textured(40, 24, 5);
        let _ = cur.sad(0, 0, 16, 16, &cur.clone(), -3, -2);
    }

    #[test]
    #[should_panic(expected = "interior")]
    fn sad_rejects_a_source_block_off_the_plane() {
        let cur = textured(40, 24, 6);
        let _ = cur.sad(30, 0, 16, 16, &cur.clone(), 0, 0);
    }

    #[test]
    fn copy_block_interior_fast_path_matches_clamped() {
        let p = textured(20, 12, 5);
        let mut fast = vec![0u8; 6 * 5];
        let mut slow = vec![0u8; 6 * 5];
        p.copy_block(3, 2, 6, 5, &mut fast);
        for by in 0..5 {
            for bx in 0..6 {
                slow[by * 6 + bx] = p.sample(3 + bx as isize, 2 + by as isize);
            }
        }
        assert_eq!(fast, slow);
    }

    #[test]
    fn copy_block_matches_sample_across_borders() {
        // Interior blocks, blocks overlapping each border, covering a
        // plane smaller than themselves, or lying fully outside it: every
        // pixel is `sample`.
        for (pw, ph) in [(1, 1), (3, 2), (20, 12)] {
            let p = textured(pw, ph, 9);
            for (x, y, w, h) in [
                (3, 2, 6, 5),
                (-3, -2, 6, 5),
                (17, 9, 6, 5),
                (-30, 4, 5, 3),
                (40, -20, 4, 4),
                (-2, -2, 24, 16),
                (5, 5, 1, 1),
                (2, 3, 0, 4),
            ] {
                let mut got = vec![0u8; w * h];
                p.copy_block(x, y, w, h, &mut got);
                let want: Vec<u8> = (0..w * h)
                    .map(|i| p.sample(x + (i % w) as isize, y + (i / w) as isize))
                    .collect();
                assert_eq!(got, want, "{pw}x{ph} plane, {w}x{h} at ({x}, {y})");
            }
        }
    }

    #[test]
    fn filled_and_get_set() {
        let mut p = Plane::filled(3, 2, 7);
        assert_eq!(p.get(2, 1), 7);
        p.set(0, 0, 9);
        assert_eq!(p.get(0, 0), 9);
        assert_eq!(p.width(), 3);
        assert_eq!(p.height(), 2);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_dimension_panics() {
        let _ = Plane::new(0, 4);
    }

    #[test]
    fn sample_clamps_to_borders() {
        let mut p = Plane::new(4, 3);
        p.set(0, 0, 11);
        p.set(3, 2, 22);
        assert_eq!(p.sample(-10, -10), 11);
        assert_eq!(p.sample(100, 100), 22);
        assert_eq!(p.sample(-1, 2), p.get(0, 2));
    }

    #[test]
    fn copy_block_roundtrip() {
        let mut p = Plane::new(8, 8);
        for y in 0..8 {
            for x in 0..8 {
                p.set(x, y, (y * 8 + x) as u8);
            }
        }
        let mut block = vec![0u8; 4 * 4];
        p.copy_block(2, 3, 4, 4, &mut block);
        assert_eq!(block[0], p.get(2, 3));
        assert_eq!(block[15], p.get(5, 6));

        let mut q = Plane::new(8, 8);
        q.store_block(2, 3, 4, 4, &block);
        for by in 0..4 {
            for bx in 0..4 {
                assert_eq!(q.get(2 + bx, 3 + by), p.get(2 + bx, 3 + by));
            }
        }
    }

    #[test]
    fn store_block_clips_at_borders() {
        let mut p = Plane::new(4, 4);
        let block = vec![5u8; 16];
        p.store_block(2, 2, 4, 4, &block);
        assert_eq!(p.get(3, 3), 5);
        assert_eq!(p.get(1, 1), 0);
    }

    #[test]
    fn sad_zero_for_identical_blocks() {
        let mut p = Plane::new(16, 16);
        for i in 0..256 {
            p.data_mut()[i] = (i % 251) as u8;
        }
        assert_eq!(p.sad(0, 0, 16, 16, &p.clone(), 0, 0), 0);
        assert!(p.sad(0, 0, 8, 8, &p.clone(), 1, 0) > 0);
    }

    #[test]
    fn sse_counts_squared_differences() {
        let a = Plane::filled(2, 2, 10);
        let b = Plane::filled(2, 2, 13);
        assert_eq!(a.sse(&b), 4 * 9);
    }

    /// The per-pixel `i64` definition of the sum of squared errors.
    fn sse_scalar(a: &[u8], b: &[u8]) -> u64 {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| {
                let d = x as i64 - y as i64;
                (d * d) as u64
            })
            .sum()
    }

    #[test]
    fn sse_matches_scalar_oracle() {
        // Both sides of every 16-byte chunk boundary up to five chunks,
        // plus two long rows; textured rows, then all-0 against all-255 in
        // both orders (the largest chunk sum, 16 * 255^2).
        for len in (0..=80).chain([100, 256]) {
            let textured_row = |salt| textured(len.max(1), 1, salt).data()[..len].to_vec();
            let (zeros, maxed) = (vec![0u8; len], vec![255u8; len]);
            let pairs = [
                (textured_row(7), textured_row(8)),
                (zeros.clone(), maxed.clone()),
                (maxed, zeros),
            ];
            for (a, b) in pairs {
                let want = sse_scalar(&a, &b);
                assert_eq!(crate::kernels::sse_slices(&a, &b), want, "len {len}");
                if len > 0 {
                    let (pa, pb) = (Plane::from_data(len, 1, a), Plane::from_data(len, 1, b));
                    assert_eq!(pa.sse(&pb), want, "{len}x1 plane");
                }
            }
        }
        // A multi-row plane sums across rows, not only within one, and
        // an all-0 against all-255 plane past one `SSE_RUN` of chunks
        // fills its `i32` sums to the limit.
        let (a, b) = (textured(37, 9, 1), textured(37, 9, 2));
        assert_eq!(a.sse(&b), sse_scalar(a.data(), b.data()));
        let len = 16 * crate::kernels::SSE_RUN + 40;
        let (zeros, maxed) = (Plane::filled(len, 2, 0), Plane::filled(len, 2, 255));
        assert_eq!(zeros.sse(&maxed), 2 * len as u64 * 255 * 255);
    }
}
