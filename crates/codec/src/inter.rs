//! Inter prediction: motion estimation and compensation.
//!
//! Half-pel motion: a full-pel full search around the predicted vector,
//! then a ±1 half-pel refinement of its winner; per-partition refinement;
//! and bi-prediction for B frames. Vectors are in half-pel units and
//! compensation interpolates bilinearly. The referenced pixel rectangles
//! double as the temporal compensation dependencies VideoApp records
//! (paper §4.1).
//!
//! Motion search never samples a reference with clamping. Each reference
//! frame is prepared once ([`RefPlanes`]: edge-extended full-pel and
//! half-pel phase planes), so every candidate SAD is an interior row SAD at
//! a clamped origin. The ±8 macroblock search skips most candidates before
//! their SAD, on exact lower bounds from block sums (successive
//! elimination over a summed-area table). The partition searches of one
//! macroblock share a single ±[`GRID_RANGE`] window per direction
//! ([`SadGrid`]), evaluated once at 4x4-cell granularity, and their
//! half-pel refinements a lazily filled half-pel window of the same
//! cells.

use crate::types::{BlockGeom, MotionVector};
use vapp_media::kernels::{avg4_rounding, avg_rounding, sad_quads16};
use vapp_media::{Plane, MB_SIZE};

/// Hard bound on motion-vector components (also the decoder's clamp for
/// corrupt data).
pub const MV_LIMIT: i16 = 1 << 12;

/// Result of a block motion search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SearchResult {
    /// Best motion vector found.
    pub mv: MotionVector,
    /// Its sum of absolute differences.
    pub sad: u64,
}

/// Counters accumulated by the bounded search loops. Threaded through by
/// value per macroblock task (never stored in thread-locals) so the totals
/// are identical at any worker count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Candidates rejected because their SAD exceeds the best so far: the
    /// bounded evaluation stopped (possibly mid-block) once its partial sum
    /// exceeded the best candidate, or — in the ±8 search — a block-sum
    /// lower bound already exceeded it and the SAD was skipped. A skipped
    /// candidate is exactly one whose bounded SAD would have come back
    /// above the bound, so it counts once either way and the total is the
    /// same as without successive elimination.
    ///
    /// Counted in the 16x16 full searches ([`motion_search_stats`]), the
    /// ±1 half-pel refinements (bounded SADs in [`search_sub_stats`], cell
    /// sums in [`SadGrid::search`], counted alike) and the encoder's
    /// bi-prediction probe. The shared full-pel partition window evaluates
    /// every cell of every displacement without a bound, so it contributes
    /// nothing.
    pub early_exits: u64,
}

impl SearchStats {
    /// Merges another stats record into this one.
    pub fn merge(&mut self, other: SearchStats) {
        self.early_exits += other.early_exits;
    }
}

/// Edge-extension margin of [`RefPlanes`], in pixels, on every side.
///
/// Clamped sampling saturates. A block at most `MB_SIZE` wide whose origin
/// lies `REF_MARGIN` or more pixels before the first column reads, even
/// with its half-pel `+1` tap, only columns `<= 0`, which all clamp to
/// column 0; past the last column, and along rows, the same holds with room
/// to spare. So a block at any origin reads the same pixels as the block at
/// the origin clamped into the margin, and the padded planes serve every
/// vector without a per-pixel clamping path.
///
/// The full-pel plane also gets a summed-area table ([`RefPlanes::box_sum`]),
/// kept as wrapping `u32`s: at [`crate::syntax::MAX_DIMENSION`] the plane's
/// total can pass `2^32`, but every box the search asks for is at most
/// 16x16 and so sums to at most `256 * 255 = 65_280 < 2^32`. The
/// four-corner difference is exact modulo `2^32`, and a value below the
/// modulus is the box sum itself.
pub const REF_MARGIN: usize = MB_SIZE + 1;

/// A reference frame prepared once for motion search.
///
/// Holds the reconstruction itself (which compensation reads) and four
/// phase planes, each edge-extended by [`REF_MARGIN`] on every side:
/// full-pel, horizontal, vertical and diagonal half-pel. Pixel `(X, Y)` of
/// the phase with fractional offsets `(fx, fy)` is the clamped bilinear
/// sample at half-pel position `(2 X' + fx, 2 Y' + fy)`, where
/// `(X', Y') = (X - REF_MARGIN, Y - REF_MARGIN)` — what
/// [`mc_block_halfpel_into`] computes per candidate. A search SAD is
/// therefore [`Plane::sad_bounded`]'s interior row path on one phase plane,
/// with no interpolation and no border branch.
///
/// The full-pel phase also carries a summed-area table, from which the ±8
/// search takes its lower bounds ([`motion_search_stats`]).
#[derive(Clone, Debug)]
pub struct RefPlanes {
    recon: Plane,
    /// Indexed by `fx + 2 * fy`.
    phases: [Plane; 4],
    /// `(pw + 1) x (ph + 1)` wrapping prefix sums of the full-pel phase:
    /// entry `(X, Y)` sums the padded pixels above and left of `(X, Y)`.
    sat: Vec<u32>,
}

impl RefPlanes {
    /// Takes ownership of a reconstruction and builds its phase planes.
    /// Half-pel phases are built from the padded full-pel plane with the
    /// rounding-average row kernels, a whole row at a time.
    pub fn new(recon: Plane) -> Self {
        let (w, h) = (recon.width(), recon.height());
        let m = REF_MARGIN;
        let (pw, ph) = (w + 2 * m, h + 2 * m);
        let mut full = Plane::new(pw, ph);
        for py in 0..ph {
            let src = recon.row(py.saturating_sub(m).min(h - 1));
            let row = full.row_mut(py);
            row[..m].fill(src[0]);
            row[m..m + w].copy_from_slice(src);
            row[m + w..].fill(src[w - 1]);
        }
        let (mut horiz, mut vert, mut diag) =
            (Plane::new(pw, ph), Plane::new(pw, ph), Plane::new(pw, ph));
        let last = pw - 1;
        for py in 0..ph {
            // The `+1` taps past the last row and column clamp onto it.
            let (r0, r1) = (full.row(py), full.row((py + 1).min(ph - 1)));
            let out = horiz.row_mut(py);
            avg_rounding(&r0[..last], &r0[1..], &mut out[..last]);
            out[last] = r0[last];
            avg_rounding(r0, r1, vert.row_mut(py));
            let out = diag.row_mut(py);
            avg4_rounding(
                &r0[..last],
                &r0[1..],
                &r1[..last],
                &r1[1..],
                &mut out[..last],
            );
            out[last] = (u16::from(r0[last]) + u16::from(r1[last])).div_ceil(2) as u8;
        }
        let stride = pw + 1;
        let mut sat = vec![0u32; stride * (ph + 1)];
        for py in 0..ph {
            let (above, below) = sat[py * stride..(py + 2) * stride].split_at_mut(stride);
            let mut run = 0u32;
            for (px, &v) in full.row(py).iter().enumerate() {
                run = run.wrapping_add(u32::from(v));
                below[px + 1] = above[px + 1].wrapping_add(run);
            }
        }
        RefPlanes {
            recon,
            phases: [full, horiz, vert, diag],
            sat,
        }
    }

    /// The reconstruction these planes were built from.
    pub fn recon(&self) -> &Plane {
        &self.recon
    }

    /// SAD between the `w x h` block of `cur` at `(x, y)` and the reference
    /// block the half-pel vector `mv` points at, with clamped bilinear
    /// sampling of the reference. Exactly the SAD against
    /// [`mc_block_halfpel_into`]'s prediction, with
    /// [`Plane::sad_bounded`]'s early-exit contract.
    ///
    /// # Panics
    ///
    /// Panics if the block is larger than a macroblock or leaves `cur`.
    #[allow(clippy::too_many_arguments)] // block geometry + vector + bound
    pub fn sad_bounded(
        &self,
        cur: &Plane,
        x: usize,
        y: usize,
        w: usize,
        h: usize,
        mv: MotionVector,
        bound: u64,
    ) -> u64 {
        let (plane, ox, oy) = self.block(x, y, w, h, mv);
        cur.sad_bounded(x, y, w, h, plane, ox as isize, oy as isize, bound)
    }

    /// Where the `w x h` block at `(x, y)` displaced by the half-pel vector
    /// `mv` lies in the prepared planes: its phase plane and padded origin
    /// `(ox, oy)`. Rows `plane.row(oy + r)[ox..ox + w]` are the rows of
    /// [`mc_block_halfpel_into`]'s prediction, with no interpolation.
    ///
    /// # Panics
    ///
    /// Panics if the block is larger than a macroblock.
    pub fn block(
        &self,
        x: usize,
        y: usize,
        w: usize,
        h: usize,
        mv: MotionVector,
    ) -> (&Plane, usize, usize) {
        let bx = x as isize * 2 + mv.x as isize;
        let by = y as isize * 2 + mv.y as isize;
        let phase = (bx.rem_euclid(2) + 2 * by.rem_euclid(2)) as usize;
        let (ox, oy) = self.origin(bx.div_euclid(2), by.div_euclid(2), w, h);
        (&self.phases[phase], ox, oy)
    }

    /// Padded origin, on the full-pel phase, of the `w x h` block at
    /// `(x, y)` displaced by the full-pel vector `mv`: where the full-pel
    /// search stage reads its candidates.
    fn full_pel_origin(
        &self,
        x: usize,
        y: usize,
        w: usize,
        h: usize,
        mv: MotionVector,
    ) -> (usize, usize) {
        self.origin(x as isize + mv.x as isize, y as isize + mv.y as isize, w, h)
    }

    /// Sum of the full-pel phase over the `w x h` box at `(px, py)` in
    /// padded coordinates (padded pixel `(X, Y)` is the clamped sample at
    /// `(X - REF_MARGIN, Y - REF_MARGIN)`), from four summed-area corners.
    ///
    /// # Panics
    ///
    /// Panics if the box is larger than a macroblock (past which the
    /// wrapping sums are no longer exact; see [`REF_MARGIN`]) or leaves the
    /// padded plane.
    pub fn box_sum(&self, px: usize, py: usize, w: usize, h: usize) -> u32 {
        assert!(
            w <= MB_SIZE && h <= MB_SIZE,
            "summed-area boxes are at most a macroblock"
        );
        let full = &self.phases[0];
        assert!(
            px + w <= full.width() && py + h <= full.height(),
            "box {w}x{h} at ({px}, {py}) leaves the padded plane"
        );
        let stride = self.sat_stride();
        let corner = |cx: usize, cy: usize| self.sat[cy * stride + cx];
        corner(px + w, py + h)
            .wrapping_sub(corner(px, py + h))
            .wrapping_sub(corner(px + w, py))
            .wrapping_add(corner(px, py))
    }

    /// Row stride of the summed-area table: one more than the padded width.
    fn sat_stride(&self) -> usize {
        self.phases[0].width() + 1
    }

    /// Where a `w x h` block whose clamped-sampling origin is `(ix, iy)`
    /// sits in the padded planes: the origin clamped into the margin (see
    /// [`REF_MARGIN`]), shifted by it.
    fn origin(&self, ix: isize, iy: isize, w: usize, h: usize) -> (usize, usize) {
        assert!(
            w <= MB_SIZE && h <= MB_SIZE,
            "search blocks are at most a macroblock"
        );
        let m = REF_MARGIN as isize;
        let clamp = |v: isize, len: usize, size: usize| {
            (v.clamp(-m, (len + REF_MARGIN - size) as isize) + m) as usize
        };
        (
            clamp(ix, self.recon.width(), w),
            clamp(iy, self.recon.height(), h),
        )
    }
}

/// Full-pel full search in a `±range` window around the full-pel `center`
/// for the `w x h` block of `cur` at `(x, y)`, matching against the
/// full-pel phase of `reference`, with early-exit accounting: the first
/// stage of [`search_sub_stats`]. The returned vector is full-pel.
///
/// Ties break toward the vector closest to `center` (cheaper to code), and
/// among equally close ones toward the first evaluated: the centre — first
/// so that it seeds a tight bound — then the window in row-major order.
///
/// Every candidate SAD is bounded by the running best: a candidate whose
/// partial sum already exceeds `best.sad` can stop summing, because it can
/// win neither the `<` comparison nor the distance tie-break (which requires
/// exact equality, and partial sums only come back when they *exceed* the
/// bound). The winner's SAD is therefore always the exact value — identical
/// to the unbounded search, decision for decision.
///
/// Before its SAD, each candidate faces multilevel successive elimination
/// (Li & Salari): by the triangle inequality, `|Σcur − Σref|` over any box
/// is at most the box's SAD, so summing it over the whole block, then over
/// its 8x8 quadrants, then over its 4x4 cells gives ever tighter lower
/// bounds, the reference side read from the summed-area table. A candidate
/// is skipped once one bound *strictly* exceeds `best.sad` — exactly a
/// candidate whose bounded SAD would have come back above the bound — and
/// counts as an early exit, as it would have. A bound equal to `best.sad`
/// still takes the SAD: the tie-break needs it exact.
///
/// # Panics
///
/// Panics unless the block is a union of 4x4 cells no larger than a
/// macroblock (every partition block is), or if it leaves `cur`.
#[allow(clippy::too_many_arguments)]
pub fn motion_search_stats(
    cur: &Plane,
    reference: &RefPlanes,
    x: usize,
    y: usize,
    w: usize,
    h: usize,
    center: MotionVector,
    range: i16,
    stats: &mut SearchStats,
) -> SearchResult {
    let cells = CellSums::new(cur, reference, x, y, w, h);
    let full = &reference.phases[0];
    let seed_mv = clamp_mv(center, 0, 0);
    let (ox, oy) = reference.full_pel_origin(x, y, w, h, seed_mv);
    let mut best = SearchResult {
        mv: seed_mv,
        sad: cur.sad(x, y, w, h, full, ox as isize, oy as isize),
    };
    let mut best_dist = l1_dist(seed_mv, center);
    for dy in -range..=range {
        for dx in -range..=range {
            if dx == 0 && dy == 0 {
                continue;
            }
            let mv = clamp_mv(center, dx, dy);
            let (ox, oy) = reference.full_pel_origin(x, y, w, h, mv);
            if cells.bound_exceeds(reference, ox, oy, best.sad) {
                stats.early_exits += 1;
                continue;
            }
            let (ox, oy) = (ox as isize, oy as isize);
            let sad = cur.sad_bounded(x, y, w, h, full, ox, oy, best.sad);
            let dist = l1_dist(mv, center);
            if sad < best.sad || (sad == best.sad && dist < best_dist) {
                best = SearchResult { mv, sad };
                best_dist = dist;
            } else if sad > best.sad {
                stats.early_exits += 1;
            }
        }
    }
    best
}

/// The 4x4-cell sums of one search block, for [`motion_search_stats`]'s
/// successive-elimination bounds, and where the block's cell corners sit in
/// the reference's summed-area table. Cells are row-major at stride 4.
/// Lattice rows and columns past a block smaller than a macroblock repeat
/// its last corner, so the cells outside it are empty on both sides and add
/// nothing to any bound.
struct CellSums {
    /// Block size in pixels.
    w: usize,
    h: usize,
    cells: [u32; 16],
    quads: [u32; 4],
    total: u32,
    /// Summed-area offset of lattice corner `(r, c)`, at `r * 5 + c`, from
    /// the block's origin.
    corners: [usize; 25],
}

impl CellSums {
    fn new(cur: &Plane, reference: &RefPlanes, x: usize, y: usize, w: usize, h: usize) -> Self {
        assert!(
            [w, h]
                .iter()
                .all(|v| v.is_multiple_of(4) && (4..=MB_SIZE).contains(v)),
            "search blocks are unions of 4x4 cells: {w}x{h}"
        );
        let mut cells = [0u32; 16];
        for r in 0..h {
            let row = &cur.row(y + r)[x..x + w];
            for (c, quad) in row.chunks_exact(4).enumerate() {
                cells[r / 4 * 4 + c] += quad.iter().map(|&v| u32::from(v)).sum::<u32>();
            }
        }
        let stride = reference.sat_stride();
        CellSums {
            w,
            h,
            cells,
            quads: quad_sums(&cells),
            total: cells.iter().sum(),
            corners: core::array::from_fn(|k| (4 * (k / 5)).min(h) * stride + (4 * (k % 5)).min(w)),
        }
    }

    /// Whether a lower bound on the SAD against the full-pel block at padded
    /// origin `(ox, oy)` strictly exceeds `best`: the whole block's, then
    /// the quadrants', then the cells' `Σ|Σcur − Σref|`.
    fn bound_exceeds(&self, reference: &RefPlanes, ox: usize, oy: usize, best: u64) -> bool {
        let whole = reference.box_sum(ox, oy, self.w, self.h);
        if u64::from(self.total.abs_diff(whole)) > best {
            return true;
        }
        let lattice = &reference.sat[oy * reference.sat_stride() + ox..];
        let corners: [u32; 25] = core::array::from_fn(|k| lattice[self.corners[k]]);
        let cells: [u32; 16] = core::array::from_fn(|k| {
            let at = k / 4 * 5 + k % 4;
            corners[at + 6]
                .wrapping_sub(corners[at + 5])
                .wrapping_sub(corners[at + 1])
                .wrapping_add(corners[at])
        });
        let spread = |a: &[u32], b: &[u32]| -> u64 {
            a.iter()
                .zip(b)
                .map(|(&a, &b)| u64::from(a.abs_diff(b)))
                .sum()
        };
        spread(&self.quads, &quad_sums(&cells)) > best || spread(&self.cells, &cells) > best
    }
}

/// Sums of row-major 4x4-cell values over each 8x8 quadrant.
fn quad_sums(cells: &[u32; 16]) -> [u32; 4] {
    core::array::from_fn(|q| {
        let at = (q / 2) * 8 + (q % 2) * 2;
        cells[at] + cells[at + 1] + cells[at + 4] + cells[at + 5]
    })
}

/// `center + (dx, dy)`, each component clamped to `±MV_LIMIT`.
fn clamp_mv(center: MotionVector, dx: i16, dy: i16) -> MotionVector {
    MotionVector::new(
        (center.x + dx).clamp(-MV_LIMIT, MV_LIMIT),
        (center.y + dy).clamp(-MV_LIMIT, MV_LIMIT),
    )
}

/// L1 distance between two vectors, the search's tie-break.
fn l1_dist(a: MotionVector, b: MotionVector) -> i32 {
    (a.x as i32 - b.x as i32).abs() + (a.y as i32 - b.y as i32).abs()
}

/// Motion-compensates a block with half-pel precision into a
/// caller-provided buffer: `mv` is in half-pel units; fractional positions
/// are bilinearly interpolated (H.264 uses a 6-tap filter for luma
/// half-pel; bilinear preserves the dependence structure at a fraction of
/// the complexity). Allocation-free: the shared macroblock reconstruction
/// passes fixed scratch buffers.
///
/// The block reads a `(w + fx) x (h + fy)` footprint of the reference
/// (`fx`, `fy` are the fractional phases). When the footprint is interior
/// its rows are borrowed from the plane; otherwise it is gathered once,
/// with clamped coordinates, into a stack block. Either way the same
/// rounding-average row kernels from [`vapp_media::kernels`] interpolate
/// whole rows, so clamped sampling costs one gather, not a per-pixel loop
/// (pinned against the per-pixel definition by the kernel-equivalence
/// property tests).
///
/// # Panics
///
/// Panics if `out.len() != w * h` or the block is wider or taller than a
/// macroblock.
pub fn mc_block_halfpel_into(
    reference: &Plane,
    x: usize,
    y: usize,
    w: usize,
    h: usize,
    mv: MotionVector,
    out: &mut [u8],
) {
    assert_eq!(out.len(), w * h, "prediction buffer size mismatch");
    assert!(
        w <= MB_SIZE && h <= MB_SIZE,
        "{w}x{h} block exceeds a macroblock"
    );
    let bx = x as isize * 2 + mv.x as isize;
    let by = y as isize * 2 + mv.y as isize;
    let (ix, iy) = (bx.div_euclid(2), by.div_euclid(2));
    let (fx, fy) = (bx.rem_euclid(2) as usize, by.rem_euclid(2) as usize);
    let (fw, fh) = (w + fx, h + fy);
    // The footprint as rows of `fw` pixels, `stride` apart from `start`.
    let mut gathered;
    let (src, start, stride) = if reference.block_interior(ix, iy, fw, fh) {
        let start = iy as usize * reference.width() + ix as usize;
        (reference.data(), start, reference.width())
    } else {
        gathered = [0u8; FOOTPRINT_PIXELS];
        reference.copy_block(ix, iy, fw, fh, &mut gathered[..fw * fh]);
        (&gathered[..], 0, fw)
    };
    let row = |r: usize| &src[start + r * stride..][..fw];
    // Output rows (`max(1)`: a zero-width block has none).
    let rows = out.chunks_exact_mut(w.max(1)).enumerate();
    match (fx, fy) {
        // The partition widths copy rows of a fixed width, inline.
        (0, 0) => match w {
            4 => copy_rows::<4>(out, row),
            8 => copy_rows::<8>(out, row),
            16 => copy_rows::<16>(out, row),
            _ => rows.for_each(|(oy, dst)| dst.copy_from_slice(row(oy))),
        },
        (1, 0) => rows.for_each(|(oy, dst)| {
            let r0 = row(oy);
            avg_rounding(&r0[..w], &r0[1..], dst);
        }),
        (0, 1) => rows.for_each(|(oy, dst)| avg_rounding(row(oy), row(oy + 1), dst)),
        _ => rows.for_each(|(oy, dst)| {
            let (r0, r1) = (row(oy), row(oy + 1));
            avg4_rounding(&r0[..w], &r0[1..], &r1[..w], &r1[1..], dst);
        }),
    }
}

/// Fills `out`'s rows of `N` pixels from `row(0)`, `row(1)`, …; the fixed
/// row width lets each row copy inline instead of calling `memcpy`.
fn copy_rows<'a, const N: usize>(out: &mut [u8], row: impl Fn(usize) -> &'a [u8]) {
    for (oy, dst) in out.as_chunks_mut::<N>().0.iter_mut().enumerate() {
        dst.copy_from_slice(&row(oy)[..N]);
    }
}

/// Pixels in the largest half-pel footprint: a macroblock plus one column
/// and one row.
const FOOTPRINT_PIXELS: usize = (MB_SIZE + 1) * (MB_SIZE + 1);

/// The reference rectangle a compensated block reads, for dependency
/// recording: half-pel vectors widen the footprint by one pixel along
/// each fractional axis.
pub fn ref_rect(x: usize, y: usize, w: usize, h: usize, mv: MotionVector) -> vapp_media::Rect {
    let bx = x as isize * 2 + mv.x as isize;
    let by = y as isize * 2 + mv.y as isize;
    vapp_media::Rect::new(
        bx.div_euclid(2),
        by.div_euclid(2),
        w + (bx.rem_euclid(2) != 0) as usize,
        h + (by.rem_euclid(2) != 0) as usize,
    )
}

/// Pixels in the largest block any search or compensation call handles
/// (one 16x16 macroblock) — the size of the reusable scratch buffers.
pub const MAX_BLOCK_PIXELS: usize = vapp_media::MB_PIXELS;

/// Two-stage motion search with early-exit accounting: a full-pel full
/// search around the half-pel `center` halved (with truncation), then a
/// ±1 half-pel refinement around the winner. The returned vector is in
/// half-pel units.
#[allow(clippy::too_many_arguments)]
pub fn search_sub_stats(
    cur: &Plane,
    reference: &RefPlanes,
    x: usize,
    y: usize,
    w: usize,
    h: usize,
    center: MotionVector,
    range: i16,
    stats: &mut SearchStats,
) -> SearchResult {
    let full_center = MotionVector::new(center.x / 2, center.y / 2);
    let full = motion_search_stats(cur, reference, x, y, w, h, full_center, range, stats);
    refine_halfpel(cur, reference, x, y, w, h, full, stats)
}

/// The ±1 half-pel refinement around a full-pel winner.
///
/// Each candidate is bounded by the running best; only a strictly better
/// candidate replaces it (no tie-break here), so pruning anything whose
/// partial sum exceeds the best is decision-identical.
#[allow(clippy::too_many_arguments)]
fn refine_halfpel(
    cur: &Plane,
    reference: &RefPlanes,
    x: usize,
    y: usize,
    w: usize,
    h: usize,
    full: SearchResult,
    stats: &mut SearchStats,
) -> SearchResult {
    let base = MotionVector::new(full.mv.x * 2, full.mv.y * 2);
    let mut best = SearchResult {
        mv: base,
        sad: full.sad,
    };
    for dy in -1i16..=1 {
        for dx in -1i16..=1 {
            if dx == 0 && dy == 0 {
                continue;
            }
            let mv = clamp_mv(base, dx, dy);
            let sad = reference.sad_bounded(cur, x, y, w, h, mv, best.sad);
            if sad < best.sad {
                best = SearchResult { mv, sad };
            } else if sad > best.sad {
                stats.early_exits += 1;
            }
        }
    }
    best
}

/// Half-width of the partition window: every partition search of a
/// macroblock runs `±GRID_RANGE` full-pel around one shared centre.
pub const GRID_RANGE: i16 = 2;

/// Displacements in the shared window.
const GRID_CANDIDATES: usize = (2 * GRID_RANGE as usize + 1).pow(2);

/// Half-width, in half-pel units, of the window the partition searches'
/// ±1 half-pel refinements read: a full-pel winner lies within
/// `±GRID_RANGE` full-pel (`±2 * GRID_RANGE` half-pel) of the centre, and
/// its refinement one half-pel further.
const HALF_RANGE: i16 = 2 * GRID_RANGE + 1;

/// Side of the half-pel window.
const HALF_SIDE: usize = 2 * HALF_RANGE as usize + 1;

/// One macroblock's shared ±[`GRID_RANGE`] partition window against one
/// reference, evaluated once.
///
/// For each displacement the 16x16 block is compared in a single pass and
/// the SADs of its sixteen 4x4 cells are kept ([`sad_quads16`]). Any
/// partition block — every [`crate::types::PartitionLayout`] block is a
/// union of cells — then gets its full-pel search by summing cells, with
/// the same winner as [`motion_search_stats`] at range `GRID_RANGE` would
/// pick: clamped sampling is per pixel, so a sub-block of the clamped 16x16
/// prediction is the sub-block's own clamped prediction.
///
/// The ±1 half-pel refinements read a second window, ±`2 * GRID_RANGE + 1`
/// half-pel around the doubled centre, filled lazily: a displacement gets
/// its sixteen cell SADs on its phase plane the first time any partition's
/// refinement asks for it, and every later refinement sums cells.
#[derive(Debug)]
pub struct SadGrid<'a> {
    cur: &'a Plane,
    reference: &'a RefPlanes,
    mb_x: usize,
    mb_y: usize,
    /// Candidate vectors (full-pel, clamped) in the order the full search
    /// evaluates them: the centre first, then the window row-major.
    mvs: [MotionVector; GRID_CANDIDATES],
    /// Each candidate's distance to the (unclamped) full-pel centre.
    dists: [i32; GRID_CANDIDATES],
    /// Per 4x4 cell — `(col, row)` at `row * 4 + col` — its SAD at each
    /// candidate, so a block's SADs at every candidate sum whole rows.
    cells: [[u16; GRID_CANDIDATES]; 16],
    /// The half-pel window's first vector: its slot `(kx, ky)` holds
    /// displacement `half_origin + (kx, ky)`.
    half_origin: MotionVector,
    /// Per half-pel slot (`ky * HALF_SIDE + kx`), its sixteen cell SADs.
    half_cells: [[u16; 16]; HALF_SIDE * HALF_SIDE],
    /// Bit `k` is set once slot `k` is filled.
    half_filled: u128,
}

impl<'a> SadGrid<'a> {
    /// Evaluates the window around the half-pel `center` (halved with
    /// truncation exactly as [`search_sub_stats`] does) for the macroblock
    /// at `(mb_x, mb_y)`.
    ///
    /// # Panics
    ///
    /// Panics if the macroblock leaves `cur`.
    pub fn new(
        cur: &'a Plane,
        reference: &'a RefPlanes,
        mb_x: usize,
        mb_y: usize,
        center: MotionVector,
    ) -> Self {
        let center = MotionVector::new(center.x / 2, center.y / 2);
        let mut mvs = [clamp_mv(center, 0, 0); GRID_CANDIDATES];
        let offsets = (-GRID_RANGE..=GRID_RANGE)
            .flat_map(|dy| (-GRID_RANGE..=GRID_RANGE).map(move |dx| (dx, dy)))
            .filter(|&d| d != (0, 0));
        for (mv, (dx, dy)) in mvs[1..].iter_mut().zip(offsets) {
            *mv = clamp_mv(center, dx, dy);
        }
        let mut cells = [[0u16; GRID_CANDIDATES]; 16];
        for (k, mv) in mvs.iter().enumerate() {
            let (ox, oy) = reference.full_pel_origin(mb_x, mb_y, MB_SIZE, MB_SIZE, *mv);
            let sads = mb_cell_sads(cur, mb_x, mb_y, &reference.phases[0], ox, oy);
            for (cell, sad) in cells.iter_mut().zip(sads) {
                cell[k] = sad;
            }
        }
        // A refinement candidate is `clamp(2 * clamp(c + d) + e)` per
        // component, with `c` the full-pel centre, `|d| <= GRID_RANGE` and
        // `|e| <= 1`. Clamping is monotone and 1-Lipschitz, so that lies in
        // `[clamp(2 clamp(c) - HALF_RANGE), clamp(2 clamp(c) + HALF_RANGE)]`,
        // at most `HALF_SIDE` values starting at `half_origin`.
        let doubled = MotionVector::new(mvs[0].x * 2, mvs[0].y * 2);
        SadGrid {
            cur,
            reference,
            mb_x,
            mb_y,
            mvs,
            dists: mvs.map(|mv| l1_dist(mv, center)),
            cells,
            half_origin: clamp_mv(doubled, -HALF_RANGE, -HALF_RANGE),
            half_cells: [[0; 16]; HALF_SIDE * HALF_SIDE],
            half_filled: 0,
        }
    }

    /// Full-pel search of partition block `g`: the lexicographic
    /// `(sad, distance)` minimum over the window, first evaluated winning
    /// ties — [`motion_search_stats`]'s rule.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) unless `g` is a union of 4x4 cells.
    pub fn full_search(&self, g: &BlockGeom) -> SearchResult {
        debug_assert!(
            [g.dx, g.dy, g.w, g.h].iter().all(|v| v % 4 == 0)
                && g.dx + g.w <= MB_SIZE
                && g.dy + g.h <= MB_SIZE,
            "partition blocks are unions of 4x4 cells"
        );
        let mut sads = [0u32; GRID_CANDIDATES];
        for row in g.dy / 4..(g.dy + g.h) / 4 {
            for cell in &self.cells[row * 4 + g.dx / 4..row * 4 + (g.dx + g.w) / 4] {
                for (sad, &v) in sads.iter_mut().zip(cell) {
                    *sad += u32::from(v);
                }
            }
        }
        let mut best = 0;
        for k in 1..GRID_CANDIDATES {
            let (sad, best_sad) = (sads[k], sads[best]);
            if sad < best_sad || (sad == best_sad && self.dists[k] < self.dists[best]) {
                best = k;
            }
        }
        SearchResult {
            mv: self.mvs[best],
            sad: u64::from(sads[best]),
        }
    }

    /// [`SadGrid::full_search`], then the ±1 half-pel refinement of
    /// [`search_sub_stats`], from the half-pel window's cells. Equal to
    /// `search_sub_stats` over this block at range [`GRID_RANGE`], early
    /// exits included, except that the full-pel window adds none: a
    /// refinement candidate whose sum exceeds the best counts one, exactly
    /// as its bounded SAD would.
    pub fn search(&mut self, g: &BlockGeom, stats: &mut SearchStats) -> SearchResult {
        let full = self.full_search(g);
        let base = MotionVector::new(full.mv.x * 2, full.mv.y * 2);
        let mut best = SearchResult {
            mv: base,
            sad: full.sad,
        };
        for dy in -1i16..=1 {
            for dx in -1i16..=1 {
                if dx == 0 && dy == 0 {
                    continue;
                }
                let mv = clamp_mv(base, dx, dy);
                let cells = self.half_cells(mv);
                let sad: u64 = (g.dy / 4..(g.dy + g.h) / 4)
                    .flat_map(|row| &cells[row * 4 + g.dx / 4..row * 4 + (g.dx + g.w) / 4])
                    .map(|&v| u64::from(v))
                    .sum();
                if sad < best.sad {
                    best = SearchResult { mv, sad };
                } else if sad > best.sad {
                    stats.early_exits += 1;
                }
            }
        }
        best
    }

    /// The sixteen cell SADs of the macroblock at half-pel displacement
    /// `mv`, evaluated on first use.
    fn half_cells(&mut self, mv: MotionVector) -> &[u16; 16] {
        let kx = (mv.x - self.half_origin.x) as usize;
        let ky = (mv.y - self.half_origin.y) as usize;
        debug_assert!(
            kx < HALF_SIDE && ky < HALF_SIDE,
            "refinement candidates lie in the half-pel window"
        );
        let k = ky * HALF_SIDE + kx;
        if self.half_filled & (1 << k) == 0 {
            self.half_filled |= 1 << k;
            let (plane, ox, oy) = self
                .reference
                .block(self.mb_x, self.mb_y, MB_SIZE, MB_SIZE, mv);
            self.half_cells[k] = mb_cell_sads(self.cur, self.mb_x, self.mb_y, plane, ox, oy);
        }
        &self.half_cells[k]
    }
}

/// SADs of the sixteen 4x4 cells (row-major) of the macroblock of `cur` at
/// `(mb_x, mb_y)` against the 16x16 block of a padded phase plane at
/// `(ox, oy)`.
fn mb_cell_sads(
    cur: &Plane,
    mb_x: usize,
    mb_y: usize,
    plane: &Plane,
    ox: usize,
    oy: usize,
) -> [u16; 16] {
    let mut out = [0u16; 16];
    for (cell_row, cells) in out.chunks_exact_mut(4).enumerate() {
        // Four rows of quad sums: each lane stays below 4 * 1020.
        let lanes: u64 = (cell_row * 4..cell_row * 4 + 4)
            .map(|r| {
                sad_quads16(
                    &cur.row(mb_y + r)[mb_x..mb_x + MB_SIZE],
                    &plane.row(oy + r)[ox..ox + MB_SIZE],
                )
            })
            .sum();
        for (col, cell) in cells.iter_mut().enumerate() {
            *cell = (lanes >> (16 * col)) as u16;
        }
    }
    out
}

/// Bi-prediction: the rounds-to-nearest average of forward and backward
/// compensation, into a caller-provided buffer, with the half-pel rounding
/// average row kernel (`(a + b).div_ceil(2)` is exactly that average).
///
/// # Panics
///
/// Panics if the buffer lengths differ.
pub fn bi_average_into(fwd: &[u8], bwd: &[u8], out: &mut [u8]) {
    assert_eq!(fwd.len(), bwd.len(), "bi-prediction block size mismatch");
    assert_eq!(fwd.len(), out.len(), "bi-prediction output size mismatch");
    vapp_media::kernels::avg_rounding(fwd, bwd, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Compensates into a fresh buffer (tests only; callers pass scratch).
    fn mc(reference: &Plane, x: usize, y: usize, w: usize, h: usize, mv: MotionVector) -> Vec<u8> {
        let mut out = vec![0u8; w * h];
        mc_block_halfpel_into(reference, x, y, w, h, mv, &mut out);
        out
    }

    /// Searches against a freshly prepared reference (tests only; the
    /// encoder prepares each reference once).
    #[allow(clippy::too_many_arguments)]
    fn search(
        cur: &Plane,
        reference: &Plane,
        x: usize,
        y: usize,
        w: usize,
        h: usize,
        center: MotionVector,
        range: i16,
    ) -> SearchResult {
        let refs = RefPlanes::new(reference.clone());
        let mut stats = SearchStats::default();
        search_sub_stats(cur, &refs, x, y, w, h, center, range, &mut stats)
    }

    /// A plane with a distinctive patch at a given offset.
    fn patch_plane(ox: usize, oy: usize) -> Plane {
        let mut p = Plane::filled(64, 64, 50);
        for y in 0..8 {
            for x in 0..8 {
                p.set(ox + x, oy + y, 200 + ((x * y) % 40) as u8);
            }
        }
        p
    }

    #[test]
    fn search_finds_known_translation() {
        let reference = patch_plane(20, 24);
        let cur = patch_plane(24, 26); // moved by (+4, +2)
        let r = search(&cur, &reference, 24, 26, 8, 8, MotionVector::ZERO, 8);
        assert_eq!(r.mv, MotionVector::new(-8, -4));
        assert_eq!(r.sad, 0);
    }

    #[test]
    fn search_prefers_center_on_flat_content() {
        let reference = Plane::filled(64, 64, 90);
        let cur = Plane::filled(64, 64, 90);
        let r = search(&cur, &reference, 16, 16, 16, 16, MotionVector::ZERO, 4);
        assert_eq!(r.mv, MotionVector::ZERO);
        assert_eq!(r.sad, 0);
    }

    #[test]
    fn search_centered_away_from_zero() {
        let reference = patch_plane(20, 20);
        let cur = patch_plane(30, 20);
        // Center the window near the true vector; a small range suffices.
        let r = search(&cur, &reference, 30, 20, 8, 8, MotionVector::new(-16, 0), 3);
        assert_eq!(r.mv, MotionVector::new(-20, 0));
    }

    #[test]
    fn mc_block_reproduces_reference() {
        let reference = patch_plane(20, 24);
        let got = mc(&reference, 4, 4, 8, 8, MotionVector::new(32, 40));
        for y in 0..8 {
            for x in 0..8 {
                assert_eq!(got[y * 8 + x], reference.get(20 + x, 24 + y));
            }
        }
    }

    #[test]
    fn mc_block_clamps_outside_frame() {
        let reference = patch_plane(0, 0);
        let got = mc(&reference, 0, 0, 4, 4, MotionVector::new(-200, -200));
        assert!(got.iter().all(|&v| v == reference.get(0, 0)));
    }

    #[test]
    fn halfpel_interpolates_between_pixels() {
        let mut reference = Plane::filled(32, 32, 100);
        for y in 0..32 {
            for x in 16..32 {
                reference.set(x, y, 200);
            }
        }
        // Sampling at x=15.5: average of 100 and 200 → 150.
        let half = mc(&reference, 15, 8, 1, 1, MotionVector::new(1, 0));
        assert_eq!(half[0], 150);
        // Diagonal half position averages four pixels.
        let diag = mc(&reference, 15, 8, 1, 1, MotionVector::new(1, 1));
        assert_eq!(diag[0], 150);
    }

    #[test]
    fn search_sub_finds_halfpel_motion() {
        // A smooth ramp shifted by half a pixel: the half-pel candidate
        // must beat every full-pel one.
        let mut reference = Plane::new(64, 64);
        for y in 0..64 {
            for x in 0..64 {
                reference.set(x, y, ((x * 4) % 256) as u8);
            }
        }
        let mut cur = Plane::new(64, 64);
        for y in 0..64 {
            for x in 0..64 {
                // Shift by 0.5 px: average of neighbours.
                let a = reference.sample(x as isize, y as isize) as u16;
                let b = reference.sample(x as isize + 1, y as isize) as u16;
                cur.set(x, y, (a + b).div_ceil(2) as u8);
            }
        }
        let r = search(&cur, &reference, 16, 16, 16, 16, MotionVector::ZERO, 4);
        // The ramp is constant vertically, so any y half-offset ties; the
        // x component must be the half-pel shift.
        assert_eq!(r.mv.x, 1, "mv {:?} sad {}", r.mv, r.sad);
        assert_eq!(r.sad, 0);
        let refs = RefPlanes::new(reference);
        let (zero, mut stats) = (MotionVector::ZERO, SearchStats::default());
        let full = motion_search_stats(&cur, &refs, 16, 16, 16, 16, zero, 4, &mut stats);
        assert!(
            r.sad < full.sad,
            "half-pel must win: {} vs {}",
            r.sad,
            full.sad
        );
    }

    #[test]
    fn ref_rect_widens_on_fractional_axes() {
        let r = ref_rect(16, 16, 8, 8, MotionVector::new(8, 8));
        assert_eq!((r.x, r.y, r.w, r.h), (20, 20, 8, 8));
        let r = ref_rect(16, 16, 8, 8, MotionVector::new(9, 8));
        assert_eq!((r.x, r.y, r.w, r.h), (20, 20, 9, 8));
        let r = ref_rect(16, 16, 8, 8, MotionVector::new(-1, -3));
        assert_eq!((r.x, r.y, r.w, r.h), (15, 14, 9, 9));
    }

    #[test]
    fn bi_average_rounds_to_nearest() {
        let mut out = [0u8; 2];
        bi_average_into(&[10, 255], &[11, 0], &mut out);
        assert_eq!(out, [11, 128]);
        bi_average_into(&[100], &[100], &mut out[..1]);
        assert_eq!(out[0], 100);
    }
}
