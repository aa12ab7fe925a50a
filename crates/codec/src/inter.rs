//! Inter prediction: motion estimation and compensation.
//!
//! Integer-pel block matching with a full search around the predicted
//! vector, per-partition refinement, and bi-prediction for B frames. The
//! referenced pixel rectangles double as the temporal compensation
//! dependencies VideoApp records (paper §4.1).

use crate::types::MotionVector;
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
    /// SAD evaluations pruned by the running-best bound: the evaluation
    /// stopped (possibly mid-block) once its partial sum exceeded the best
    /// candidate so far, so the block was rejected without a full sum.
    pub early_exits: u64,
}

impl SearchStats {
    /// Merges another stats record into this one.
    pub fn merge(&mut self, other: SearchStats) {
        self.early_exits += other.early_exits;
    }
}

/// Full search in a `±range` window around `center` for the `w x h` block
/// of `cur` at `(x, y)`, matching against `reference`.
///
/// Ties break toward the vector closest to `center` (cheaper to code).
#[allow(clippy::too_many_arguments)] // block geometry: x, y, w, h + search window
pub fn motion_search(
    cur: &Plane,
    reference: &Plane,
    x: usize,
    y: usize,
    w: usize,
    h: usize,
    center: MotionVector,
    range: i16,
) -> SearchResult {
    motion_search_stats(
        cur,
        reference,
        x,
        y,
        w,
        h,
        center,
        range,
        &mut SearchStats::default(),
    )
}

/// [`motion_search`] with early-exit accounting.
///
/// Every candidate SAD is bounded by the running best: a candidate whose
/// partial sum already exceeds `best.sad` can stop summing, because it can
/// win neither the `<` comparison nor the distance tie-break (which requires
/// exact equality, and partial sums only come back when they *exceed* the
/// bound). The winner's SAD is therefore always the exact value — identical
/// to the unbounded search, decision for decision.
///
/// The center candidate is evaluated first (exactly) to seed a tight bound;
/// the winner is the lexicographic minimum of `(sad, distance-to-center)`
/// over the window, which does not depend on evaluation order (equal
/// `(sad, dist)` pairs can only share a motion vector via clamping), so the
/// reordering is also decision-identical.
#[allow(clippy::too_many_arguments)]
pub fn motion_search_stats(
    cur: &Plane,
    reference: &Plane,
    x: usize,
    y: usize,
    w: usize,
    h: usize,
    center: MotionVector,
    range: i16,
    stats: &mut SearchStats,
) -> SearchResult {
    let seed_mv = MotionVector::new(
        center.x.clamp(-MV_LIMIT, MV_LIMIT),
        center.y.clamp(-MV_LIMIT, MV_LIMIT),
    );
    let mut best = SearchResult {
        mv: seed_mv,
        sad: cur.sad(
            x,
            y,
            w,
            h,
            reference,
            x as isize + seed_mv.x as isize,
            y as isize + seed_mv.y as isize,
        ),
    };
    let mut best_dist =
        (seed_mv.x as i32 - center.x as i32).abs() + (seed_mv.y as i32 - center.y as i32).abs();
    for dy in -range..=range {
        for dx in -range..=range {
            if dx == 0 && dy == 0 {
                continue;
            }
            let mv = MotionVector::new(
                (center.x + dx).clamp(-MV_LIMIT, MV_LIMIT),
                (center.y + dy).clamp(-MV_LIMIT, MV_LIMIT),
            );
            let sad = cur.sad_bounded(
                x,
                y,
                w,
                h,
                reference,
                x as isize + mv.x as isize,
                y as isize + mv.y as isize,
                best.sad,
            );
            let dist =
                (mv.x as i32 - center.x as i32).abs() + (mv.y as i32 - center.y as i32).abs();
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

/// Motion-compensates a `w x h` block into a caller-provided buffer: copies
/// the block at `(x + mv.x, y + mv.y)` from the reference (clamped at
/// borders). Allocation-free, like every compensation entry point: the
/// encoder's candidate loops and the decoder pass fixed scratch buffers.
///
/// # Panics
///
/// Panics if `out.len() != w * h`.
pub fn mc_block_into(
    reference: &Plane,
    x: usize,
    y: usize,
    w: usize,
    h: usize,
    mv: MotionVector,
    out: &mut [u8],
) {
    reference.copy_block(
        x as isize + mv.x as isize,
        y as isize + mv.y as isize,
        w,
        h,
        out,
    );
}

/// Motion-compensates a block with **half-pel** precision into a
/// caller-provided buffer: `mv` is in half-pel units; fractional positions
/// are bilinearly interpolated (H.264 uses a 6-tap filter for luma
/// half-pel; bilinear preserves the dependence structure at a fraction of
/// the complexity).
///
/// Interior blocks (the fractional footprint fully inside the reference)
/// interpolate whole rows at a time with the word-parallel rounding averages
/// from [`vapp_media::kernels`]; blocks touching a border fall back to the
/// scalar clamped-sampling loop. Both produce identical bytes (pinned by the
/// kernel-equivalence property tests).
///
/// # Panics
///
/// Panics if `out.len() != w * h`.
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
    let bx = x as isize * 2 + mv.x as isize;
    let by = y as isize * 2 + mv.y as isize;
    let ix = bx.div_euclid(2);
    let iy = by.div_euclid(2);
    let fx = bx.rem_euclid(2) as usize;
    let fy = by.rem_euclid(2) as usize;
    // The footprint is (w + fx) x (h + fy): fractional axes read one extra
    // pixel. When it sits fully inside the plane, rows can be borrowed.
    if reference.block_interior(ix, iy, w + fx, h + fy) {
        let (ix, iy) = (ix as usize, iy as usize);
        match (fx, fy) {
            (0, 0) => {
                for oy in 0..h {
                    out[oy * w..][..w].copy_from_slice(&reference.row(iy + oy)[ix..ix + w]);
                }
            }
            (1, 0) => {
                for oy in 0..h {
                    let row = reference.row(iy + oy);
                    vapp_media::kernels::avg_rounding(
                        &row[ix..ix + w],
                        &row[ix + 1..ix + 1 + w],
                        &mut out[oy * w..][..w],
                    );
                }
            }
            (0, 1) => {
                for oy in 0..h {
                    vapp_media::kernels::avg_rounding(
                        &reference.row(iy + oy)[ix..ix + w],
                        &reference.row(iy + oy + 1)[ix..ix + w],
                        &mut out[oy * w..][..w],
                    );
                }
            }
            _ => {
                for oy in 0..h {
                    let r0 = reference.row(iy + oy);
                    let r1 = reference.row(iy + oy + 1);
                    vapp_media::kernels::avg4_rounding(
                        &r0[ix..ix + w],
                        &r0[ix + 1..ix + 1 + w],
                        &r1[ix..ix + w],
                        &r1[ix + 1..ix + 1 + w],
                        &mut out[oy * w..][..w],
                    );
                }
            }
        }
        return;
    }
    for oy in 0..h {
        for ox in 0..w {
            let px = ix + ox as isize;
            let py = iy + oy as isize;
            let p00 = reference.sample(px, py) as u16;
            let v = match (fx, fy) {
                (0, 0) => p00,
                (1, 0) => (p00 + reference.sample(px + 1, py) as u16 + 1) >> 1,
                (0, 1) => (p00 + reference.sample(px, py + 1) as u16 + 1) >> 1,
                _ => {
                    let p10 = reference.sample(px + 1, py) as u16;
                    let p01 = reference.sample(px, py + 1) as u16;
                    let p11 = reference.sample(px + 1, py + 1) as u16;
                    (p00 + p10 + p01 + p11 + 2) >> 2
                }
            };
            out[oy * w + ox] = v as u8;
        }
    }
}

/// Motion compensation at either precision into a caller-provided buffer:
/// `mv` is in half-pel units when `subpel` is set, full-pel otherwise.
///
/// # Panics
///
/// Panics if `out.len() != w * h`.
#[allow(clippy::too_many_arguments)] // block geometry + vector + precision + buffer
pub fn mc_block_sub_into(
    reference: &Plane,
    x: usize,
    y: usize,
    w: usize,
    h: usize,
    mv: MotionVector,
    subpel: bool,
    out: &mut [u8],
) {
    if subpel {
        mc_block_halfpel_into(reference, x, y, w, h, mv, out);
    } else {
        mc_block_into(reference, x, y, w, h, mv, out);
    }
}

/// The reference rectangle a compensated block reads, for dependency
/// recording: half-pel vectors widen the footprint by one pixel along
/// each fractional axis.
pub fn ref_rect(
    x: usize,
    y: usize,
    w: usize,
    h: usize,
    mv: MotionVector,
    subpel: bool,
) -> vapp_media::Rect {
    if !subpel {
        return vapp_media::Rect::new(x as isize + mv.x as isize, y as isize + mv.y as isize, w, h);
    }
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

/// Sum of absolute differences between the source block and an arbitrary
/// prediction buffer.
pub fn sad_against(cur: &Plane, x: usize, y: usize, w: usize, h: usize, pred: &[u8]) -> u64 {
    sad_against_bounded(cur, x, y, w, h, pred, u64::MAX)
}

/// [`sad_against`] with the same early-exit contract as
/// [`Plane::sad_bounded`]: stops once the running total strictly exceeds
/// `bound`. Interior source blocks compare borrowed plane rows against the
/// prediction word-parallel.
#[allow(clippy::too_many_arguments)] // block geometry + prediction + bound
pub fn sad_against_bounded(
    cur: &Plane,
    x: usize,
    y: usize,
    w: usize,
    h: usize,
    pred: &[u8],
    bound: u64,
) -> u64 {
    debug_assert_eq!(pred.len(), w * h);
    let mut total = 0u64;
    if x + w <= cur.width() && y + h <= cur.height() {
        for oy in 0..h {
            let a = &cur.row(y + oy)[x..x + w];
            total += vapp_media::kernels::sad_slices(a, &pred[oy * w..][..w]);
            if total > bound {
                return total;
            }
        }
        return total;
    }
    for oy in 0..h {
        for ox in 0..w {
            let a = cur.sample((x + ox) as isize, (y + oy) as isize) as i32;
            total += (a - pred[oy * w + ox] as i32).unsigned_abs() as u64;
        }
        if total > bound {
            return total;
        }
    }
    total
}

/// Fused half-pel compensation + bounded SAD: interpolates one row at a
/// time into a stack buffer and accumulates the SAD against `cur`, stopping
/// as soon as the running total strictly exceeds `bound` — so a pruned
/// candidate never pays for the rows it would have thrown away.
///
/// Same contract as [`Plane::sad_bounded`]: exact whenever the result is
/// `<= bound`, and any early return is itself `> bound`. Identical bytes to
/// `mc_block_halfpel_into` + `sad_against` (pinned by the unit tests below
/// and the kernel-equivalence property tests).
#[allow(clippy::too_many_arguments)]
pub fn sad_halfpel_bounded(
    cur: &Plane,
    x: usize,
    y: usize,
    w: usize,
    h: usize,
    reference: &Plane,
    mv: MotionVector,
    bound: u64,
) -> u64 {
    debug_assert!(w <= MB_SIZE);
    let bx = x as isize * 2 + mv.x as isize;
    let by = y as isize * 2 + mv.y as isize;
    let ix = bx.div_euclid(2);
    let iy = by.div_euclid(2);
    let fx = bx.rem_euclid(2) as usize;
    let fy = by.rem_euclid(2) as usize;
    let mut total = 0u64;
    if x + w <= cur.width()
        && y + h <= cur.height()
        && reference.block_interior(ix, iy, w + fx, h + fy)
    {
        let (ix, iy) = (ix as usize, iy as usize);
        let mut row_buf = [0u8; MB_SIZE];
        for oy in 0..h {
            let a = &cur.row(y + oy)[x..x + w];
            total += match (fx, fy) {
                (0, 0) => vapp_media::kernels::sad_slices(a, &reference.row(iy + oy)[ix..ix + w]),
                _ => {
                    let pred = &mut row_buf[..w];
                    let r0 = reference.row(iy + oy);
                    match (fx, fy) {
                        (1, 0) => vapp_media::kernels::avg_rounding(
                            &r0[ix..ix + w],
                            &r0[ix + 1..ix + 1 + w],
                            pred,
                        ),
                        (0, 1) => vapp_media::kernels::avg_rounding(
                            &r0[ix..ix + w],
                            &reference.row(iy + oy + 1)[ix..ix + w],
                            pred,
                        ),
                        _ => {
                            let r1 = reference.row(iy + oy + 1);
                            vapp_media::kernels::avg4_rounding(
                                &r0[ix..ix + w],
                                &r0[ix + 1..ix + 1 + w],
                                &r1[ix..ix + w],
                                &r1[ix + 1..ix + 1 + w],
                                pred,
                            );
                        }
                    }
                    vapp_media::kernels::sad_slices(a, pred)
                }
            };
            if total > bound {
                return total;
            }
        }
        return total;
    }
    for oy in 0..h {
        for ox in 0..w {
            let px = ix + ox as isize;
            let py = iy + oy as isize;
            let p00 = reference.sample(px, py) as u16;
            let p = match (fx, fy) {
                (0, 0) => p00,
                (1, 0) => (p00 + reference.sample(px + 1, py) as u16 + 1) >> 1,
                (0, 1) => (p00 + reference.sample(px, py + 1) as u16 + 1) >> 1,
                _ => {
                    let p10 = reference.sample(px + 1, py) as u16;
                    let p01 = reference.sample(px, py + 1) as u16;
                    let p11 = reference.sample(px + 1, py + 1) as u16;
                    (p00 + p10 + p01 + p11 + 2) >> 2
                }
            };
            let a = cur.sample((x + ox) as isize, (y + oy) as isize) as i32;
            total += (a - p as i32).unsigned_abs() as u64;
        }
        if total > bound {
            return total;
        }
    }
    total
}

/// Two-stage motion search: full-pel full search around `center` (given
/// in the unit implied by `subpel`), then — with `subpel` — a ±1 half-pel
/// refinement around the winner. The returned vector is in half-pel units
/// when `subpel` is set.
#[allow(clippy::too_many_arguments)]
pub fn search_sub(
    cur: &Plane,
    reference: &Plane,
    x: usize,
    y: usize,
    w: usize,
    h: usize,
    center: MotionVector,
    range: i16,
    subpel: bool,
) -> SearchResult {
    search_sub_stats(
        cur,
        reference,
        x,
        y,
        w,
        h,
        center,
        range,
        subpel,
        &mut SearchStats::default(),
    )
}

/// [`search_sub`] with early-exit accounting — the allocation-free form
/// used per macroblock task.
///
/// The ±1 refinement bounds each candidate by the running best; only a
/// strictly better candidate replaces it (no tie-break here), so pruning
/// anything whose partial sum exceeds the best is decision-identical. Each
/// candidate runs through the fused [`sad_halfpel_bounded`], so pruned
/// candidates never materialise their prediction at all.
#[allow(clippy::too_many_arguments)]
pub fn search_sub_stats(
    cur: &Plane,
    reference: &Plane,
    x: usize,
    y: usize,
    w: usize,
    h: usize,
    center: MotionVector,
    range: i16,
    subpel: bool,
    stats: &mut SearchStats,
) -> SearchResult {
    if !subpel {
        return motion_search_stats(cur, reference, x, y, w, h, center, range, stats);
    }
    let full_center = MotionVector::new(center.x / 2, center.y / 2);
    let full = motion_search_stats(cur, reference, x, y, w, h, full_center, range, stats);
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
            let mv = MotionVector::new(
                (base.x + dx).clamp(-MV_LIMIT, MV_LIMIT),
                (base.y + dy).clamp(-MV_LIMIT, MV_LIMIT),
            );
            let sad = sad_halfpel_bounded(cur, x, y, w, h, reference, mv, best.sad);
            if sad < best.sad {
                best = SearchResult { mv, sad };
            } else if sad > best.sad {
                stats.early_exits += 1;
            }
        }
    }
    best
}

/// Bi-prediction: the rounds-to-nearest average of forward and backward
/// compensation, into a caller-provided buffer, averaging 8 pixel pairs
/// per word (`(a + b).div_ceil(2)` is exactly the half-pel rounding
/// average).
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
    fn mc(
        reference: &Plane,
        x: usize,
        y: usize,
        w: usize,
        h: usize,
        mv: MotionVector,
        subpel: bool,
    ) -> Vec<u8> {
        let mut out = vec![0u8; w * h];
        mc_block_sub_into(reference, x, y, w, h, mv, subpel, &mut out);
        out
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
        let r = motion_search(&cur, &reference, 24, 26, 8, 8, MotionVector::ZERO, 8);
        assert_eq!(r.mv, MotionVector::new(-4, -2));
        assert_eq!(r.sad, 0);
    }

    #[test]
    fn search_prefers_center_on_flat_content() {
        let reference = Plane::filled(64, 64, 90);
        let cur = Plane::filled(64, 64, 90);
        let r = motion_search(&cur, &reference, 16, 16, 16, 16, MotionVector::ZERO, 4);
        assert_eq!(r.mv, MotionVector::ZERO);
        assert_eq!(r.sad, 0);
    }

    #[test]
    fn search_centered_away_from_zero() {
        let reference = patch_plane(20, 20);
        let cur = patch_plane(30, 20);
        // Center the window near the true vector; a small range suffices.
        let r = motion_search(&cur, &reference, 30, 20, 8, 8, MotionVector::new(-8, 0), 3);
        assert_eq!(r.mv, MotionVector::new(-10, 0));
    }

    #[test]
    fn mc_block_reproduces_reference() {
        let reference = patch_plane(20, 24);
        let got = mc(&reference, 4, 4, 8, 8, MotionVector::new(16, 20), false);
        for y in 0..8 {
            for x in 0..8 {
                assert_eq!(got[y * 8 + x], reference.get(20 + x, 24 + y));
            }
        }
    }

    #[test]
    fn mc_block_clamps_outside_frame() {
        let reference = patch_plane(0, 0);
        let got = mc(&reference, 0, 0, 4, 4, MotionVector::new(-100, -100), false);
        assert!(got.iter().all(|&v| v == reference.get(0, 0)));
    }

    #[test]
    fn halfpel_integer_positions_match_fullpel() {
        let reference = patch_plane(20, 24);
        let full = mc(&reference, 4, 4, 8, 8, MotionVector::new(3, -2), false);
        let half = mc(&reference, 4, 4, 8, 8, MotionVector::new(6, -4), true);
        assert_eq!(full, half);
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
        let half = mc(&reference, 15, 8, 1, 1, MotionVector::new(1, 0), true);
        assert_eq!(half[0], 150);
        // Diagonal half position averages four pixels.
        let diag = mc(&reference, 15, 8, 1, 1, MotionVector::new(1, 1), true);
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
        let r = search_sub(
            &cur,
            &reference,
            16,
            16,
            16,
            16,
            MotionVector::ZERO,
            4,
            true,
        );
        // The ramp is constant vertically, so any y half-offset ties; the
        // x component must be the half-pel shift.
        assert_eq!(r.mv.x, 1, "mv {:?} sad {}", r.mv, r.sad);
        assert_eq!(r.sad, 0);
        let full = search_sub(
            &cur,
            &reference,
            16,
            16,
            16,
            16,
            MotionVector::ZERO,
            4,
            false,
        );
        assert!(
            r.sad < full.sad,
            "half-pel must win: {} vs {}",
            r.sad,
            full.sad
        );
    }

    #[test]
    fn ref_rect_widens_on_fractional_axes() {
        let r = ref_rect(16, 16, 8, 8, MotionVector::new(4, 4), false);
        assert_eq!((r.x, r.y, r.w, r.h), (20, 20, 8, 8));
        let r = ref_rect(16, 16, 8, 8, MotionVector::new(8, 8), true);
        assert_eq!((r.x, r.y, r.w, r.h), (20, 20, 8, 8));
        let r = ref_rect(16, 16, 8, 8, MotionVector::new(9, 8), true);
        assert_eq!((r.x, r.y, r.w, r.h), (20, 20, 9, 8));
        let r = ref_rect(16, 16, 8, 8, MotionVector::new(-1, -3), true);
        assert_eq!((r.x, r.y, r.w, r.h), (15, 14, 9, 9));
    }

    #[test]
    fn sad_against_matches_plane_sad() {
        let a = patch_plane(10, 10);
        let b = patch_plane(12, 11);
        let pred = mc(&b, 8, 8, 16, 16, MotionVector::ZERO, false);
        assert_eq!(
            sad_against(&a, 8, 8, 16, 16, &pred),
            a.sad(8, 8, 16, 16, &b, 8, 8)
        );
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
