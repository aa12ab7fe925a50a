//! In-loop deblocking filter.
//!
//! Block transforms plus coarse quantisation leave visible discontinuities
//! at 4x4 block edges; H.264 removes them with an adaptive in-loop filter
//! applied to the reconstruction *after* the whole frame is decoded (so
//! intra prediction sees unfiltered samples, exactly as here) and *before*
//! the frame is used as a reference. This is a faithful simplification of
//! the H.264 design: one-tap edge smoothing with QP-adaptive thresholds
//! (`alpha`/`beta` gates, `tc` clipping), applied to every internal 4x4
//! edge.
//!
//! Encoder and decoder run the identical function on identical inputs, so
//! the closed loop stays bit-exact.

use vapp_media::Plane;

/// Edge-activity gate: only filter edges whose step is plausibly a coding
/// artefact (large real edges are left alone). Grows with QP.
fn alpha(qp: u8) -> i16 {
    // Roughly exponential in QP, clamped like the H.264 table endpoints.
    (0.8 * f64::powf(2.0, qp as f64 / 6.0)).min(255.0) as i16
}

/// Local-gradient gate.
fn beta(qp: u8) -> i16 {
    (0.5 * qp as f64).min(18.0) as i16
}

/// Maximum per-pixel correction.
fn tc(qp: u8) -> i16 {
    (1 + qp as i16 / 10).min(25)
}

/// Filters one edge pair `(p1, p0 | q0, q1)`, returning the new
/// `(p0, q0)`. Branch-free 16-bit arithmetic (every intermediate fits), so
/// row loops over it vectorise.
#[inline]
fn filter_pair(p1: u8, p0: u8, q0: u8, q1: u8, (a, b, c): (i16, i16, i16)) -> (u8, u8) {
    let (p1, p0, q0, q1) = (p1 as i16, p0 as i16, q0 as i16, q1 as i16);
    // Only small steps between smooth sides are coding artefacts.
    let gate = ((p0 - q0).abs() < a) & ((p1 - p0).abs() < b) & ((q1 - q0).abs() < b);
    // H.263/H.264-style one-tap correction.
    let delta = (((q0 - p0) * 4 + (p1 - q1) + 4) >> 3).clamp(-c, c);
    let delta = if gate { delta } else { 0 };
    (
        (p0 + delta).clamp(0, 255) as u8,
        (q0 - delta).clamp(0, 255) as u8,
    )
}

/// Filters a horizontal edge between rows `p0` and `q0` across the whole
/// width.
fn filter_rows(p1: &[u8], p0: &mut [u8], q0: &mut [u8], q1: &[u8], abc: (i16, i16, i16)) {
    let rows = p1.iter().zip(p0.iter_mut()).zip(q0.iter_mut()).zip(q1);
    for (((&p1, p0), q0), &q1) in rows {
        (*p0, *q0) = filter_pair(p1, *p0, *q0, q1, abc);
    }
}

/// Deblocks a reconstructed frame in place: all internal vertical and
/// horizontal 4x4-block edges, with thresholds driven by the frame QP.
///
/// Vertical edges come first, then horizontal ones. Edges are 4 apart and
/// each reads 2 pixels either side but writes only the 2 next to it, so
/// no edge reads a pixel another edge of the same direction writes: the
/// vertical edges run row by row, the horizontal ones a row quad at a time.
pub fn deblock_plane(plane: &mut Plane, qp: u8) {
    let abc = (alpha(qp), beta(qp), tc(qp));
    let (w, h) = (plane.width(), plane.height());
    let data = plane.data_mut();

    // Vertical edges (filter across x = 4, 8, ...): edge `x` reads the
    // group `[x - 2, x + 2)`, and the groups tile the row from offset 2.
    // An edge on the last column has no group; its clamped `q1` is `q0`.
    let groups = w.saturating_sub(2) / 4;
    for row in data.chunks_exact_mut(w) {
        for g in row[w.min(2)..].chunks_exact_mut(4) {
            (g[1], g[2]) = filter_pair(g[0], g[1], g[2], g[3], abc);
        }
        let x = 4 * (groups + 1);
        if x < w {
            (row[x - 1], row[x]) = filter_pair(row[x - 2], row[x - 1], row[x], row[x], abc);
        }
    }

    // Horizontal edges (filter across y = 4, 8, ...).
    for y in (4..h).step_by(4) {
        let (above, below) = data[(y - 2) * w..].split_at_mut(2 * w);
        let (p1, p0) = above.split_at_mut(w);
        let (q0, rest) = below.split_at_mut(w);
        match rest.get(..w) {
            Some(q1) => filter_rows(p1, p0, q0, q1, abc),
            None => {
                // `q0` is the bottom row: the clamped sample below it is
                // itself, read before the filter writes it.
                let q1 = q0.to_vec();
                filter_rows(p1, p0, q0, &q1, abc)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A plane with a sharp step at x = 8 (a block edge).
    fn step_plane(step: u8) -> Plane {
        let mut p = Plane::new(16, 16);
        for y in 0..16 {
            for x in 0..16 {
                p.set(x, y, if x < 8 { 100 } else { 100 + step });
            }
        }
        p
    }

    #[test]
    fn small_steps_are_smoothed() {
        let mut p = step_plane(8);
        deblock_plane(&mut p, 30);
        // The edge pixels must have moved toward each other.
        assert!(p.get(7, 5) > 100, "p0 untouched: {}", p.get(7, 5));
        assert!(p.get(8, 5) < 108, "q0 untouched: {}", p.get(8, 5));
    }

    #[test]
    fn large_real_edges_are_preserved() {
        let mut p = step_plane(120);
        let before = p.clone();
        deblock_plane(&mut p, 24);
        assert_eq!(p, before, "a 120-step real edge must not be filtered");
    }

    #[test]
    fn flat_areas_are_untouched() {
        let mut p = Plane::filled(32, 32, 77);
        let before = p.clone();
        deblock_plane(&mut p, 40);
        assert_eq!(p, before);
    }

    #[test]
    fn higher_qp_filters_more() {
        let mut weak = step_plane(16);
        let mut strong = step_plane(16);
        deblock_plane(&mut weak, 10);
        deblock_plane(&mut strong, 44);
        let moved_weak = (weak.get(7, 3) as i32 - 100).abs();
        let moved_strong = (strong.get(7, 3) as i32 - 100).abs();
        assert!(
            moved_strong >= moved_weak,
            "qp 44 should filter at least as hard: {moved_weak} vs {moved_strong}"
        );
    }

    #[test]
    fn deterministic() {
        let mut a = step_plane(10);
        let mut b = step_plane(10);
        deblock_plane(&mut a, 28);
        deblock_plane(&mut b, 28);
        assert_eq!(a, b);
    }
}
