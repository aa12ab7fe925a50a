//! Property tests pinning the codec's row kernels bit-identical to their
//! scalar references — the scalar paths stay the specification the
//! kernels must reproduce exactly, across random blocks, widths that are
//! not multiples of the 16-pixel chunk, and border geometries. The motion
//! search's padded phase planes (their SADs and the rows the encoder's
//! skip and bi-prediction probes read), summed-area table, successive-elimination
//! ±8 search and shared partition windows are pinned against clamped
//! scalar sampling and a scalar full search — winners and early-exit
//! counts — borders and clamped vectors included. The fused dequantiser is
//! pinned to the scalar pair over every level the decoder can parse. The
//! decoder's row-slice deblocking filter and its arithmetic decoder (bins
//! and context adaptation) are pinned the same way against their per-pixel
//! and bit-serial originals.

use vapp_check::{RngExt, StdRng};
use vapp_codec::arith::{ArithDecoder, ArithEncoder, BinContext};
use vapp_codec::bitstream::BitReader;
use vapp_codec::deblock::deblock_plane;
use vapp_codec::inter::{
    mc_block_halfpel_into, motion_search_stats, search_sub_stats, RefPlanes, SadGrid, SearchResult,
    SearchStats, GRID_RANGE, MAX_BLOCK_PIXELS, MV_LIMIT, REF_MARGIN,
};
use vapp_codec::quant::{dequant_inverse, dequantize, forward_quant, quantize, MAX_QP};
use vapp_codec::transform::{forward4x4, inverse4x4, Block4x4};
use vapp_codec::types::{BlockGeom, MotionVector, PartShape, PartitionLayout, SubShape};
use vapp_media::{Plane, MB_SIZE};

fn random_plane(rng: &mut StdRng, w: usize, h: usize) -> Plane {
    let data: Vec<u8> = (0..w * h).map(|_| rng.random::<u64>() as u8).collect();
    Plane::from_data(w, h, data)
}

/// Clamped scalar SAD — the definition every full-pel search SAD must
/// match.
#[allow(clippy::too_many_arguments)]
fn sad_scalar(
    cur: &Plane,
    x: usize,
    y: usize,
    w: usize,
    h: usize,
    other: &Plane,
    rx: isize,
    ry: isize,
) -> u64 {
    let mut sum = 0u64;
    for dy in 0..h {
        for dx in 0..w {
            let a = cur.get(x + dx, y + dy) as i32;
            let b = other.sample(rx + dx as isize, ry + dy as isize) as i32;
            sum += a.abs_diff(b) as u64;
        }
    }
    sum
}

/// SAD between a source block and a prediction buffer.
fn sad_pred(cur: &Plane, x: usize, y: usize, w: usize, h: usize, pred: &[u8]) -> u64 {
    let mut sum = 0u64;
    for dy in 0..h {
        for dx in 0..w {
            sum += cur.get(x + dx, y + dy).abs_diff(pred[dy * w + dx]) as u64;
        }
    }
    sum
}

#[test]
fn swar_sad_matches_scalar_reference() {
    vapp_check::check("swar_sad_matches_scalar", 64, |rng| {
        let pw = rng.random_range(24..64);
        let ph = rng.random_range(24..64);
        let cur = random_plane(rng, pw, ph);
        let refp = random_plane(rng, pw, ph);
        // Deliberately non-multiple-of-8 widths; both blocks interior, the
        // only geometry `Plane::sad` accepts.
        let w = rng.random_range(1..=16usize.min(pw));
        let h = rng.random_range(1..=16usize.min(ph));
        let x = rng.random_range(0..=pw - w);
        let y = rng.random_range(0..=ph - h);
        let rx = rng.random_range(0..=pw - w) as isize;
        let ry = rng.random_range(0..=ph - h) as isize;
        let want = sad_scalar(&cur, x, y, w, h, &refp, rx, ry);
        assert_eq!(
            cur.sad(x, y, w, h, &refp, rx, ry),
            want,
            "w={w} h={h} x={x} y={y} rx={rx} ry={ry}"
        );
        // Bounded variant: exact at or below the bound, and never *under*
        // the bound when it bails early (so `> bound` comparisons agree).
        let bound = rng.random_range(0..want + 2);
        let got = cur.sad_bounded(x, y, w, h, &refp, rx, ry, bound);
        if want <= bound {
            assert_eq!(got, want, "bounded must be exact at/below bound");
        } else {
            assert!(got > bound, "early exit must still report excess");
        }
    });
}

/// A half-pel vector component that puts a block at `pos` (full-pel)
/// interior, straddling an edge of a `len`-pixel axis, beyond the padding
/// margin, or near the `±MV_LIMIT` clamp. Half the draws are even, so the
/// full-pel phase is covered too.
fn vector_component(rng: &mut StdRng, pos: usize, len: usize) -> i16 {
    let (pos, len, margin) = (pos as i64, len as i64, REF_MARGIN as i64);
    let full = match rng.random_range(0..4u32) {
        0 => rng.random_range(0..len as u64) as i64 - pos,
        1 => {
            let edge = if rng.random::<bool>() { 0 } else { len };
            edge + rng.random_range(0..40u64) as i64 - 20 - pos
        }
        2 => {
            let beyond = margin + rng.random_range(0..200u64) as i64;
            if rng.random::<bool>() {
                -beyond - pos
            } else {
                len + beyond - pos
            }
        }
        _ => {
            let limit = MV_LIMIT as i64 / 2 - rng.random_range(0..8u64) as i64;
            if rng.random::<bool>() {
                limit
            } else {
                -limit
            }
        }
    };
    (full * 2 + rng.random_range(0..2u64) as i64) as i16
}

#[test]
fn phase_plane_sad_matches_clamped_scalar() {
    vapp_check::check("phase_plane_sad", 256, |rng| {
        let pw = rng.random_range(16..64);
        let ph = rng.random_range(16..64);
        let cur = random_plane(rng, pw, ph);
        let refp = random_plane(rng, pw, ph);
        let refs = RefPlanes::new(refp.clone());
        let w = rng.random_range(1..=MB_SIZE);
        let h = rng.random_range(1..=MB_SIZE);
        let x = rng.random_range(0..=pw - w);
        let y = rng.random_range(0..=ph - h);
        // Half-pel vectors reach all four phases.
        let mv = MotionVector::new(vector_component(rng, x, pw), vector_component(rng, y, ph));
        let want = sad_pred(&cur, x, y, w, h, &mc_halfpel_scalar(&refp, x, y, w, h, mv));
        let what = format!("w={w} h={h} x={x} y={y} mv=({},{})", mv.x, mv.y);
        let exact = refs.sad_bounded(&cur, x, y, w, h, mv, u64::MAX);
        assert_eq!(exact, want, "{what}");
        let bound = rng.random_range(0..want + 2);
        let got = refs.sad_bounded(&cur, x, y, w, h, mv, bound);
        if want <= bound {
            assert_eq!(got, want, "bounded must be exact at/below bound: {what}");
        } else {
            assert!(got > bound, "early exit must still report excess: {what}");
        }
    });
}

#[test]
fn phase_plane_rows_match_compensation() {
    vapp_check::check("phase_plane_rows", 256, |rng| {
        let pw = rng.random_range(16..64);
        let ph = rng.random_range(16..64);
        let refp = random_plane(rng, pw, ph);
        let refs = RefPlanes::new(refp.clone());
        // Every partition block side, at every phase, with displaced
        // origins inside, across and beyond the padding margin, up to the
        // `±MV_LIMIT` clamp.
        let w = [4, 8, 16][rng.random_range(0..3usize)];
        let h = [4, 8, 16][rng.random_range(0..3usize)];
        let x = rng.random_range(0..=pw - w);
        let y = rng.random_range(0..=ph - h);
        let mut component = |pos, len| vector_component(rng, pos, len).clamp(-MV_LIMIT, MV_LIMIT);
        let mv = MotionVector::new(component(x, pw), component(y, ph));
        let mut want = [0u8; MAX_BLOCK_PIXELS];
        mc_block_halfpel_into(&refp, x, y, w, h, mv, &mut want[..w * h]);
        let (plane, ox, oy) = refs.block(x, y, w, h, mv);
        for r in 0..h {
            assert_eq!(
                &plane.row(oy + r)[ox..ox + w],
                &want[r * w..(r + 1) * w],
                "{pw}x{ph} plane, w={w} h={h} x={x} y={y} mv=({},{}) row {r}",
                mv.x,
                mv.y
            );
        }
    });
}

/// Every distinct block geometry any partition layout produces.
fn all_block_geometries() -> Vec<BlockGeom> {
    let mut out: Vec<BlockGeom> = Vec::new();
    let shapes = [
        PartShape::P16x16,
        PartShape::P16x8,
        PartShape::P8x16,
        PartShape::P8x8,
    ];
    let subs = [
        SubShape::S8x8,
        SubShape::S8x4,
        SubShape::S4x8,
        SubShape::S4x4,
    ];
    for shape in shapes {
        for sub in subs {
            let layout = PartitionLayout {
                shape,
                subs: [sub; 4],
            };
            for g in &layout.blocks() {
                if !out.contains(g) {
                    out.push(*g);
                }
            }
        }
    }
    out
}

/// The scalar ±`range` full-pel search from clamped per-pixel sampling:
/// the lexicographic `(sad, distance)` minimum, the centre first and then
/// the window row-major. Also returns how many candidates lost with a SAD
/// strictly above the best at their turn — the early exits a bounded
/// search must count.
#[allow(clippy::too_many_arguments)]
fn scalar_full_search(
    cur: &Plane,
    refp: &Plane,
    x: usize,
    y: usize,
    w: usize,
    h: usize,
    center: MotionVector,
    range: i16,
) -> (SearchResult, u64) {
    let clamp = |v: i16, d: i16| (v + d).clamp(-MV_LIMIT, MV_LIMIT);
    let mut order = vec![(0i16, 0i16)];
    for dy in -range..=range {
        for dx in -range..=range {
            if (dx, dy) != (0, 0) {
                order.push((dx, dy));
            }
        }
    }
    let mut best: Option<(SearchResult, i32)> = None;
    let mut exits = 0;
    for (dx, dy) in order {
        let mv = MotionVector::new(clamp(center.x, dx), clamp(center.y, dy));
        let (rx, ry) = (x as isize + mv.x as isize, y as isize + mv.y as isize);
        let sad = sad_scalar(cur, x, y, w, h, refp, rx, ry);
        let dist = (mv.x as i32 - center.x as i32).abs() + (mv.y as i32 - center.y as i32).abs();
        if best.is_none_or(|(b, bd)| sad < b.sad || (sad == b.sad && dist < bd)) {
            best = Some((SearchResult { mv, sad }, dist));
        } else if best.is_some_and(|(b, _)| sad > b.sad) {
            exits += 1;
        }
    }
    (best.expect("window is non-empty").0, exits)
}

/// [`scalar_full_search`] around the half-pel `center` halved, then the ±1
/// half-pel refinement: strict improvement over the eight half-pel
/// neighbours of the full-pel winner.
#[allow(clippy::too_many_arguments)]
fn scalar_partition_search(
    cur: &Plane,
    refp: &Plane,
    x: usize,
    y: usize,
    w: usize,
    h: usize,
    center: MotionVector,
    range: i16,
) -> SearchResult {
    let center = MotionVector::new(center.x / 2, center.y / 2);
    let full = scalar_full_search(cur, refp, x, y, w, h, center, range).0;
    let clamp = |v: i16, d: i16| (v + d).clamp(-MV_LIMIT, MV_LIMIT);
    let base = MotionVector::new(full.mv.x * 2, full.mv.y * 2);
    let mut best = SearchResult {
        mv: base,
        sad: full.sad,
    };
    for dy in -1..=1 {
        for dx in -1..=1 {
            if (dx, dy) == (0, 0) {
                continue;
            }
            let mv = MotionVector::new(clamp(base.x, dx), clamp(base.y, dy));
            let sad = sad_pred(cur, x, y, w, h, &mc_halfpel_scalar(refp, x, y, w, h, mv));
            if sad < best.sad {
                best = SearchResult { mv, sad };
            }
        }
    }
    best
}

/// A `pw x ph` plane of a smooth ramp with ±1 noise, where many
/// displacements tie (exercising the distance tie-break) and block sums
/// track SADs closely, or of pure noise, where every displacement is
/// distinct.
fn smooth_or_noisy_plane(rng: &mut StdRng, pw: usize, ph: usize, smooth: bool) -> Plane {
    if !smooth {
        return random_plane(rng, pw, ph);
    }
    let data = (0..pw * ph)
        .map(|i| ((i % pw) / 3 + (i / pw) / 5 + rng.random_range(0..2u64) as usize) as u8)
        .collect();
    Plane::from_data(pw, ph, data)
}

#[test]
fn pm8_search_matches_scalar_full_search() {
    let geoms = all_block_geometries();
    vapp_check::check("pm8_full_search", 32, |rng| {
        let (cols, rows) = (rng.random_range(1..4usize), rng.random_range(1..4usize));
        let (pw, ph) = (cols * MB_SIZE, rows * MB_SIZE);
        let smooth = rng.random::<bool>();
        let cur = smooth_or_noisy_plane(rng, pw, ph, smooth);
        let refp = smooth_or_noisy_plane(rng, pw, ph, smooth);
        let refs = RefPlanes::new(refp.clone());
        let mb_x = rng.random_range(0..cols) * MB_SIZE;
        let mb_y = rng.random_range(0..rows) * MB_SIZE;
        // The whole macroblock (what the encoder searches at ±8) and one
        // partition block (any union of 4x4 cells must be exact too).
        let part = geoms[rng.random_range(0..geoms.len())];
        let whole = BlockGeom {
            dx: 0,
            dy: 0,
            w: MB_SIZE,
            h: MB_SIZE,
        };
        for g in [whole, part] {
            let (x, y) = (mb_x + g.dx, mb_y + g.dy);
            // The full-pel stage's centre: a half-pel vector halved, as
            // `search_sub_stats` passes it.
            let center = MotionVector::new(
                vector_component(rng, x, pw) / 2,
                vector_component(rng, y, ph) / 2,
            );
            let (want, want_exits) = scalar_full_search(&cur, &refp, x, y, g.w, g.h, center, 8);
            let mut stats = SearchStats::default();
            let got = motion_search_stats(&cur, &refs, x, y, g.w, g.h, center, 8, &mut stats);
            let what = format!(
                "block {g:?} mb=({mb_x},{mb_y}) center=({},{}) smooth={smooth}",
                center.x, center.y
            );
            assert_eq!(got, want, "{what}");
            assert_eq!(stats.early_exits, want_exits, "early exits: {what}");
        }
    });
}

#[test]
fn grid_search_matches_scalar_full_search() {
    let geoms = all_block_geometries();
    assert_eq!(
        geoms.len(),
        41,
        "1 + 2 + 2 + 4 + 8 + 8 + 16 block geometries"
    );
    vapp_check::check("grid_partition_search", 48, |rng| {
        let (cols, rows) = (rng.random_range(1..4usize), rng.random_range(1..4usize));
        let (pw, ph) = (cols * MB_SIZE, rows * MB_SIZE);
        let smooth = rng.random::<bool>();
        let cur = smooth_or_noisy_plane(rng, pw, ph, smooth);
        let refp = smooth_or_noisy_plane(rng, pw, ph, smooth);
        let refs = RefPlanes::new(refp.clone());
        let mb_x = rng.random_range(0..cols) * MB_SIZE;
        let mb_y = rng.random_range(0..rows) * MB_SIZE;
        let center = MotionVector::new(
            vector_component(rng, mb_x, pw),
            vector_component(rng, mb_y, ph),
        );
        let mut grid = SadGrid::new(&cur, &refs, mb_x, mb_y, center);
        let full_center = MotionVector::new(center.x / 2, center.y / 2);
        // The window fills lazily, so visit the blocks from a random start.
        let start = rng.random_range(0..geoms.len());
        for g in geoms[start..].iter().chain(&geoms[..start]) {
            let (x, y) = (mb_x + g.dx, mb_y + g.dy);
            let want = scalar_partition_search(&cur, &refp, x, y, g.w, g.h, center, GRID_RANGE);
            let mut grid_stats = SearchStats::default();
            let got = grid.search(g, &mut grid_stats);
            let what = format!(
                "block {g:?} mb=({mb_x},{mb_y}) center=({},{}) smooth={smooth}",
                center.x, center.y
            );
            assert_eq!(got, want, "{what}");
            // And the bounded production search over the same window.
            let mut stats = SearchStats::default();
            let bounded =
                search_sub_stats(&cur, &refs, x, y, g.w, g.h, center, GRID_RANGE, &mut stats);
            assert_eq!(bounded, want, "{what}");
            // The grid counts only its half-pel refinement's early exits
            // (its full-pel window has no bound): exactly the bounded
            // search's count less its full-pel stage's.
            let mut full_stats = SearchStats::default();
            motion_search_stats(
                &cur,
                &refs,
                x,
                y,
                g.w,
                g.h,
                full_center,
                GRID_RANGE,
                &mut full_stats,
            );
            assert_eq!(
                grid_stats.early_exits,
                stats.early_exits - full_stats.early_exits,
                "early exits: {what}"
            );
        }
    });
}

#[test]
fn summed_area_boxes_match_direct_sums() {
    vapp_check::check("summed_area_boxes", 12, |rng| {
        let (w, h) = (rng.random_range(1..40usize), rng.random_range(1..40usize));
        // Saturated planes reach the largest box sums; noise the rest.
        let refp = match rng.random_range(0..3u32) {
            0 => Plane::filled(w, h, 255),
            _ => random_plane(rng, w, h),
        };
        let refs = RefPlanes::new(refp.clone());
        let m = REF_MARGIN as isize;
        let (pw, ph) = (w + 2 * REF_MARGIN, h + 2 * REF_MARGIN);
        for bh in 1..=MB_SIZE {
            for bw in 1..=MB_SIZE {
                // The padded plane's first and last box positions, and one
                // in between, on each axis.
                let xs = [0, rng.random_range(0..=pw - bw), pw - bw];
                let ys = [0, rng.random_range(0..=ph - bh), ph - bh];
                for (&px, &py) in xs.iter().flat_map(|x| ys.iter().map(move |y| (x, y))) {
                    let mut want = 0u32;
                    for dy in 0..bh {
                        for dx in 0..bw {
                            let (sx, sy) = ((px + dx) as isize - m, (py + dy) as isize - m);
                            want += u32::from(refp.sample(sx, sy));
                        }
                    }
                    assert_eq!(
                        refs.box_sum(px, py, bw, bh),
                        want,
                        "{bw}x{bh} box at ({px}, {py}) of a {w}x{h} plane"
                    );
                }
            }
        }
    });
}

#[test]
fn sad_quads16_matches_scalar_sums() {
    vapp_check::check("sad_quads16", 256, |rng| {
        let row = |rng: &mut StdRng| -> Vec<u8> {
            match rng.random_range(0..3u32) {
                0 => vec![0; 16],
                1 => vec![255; 16],
                _ => (0..16).map(|_| rng.random::<u64>() as u8).collect(),
            }
        };
        let (a, b) = (row(rng), row(rng));
        let lanes = vapp_media::kernels::sad_quads16(&a, &b);
        for k in 0..4 {
            let want: u64 = (4 * k..4 * k + 4).map(|i| a[i].abs_diff(b[i]) as u64).sum();
            assert_eq!(
                (lanes >> (16 * k)) & 0xFFFF,
                want,
                "quad {k} of {a:?} vs {b:?}"
            );
        }
    });
}

#[test]
fn sad_slices_matches_scalar_on_ragged_lengths() {
    vapp_check::check("sad_slices_ragged", 64, |rng| {
        let n = rng.random_range(0..80usize);
        let a: Vec<u8> = (0..n).map(|_| rng.random::<u64>() as u8).collect();
        let b: Vec<u8> = (0..n).map(|_| rng.random::<u64>() as u8).collect();
        let want: u64 = a.iter().zip(&b).map(|(&x, &y)| x.abs_diff(y) as u64).sum();
        assert_eq!(vapp_media::kernels::sad_slices(&a, &b), want, "len={n}");
    });
}

#[test]
fn fused_transform_quant_matches_scalar_pair() {
    vapp_check::check("fused_forward_quant", 16, |rng| {
        // Random 8-bit residuals and saturated ±255 blocks (the largest
        // coefficients, so the largest levels), at every QP, intra and inter.
        let r: Block4x4 = match rng.random_range(0..3u32) {
            0 => core::array::from_fn(|_| rng.random_range(0..511) - 255),
            1 => core::array::from_fn(|_| if rng.random::<bool>() { 255 } else { -255 }),
            _ => [if rng.random::<bool>() { 255 } else { -255 }; 16],
        };
        for qp in 0..=MAX_QP {
            for intra in [false, true] {
                let want = quantize(&forward4x4(&r), qp, intra);
                let levels = forward_quant(&r, qp, intra);
                assert_eq!(levels, want, "qp={qp} intra={intra} r={r:?}");
                // The fused inverse's documented precondition.
                assert!(
                    levels.iter().all(|l| l.abs() < 1 << 13),
                    "qp={qp} intra={intra} levels={levels:?}"
                );
                assert_eq!(
                    dequant_inverse(&levels, qp),
                    inverse4x4(&dequantize(&levels, qp)),
                    "qp={qp} intra={intra} r={r:?}"
                );
            }
        }
    });
}

#[test]
fn fused_dequant_matches_scalar_pair_on_every_parsable_level() {
    // The decoder reconstructs through `dequant_inverse` too, so the fused
    // pair must match the scalar one on every level a damaged stream can
    // parse: `|level| <= 2^15 + 1`. Random levels, and blocks saturated at
    // the clamp with random signs (the largest transform sums).
    const MAX_LEVEL: i32 = (1 << 15) + 1;
    vapp_check::check("fused_dequant_parsable_levels", 64, |rng| {
        let levels: Block4x4 = match rng.random_range(0..3u32) {
            0 => core::array::from_fn(|_| {
                rng.random_range(0..=2 * MAX_LEVEL as u64) as i32 - MAX_LEVEL
            }),
            1 => core::array::from_fn(|_| {
                if rng.random::<bool>() {
                    MAX_LEVEL
                } else {
                    -MAX_LEVEL
                }
            }),
            _ => {
                [if rng.random::<bool>() {
                    MAX_LEVEL
                } else {
                    -MAX_LEVEL
                }; 16]
            }
        };
        for qp in 0..=MAX_QP {
            assert_eq!(
                dequant_inverse(&levels, qp),
                inverse4x4(&dequantize(&levels, qp)),
                "qp={qp} levels={levels:?}"
            );
        }
    });
}

/// Scalar half-pel motion compensation — clamped bilinear sampling, the
/// definition `mc_block_halfpel_into` (borrowed or gathered footprint) and
/// the search's phase planes must reproduce byte for byte.
fn mc_halfpel_scalar(
    reference: &Plane,
    x: usize,
    y: usize,
    w: usize,
    h: usize,
    mv: MotionVector,
) -> Vec<u8> {
    let bx = x as isize * 2 + mv.x as isize;
    let by = y as isize * 2 + mv.y as isize;
    let (ix, iy) = (bx.div_euclid(2), by.div_euclid(2));
    let (fx, fy) = (bx.rem_euclid(2), by.rem_euclid(2));
    let mut out = vec![0u8; w * h];
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
    out
}

#[test]
fn word_parallel_bilinear_matches_scalar_reference() {
    vapp_check::check("halfpel_bilinear", 256, |rng| {
        // Planes from a single pixel up to 64 on a side: footprints that
        // are interior, cross one or two borders, cover the whole plane or
        // lie fully outside it, up to the `±MV_LIMIT` clamp.
        let pw = rng.random_range(1..=64usize);
        let ph = rng.random_range(1..=64usize);
        let refp = random_plane(rng, pw, ph);
        let w = rng.random_range(1..=16usize);
        let h = rng.random_range(1..=16usize);
        let x = rng.random_range(0..=pw);
        let y = rng.random_range(0..=ph);
        let mut component = |pos, len| vector_component(rng, pos, len).clamp(-MV_LIMIT, MV_LIMIT);
        let mv = MotionVector::new(component(x, pw), component(y, ph));
        let want = mc_halfpel_scalar(&refp, x, y, w, h, mv);
        let mut got = [0u8; MAX_BLOCK_PIXELS];
        mc_block_halfpel_into(&refp, x, y, w, h, mv, &mut got[..w * h]);
        assert_eq!(
            &got[..w * h],
            &want[..],
            "{pw}x{ph} plane, w={w} h={h} x={x} y={y} mv=({},{})",
            mv.x,
            mv.y
        );
    });
}

#[test]
fn bi_average_into_matches_scalar_rounding() {
    vapp_check::check("bi_average_rounding", 64, |rng| {
        let n = rng.random_range(1..=MAX_BLOCK_PIXELS);
        let a: Vec<u8> = (0..n).map(|_| rng.random::<u64>() as u8).collect();
        let b: Vec<u8> = (0..n).map(|_| rng.random::<u64>() as u8).collect();
        let mut got = vec![0u8; n];
        vapp_codec::inter::bi_average_into(&a, &b, &mut got);
        for i in 0..n {
            let want = ((a[i] as u16 + b[i] as u16 + 1) >> 1) as u8;
            assert_eq!(got[i], want, "i={i} a={} b={}", a[i], b[i]);
        }
    });
}

/// The per-pixel deblocking loop `deblock_plane`'s row-slice form must
/// reproduce: every vertical edge over all rows, then every horizontal
/// edge over all columns, with clamped `q1` sampling at the far borders.
fn deblock_scalar(plane: &mut Plane, qp: u8) {
    let a = (0.8 * f64::powf(2.0, qp as f64 / 6.0)).min(255.0) as i32;
    let b = (0.5 * qp as f64).min(18.0) as i32;
    let c = (1 + qp as i32 / 10).min(25);
    let filter = |p1: i32, p0: i32, q0: i32, q1: i32| {
        if (p0 - q0).abs() >= a || (p1 - p0).abs() >= b || (q1 - q0).abs() >= b {
            return (p0, q0);
        }
        let delta = (((q0 - p0) * 4 + (p1 - q1) + 4) >> 3).clamp(-c, c);
        ((p0 + delta).clamp(0, 255), (q0 - delta).clamp(0, 255))
    };
    let (w, h) = (plane.width(), plane.height());
    for x in (4..w).step_by(4) {
        for y in 0..h {
            let p1 = plane.get(x - 2, y) as i32;
            let p0 = plane.get(x - 1, y) as i32;
            let q0 = plane.get(x, y) as i32;
            let q1 = plane.sample(x as isize + 1, y as isize) as i32;
            let (np0, nq0) = filter(p1, p0, q0, q1);
            plane.set(x - 1, y, np0 as u8);
            plane.set(x, y, nq0 as u8);
        }
    }
    for y in (4..h).step_by(4) {
        for x in 0..w {
            let p1 = plane.get(x, y - 2) as i32;
            let p0 = plane.get(x, y - 1) as i32;
            let q0 = plane.get(x, y) as i32;
            let q1 = plane.sample(x as isize, y as isize + 1) as i32;
            let (np0, nq0) = filter(p1, p0, q0, q1);
            plane.set(x, y - 1, np0 as u8);
            plane.set(x, y, nq0 as u8);
        }
    }
}

#[test]
fn row_slice_deblock_matches_per_pixel_loop() {
    vapp_check::check("row_slice_deblock", 96, |rng| {
        // Sizes around multiples of 4 (1 past one clamps `q1` at the
        // right or bottom edge), tiny planes with no internal edge.
        let w = rng.random_range(1..41usize);
        let h = rng.random_range(1..41usize);
        let qp = rng.random_range(0..=MAX_QP);
        // Smooth planes with small steps, so the gates open on most edges,
        // or pure noise, so they mostly stay shut.
        let mut plane = if rng.random::<bool>() {
            let base = rng.random_range(0..256u32) as i32;
            let data = (0..w * h)
                .map(|_| (base + rng.random_range(0..9u32) as i32 - 4).clamp(0, 255) as u8)
                .collect();
            Plane::from_data(w, h, data)
        } else {
            random_plane(rng, w, h)
        };
        let mut want = plane.clone();
        deblock_scalar(&mut want, qp);
        deblock_plane(&mut plane, qp);
        assert_eq!(plane, want, "w={w} h={h} qp={qp}");
    });
}

const HALF: u64 = 1 << 31;
const QUARTER: u64 = 1 << 30;

/// The bit-serial Witten–Neal–Cleary decoder, one `get_bit` per
/// renormalisation step, over its own adaptive contexts — the definition
/// `ArithDecoder` and `BinContext` must reproduce.
struct SerialDecoder<'a> {
    low: u64,
    high: u64,
    code: u64,
    reader: BitReader<'a>,
}

/// The context adaptation rule, written out: P(0) in 1/4096 units moves
/// 1/32 of the way toward the observed bin, clamped to [32, 4064].
fn serial_update(p0: &mut u64, bin: bool) {
    if bin {
        *p0 -= *p0 >> 5;
    } else {
        *p0 += (4096 - *p0) >> 5;
    }
    *p0 = (*p0).clamp(32, 4064);
}

impl<'a> SerialDecoder<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        let mut reader = BitReader::new(bytes);
        let code = reader.get_bits(32) as u64;
        SerialDecoder {
            low: 0,
            high: (1 << 32) - 1,
            code,
            reader,
        }
    }

    /// Decodes one bin with the adaptive context `p0`, updating it.
    fn decode_ctx(&mut self, p0: &mut u64) -> bool {
        let bin = self.decode(*p0);
        serial_update(p0, bin);
        bin
    }

    fn decode(&mut self, p0: u64) -> bool {
        let range = self.high - self.low + 1;
        let split = self.low + ((range * p0) >> 12).clamp(1, range - 1) - 1;
        let bin = self.code > split;
        if bin {
            self.low = split + 1;
        } else {
            self.high = split;
        }
        loop {
            if self.high < HALF {
            } else if self.low >= HALF {
                self.low -= HALF;
                self.high -= HALF;
                self.code -= HALF;
            } else if self.low >= QUARTER && self.high < 3 * QUARTER {
                self.low -= QUARTER;
                self.high -= QUARTER;
                self.code -= QUARTER;
            } else {
                break;
            }
            self.low <<= 1;
            self.high = (self.high << 1) | 1;
            self.code = (self.code << 1) | self.reader.get_bit() as u64;
        }
        bin
    }
}

#[test]
fn windowed_arith_decoder_matches_bit_serial_reference() {
    vapp_check::check("windowed_arith_decoder", 4000, |rng| {
        let contexts = rng.random_range(1..6usize);
        let mut bytes: Vec<u8> = match rng.random_range(0..3u32) {
            // Pure noise.
            0 => (0..rng.random_range(0..48usize))
                .map(|_| rng.random::<u64>() as u8)
                .collect(),
            // A real stream, then truncated or bit-flipped below.
            _ => {
                let mut enc = ArithEncoder::new();
                let mut ctxs = vec![BinContext::new(); contexts];
                // Up to all-one or all-zero bins: saturated contexts make
                // the rare mispredicted bins shrink the interval the most,
                // which drives the longest renormalisation runs.
                let skew = rng.random_range(0..=64u32);
                for i in 0..rng.random_range(0..600usize) {
                    let bin = rng.random_range(0..64u32) < skew;
                    if i % 7 == 3 {
                        enc.encode_bypass(bin);
                    } else {
                        enc.encode(&mut ctxs[i % contexts], bin);
                    }
                }
                enc.finish()
            }
        };
        if !bytes.is_empty() && rng.random::<bool>() {
            let keep = rng.random_range(0..bytes.len());
            bytes.truncate(keep);
        }
        for _ in 0..rng.random_range(0..4usize) {
            let at = rng.random_range(0..bytes.len().max(1));
            if let Some(b) = bytes.get_mut(at) {
                *b ^= 1 << rng.random_range(0..8u32);
            }
        }
        // Decode well past the end: both must read zeros from there on.
        let mut fast = ArithDecoder::new(&bytes);
        let mut slow = SerialDecoder::new(&bytes);
        let mut ctxs = vec![BinContext::new(); contexts];
        let mut serial_ctxs = vec![2048u64; contexts];
        for i in 0..bytes.len() * 16 + 200 {
            let (got, want) = if i % 7 == 3 {
                (fast.decode_bypass(), slow.decode(2048))
            } else {
                let c = i % contexts;
                let pair = (
                    fast.decode(&mut ctxs[c]),
                    slow.decode_ctx(&mut serial_ctxs[c]),
                );
                assert_eq!(
                    ctxs[c].p0() as u64,
                    serial_ctxs[c],
                    "context {c} after bin {i}"
                );
                pair
            };
            assert_eq!(got, want, "bin {i} of a {}-byte buffer", bytes.len());
            assert_eq!(fast.exhausted(), slow.reader.exhausted(), "bin {i}");
        }
    });
}
