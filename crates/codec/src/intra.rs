//! Intra 16x16 prediction (spatial prediction, paper §2.3.2–2.3.3).
//!
//! Besides producing the prediction itself, this module reports *which
//! neighbouring macroblocks supplied the reference pixels* and in what
//! proportion — the spatial compensation dependencies VideoApp records
//! (paper §4.1: "for certain prediction directions, the set of extrapolated
//! pixels may belong to multiple MBs … distribute the weight of 1 across
//! all MBs proportionally to the number of pixels they contribute").

use crate::types::{Intra4Mode, IntraMode};
use vapp_media::{MbGrid, Plane, MB_SIZE};

/// Which intra reference borders exist for the current macroblock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IntraAvail {
    /// The macroblock to the left is available (same slice).
    pub left: bool,
    /// The macroblock above is available (same slice).
    pub top: bool,
}

impl IntraAvail {
    /// Whether `mode` may be used given these borders. DC is always legal.
    pub fn allows(self, mode: IntraMode) -> bool {
        match mode {
            IntraMode::Dc => true,
            IntraMode::Vertical => self.top,
            IntraMode::Horizontal => self.left,
            IntraMode::Plane => self.top && self.left,
        }
    }

    /// The modes [`allows`](Self::allows) permits, in coding-index order.
    pub fn legal_modes(self) -> Vec<IntraMode> {
        IntraMode::ALL
            .into_iter()
            .filter(|&m| self.allows(m))
            .collect()
    }
}

/// Predicts a 16x16 macroblock at pixel origin `(mb_x, mb_y)` from the
/// reconstructed plane. Returns the 256 predicted pixels row-major.
///
/// Illegal modes for the given availability degrade to DC — this keeps the
/// decoder total under corrupt mode values.
pub fn predict_intra16(
    recon: &Plane,
    mb_x: usize,
    mb_y: usize,
    avail: IntraAvail,
    mode: IntraMode,
) -> [u8; 256] {
    let mode = if avail.allows(mode) {
        mode
    } else {
        IntraMode::Dc
    };
    let x = mb_x as isize;
    let y = mb_y as isize;
    let mut out = [0u8; 256];
    match mode {
        IntraMode::Dc => {
            let mut sum = 0u32;
            let mut count = 0u32;
            if avail.top {
                for i in 0..MB_SIZE {
                    sum += recon.sample(x + i as isize, y - 1) as u32;
                }
                count += MB_SIZE as u32;
            }
            if avail.left {
                for i in 0..MB_SIZE {
                    sum += recon.sample(x - 1, y + i as isize) as u32;
                }
                count += MB_SIZE as u32;
            }
            let dc = (sum + count / 2)
                .checked_div(count)
                .map_or(128, |v| v as u8);
            out.fill(dc);
        }
        IntraMode::Vertical => {
            for col in 0..MB_SIZE {
                let v = recon.sample(x + col as isize, y - 1);
                for row in 0..MB_SIZE {
                    out[row * MB_SIZE + col] = v;
                }
            }
        }
        IntraMode::Horizontal => {
            for row in 0..MB_SIZE {
                let v = recon.sample(x - 1, y + row as isize);
                for col in 0..MB_SIZE {
                    out[row * MB_SIZE + col] = v;
                }
            }
        }
        IntraMode::Plane => {
            // H.264 Intra_16x16 plane prediction.
            let mut h = 0i32;
            let mut v = 0i32;
            for i in 0..8i32 {
                h += (i + 1)
                    * (recon.sample(x + 8 + i as isize, y - 1) as i32
                        - recon.sample(x + 6 - i as isize, y - 1) as i32);
                v += (i + 1)
                    * (recon.sample(x - 1, y + 8 + i as isize) as i32
                        - recon.sample(x - 1, y + 6 - i as isize) as i32);
            }
            let a = 16 * (recon.sample(x - 1, y + 15) as i32 + recon.sample(x + 15, y - 1) as i32);
            let b = (5 * h + 32) >> 6;
            let c = (5 * v + 32) >> 6;
            for row in 0..MB_SIZE as i32 {
                for col in 0..MB_SIZE as i32 {
                    let p = (a + b * (col - 7) + c * (row - 7) + 16) >> 5;
                    out[(row as usize) * MB_SIZE + col as usize] = p.clamp(0, 255) as u8;
                }
            }
        }
    }
    out
}

/// Which intra references exist for one 4x4 block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Intra4Avail {
    /// Pixels to the left of the block are reconstructed.
    pub left: bool,
    /// Pixels above the block are reconstructed.
    pub top: bool,
}

impl Intra4Avail {
    /// Whether `mode` is usable with these borders (DC always; diagonal
    /// modes need the full border set they extrapolate from).
    pub fn allows(self, mode: Intra4Mode) -> bool {
        match mode {
            Intra4Mode::Dc => true,
            Intra4Mode::Vertical | Intra4Mode::DiagDownLeft => self.top,
            Intra4Mode::Horizontal => self.left,
            Intra4Mode::DiagDownRight => self.top && self.left,
        }
    }

    /// The modes [`allows`](Self::allows) permits, in the order the
    /// encoder's mode search tries them.
    pub fn legal_modes(self) -> Vec<Intra4Mode> {
        [
            Intra4Mode::Dc,
            Intra4Mode::Vertical,
            Intra4Mode::DiagDownLeft,
            Intra4Mode::Horizontal,
            Intra4Mode::DiagDownRight,
        ]
        .into_iter()
        .filter(|&m| self.allows(m))
        .collect()
    }
}

/// Predicts one 4x4 block at pixel origin `(x, y)` from the reconstructed
/// plane. Top-right extension pixels beyond the block's own top row are
/// replicated from the last top pixel — a deterministic simplification of
/// H.264's availability rules that encoder and decoder share.
///
/// Illegal modes degrade to DC (keeps the decoder total under corruption).
pub fn predict_intra4(
    recon: &Plane,
    x: usize,
    y: usize,
    avail: Intra4Avail,
    mode: Intra4Mode,
) -> [u8; 16] {
    let mode = if avail.allows(mode) {
        mode
    } else {
        Intra4Mode::Dc
    };
    // Border pixels, clamped to the plane like `Plane::sample`. t[0..4] is
    // the row above; t[4..8] replicates t[3] (see doc comment). l[0..4] is
    // the column to the left; c the corner.
    let (w, h) = (recon.width(), recon.height());
    let (xl, yt) = (x.saturating_sub(1), y.saturating_sub(1));
    let above = recon.row(yt);
    let mut t = [0u8; 8];
    for (i, tv) in t.iter_mut().enumerate() {
        *tv = above[(x + i.min(3)).min(w - 1)];
    }
    let l: [u8; 4] = core::array::from_fn(|i| recon.row((y + i).min(h - 1))[xl]);
    let c = above[xl];

    let mut out = [0u8; 16];
    match mode {
        Intra4Mode::Dc => {
            let mut sum = 0u32;
            let mut count = 0u32;
            if avail.top {
                sum += t[..4].iter().map(|&v| v as u32).sum::<u32>();
                count += 4;
            }
            if avail.left {
                sum += l.iter().map(|&v| v as u32).sum::<u32>();
                count += 4;
            }
            let dc = (sum + count / 2)
                .checked_div(count)
                .map_or(128, |v| v as u8);
            out.fill(dc);
        }
        Intra4Mode::Vertical => {
            for row in 0..4 {
                out[row * 4..row * 4 + 4].copy_from_slice(&t[..4]);
            }
        }
        Intra4Mode::Horizontal => {
            for row in 0..4 {
                out[row * 4..row * 4 + 4].fill(l[row]);
            }
        }
        Intra4Mode::DiagDownLeft => {
            for row in 0..4 {
                for col in 0..4 {
                    let i = row + col;
                    let v = if i == 6 {
                        (t[6] as u16 + 3 * t[7] as u16 + 2) >> 2
                    } else {
                        (t[i] as u16 + 2 * t[i + 1] as u16 + t[i + 2] as u16 + 2) >> 2
                    };
                    out[row * 4 + col] = v as u8;
                }
            }
        }
        Intra4Mode::DiagDownRight => {
            // H.264 DDR with border samples t (top), l (left), c (corner).
            let filt3 = |a: u8, b: u8, m: u8| ((a as u16 + 2 * m as u16 + b as u16 + 2) >> 2) as u8;
            for row in 0..4i32 {
                for col in 0..4i32 {
                    let d = col - row;
                    let v = match d.cmp(&0) {
                        std::cmp::Ordering::Greater => {
                            // Above the diagonal: from the top row.
                            let k = (d - 1) as usize;
                            if k == 0 {
                                filt3(c, t[1], t[0])
                            } else {
                                filt3(t[k - 1], t[k + 1], t[k])
                            }
                        }
                        std::cmp::Ordering::Equal => filt3(t[0], l[0], c),
                        std::cmp::Ordering::Less => {
                            let k = (-d - 1) as usize;
                            if k == 0 {
                                filt3(c, l[1], l[0])
                            } else {
                                filt3(l[k - 1], l[(k + 1).min(3)], l[k])
                            }
                        }
                    };
                    out[(row * 4 + col) as usize] = v;
                }
            }
        }
    }
    out
}

/// Spatial dependency sources of an intra macroblock: `(source MB index,
/// weight)` pairs with weights summing to 1 (when any reference exists).
///
/// Attribution follows pixel counts: vertical uses the 16 pixels above
/// (the MB above), horizontal the 16 to the left, DC both rows (half
/// each), plane additionally the top-left corner pixel.
pub fn intra_sources(
    grid: &MbGrid,
    mb_index: usize,
    avail: IntraAvail,
    mode: IntraMode,
) -> Vec<(usize, f64)> {
    let mode = if avail.allows(mode) {
        mode
    } else {
        IntraMode::Dc
    };
    let (col, row) = grid.mb_position(mb_index);
    let left = (col > 0).then(|| grid.mb_index(col - 1, row));
    let above = (row > 0).then(|| grid.mb_index(col, row - 1));
    let above_left = (col > 0 && row > 0).then(|| grid.mb_index(col - 1, row - 1));

    match mode {
        IntraMode::Dc => match (
            avail.left.then_some(left).flatten(),
            avail.top.then_some(above).flatten(),
        ) {
            (Some(l), Some(a)) => vec![(a, 0.5), (l, 0.5)],
            (Some(l), None) => vec![(l, 1.0)],
            (None, Some(a)) => vec![(a, 1.0)],
            (None, None) => Vec::new(),
        },
        IntraMode::Vertical => above.map(|a| vec![(a, 1.0)]).unwrap_or_default(),
        IntraMode::Horizontal => left.map(|l| vec![(l, 1.0)]).unwrap_or_default(),
        IntraMode::Plane => {
            // 16 top pixels + 16 left pixels + 1 corner = 33 contributors.
            let mut out = Vec::new();
            if let Some(a) = above {
                out.push((a, 16.0 / 33.0));
            }
            if let Some(l) = left {
                out.push((l, 16.0 / 33.0));
            }
            if let Some(c) = above_left {
                out.push((c, 1.0 / 33.0));
            } else if let Some(first) = out.first_mut() {
                // Corner unavailable: fold its weight into the first source
                // so the total stays 1.
                first.1 += 1.0 / 33.0;
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_plane() -> Plane {
        let mut p = Plane::new(48, 48);
        for y in 0..48 {
            for x in 0..48 {
                p.set(x, y, ((x * 3 + y * 5) % 256) as u8);
            }
        }
        p
    }

    const BOTH: IntraAvail = IntraAvail {
        left: true,
        top: true,
    };
    const NONE: IntraAvail = IntraAvail {
        left: false,
        top: false,
    };

    #[test]
    fn dc_without_neighbors_is_mid_gray() {
        let p = ramp_plane();
        let pred = predict_intra16(&p, 16, 16, NONE, IntraMode::Dc);
        assert!(pred.iter().all(|&v| v == 128));
    }

    #[test]
    fn vertical_copies_top_row() {
        let p = ramp_plane();
        let pred = predict_intra16(&p, 16, 16, BOTH, IntraMode::Vertical);
        for col in 0..16 {
            let expect = p.get(16 + col, 15);
            for row in 0..16 {
                assert_eq!(pred[row * 16 + col], expect);
            }
        }
    }

    #[test]
    fn horizontal_copies_left_column() {
        let p = ramp_plane();
        let pred = predict_intra16(&p, 16, 16, BOTH, IntraMode::Horizontal);
        for row in 0..16 {
            let expect = p.get(15, 16 + row);
            for col in 0..16 {
                assert_eq!(pred[row * 16 + col], expect);
            }
        }
    }

    #[test]
    fn plane_mode_tracks_linear_gradients_well() {
        // On a perfect gradient, plane prediction should be near-exact.
        let p = ramp_plane();
        let pred = predict_intra16(&p, 16, 16, BOTH, IntraMode::Plane);
        let mut max_err = 0i32;
        for row in 0..16 {
            for col in 0..16 {
                let actual = p.get(16 + col, 16 + row) as i32;
                // Skip wrap-around positions of the % 256 ramp.
                if actual < 16 {
                    continue;
                }
                max_err = max_err.max((pred[row * 16 + col] as i32 - actual).abs());
            }
        }
        assert!(max_err <= 8, "plane err {max_err}");
    }

    #[test]
    fn illegal_mode_degrades_to_dc() {
        let p = ramp_plane();
        let v = predict_intra16(&p, 16, 16, NONE, IntraMode::Vertical);
        let dc = predict_intra16(&p, 16, 16, NONE, IntraMode::Dc);
        assert_eq!(v, dc);
    }

    const BOTH4: Intra4Avail = Intra4Avail {
        left: true,
        top: true,
    };

    #[test]
    fn intra4_dc_without_neighbors_is_mid_gray() {
        let p = ramp_plane();
        let pred = predict_intra4(
            &p,
            20,
            20,
            Intra4Avail {
                left: false,
                top: false,
            },
            Intra4Mode::Dc,
        );
        assert!(pred.iter().all(|&v| v == 128));
    }

    #[test]
    fn intra4_vertical_and_horizontal_copy_borders() {
        let p = ramp_plane();
        let v = predict_intra4(&p, 20, 20, BOTH4, Intra4Mode::Vertical);
        for col in 0..4 {
            let expect = p.get(20 + col, 19);
            for row in 0..4 {
                assert_eq!(v[row * 4 + col], expect);
            }
        }
        let h = predict_intra4(&p, 20, 20, BOTH4, Intra4Mode::Horizontal);
        for row in 0..4 {
            let expect = p.get(19, 20 + row);
            for col in 0..4 {
                assert_eq!(h[row * 4 + col], expect);
            }
        }
    }

    #[test]
    fn intra4_diagonal_modes_track_diagonal_gradients() {
        // A diagonal ramp: DDR should predict it nearly exactly.
        let mut p = Plane::new(32, 32);
        for y in 0..32 {
            for x in 0..32 {
                p.set(x, y, ((x as i32 - y as i32) * 8 + 128).clamp(0, 255) as u8);
            }
        }
        let pred = predict_intra4(&p, 16, 16, BOTH4, Intra4Mode::DiagDownRight);
        let mut max_err = 0i32;
        for row in 0..4 {
            for col in 0..4 {
                let actual = p.get(16 + col, 16 + row) as i32;
                max_err = max_err.max((pred[row * 4 + col] as i32 - actual).abs());
            }
        }
        assert!(max_err <= 4, "DDR err {max_err}");
    }

    #[test]
    fn intra4_illegal_mode_degrades_to_dc() {
        let p = ramp_plane();
        let none = Intra4Avail {
            left: false,
            top: false,
        };
        let ddl = predict_intra4(&p, 20, 20, none, Intra4Mode::DiagDownLeft);
        let dc = predict_intra4(&p, 20, 20, none, Intra4Mode::Dc);
        assert_eq!(ddl, dc);
    }

    #[test]
    fn intra4_legal_mode_sets() {
        assert_eq!(
            Intra4Avail {
                left: false,
                top: false
            }
            .legal_modes()
            .len(),
            1
        );
        assert_eq!(
            Intra4Avail {
                left: true,
                top: false
            }
            .legal_modes()
            .len(),
            2
        );
        assert_eq!(
            Intra4Avail {
                left: false,
                top: true
            }
            .legal_modes()
            .len(),
            3
        );
        assert_eq!(BOTH4.legal_modes().len(), 5);
    }

    #[test]
    fn sources_sum_to_one_when_references_exist() {
        let grid = MbGrid::for_frame(64, 64);
        for mode in IntraMode::ALL {
            let s = intra_sources(&grid, 5, BOTH, mode);
            let total: f64 = s.iter().map(|&(_, w)| w).sum();
            assert!((total - 1.0).abs() < 1e-12, "{mode:?}: {total}");
        }
    }

    #[test]
    fn sources_point_to_the_right_neighbors() {
        let grid = MbGrid::for_frame(64, 64); // 4 cols
        let s = intra_sources(&grid, 5, BOTH, IntraMode::Vertical);
        assert_eq!(s, vec![(1, 1.0)]);
        let s = intra_sources(&grid, 5, BOTH, IntraMode::Horizontal);
        assert_eq!(s, vec![(4, 1.0)]);
        let s = intra_sources(&grid, 5, BOTH, IntraMode::Plane);
        let mbs: Vec<usize> = s.iter().map(|&(m, _)| m).collect();
        assert_eq!(mbs, vec![1, 4, 0]);
    }

    #[test]
    fn no_sources_without_neighbors() {
        let grid = MbGrid::for_frame(64, 64);
        assert!(intra_sources(&grid, 0, NONE, IntraMode::Dc).is_empty());
    }
}
