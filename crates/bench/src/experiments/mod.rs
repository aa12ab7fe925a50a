//! The paper's evaluation: Figures 3, 8, 9, 10 and 11, Table 1 and the §8
//! ablations. Each is a module with `run`, which returns its typed result,
//! and `render`, which prints it; the `experiments` binary keeps their
//! EXPERIMENTS.md blocks current.
//!
//! The Monte Carlo loss curves all go through one grid loop, [`worst_loss`],
//! each experiment with its own trial seeds: `1000 + clip` (Fig 9),
//! `2000 + clip` (Fig 10), `3000` (Table 1), `4000 + CRF` (Fig 11, whose
//! store trials use `5000 + clip·97 + trial`) and `6000 + clip` (§8).

pub mod fig10;
pub mod fig11;
pub mod fig3;
pub mod fig8;
pub mod fig9;
pub mod sec8;
pub mod table1;

use crate::{ExpConfig, PreparedClip};
use std::ops::Range;
use vapp_sim::Trials;
use videoapp::pipeline::measure_loss_curve;
use videoapp::{importance_classes, Class};

/// Runs an experiment at a scale and renders its output.
pub type Render = fn(&ExpConfig) -> String;

/// Every experiment by name, in EXPERIMENTS.md order.
pub const EXPERIMENTS: [(&str, Render); 7] = [
    ("fig3", |c| fig3::render(&fig3::run(c))),
    ("fig8", |c| fig8::render(&fig8::run(c))),
    ("fig9", |c| fig9::render(&fig9::run(c))),
    ("fig10", |c| fig10::render(&fig10::run(c))),
    ("table1", |c| table1::render(&table1::run(c))),
    ("fig11", |c| fig11::render(&fig11::run(c))),
    ("sec8", |c| sec8::render(&sec8::run(c))),
];

/// Measures the loss curve of every unit `(clip, key, payload ranges)` and
/// keeps, per key in `0..keys`, the worst loss at each rate (the
/// conservative fold of §6.4; a key without units reads 0 dB).
///
/// Each unit is an independent Monte Carlo experiment with the trial seed
/// `seed(clip)`, so the units fan out in one `par_map`; the fold follows
/// unit order.
pub fn worst_loss(
    prepared: &[PreparedClip],
    units: Vec<(usize, usize, Vec<Range<u64>>)>,
    keys: usize,
    rates: &[f64],
    trials: usize,
    seed: impl Fn(usize) -> u64 + Sync,
) -> Vec<Vec<f64>> {
    let curves = vapp_par::par_map(units, |_, (ci, key, ranges)| {
        let p = &prepared[ci];
        let trials = Trials::new(trials, seed(ci));
        let curve = measure_loss_curve(&p.result.stream, &p.original, &ranges, rates, trials);
        (key, curve)
    });
    let mut worst = vec![vec![0.0f64; rates.len()]; keys];
    for (key, curve) in curves {
        for (w, &r) in worst[key].iter_mut().zip(rates) {
            *w = w.min(curve.loss_at(r));
        }
    }
    worst
}

/// One table row per rate: the rate, then each key's loss at it.
fn loss_rows(rates: &[f64], loss: &[Vec<f64>]) -> Vec<String> {
    (rates.iter().enumerate())
        .map(|(ri, rate)| {
            (loss.iter()).fold(format!("{rate:.0e}"), |s, l| format!("{s}|{:.2}", l[ri]))
        })
        .collect()
}

/// Every clip's importance classes, and the sorted union of their
/// exponents.
fn suite_classes(prepared: &[PreparedClip]) -> (Vec<Vec<Class>>, Vec<u32>) {
    let classes: Vec<Vec<Class>> = prepared
        .iter()
        .map(|p| importance_classes(&p.result.analysis, &p.importance))
        .collect();
    let mut exps: Vec<u32> = classes.iter().flatten().map(|c| c.exp).collect();
    exps.sort_unstable();
    exps.dedup();
    (classes, exps)
}

/// The payload ranges of every class with exponent ≤ `exp`: the bits a
/// cumulative class curve (Fig. 10) damages.
fn cumulative_ranges(classes: &[Class], exp: u32) -> Vec<Range<u64>> {
    classes
        .iter()
        .filter(|c| c.exp <= exp)
        .flat_map(|c| c.ranges.iter().cloned())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepare;

    #[test]
    fn worst_loss_keeps_the_worst_curve_per_key() {
        let cfg = ExpConfig {
            width: 48,
            height: 32,
            frames: 4,
            trials: 1,
            clips: 1,
        };
        let prepared = prepare(&cfg, 24);
        let p = &prepared[0];
        let total = p.result.stream.payload_bits();
        let rates = [1e-3, 1e-2];
        let curve = |ranges: &[Range<u64>]| {
            let c = measure_loss_curve(
                &p.result.stream,
                &p.original,
                ranges,
                &rates,
                Trials::new(1, 9),
            );
            rates.map(|r| c.loss_at(r))
        };
        let (all, half) = (curve(&[0..total]), curve(&[0..total / 2]));
        let units = vec![(0, 0, vec![0..total]), (0, 0, vec![0..total / 2])];
        let worst = worst_loss(&prepared, units, 2, &rates, 1, |_| 9);
        let expect: Vec<f64> = all.iter().zip(&half).map(|(a, h)| a.min(*h)).collect();
        assert_eq!(worst, [expect, vec![0.0; 2]]);
    }
}
