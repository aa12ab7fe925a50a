//! **Figure 11 + headline numbers**: PSNR vs storage cells per encoded
//! pixel for three designs on the 8-level MLC PCM substrate —
//!
//! * *Uniform Correction*: BCH-16 on every payload bit,
//! * *Variable Correction*: VideoApp's Table-1 assignment,
//! * *Ideal*: perfect, overhead-free correction;
//!
//! swept over quality targets CRF 16 / 20 / 24 (§6.3), plus the SLC
//! comparison and the §7.3 headline numbers (47% EC overhead cut,
//! 2.57x vs SLC, 12.5% vs uniform MLC, <0.3 dB loss).

use super::table1::assign;
use crate::{prepare, table, ExpConfig};
use vapp_codec::decode;
use vapp_metrics::video_psnr;
use vapp_rand::{rngs::StdRng, SeedableRng};
use videoapp::{ApproxStore, PipelineReport, PivotTable, StoragePolicy};

/// The quality targets swept, most error-intolerant first.
pub const CRFS: [u8; 3] = [16, 20, 24];

/// The three designs at one CRF, each as (cells per encoded pixel, PSNR
/// dB) averaged over the suite: uniform, variable and ideal. The variable
/// design's PSNR is each clip's worst store/load trial; `worst_delta_db` is
/// its worst change from the error-free PSNR over clips and trials.
/// `first` is the first clip's storage report; at CRF 16 it gives the §7.3
/// headline numbers.
pub struct Fig11Row {
    pub crf: u8,
    pub designs: [(f64, f64); 3],
    pub worst_delta_db: f64,
    pub first: PipelineReport,
}

/// One row per CRF of [`CRFS`].
pub type Fig11Result = Vec<Fig11Row>;

/// Runs the experiment.
pub fn run(cfg: &ExpConfig) -> Fig11Result {
    let mut rows = Vec::with_capacity(CRFS.len());
    for crf in CRFS {
        let prepared = prepare(cfg, crf);
        let assignment = assign(cfg, &prepared, 4000 + crf as u64).assignment;
        let policy = StoragePolicy::from_assignment_mlc(&assignment, 1e-3);
        let store = ApproxStore::new(policy.clone());
        let tables: Vec<PivotTable> = (prepared.iter())
            .map(|p| PivotTable::build(&p.result.analysis, &p.importance, &policy.thresholds))
            .collect();
        // The clip x trial grid of store/decode rounds fans out; each trial
        // owns its seed, so the worst-PSNR fold is order-free.
        let units: Vec<(usize, usize)> = (0..prepared.len())
            .flat_map(|ci| (0..cfg.trials).map(move |t| (ci, t)))
            .collect();
        let trial_psnrs = vapp_par::par_map(units, |_, (ci, t)| {
            let p = &prepared[ci];
            let mut rng = StdRng::seed_from_u64(5000 + (ci * 97 + t) as u64);
            let loaded = store.store_load(&p.result.stream, &tables[ci], &mut rng);
            (ci, video_psnr(&p.original, &decode(&loaded)))
        });
        let mut worst_psnr = vec![f64::MAX; prepared.len()];
        for (ci, psnr) in trial_psnrs {
            worst_psnr[ci] = worst_psnr[ci].min(psnr);
        }

        let mut reports = Vec::with_capacity(prepared.len());
        let mut designs = [(0.0f64, 0.0f64); 3];
        let mut worst_delta_db = 0.0f64;
        for (ci, p) in prepared.iter().enumerate() {
            let px = p.original.total_pixels();
            let r = store.report(&p.result.stream, &tables[ci], px as u64);
            let base = video_psnr(&p.original, &p.result.reconstruction);
            worst_delta_db = worst_delta_db.min(worst_psnr[ci] - base);
            // Uniform BCH-16 and ideal correction both read back error-free.
            let px = px as f64;
            let clip = [
                (r.cells_uniform / px, base),
                (r.cells_per_pixel(), worst_psnr[ci]),
                (r.cells_ideal / px, base),
            ];
            for (sum, (cells, psnr)) in designs.iter_mut().zip(clip) {
                *sum = (sum.0 + cells, sum.1 + psnr);
            }
            reports.push(r);
        }
        let n = prepared.len() as f64;
        let designs = designs.map(|(cells, psnr)| (cells / n, psnr / n));
        let first = reports.swap_remove(0);
        rows.push(Fig11Row {
            crf,
            designs,
            worst_delta_db,
            first,
        });
    }
    rows
}

/// Renders the sweep table and the headline numbers.
pub fn render(r: &Fig11Result) -> String {
    let rows: Vec<String> = (r.iter())
        .map(|row| {
            (row.designs.iter()).fold(format!("{}|", row.crf), |s, (c, p)| {
                format!("{s}|{c:.4}|{p:.2}")
            })
        })
        .collect();
    let h = &r[0].first;
    format!(
        "== Figure 11: quality vs storage density ==\n\
         (8-level MLC PCM, raw BER 1e-3, 3-month scrub)\n\n{}\n\
         == headline numbers (CRF 16, most error-intolerant settings) ==\n\
         EC overhead eliminated:     {:.0}%   (paper: 47%)\n\
         density vs SLC:             {:.2}x (paper: 2.57x)\n\
         storage saved vs uniform:   {:.1}%  (paper: 12.5%)\n\
         worst quality change:       {:.2} dB (paper: < 0.3 dB)\n",
        table(
            &[6, 10, 13, 11, 13, 11, 13, 11],
            &[
                "CRF|design||uniform||variable||ideal",
                "||cells/px|PSNR|cells/px|PSNR|cells/px|PSNR"
            ],
            &rows
        ),
        h.ec_overhead_reduction() * 100.0,
        h.density_vs_slc(),
        h.savings_vs_uniform() * 100.0,
        r[0].worst_delta_db,
    )
}
