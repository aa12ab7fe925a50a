//! `mc_trial`: the read path every Fig 9–11 experiment repeats. Set-up
//! encodes and analyses the 7-clip suite; each op is one Monte Carlo
//! trial — store/load on MLC PCM, decode, PSNR — rotating over the
//! clips. One client, one worker.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use vapp_codec::{decode, EncodedVideo, Encoder};
use vapp_media::Video;
use vapp_metrics::video_psnr;
use vapp_obs::registry::{with_registry, Registry};
use vapp_rand::rngs::StdRng;
use vapp_rand::SeedableRng;
use videoapp::{ApproxStore, DependencyGraph, ImportanceMap, PivotTable};

use crate::ledger::{per, Ledger};
use crate::stats::{Fnv, Reservoir};
use crate::{
    calib, encoder_config, ladder_policy, layer, mix, ns_since, record_latency, timed_setup,
    Checkpoint, Outcome, RunCfg, Stop, CLIP, THRESHOLDS,
};

/// Trials in the deterministic checkpoint: ten per clip.
const CHECKPOINT_OPS: u64 = 70;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// One encoded, analysed suite clip.
struct Clip {
    original: Video,
    stream: EncodedVideo,
    table: PivotTable,
    clean_psnr: f64,
}

/// The analysed corpus plus the store every trial runs against.
struct Corpus {
    clips: Vec<Clip>,
    store: ApproxStore,
}

/// Outcome of one trial, checked outside the timer.
struct Trial {
    psnr: f64,
    drop_db: f64,
    damaged: bool,
    ok: bool,
}

impl Corpus {
    /// One trial: store/load → decode → PSNR against the raw clip.
    fn trial(&self, i: u64, rng: &mut StdRng, traced: bool) -> (u64, Trial) {
        let clip = &self.clips[(i % self.clips.len() as u64) as usize];
        let start = Instant::now();
        let loaded = layer(traced, "bench.core.store_load", || {
            self.store.store_load(&clip.stream, &clip.table, rng)
        });
        let decoded = layer(traced, "bench.codec.decode", || decode(&loaded));
        let psnr = layer(traced, "bench.metrics.psnr", || {
            video_psnr(&clip.original, &decoded)
        });
        let ns = ns_since(start);
        let ok = decoded.len() == clip.original.len()
            && decoded.width() == clip.original.width()
            && decoded.height() == clip.original.height()
            && psnr.is_finite();
        let trial = Trial {
            psnr,
            drop_db: clip.clean_psnr - psnr,
            damaged: loaded != clip.stream,
            ok,
        };
        (ns, trial)
    }
}

/// What a measured phase saw.
#[derive(Default)]
struct Phase {
    lat: Reservoir,
    /// Program time, raw and scaled to reference speed.
    timed_ns: u64,
    scaled_ns: u64,
    ops: u64,
    failed: u64,
    damaged: u64,
}

impl Phase {
    fn ops_per_s(&self) -> f64 {
        per(self.ops as f64, self.scaled_ns as f64 / 1e9)
    }
}

/// Checkpoint accumulator over the first [`CHECKPOINT_OPS`] trials.
#[derive(Default)]
struct Acc {
    digest: Fnv,
    drop_db: f64,
    damaged: u64,
    done: u64,
}

impl Acc {
    fn checkpoint(&self, flips: u64) -> Checkpoint {
        Checkpoint {
            digest: self.digest.0,
            values: vec![
                ("psnr_drop_db", self.drop_db / self.done.max(1) as f64),
                ("damaged_trials", self.damaged as f64),
                ("flips", flips as f64),
            ],
        }
    }
}

/// The per-trial damage seed (input generation: never timed).
fn trial_rng(seed: u64, i: u64) -> StdRng {
    StdRng::seed_from_u64(mix(seed, i))
}

fn measure(c: &Corpus, seed: u64, first: u64, stop: Stop, traced: bool, acc: &mut Acc) -> Phase {
    let mut phase = Phase::default();
    while !stop.reached(phase.ops) {
        let i = first + phase.ops;
        calib::tick();
        let mut rng = trial_rng(seed, i);
        let (ns, t) = black_box(c.trial(i, &mut rng, traced));
        let scaled = calib::scale(ns);
        phase.timed_ns += ns;
        phase.scaled_ns += scaled;
        phase.lat.record(scaled as f64 / 1e6);
        phase.ops += 1;
        phase.failed += u64::from(!t.ok);
        phase.damaged += u64::from(t.damaged);
        if i < CHECKPOINT_OPS {
            acc.digest.u64(t.psnr.to_bits());
            acc.drop_db += t.drop_db;
            acc.damaged += u64::from(t.damaged);
            acc.done += 1;
        }
    }
    phase
}

/// The suite's raw clips (input generation: never timed).
fn suite_inputs() -> Vec<Video> {
    CLIP.suite().into_iter().map(|c| c.video).collect()
}

/// One timed set-up: encode and analyse the suite, build pivot tables
/// and the store, then one warm-up trial per clip.
fn setup(seed: u64, inputs: &[Video]) -> (Corpus, u64) {
    let start = Instant::now();
    let encoder = Encoder::new(encoder_config());
    let clips = inputs
        .iter()
        .map(|video| {
            let result = encoder.encode(video);
            let graph = DependencyGraph::from_analysis(&result.analysis);
            let importance = ImportanceMap::compute(&graph);
            let table = PivotTable::build(&result.analysis, &importance, &THRESHOLDS);
            let clean_psnr = video_psnr(video, &result.reconstruction);
            Clip {
                original: video.clone(),
                stream: result.stream,
                table,
                clean_psnr,
            }
        })
        .collect::<Vec<_>>();
    let corpus = Corpus {
        clips,
        store: ApproxStore::new(ladder_policy()),
    };
    for j in 0..corpus.clips.len() as u64 {
        // Warm-up trials draw from their own seed domain.
        let mut rng = trial_rng(!seed, j);
        black_box(corpus.trial(j, &mut rng, false));
    }
    (corpus, ns_since(start))
}

fn flips_counter() -> u64 {
    vapp_obs::registry::current()
        .counter("core.flips.injected")
        .get()
}

/// The deterministic checkpoint alone, untimed.
pub fn checkpoint(seed: u64) -> Checkpoint {
    vapp_par::set_threads(Some(1));
    let inputs = suite_inputs();
    let (corpus, _) = setup(seed, &inputs);
    let mut acc = Acc::default();
    let reg = Arc::new(Registry::new());
    with_registry(reg, || {
        measure(&corpus, seed, 0, Stop::Ops(CHECKPOINT_OPS), false, &mut acc);
        acc.checkpoint(flips_counter())
    })
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    vapp_par::set_threads(Some(1));
    let mut out = Outcome::default();
    let inputs = suite_inputs();
    let (corpus, setup_s, note) = timed_setup(SETUP_REPS, || setup(cfg.seed, &inputs));
    out.notes.push(note);
    out.set("setup_s", setup_s);

    let mut acc = Acc::default();
    let secs = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    // The checkpoint's flip count comes from a registry of its own, so it
    // excludes set-up trials and the rest of the phase.
    let flips_before = flips_counter();
    let ck_reg = Arc::new(Registry::new());
    let head = with_registry(ck_reg.clone(), || {
        measure(
            &corpus,
            cfg.seed,
            0,
            Stop::Ops(CHECKPOINT_OPS),
            false,
            &mut acc,
        )
    });
    out.checkpoint = acc.checkpoint(ck_reg.counter("core.flips.injected").get());
    let mut plain = measure(
        &corpus,
        cfg.seed,
        head.ops,
        Stop::after(secs, 0),
        false,
        &mut acc,
    );
    let flips = flips_counter() - flips_before + ck_reg.counter("core.flips.injected").get();
    plain.lat.merge(&head.lat);
    plain.timed_ns += head.timed_ns;
    plain.scaled_ns += head.scaled_ns;
    plain.ops += head.ops;
    plain.failed += head.failed;
    plain.damaged += head.damaged;
    out.attempted += plain.ops;
    out.failed += plain.failed;
    out.check(flips > 0, "the run injected flips");
    out.set("ops_per_s", plain.ops_per_s());
    out.notes.push(format!(
        "raw (unscaled) ops_per_s {:.4}",
        per(plain.ops as f64, plain.timed_ns as f64 / 1e9)
    ));
    record_latency(
        &mut out,
        "trial",
        &plain.lat,
        "latency_p50_ms",
        "latency_tail_ms",
    );
    out.set("psnr_drop_db", out.checkpoint.values[0].1);
    out.notes.push(format!(
        "damaged trials: {} of {} ({} flips injected)",
        plain.damaged, plain.ops, flips
    ));

    if cfg.trace {
        let reg = Arc::new(Registry::new());
        let traced = with_registry(reg.clone(), || {
            measure(
                &corpus,
                cfg.seed,
                plain.ops,
                Stop::after(secs, 1),
                true,
                &mut acc,
            )
        });
        out.attempted += traced.ops;
        out.failed += traced.failed;
        let ledger = Ledger::new(reg.snapshot(), traced.ops, traced.timed_ns);
        let trials = traced.ops as f64;
        let corrected = ledger.counter_sum("core.level.", ".corrected");
        let uncorrectable = ledger.counter_sum("core.level.", ".uncorrectable");
        out.set(
            "core.store_load.ms",
            ledger.ms_per_op("bench.core.store_load"),
        );
        out.set("codec.decode.ms", ledger.ms_per_op("bench.codec.decode"));
        out.set("metrics.psnr.ms", ledger.ms_per_op("bench.metrics.psnr"));
        out.set(
            "storage.flips_per_trial",
            per(ledger.counter("core.flips.injected") as f64, trials),
        );
        out.set(
            "storage.uncorrectable_per_trial",
            per(uncorrectable as f64, trials),
        );
        out.set(
            "storage.corrected_frac",
            per(corrected as f64, (corrected + uncorrectable) as f64),
        );
        out.set(
            "codec.decode.damaged_frac",
            per(traced.damaged as f64, trials),
        );
        out.set("obs.spans_per_op", ledger.program_spans_per_op());
        out.set("bench.unattributed_pct", ledger.unattributed_pct());
        out.set(
            "bench.trace_overhead_pct",
            100.0 * per(plain.ops_per_s() - traced.ops_per_s(), plain.ops_per_s()),
        );
        out.set("bench.samples", trials);
    }
    out
}
