//! `ingest`: the write path. Each op takes a fresh raw clip through
//! encode → dependency graph → importance → pivots → split → CTR
//! encryption → storage report. One client, one worker.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use vapp_codec::{decode, EncodeResult, EncodedVideo, Encoder};
use vapp_crypto::{Block, CipherMode, Key};
use vapp_media::Video;
use vapp_obs::registry::{with_registry, Registry};
use vapp_workloads::{ClipSpec, SceneKind};
use videoapp::{
    split_streams, ApproxStore, DependencyGraph, ImportanceMap, PipelineReport, PivotTable,
    ProtectedStreams,
};

use crate::ledger::{per, Ledger};
use crate::stats::{Fnv, Reservoir};
use crate::{
    calib, encoder_config, ladder_policy, layer, mix, ns_since, record_latency, timed_setup,
    Checkpoint, Outcome, RunCfg, Stop, CLIP, THRESHOLDS,
};

/// Scene kinds, rotated op by op.
const KINDS: [SceneKind; 7] = [
    SceneKind::MovingBlocks,
    SceneKind::FastMotion,
    SceneKind::Panning,
    SceneKind::LocalMotion,
    SceneKind::NoisyStatic,
    SceneKind::SceneCuts,
    SceneKind::Breathing,
];

/// Ops in the deterministic checkpoint: one clip per scene kind.
const CHECKPOINT_OPS: u64 = KINDS.len() as u64;

/// Ops the end-to-end phase completes however slow the machine: at 200
/// samples p95 keeps ten beyond it, so the tail stays on the p95 rung
/// (a ~30-s run makes 200–450 ops).
const MIN_TIMED_OPS: u64 = 200;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Warm-up ops inside each set-up.
const WARMUP_OPS: u64 = 2;

/// Seed domain of the warm-up clips, apart from the measured ones.
const WARMUP_SALT: u64 = 0x5741_524D_5550;

/// Macroblocks per clip (16×16 luma).
const MBS_PER_CLIP: u64 = (CLIP.width / 16 * (CLIP.height / 16) * CLIP.frames) as u64;

/// The program objects one ingest op runs against.
struct Ingest {
    encoder: Encoder,
    store: ApproxStore,
    key: Key,
    iv: Block,
}

/// Everything one op produced, dropped outside the timer.
struct Products {
    /// Encoder output.
    result: EncodeResult,
    // Intermediates held only so they drop outside the timer.
    _graph: DependencyGraph,
    _importance: ImportanceMap,
    _table: PivotTable,
    _streams: ProtectedStreams,
    /// Density report.
    report: PipelineReport,
}

/// The raw clip of op `i` (input generation: never timed).
fn clip(seed: u64, i: u64) -> Video {
    let kind = KINDS[(i % KINDS.len() as u64) as usize];
    ClipSpec::new(CLIP.width, CLIP.height, CLIP.frames, kind)
        .seed(mix(seed, i))
        .generate()
}

impl Ingest {
    /// Builds the encoder, store and cipher key for a seed.
    fn new(seed: u64) -> Self {
        let k = mix(seed, u64::MAX).to_le_bytes();
        let v = mix(seed, u64::MAX - 1).to_le_bytes();
        let mut key = [0u8; 16];
        let mut iv = [0u8; 16];
        key[..8].copy_from_slice(&k);
        key[8..].copy_from_slice(&v);
        iv[..8].copy_from_slice(&v);
        iv[8..].copy_from_slice(&k);
        Ingest {
            encoder: Encoder::new(encoder_config()),
            store: ApproxStore::new(ladder_policy()),
            key,
            iv,
        }
    }

    /// One op: every call into the program, back to back.
    fn op(&self, video: &Video, traced: bool) -> Products {
        let pixels = (video.width() * video.height() * video.len()) as u64;
        let result = layer(traced, "bench.codec.encode", || self.encoder.encode(video));
        let graph = layer(traced, "bench.core.graph", || {
            DependencyGraph::from_analysis(&result.analysis)
        });
        let importance = layer(traced, "bench.core.importance", || {
            ImportanceMap::compute(&graph)
        });
        let table = layer(traced, "bench.core.pivots", || {
            PivotTable::build(&result.analysis, &importance, &THRESHOLDS)
        });
        let mut streams = layer(traced, "bench.core.split", || {
            split_streams(&result.stream, &table)
        });
        layer(traced, "bench.crypto.encrypt", || {
            streams.encrypt(CipherMode::Ctr, &self.key, &self.iv)
        });
        let report = layer(traced, "bench.core.report", || {
            self.store.report(&result.stream, &table, pixels)
        });
        Products {
            result,
            _graph: graph,
            _importance: importance,
            _table: table,
            _streams: streams,
            report,
        }
    }
}

/// Folds a coded stream into a digest.
fn fold_stream(h: &mut Fnv, stream: &EncodedVideo) {
    h.bytes(&stream.header.to_bytes());
    for f in &stream.frames {
        h.bytes(&f.header.to_bytes());
        h.u64(f.payload.len() as u64);
        h.bytes(&f.payload);
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
    stream_bits: u64,
    pixels: u64,
}

impl Phase {
    fn ops_per_s(&self) -> f64 {
        per(self.ops as f64, self.scaled_ns as f64 / 1e9)
    }
}

/// Checkpoint accumulator over the first [`CHECKPOINT_OPS`] ops.
#[derive(Default)]
struct Acc {
    digest: Fnv,
    cells_per_pixel: f64,
    done: u64,
}

impl Acc {
    fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            digest: self.digest.0,
            values: vec![(
                "cells_per_pixel",
                self.cells_per_pixel / self.done.max(1) as f64,
            )],
        }
    }
}

/// Runs ops `first..` until `stop`, checking every output outside the
/// timer.
fn measure(w: &Ingest, seed: u64, first: u64, stop: Stop, traced: bool, acc: &mut Acc) -> Phase {
    let mut phase = Phase::default();
    while !stop.reached(phase.ops) {
        let i = first + phase.ops;
        calib::tick();
        let video = clip(seed, i);
        let start = Instant::now();
        let products = black_box(w.op(black_box(&video), traced));
        let ns = ns_since(start);
        let scaled = calib::scale(ns);
        phase.timed_ns += ns;
        phase.scaled_ns += scaled;
        phase.lat.record(scaled as f64 / 1e6);
        phase.ops += 1;

        let cpp = products.report.cells_per_pixel();
        let decoded_ok = decode(&products.result.stream) == products.result.reconstruction;
        if !(decoded_ok && cpp > 0.0 && cpp.is_finite()) {
            phase.failed += 1;
        }
        phase.stream_bits +=
            products.result.stream.payload_bits() + products.result.stream.header_bits();
        phase.pixels += products.report.pixels;
        if i < CHECKPOINT_OPS {
            fold_stream(&mut acc.digest, &products.result.stream);
            acc.digest.u64(cpp.to_bits());
            acc.cells_per_pixel += cpp;
            acc.done += 1;
        }
        drop(products);
    }
    phase
}

/// One timed set-up: program objects plus warm-up ops.
fn setup(seed: u64) -> (Ingest, u64) {
    let warm: Vec<Video> = (0..WARMUP_OPS)
        .map(|j| clip(seed ^ WARMUP_SALT, j))
        .collect();
    let start = Instant::now();
    let w = Ingest::new(seed);
    for v in &warm {
        black_box(w.op(v, false));
    }
    let ns = ns_since(start);
    (w, ns)
}

/// The deterministic checkpoint alone, untimed.
pub fn checkpoint(seed: u64) -> Checkpoint {
    vapp_par::set_threads(Some(1));
    let (w, _) = setup(seed);
    let mut acc = Acc::default();
    measure(&w, seed, 0, Stop::Ops(CHECKPOINT_OPS), false, &mut acc);
    acc.checkpoint()
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    vapp_par::set_threads(Some(1));
    let mut out = Outcome::default();
    let (w, setup_s, note) = timed_setup(SETUP_REPS, || setup(cfg.seed));
    out.notes.push(note);
    out.set("setup_s", setup_s);

    let mut acc = Acc::default();
    let secs = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let min_ops = if cfg.trace {
        CHECKPOINT_OPS
    } else {
        MIN_TIMED_OPS
    };
    let plain = measure(&w, cfg.seed, 0, Stop::after(secs, min_ops), false, &mut acc);
    out.checkpoint = acc.checkpoint();
    out.attempted += plain.ops;
    out.failed += plain.failed;
    out.set("ops_per_s", plain.ops_per_s());
    out.notes.push(format!(
        "raw (unscaled) ops_per_s {:.4}",
        per(plain.ops as f64, plain.timed_ns as f64 / 1e9)
    ));
    record_latency(
        &mut out,
        "ingest op",
        &plain.lat,
        "latency_p50_ms",
        "latency_tail_ms",
    );
    let cpp = out.checkpoint.values[0].1;
    out.set("cells_per_pixel", cpp);
    out.check(cpp > 0.0, "cells_per_pixel > 0");

    if cfg.trace {
        let reg = Arc::new(Registry::new());
        let traced = with_registry(reg.clone(), || {
            measure(
                &w,
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
        let encode = ledger.ms_per_op("bench.codec.encode");
        let analysis =
            ledger.ms_per_op("bench.core.graph") + ledger.ms_per_op("bench.core.importance");
        out.set("codec.encode.ms", encode);
        out.set(
            "codec.bits_per_pixel",
            per(traced.stream_bits as f64, traced.pixels as f64),
        );
        out.set(
            "codec.sad.early_exit_per_mb",
            per(
                ledger.counter("codec.sad.early_exit") as f64,
                (traced.ops * MBS_PER_CLIP) as f64,
            ),
        );
        out.set("core.analysis.ms", analysis);
        out.set("core.analysis.pct_of_encode", 100.0 * per(analysis, encode));
        out.set("core.pivots.ms", ledger.ms_per_op("bench.core.pivots"));
        out.set("core.split.ms", ledger.ms_per_op("bench.core.split"));
        out.set(
            "crypto.encrypt.ms",
            ledger.ms_per_op("bench.crypto.encrypt"),
        );
        out.set("core.report.ms", ledger.ms_per_op("bench.core.report"));
        out.set("obs.spans_per_op", ledger.program_spans_per_op());
        out.set("bench.unattributed_pct", ledger.unattributed_pct());
        out.set(
            "bench.trace_overhead_pct",
            100.0 * per(plain.ops_per_s() - traced.ops_per_s(), plain.ops_per_s()),
        );
        out.set("bench.samples", traced.ops as f64);
    }
    out
}
