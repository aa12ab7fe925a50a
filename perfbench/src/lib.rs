//! End-to-end benchmark of the VideoApp reproduction.
//!
//! Three workloads, each a closed loop in one process, run from a seed:
//!
//! * [`ingest`] — the write path: raw clip → encode → analysis → pivots
//!   → split → encrypt → storage report;
//! * [`mc_trial`] — the read path every experiment repeats: store/load
//!   on the substrate → decode → PSNR;
//! * [`archive`] — the archive service under 64 closed-loop clients:
//!   Zipf reads, uploads and deletes.
//!
//! An untraced run gives the end-to-end metrics. A traced run wraps every
//! call into the program in a benchmark-side span under a fresh
//! registry and reads the spans, counters and sketches the program
//! already records into the per-layer ledger ([`ledger`]). Timed
//! intervals cover calls into the program only; inputs are generated
//! outside every timer. See `README.md` for the workload rationale and
//! the layer → end-to-end metric map.

pub mod archive;
pub mod calib;
pub mod catalog;
pub mod ingest;
pub mod ledger;
pub mod mc_trial;
pub mod stats;

use std::collections::BTreeMap;
use std::time::Instant;

use vapp_bench::ExpConfig;
use vapp_codec::EncoderConfig;
use videoapp::{mlc_pcm, EcScheme, StoragePolicy};

/// Clip geometry shared by the pipeline workloads.
pub const CLIP: ExpConfig = ExpConfig {
    width: 112,
    height: 64,
    frames: 24,
    trials: 1,
    clips: 7,
};

/// Importance thresholds between the three protection levels.
pub const THRESHOLDS: [f64; 2] = [4.0, 64.0];

/// Raw bit error rate of the MLC substrate (the paper's 3-month scrub).
pub const RAW_BER: f64 = 1e-3;

/// The paper's standard-quality encoder (CRF 24, CABAC, keyint 24, two
/// B-frames).
pub fn encoder_config() -> EncoderConfig {
    CLIP.encoder(24)
}

/// The Fig 9–11 storage policy: ladder `[None, BCH-6, BCH-10]` at
/// thresholds `[4, 64]` on MLC PCM, exact BCH machinery.
pub fn ladder_policy() -> StoragePolicy {
    StoragePolicy {
        ladder_levels: vec![EcScheme::None, EcScheme::Bch(6), EcScheme::Bch(10)],
        thresholds: THRESHOLDS.to_vec(),
        substrate: mlc_pcm(RAW_BER),
        exact_bch: true,
    }
}

/// Derives the `i`-th input seed of a run (SplitMix64 of seed and index),
/// so every input is a pure function of `(seed, i)`.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Calls `f`, inside a benchmark-side span named `name` when `traced`.
#[inline]
pub fn layer<T>(traced: bool, name: &str, f: impl FnOnce() -> T) -> T {
    if traced {
        let _span = vapp_obs::span!(name);
        f()
    } else {
        f()
    }
}

/// Nanoseconds elapsed since `start`.
pub fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Runs a timed set-up `reps` times and keeps the last product. `f`
/// returns its product and the nanoseconds spent in program calls.
/// Returns the product, the median set-up time in seconds scaled to
/// reference speed ([`calib`]), and a note with the raw times.
pub fn timed_setup<T>(reps: usize, mut f: impl FnMut() -> (T, u64)) -> (T, f64, String) {
    assert!(reps > 0, "at least one set-up");
    let mut scaled = Vec::with_capacity(reps);
    let mut raw = Vec::with_capacity(reps);
    let mut last: Option<T> = None;
    for _ in 0..reps {
        // Drop the previous product first so reps do not stack memory.
        drop(last.take());
        let ((product, ns), scaled_ns) = calib::bracket(|| {
            let (product, ns) = f();
            ((product, ns), ns)
        });
        raw.push(ns as f64 / 1e9);
        scaled.push(scaled_ns as f64 / 1e9);
        last = Some(product);
    }
    let note = format!(
        "set-up: median {:.4} s at reference speed; raw reps (s) {raw:.4?}",
        stats::median(&scaled)
    );
    (last.expect("reps > 0"), stats::median(&scaled), note)
}

/// How long a measured phase runs.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// Until the wall-clock deadline, and at least `min_ops` ops.
    Deadline {
        /// Wall-clock end of the phase.
        until: Instant,
        /// Ops to complete regardless of the deadline.
        min_ops: u64,
    },
    /// Exactly this many ops.
    Ops(u64),
}

impl Stop {
    /// Whether a phase that has completed `done` ops should stop.
    pub fn reached(&self, done: u64) -> bool {
        match *self {
            Stop::Deadline { until, min_ops } => done >= min_ops && Instant::now() >= until,
            Stop::Ops(n) => done >= n,
        }
    }

    /// A deadline `seconds` from now that still runs `min_ops` ops.
    pub fn after(seconds: f64, min_ops: u64) -> Stop {
        Stop::Deadline {
            until: Instant::now() + std::time::Duration::from_secs_f64(seconds),
            min_ops,
        }
    }
}

/// The deterministic part of a run: a digest over the outputs of its
/// first ops plus the values that must repeat exactly at one seed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Checkpoint {
    /// FNV-1a over the checkpoint ops' outputs.
    pub digest: u64,
    /// Named deterministic values (densities, counts).
    pub values: Vec<(&'static str, f64)>,
}

/// What one benchmark invocation measured.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Ops (and verification reads) whose outputs were checked.
    pub attempted: u64,
    /// Of those, how many failed a check.
    pub failed: u64,
    /// Run-level checks that failed (no op to blame), by description.
    pub run_failures: Vec<String>,
    /// Every metric computed, by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// The run's deterministic checkpoint.
    pub checkpoint: Checkpoint,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a run-level check.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.run_failures.push(what.to_string());
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.run_failures.is_empty() && self.attempted > 0
    }
}

/// Common settings of one invocation.
#[derive(Clone, Copy, Debug)]
pub struct RunCfg {
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// Records the latency summary of an end-to-end phase under the
/// `latency_*` names and notes the tail's percentile and sample count.
pub fn record_latency(
    out: &mut Outcome,
    label: &str,
    lat_ms: &stats::Reservoir,
    p50: &'static str,
    tail: &'static str,
) {
    match lat_ms.summary() {
        Some(s) => {
            out.set(p50, s.p50);
            out.set(tail, s.tail);
            out.notes.push(format!(
                "{label}: n={} p50={:.4} ms tail=p{} {:.4} ms ({} samples beyond)",
                s.n, s.p50, s.tail_pct, s.tail, s.beyond
            ));
        }
        None => out.check(false, &format!("{label}: no latency samples")),
    }
}
