//! Tier-1 profiling determinism: the span-tree profile, the histogram
//! quantile sketches and the trace export must describe the *same*
//! execution at any worker count.
//!
//! The call-path profile aggregates spans by full path, with worker
//! threads inheriting the spawning thread's path as a prefix
//! (`vapp_obs::span::with_path_prefix` installed by `vapp-par`), so the
//! tree's shape — paths and call counts — is a pure function of the
//! workload, like every other output in this workspace. Durations are
//! wall-clock and excluded from the invariance checks. Histogram
//! sketches merge by bucket-wise addition, so the merged distribution
//! is bit-for-bit identical to the single-thread one.

use std::sync::Arc;

use vapp_codec::{EncodeResult, Encoder, EncoderConfig};
use vapp_obs::json::Value;
use vapp_obs::registry::with_registry;
use vapp_obs::{Registry, Snapshot};
use vapp_rand::rngs::StdRng;
use vapp_rand::{RngExt, SeedableRng};
use vapp_sim::Trials;
use vapp_workloads::{ClipSpec, SceneKind};
use videoapp::pipeline::measure_loss_curve;
use videoapp::{
    mlc_pcm, ApproxStore, DependencyGraph, EcScheme, ImportanceMap, PivotTable, StoragePolicy,
};

fn fixture() -> (vapp_media::Video, EncodeResult, PivotTable) {
    let video = ClipSpec::new(96, 64, 8, SceneKind::MovingBlocks)
        .seed(31)
        .generate();
    let result = Encoder::new(EncoderConfig {
        keyint: 8,
        bframes: 2,
        ..EncoderConfig::default()
    })
    .encode(&video);
    let imp = ImportanceMap::compute(&DependencyGraph::from_analysis(&result.analysis));
    let table = PivotTable::build(&result.analysis, &imp, &[4.0, 64.0]);
    (video, result, table)
}

fn exact_policy() -> StoragePolicy {
    StoragePolicy {
        ladder_levels: vec![EcScheme::None, EcScheme::Bch(6), EcScheme::Bch(10)],
        thresholds: vec![4.0, 64.0],
        substrate: mlc_pcm(2e-2),
        exact_bch: true,
    }
}

/// The thread-count-invariant projection of a profile: (path, count).
fn profile_shape(snap: &Snapshot) -> Vec<(String, u64)> {
    snap.profile
        .iter()
        .map(|p| (p.path.clone(), p.count))
        .collect()
}

#[test]
fn store_load_profile_tree_is_thread_count_invariant() {
    let (_video, result, table) = fixture();
    let run = |threads: usize| {
        let reg = Arc::new(Registry::new());
        with_registry(reg.clone(), || {
            vapp_par::with_threads(threads, || {
                let store = ApproxStore::new(exact_policy());
                let mut rng = StdRng::seed_from_u64(7);
                let _ = store.store_load(&result.stream, &table, &mut rng);
            })
        });
        reg.snapshot()
    };
    let seq = run(1);
    let par = run(8);
    let shape = profile_shape(&seq);
    assert_eq!(
        shape,
        profile_shape(&par),
        "profile tree moved with threads"
    );
    // The tree is real: the load span roots a subtree containing the
    // per-level corruption and the batch decode underneath it.
    assert!(shape.iter().any(|(p, _)| p == "core.store.load"));
    assert!(
        shape.iter().any(|(p, c)| p.starts_with("core.store.load>")
            && p.ends_with(">storage.batch.decode")
            && *c > 0),
        "batch decode must nest under the load span: {shape:?}"
    );
    // No path may escape its caller: every non-root path's parent exists.
    for (path, _) in &shape {
        if let Some(idx) = path.rfind('>') {
            let parent = &path[..idx];
            assert!(
                shape.iter().any(|(p, _)| p == parent),
                "orphan path `{path}` (no `{parent}`)"
            );
        }
    }
}

#[test]
fn store_load_sketches_match_bit_for_bit_across_thread_counts() {
    let (_video, result, table) = fixture();
    let run = |threads: usize| {
        let reg = Arc::new(Registry::new());
        with_registry(reg.clone(), || {
            vapp_par::with_threads(threads, || {
                let store = ApproxStore::new(exact_policy());
                let mut rng = StdRng::seed_from_u64(7);
                let _ = store.store_load(&result.stream, &table, &mut rng);
            })
        });
        reg.snapshot()
    };
    let seq = run(1);
    let par = run(8);
    assert!(
        seq.histogram("storage.batch.dirty_lanes").is_some(),
        "exact store/load records the dirty-lane distribution"
    );
    for h1 in &seq.histograms {
        let h8 = par.histogram(&h1.name).expect("histogram set matches");
        // The 8-way sketch is a merge of per-worker contributions;
        // merging is bucket-wise addition, so it must equal the
        // single-thread sketch exactly — including every quantile.
        assert_eq!(
            h1.sketch, h8.sketch,
            "`{}` sketch moved with threads",
            h1.name
        );
        assert_eq!(
            h1.sketch.snapshot_quantiles(),
            h8.sketch.snapshot_quantiles(),
            "`{}` quantiles moved with threads",
            h1.name
        );
    }
    assert_eq!(seq.histograms.len(), par.histograms.len());
}

#[test]
fn trials_profile_is_thread_count_invariant() {
    let trials = Trials::new(13, 99);
    let run = |threads: usize| {
        let reg = Arc::new(Registry::new());
        with_registry(reg.clone(), || {
            vapp_par::with_threads(threads, || {
                let _region = vapp_obs::span!("test.trials.region");
                trials.run(|_, rng| {
                    let _unit = vapp_obs::span!("test.trials.unit");
                    rng.random::<u64>()
                })
            })
        });
        reg.snapshot()
    };
    let seq = run(1);
    let par = run(8);
    assert_eq!(profile_shape(&seq), profile_shape(&par));
    // Trials::run opens its own span between the region and the units.
    let unit = seq
        .profile_path("test.trials.region>sim.trials.run>test.trials.unit")
        .expect("unit nests under the region at any thread count");
    assert_eq!(unit.count, 13);
}

#[test]
fn loss_curve_profile_shape_is_thread_count_invariant() {
    let (video, result, _table) = fixture();
    let ranges = [0..result.stream.payload_bits()];
    let rates = [1e-4, 1e-3];
    let trials = Trials::new(4, 55);
    let run = |threads: usize| {
        let reg = Arc::new(Registry::new());
        with_registry(reg.clone(), || {
            vapp_par::with_threads(threads, || {
                let _ = measure_loss_curve(&result.stream, &video, &ranges, &rates, trials);
            })
        });
        reg.snapshot()
    };
    let seq = run(1);
    let par = run(8);
    assert_eq!(profile_shape(&seq), profile_shape(&par));
    assert!(seq.profile_path("core.loss.curve").is_some());
}

#[test]
fn worker_utilization_reconciles_with_the_unit_count() {
    let reg = Arc::new(Registry::new());
    let units = 37u64;
    with_registry(reg.clone(), || {
        vapp_par::with_threads(8, || {
            vapp_par::par_map((0..units).collect::<Vec<u64>>(), |_, x| {
                std::thread::sleep(std::time::Duration::from_micros(100));
                x
            })
        });
    });
    let snap = reg.snapshot();
    let tasks: u64 = snap
        .counters
        .iter()
        .filter(|(n, _)| n.starts_with("par.worker.") && n.ends_with(".tasks"))
        .map(|(_, v)| *v)
        .sum();
    assert_eq!(tasks, units, "every unit claimed by exactly one worker");
    let busy: u64 = snap
        .counters
        .iter()
        .filter(|(n, _)| n.starts_with("par.worker.") && n.ends_with(".busy_ns"))
        .map(|(_, v)| *v)
        .sum();
    assert!(
        busy >= units * 100_000,
        "busy time must cover the slept time: {busy} ns"
    );
    // The single-thread rerun is utilization-silent (inline path).
    let reg1 = Arc::new(Registry::new());
    with_registry(reg1.clone(), || {
        vapp_par::with_threads(1, || {
            vapp_par::par_map((0..units).collect::<Vec<u64>>(), |_, x| x)
        });
    });
    assert!(!reg1
        .snapshot()
        .counters
        .iter()
        .any(|(n, _)| n.starts_with("par.worker.")));
}

#[test]
fn sketch_quantiles_track_exact_order_statistics_within_two_percent() {
    vapp_check::check("sketch_quantile_accuracy", 60, |rng| {
        let n = 50 + (rng.random::<u64>() % 2000) as usize;
        let mut values: Vec<u64> = (0..n)
            .map(|_| 1 + rng.random::<u64>() % 1_000_000)
            .collect();
        let mut sketch = vapp_obs::Sketch::new();
        for &v in &values {
            sketch.record(v);
        }
        values.sort_unstable();
        for q in [0.5, 0.9, 0.95, 0.99] {
            let rank = ((q * (n as f64 - 1.0)).floor() as usize).min(n - 1);
            let exact = values[rank] as f64;
            let est = sketch.quantile(q);
            let rel = (est - exact).abs() / exact;
            assert!(
                rel <= 0.02,
                "q={q}: estimate {est} vs exact {exact} ({:.2}% off, n={n})",
                rel * 100.0
            );
        }
    });
}

#[test]
fn pipeline_trace_export_is_structurally_valid() {
    let (_video, result, table) = fixture();
    let reg = Arc::new(Registry::new());
    let dir = std::env::temp_dir().join("vapp-profiling-trace-test");
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("trace.json");
    with_registry(reg.clone(), || {
        vapp_par::with_threads(4, || {
            let store = ApproxStore::new(exact_policy());
            let mut rng = StdRng::seed_from_u64(7);
            let _ = store.store_load(&result.stream, &table, &mut rng);
        });
        vapp_obs::write_trace(&path, "profiling_test").expect("writable temp dir");
    });
    let text = std::fs::read_to_string(&path).expect("trace written");
    let doc = Value::parse(&text).expect("trace is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents array");
    let complete: Vec<_> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
        .collect();
    assert!(
        !complete.is_empty(),
        "pipeline spans become complete events"
    );
    for e in &complete {
        assert!(e.get("name").and_then(Value::as_str).is_some());
        assert!(e.get("ts").and_then(Value::as_f64).unwrap() >= 0.0);
        assert!(e.get("dur").and_then(Value::as_f64).unwrap() >= 0.0);
        assert!(e.get("tid").and_then(Value::as_u64).unwrap() >= 1);
    }
    assert!(
        complete
            .iter()
            .any(|e| e.get("name").and_then(Value::as_str) == Some("core.store.load")),
        "the load span appears on the trace"
    );
    // Thread metadata covers every tid that appears on an event.
    let named_tids: Vec<u64> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("M"))
        .filter(|e| e.get("name").and_then(Value::as_str) == Some("thread_name"))
        .filter_map(|e| e.get("tid").and_then(Value::as_u64))
        .collect();
    for e in &complete {
        let tid = e.get("tid").and_then(Value::as_u64).unwrap();
        assert!(
            named_tids.contains(&tid),
            "tid {tid} lacks thread_name metadata"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_schema_gate_holds_for_pipeline_output() {
    let (_video, result, table) = fixture();
    let reg = Arc::new(Registry::new());
    with_registry(reg.clone(), || {
        let store = ApproxStore::new(exact_policy());
        let mut rng = StdRng::seed_from_u64(7);
        let _ = store.store_load(&result.stream, &table, &mut rng);
    });
    let json = reg.snapshot().to_json("gate");
    let (_, parsed) = Snapshot::from_json(&json).expect("own output parses");
    assert_eq!(profile_shape(&parsed), profile_shape(&reg.snapshot()));
    for other in ["9.1", "2.0"] {
        let doc = json.replacen(
            "\"schema_version\": \"3.0\"",
            &format!("\"schema_version\": \"{other}\""),
            1,
        );
        assert_ne!(doc, json);
        assert!(
            Snapshot::from_json(&doc).is_err(),
            "major {other} must be rejected, not misread"
        );
    }
}
