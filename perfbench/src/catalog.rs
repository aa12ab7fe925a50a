//! The metric catalogue: every name the benchmark reports, with its unit.
//! `BENCHMARK.json` at the repository root lists the same names; the
//! tests below hold the two in step.

/// End-to-end metrics, reported by the untraced run of every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by the traced run of every workload. A
/// layer that does no work in a workload reports 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Workload-specific outcomes of the untraced half of a traced run.
    ("failed_frac", "ratio"),
    ("cells_per_pixel", "cells/px"),
    ("psnr_drop_db", "dB"),
    ("read_p50_ms", "ms"),
    ("read_tail_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_tail_ms", "ms"),
    ("space_amp", "ratio"),
    // Codec encode (ingest).
    ("codec.encode.ms", "ms"),
    ("codec.bits_per_pixel", "bits/px"),
    ("codec.sad.early_exit_per_mb", "count"),
    // Core analysis, layout and crypto (ingest).
    ("core.analysis.ms", "ms"),
    ("core.analysis.pct_of_encode", "%"),
    ("core.pivots.ms", "ms"),
    ("core.split.ms", "ms"),
    ("crypto.encrypt.ms", "ms"),
    ("core.report.ms", "ms"),
    // Store, decode and metrics (mc_trial).
    ("core.store_load.ms", "ms"),
    ("codec.decode.ms", "ms"),
    ("metrics.psnr.ms", "ms"),
    ("storage.flips_per_trial", "count"),
    ("storage.uncorrectable_per_trial", "count"),
    ("storage.corrected_frac", "ratio"),
    ("codec.decode.damaged_frac", "ratio"),
    // Archive service (archive).
    ("archive.submit.us", "us"),
    ("archive.drain.ms", "ms"),
    ("archive.read_hit.us", "us"),
    ("archive.read_miss.us", "us"),
    ("archive.ingest.us", "us"),
    ("archive.delete.us", "us"),
    ("archive.cache.hit_rate", "ratio"),
    ("archive.cache.evictions_per_op", "count"),
    ("archive.queue.refused_frac", "ratio"),
    ("archive.compact.runs", "count"),
    ("archive.compact.moved_blocks_per_op", "count"),
    ("archive.read.degraded_frac", "ratio"),
    ("par.busy_frac", "ratio"),
    ("par.fanout_speedup", "ratio"),
    // Every workload.
    ("obs.spans_per_op", "count"),
    ("bench.unattributed_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.samples", "count"),
    ("bench.speed_factor", "ratio"),
];

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Whether `name` is a valid metric name: a letter or digit first, then
/// at most 63 more letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vapp_obs::json::Value;

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for n in &all {
            assert!(valid_name(n), "{n} is not [A-Za-z0-9_.-]+");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".leading"));
        assert!(!valid_name(""));
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let doc = Value::parse(&text).expect("valid JSON");
        for (key, expected) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Value::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let expected: Vec<(String, String)> = expected
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, expected, "{key} out of step with BENCHMARK.json");
        }
    }
}
