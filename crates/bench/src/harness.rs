//! A minimal `std::time::Instant` timing harness replacing `criterion`,
//! exposing the same call shape (`Criterion`, `benchmark_group`,
//! `bench_function`, `Bencher::iter`, `criterion_group!`/
//! `criterion_main!`) so the bench files changed imports only.
//!
//! Each `bench_function` runs one warmup call, sizes the batch from warm
//! batches of 1, 2, 4, … calls (the first to pass 1 ms), then times
//! `sample_size` batches and reports per-iteration statistics. Every
//! group writes `BENCH_<group>.json` with machine-readable timings — the
//! benchmark trajectory across PRs is diffed from these files, so the
//! JSON shape is a compatibility surface:
//!
//! ```json
//! {
//!   "group": "codec",
//!   "harness": "vapp-bench",
//!   "results": [
//!     {
//!       "name": "encode_Cabac",
//!       "samples": 10,
//!       "iters_per_sample": 3,
//!       "mean_ns": 1234.5,
//!       "median_ns": 1200.0,
//!       "min_ns": 1100.0,
//!       "max_ns": 1400.0,
//!       "p50_ns": 1201.0,
//!       "p90_ns": 1380.0,
//!       "p95_ns": 1391.0,
//!       "p99_ns": 1399.0,
//!       "stddev_ns": 55.0,
//!       "throughput_bytes": 65536,
//!       "bytes_per_sec": 5.2e10
//!     }
//!   ]
//! }
//! ```
//!
//! Env knobs:
//!
//! * `VAPP_BENCH_OUT` — output directory (default `target/bench-results`,
//!   resolved against the workspace root when run via cargo).
//! * `VAPP_BENCH_MS` — per-sample time budget in milliseconds
//!   (default 10; set 1 for a fast CI smoke pass).

use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;
use vapp_obs::json::{escape, fmt_f64, Value};

/// Top-level harness state: where results go.
pub struct Criterion {
    out_dir: PathBuf,
}

impl Default for Criterion {
    fn default() -> Self {
        let out_dir = std::env::var_os("VAPP_BENCH_OUT")
            .map(PathBuf::from)
            .unwrap_or_else(|| {
                // Under cargo, land next to the build artifacts; bare
                // invocation falls back to the current directory.
                let target = std::env::var_os("CARGO_TARGET_DIR")
                    .map(PathBuf::from)
                    .unwrap_or_else(|| PathBuf::from("target"));
                target.join("bench-results")
            });
        Criterion { out_dir }
    }
}

impl Criterion {
    /// Starts a named group of benchmarks; results are written when the
    /// group is [`finish`](BenchmarkGroup::finish)ed.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 20,
            throughput: None,
            results: Vec::new(),
        }
    }
}

/// Work-per-iteration declaration, for derived throughput rates.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Logical elements processed per iteration.
    Elements(u64),
}

/// One benchmark's measured statistics (per iteration, nanoseconds).
#[derive(Clone, Debug)]
pub struct BenchStats {
    /// Benchmark id within the group.
    pub name: String,
    /// Number of timed batches.
    pub samples: usize,
    /// Iterations per timed batch.
    pub iters_per_sample: u64,
    /// Mean per-iteration time.
    pub mean_ns: f64,
    /// Median per-iteration time.
    pub median_ns: f64,
    /// Fastest batch's per-iteration time.
    pub min_ns: f64,
    /// Slowest batch's per-iteration time.
    pub max_ns: f64,
    /// Sample standard deviation across batches.
    pub stddev_ns: f64,
    /// Sketch-estimated per-iteration percentiles (each batch's
    /// per-iteration time weighted by its iteration count; ~1% relative
    /// error — see `vapp_obs::sketch`).
    pub p50_ns: f64,
    /// 90th percentile per-iteration time.
    pub p90_ns: f64,
    /// 95th percentile per-iteration time.
    pub p95_ns: f64,
    /// 99th percentile per-iteration time.
    pub p99_ns: f64,
    /// Declared throughput, if any.
    pub throughput: Option<Throughput>,
}

impl BenchStats {
    fn from_samples(
        name: String,
        iters: u64,
        mut per_iter_ns: Vec<f64>,
        throughput: Option<Throughput>,
    ) -> Self {
        per_iter_ns.sort_by(|a, b| a.total_cmp(b));
        let n = per_iter_ns.len().max(1);
        let mean = per_iter_ns.iter().sum::<f64>() / n as f64;
        let var =
            per_iter_ns.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0).max(1.0);
        // Percentiles come from a quantile sketch fed one entry per
        // batch, weighted by that batch's iteration count — so an entry
        // like `p99_ns` reads as "99% of iterations were at least this
        // fast" rather than "the 99th-best batch".
        let mut sketch = vapp_obs::Sketch::new();
        for &s in &per_iter_ns {
            sketch.record_n(s.round().max(0.0) as u64, iters.max(1));
        }
        BenchStats {
            name,
            samples: per_iter_ns.len(),
            iters_per_sample: iters,
            mean_ns: mean,
            median_ns: per_iter_ns.get(n / 2).copied().unwrap_or(mean),
            min_ns: per_iter_ns.first().copied().unwrap_or(mean),
            max_ns: per_iter_ns.last().copied().unwrap_or(mean),
            stddev_ns: var.sqrt(),
            p50_ns: sketch.quantile(0.50),
            p90_ns: sketch.quantile(0.90),
            p95_ns: sketch.quantile(0.95),
            p99_ns: sketch.quantile(0.99),
            throughput,
        }
    }

    /// Derived rate in units (bytes or elements) per second.
    pub fn rate_per_sec(&self) -> Option<(f64, &'static str)> {
        let per_iter = match self.throughput? {
            Throughput::Bytes(b) => (b as f64, "bytes_per_sec"),
            Throughput::Elements(e) => (e as f64, "elements_per_sec"),
        };
        if self.median_ns <= 0.0 {
            return None;
        }
        Some((per_iter.0 * 1e9 / self.median_ns, per_iter.1))
    }
}

/// A named collection of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
    results: Vec<BenchStats>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed batches per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Declares the work per iteration for throughput reporting.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Times one benchmark. The closure receives a [`Bencher`] and must
    /// call [`Bencher::iter`] exactly once with the code under test.
    pub fn bench_function(
        &mut self,
        id: impl Into<String>,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let id = id.into();
        let mut bencher = Bencher {
            sample_size: self.sample_size,
            iters: 0,
            per_iter_ns: Vec::new(),
        };
        f(&mut bencher);
        assert!(
            !bencher.per_iter_ns.is_empty(),
            "bench `{}/{}` never called Bencher::iter",
            self.name,
            id
        );
        let stats =
            BenchStats::from_samples(id, bencher.iters, bencher.per_iter_ns, self.throughput);
        report_line(&self.name, &stats);
        self.results.push(stats);
        self
    }

    /// Writes the group's `BENCH_<group>.json` and prints its location.
    pub fn finish(self) {
        let dir = self.criterion.out_dir.clone();
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("vapp-bench: cannot create {}: {e}", dir.display());
            return;
        }
        let path = dir.join(format!("BENCH_{}.json", self.name));
        match std::fs::write(&path, render_json(&self.name, &self.results)) {
            Ok(()) => println!("vapp-bench: wrote {}", path.display()),
            Err(e) => eprintln!("vapp-bench: cannot write {}: {e}", path.display()),
        }
    }
}

/// Times the closure passed to [`iter`](Bencher::iter).
pub struct Bencher {
    sample_size: usize,
    iters: u64,
    per_iter_ns: Vec<f64>,
}

impl Bencher {
    /// Runs the benchmark body: one warmup call, warm sizing batches,
    /// then `sample_size` timed batches.
    pub fn iter<T>(&mut self, mut f: impl FnMut() -> T) {
        let budget_ms: u64 = std::env::var("VAPP_BENCH_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(10);
        // The first call pays cold caches, page faults and lazy set-up, so
        // sizing from it would leave each batch far short of the budget.
        black_box(f());
        // One warm call of a sub-100-ns body is mostly the two clock reads
        // around it, so time 1, 2, 4, … warm calls until a batch passes
        // 1 ms, then scale that batch to ~budget per sample.
        let mut n: u64 = 1;
        let batch_ns = loop {
            let t0 = Instant::now();
            for _ in 0..n {
                black_box(f());
            }
            let ns = t0.elapsed().as_nanos().max(1);
            if ns >= 1_000_000 || n >= 1_000_000 {
                break ns;
            }
            n *= 2;
        };
        let iters =
            ((budget_ms as u128 * 1_000_000 * n as u128) / batch_ns).clamp(1, 1_000_000) as u64;
        self.iters = iters;
        self.per_iter_ns.reserve(self.sample_size);
        for _ in 0..self.sample_size {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            self.per_iter_ns
                .push(t.elapsed().as_nanos() as f64 / iters as f64);
        }
    }
}

fn human_time(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

fn report_line(group: &str, s: &BenchStats) {
    let rate = s
        .rate_per_sec()
        .map(|(r, unit)| match unit {
            "bytes_per_sec" => format!("  ({:.1} MiB/s)", r / (1024.0 * 1024.0)),
            _ => format!("  ({r:.0} elem/s)"),
        })
        .unwrap_or_default();
    println!(
        "{group}/{name:<28} median {median:>12}  mean {mean:>12}  ±{sd:>10}  [{n} x {iters}]{rate}",
        name = s.name,
        median = human_time(s.median_ns),
        mean = human_time(s.mean_ns),
        sd = human_time(s.stddev_ns),
        n = s.samples,
        iters = s.iters_per_sample,
    );
}

fn render_json(group: &str, results: &[BenchStats]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"group\": \"{}\",\n", escape(group)));
    out.push_str("  \"harness\": \"vapp-bench\",\n");
    out.push_str("  \"results\": [\n");
    for (i, s) in results.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", escape(&s.name)));
        out.push_str(&format!("      \"samples\": {},\n", s.samples));
        out.push_str(&format!(
            "      \"iters_per_sample\": {},\n",
            s.iters_per_sample
        ));
        out.push_str(&format!("      \"mean_ns\": {},\n", fmt_f64(s.mean_ns)));
        out.push_str(&format!("      \"median_ns\": {},\n", fmt_f64(s.median_ns)));
        out.push_str(&format!("      \"min_ns\": {},\n", fmt_f64(s.min_ns)));
        out.push_str(&format!("      \"max_ns\": {},\n", fmt_f64(s.max_ns)));
        out.push_str(&format!("      \"p50_ns\": {},\n", fmt_f64(s.p50_ns)));
        out.push_str(&format!("      \"p90_ns\": {},\n", fmt_f64(s.p90_ns)));
        out.push_str(&format!("      \"p95_ns\": {},\n", fmt_f64(s.p95_ns)));
        out.push_str(&format!("      \"p99_ns\": {},\n", fmt_f64(s.p99_ns)));
        out.push_str(&format!("      \"stddev_ns\": {}", fmt_f64(s.stddev_ns)));
        match s.throughput {
            Some(Throughput::Bytes(b)) => {
                out.push_str(&format!(",\n      \"throughput_bytes\": {b}"));
            }
            Some(Throughput::Elements(e)) => {
                out.push_str(&format!(",\n      \"throughput_elements\": {e}"));
            }
            None => {}
        }
        if let Some((rate, unit)) = s.rate_per_sec() {
            out.push_str(&format!(",\n      \"{unit}\": {}", fmt_f64(rate)));
        }
        out.push_str("\n    }");
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Reads the per-bench medians back out of a `BENCH_<group>.json` file
/// (the format every bench group writes; see the module docs). Benches
/// with a non-positive median carry no timing and are dropped.
///
/// # Errors
///
/// Fails on an unreadable or malformed file, a result without `name` or
/// `median_ns`, or a file with no usable result at all.
pub fn load_medians(path: &str) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = Value::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let results = v
        .get("results")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{path}: no `results` array"))?;
    let mut out = Vec::new();
    for r in results {
        let name = r
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: result without `name`"))?;
        let median = r
            .get("median_ns")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{path}: `{name}` without `median_ns`"))?;
        if median > 0.0 {
            out.push((name.to_string(), median));
        }
    }
    if out.is_empty() {
        return Err(format!("{path}: no usable results"));
    }
    Ok(out)
}

/// Bundles bench functions into one group runner (criterion-compatible
/// call shape).
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($f:path),+ $(,)?) => {
        fn $name(c: &mut $crate::harness::Criterion) {
            $( $f(c); )+
        }
    };
}

/// Generates `main` for a `harness = false` bench target.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::harness::Criterion::default();
            $( $group(&mut c); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_are_ordered_and_sane() {
        let s = BenchStats::from_samples(
            "x".into(),
            3,
            vec![100.0, 300.0, 200.0, 250.0],
            Some(Throughput::Bytes(1000)),
        );
        assert_eq!(s.min_ns, 100.0);
        assert_eq!(s.max_ns, 300.0);
        assert!(s.min_ns <= s.median_ns && s.median_ns <= s.max_ns);
        assert!((s.mean_ns - 212.5).abs() < 1e-9);
        // Percentiles are ordered, bracketed by min/max, and within the
        // sketch's ~1% relative error of the exact order statistics.
        assert!(s.min_ns <= s.p50_ns && s.p50_ns <= s.p90_ns);
        assert!(s.p90_ns <= s.p95_ns && s.p95_ns <= s.p99_ns && s.p99_ns <= s.max_ns);
        assert!((s.p50_ns - 200.0).abs() / 200.0 < 0.02, "p50 {}", s.p50_ns);
        assert!((s.p99_ns - 300.0).abs() / 300.0 < 0.02, "p99 {}", s.p99_ns);
        let (rate, unit) = s.rate_per_sec().expect("throughput set");
        assert_eq!(unit, "bytes_per_sec");
        assert!((rate - 1000.0 * 1e9 / s.median_ns).abs() < 1e-6);
    }

    #[test]
    fn bench_run_produces_samples_and_json() {
        let mut c = Criterion {
            out_dir: std::env::temp_dir().join("vapp-bench-harness-test"),
        };
        let mut group = c.benchmark_group("harness_selftest");
        group.sample_size(3);
        group.bench_function("busywork", |b| b.iter(|| (0..100u64).sum::<u64>()));
        let stats = group.results.last().expect("one result").clone();
        assert_eq!(stats.samples, 3);
        assert!(stats.mean_ns > 0.0);
        let json = render_json("harness_selftest", &group.results);
        assert!(json.contains("\"group\": \"harness_selftest\""));
        assert!(json.contains("\"name\": \"busywork\""));
        assert!(json.contains("\"median_ns\":"));
        assert!(json.contains("\"p50_ns\":"));
        assert!(json.contains("\"p95_ns\":"));
        assert!(json.contains("\"p99_ns\":"));
        group.finish();
        let path = std::env::temp_dir()
            .join("vapp-bench-harness-test")
            .join("BENCH_harness_selftest.json");
        assert!(path.exists(), "JSON file written");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn medians_load_and_reject_garbage() {
        let dir = std::env::temp_dir().join("vapp-bench-load-medians-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let write = |name: &str, text: &str| {
            let path = dir.join(name);
            std::fs::write(&path, text).expect("write");
            path.to_string_lossy().into_owned()
        };
        let good = write(
            "good.json",
            r#"{"results":[{"name":"x","median_ns":10},{"name":"idle","median_ns":0}]}"#,
        );
        assert_eq!(load_medians(&good).expect("good"), vec![("x".into(), 10.0)]);
        let empty = write(
            "empty.json",
            r#"{"results":[{"name":"idle","median_ns":0}]}"#,
        );
        assert!(load_medians(&empty).is_err());
        let bad = write("bad.json", "not json");
        assert!(load_medians(&bad).is_err());
    }
}
