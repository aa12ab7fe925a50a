//! Compares a `BENCH_<group>.json` run against a committed baseline and
//! fails (exit 1) on per-bench median regressions beyond a threshold.
//!
//! ```text
//! bench_compare BASELINE.json CURRENT.json [--threshold 0.25] \
//!               [--allow-missing NAME]...
//! ```
//!
//! A baseline bench missing from the current run is a hard failure: a
//! silently dropped bench is a silently dropped perf gate. Intentional
//! removals are declared with `--allow-missing NAME` (repeatable), which
//! documents the removal in the CI invocation itself.
//!
//! Raw medians are machine-dependent, so absolute comparison against a
//! committed baseline would flag every slower CI runner. Instead the
//! comparison is *normalized*: the per-bench ratio `current / baseline`
//! is divided by the median ratio across all shared benches (the "machine
//! factor" — how much slower this machine is overall). A bench regresses
//! only when its ratio exceeds `(1 + threshold) x machine factor`, i.e.
//! when it slowed down relative to its group, which survives arbitrary
//! uniform machine-speed differences.

use std::process::ExitCode;
use vapp_bench::harness::load_medians;

struct Row {
    name: String,
    base_ns: f64,
    cur_ns: f64,
    ratio: f64,
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    values[values.len() / 2]
}

/// Compares baseline medians against the current run's. Returns whether
/// any bench regressed past the normalized limit. Baseline benches absent
/// from the current run are an error unless named in `allow_missing`.
fn compare(
    base: &[(String, f64)],
    cur: &[(String, f64)],
    threshold: f64,
    allow_missing: &[String],
) -> Result<bool, String> {
    let mut rows = Vec::new();
    let mut missing = Vec::new();
    for (name, base_ns) in base {
        if let Some((_, cur_ns)) = cur.iter().find(|(n, _)| n == name) {
            rows.push(Row {
                name: name.clone(),
                base_ns: *base_ns,
                cur_ns: *cur_ns,
                ratio: cur_ns / base_ns,
            });
        } else if allow_missing.iter().any(|a| a == name) {
            println!("bench-compare: `{name}` missing from current run (allowed by flag)");
        } else {
            missing.push(name.clone());
        }
    }
    if !missing.is_empty() {
        // A dropped bench would silently bypass its perf gate; make the
        // removal explicit with --allow-missing.
        return Err(format!(
            "baseline benches missing from current run: {} \
             (pass --allow-missing NAME per intentionally removed bench)",
            missing.join(", ")
        ));
    }
    // New benches have no baseline yet: warn and leave them ungated until
    // the baseline is regenerated, rather than failing or silently
    // pretending they were compared.
    for (name, _) in cur {
        if !base.iter().any(|(n, _)| n == name) {
            println!("bench-compare: `{name}` not in baseline yet (skipped; regenerate baseline)");
        }
    }
    if rows.is_empty() {
        return Err("no benches shared between baseline and current run".into());
    }

    let mut ratios: Vec<f64> = rows.iter().map(|r| r.ratio).collect();
    let machine_factor = median(&mut ratios);
    let limit = (1.0 + threshold) * machine_factor;
    println!(
        "bench-compare: {} benches, machine factor {machine_factor:.3}, \
         regression limit {limit:.3}x baseline",
        rows.len()
    );

    let mut regressed = false;
    for r in &rows {
        let verdict = if r.ratio > limit {
            regressed = true;
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "  {:<28} base {:>12.0} ns  cur {:>12.0} ns  ratio {:>6.3}  {verdict}",
            r.name, r.base_ns, r.cur_ns, r.ratio
        );
    }
    Ok(regressed)
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut threshold = 0.25f64;
    let mut allow_missing = Vec::new();
    let mut paths = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--threshold" {
            threshold = it
                .next()
                .ok_or("--threshold needs a value")?
                .parse()
                .map_err(|_| "--threshold: invalid value".to_string())?;
        } else if a == "--allow-missing" {
            allow_missing.push(it.next().ok_or("--allow-missing needs a bench name")?);
        } else {
            paths.push(a);
        }
    }
    let [baseline, current] = paths.as_slice() else {
        return Err(
            "usage: bench_compare BASELINE.json CURRENT.json [--threshold 0.25] \
             [--allow-missing NAME]..."
                .into(),
        );
    };

    let base = load_medians(baseline)?;
    let cur = load_medians(current)?;
    compare(&base, &cur, threshold, &allow_missing)
}

fn main() -> ExitCode {
    match run() {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => {
            eprintln!("bench-compare: median regression beyond threshold detected");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("bench-compare: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_bench(dir: &std::path::Path, name: &str, medians: &[(&str, f64)]) -> String {
        let results: Vec<String> = medians
            .iter()
            .map(|(n, m)| format!("{{\"name\":\"{n}\",\"median_ns\":{m}}}"))
            .collect();
        let json = format!("{{\"group\":\"t\",\"results\":[{}]}}", results.join(","));
        let path = dir.join(name);
        std::fs::write(&path, json).expect("write");
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn uniform_slowdown_is_not_a_regression() {
        let dir = std::env::temp_dir().join("vapp-bench-compare-test-1");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let base = write_bench(
            &dir,
            "base.json",
            &[("a", 100.0), ("b", 200.0), ("c", 50.0)],
        );
        // The whole machine is 3x slower: every ratio is 3, the machine
        // factor is 3, and nothing exceeds 1.25 x 3.
        let cur = write_bench(
            &dir,
            "cur.json",
            &[("a", 300.0), ("b", 600.0), ("c", 150.0)],
        );
        let b = load_medians(&base).expect("base");
        let c = load_medians(&cur).expect("cur");
        let mut ratios: Vec<f64> = b.iter().zip(&c).map(|((_, bm), (_, cm))| cm / bm).collect();
        let factor = median(&mut ratios);
        assert!((factor - 3.0).abs() < 1e-12);
        assert!(ratios.iter().all(|&r| r <= 1.25 * factor));
    }

    #[test]
    fn single_bench_blowup_is_flagged() {
        let dir = std::env::temp_dir().join("vapp-bench-compare-test-2");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let base = write_bench(
            &dir,
            "base.json",
            &[("a", 100.0), ("b", 200.0), ("c", 50.0)],
        );
        let cur = write_bench(
            &dir,
            "cur.json",
            &[("a", 100.0), ("b", 200.0), ("c", 500.0)],
        );
        let b = load_medians(&base).expect("base");
        let c = load_medians(&cur).expect("cur");
        let ratios: Vec<f64> = b.iter().zip(&c).map(|((_, bm), (_, cm))| cm / bm).collect();
        let mut sorted = ratios.clone();
        let factor = median(&mut sorted);
        assert!((factor - 1.0).abs() < 1e-12);
        assert!(ratios.iter().any(|&r| r > 1.25 * factor));
    }

    #[test]
    fn missing_baseline_bench_is_a_hard_failure() {
        let base = vec![("a".to_string(), 100.0), ("b".to_string(), 200.0)];
        let cur = vec![("a".to_string(), 100.0)];
        let err = compare(&base, &cur, 0.25, &[]).expect_err("must fail");
        assert!(err.contains("b"), "error names the dropped bench: {err}");
        assert!(
            err.contains("--allow-missing"),
            "error points at the flag: {err}"
        );
    }

    #[test]
    fn allow_missing_permits_declared_removals() {
        let base = vec![
            ("a".to_string(), 100.0),
            ("b".to_string(), 200.0),
            ("c".to_string(), 50.0),
        ];
        let cur = vec![("a".to_string(), 110.0), ("c".to_string(), 55.0)];
        let regressed = compare(&base, &cur, 0.25, &["b".to_string()]).expect("allowed");
        assert!(!regressed);
        // The allowlist only covers the named bench: dropping another
        // still fails.
        let cur2 = vec![("a".to_string(), 110.0)];
        assert!(compare(&base, &cur2, 0.25, &["b".to_string()]).is_err());
    }

    #[test]
    fn compare_flags_relative_regressions_only() {
        let base = vec![
            ("a".to_string(), 100.0),
            ("b".to_string(), 200.0),
            ("c".to_string(), 50.0),
        ];
        // Uniform 3x slowdown: no regression.
        let uniform = vec![
            ("a".to_string(), 300.0),
            ("b".to_string(), 600.0),
            ("c".to_string(), 150.0),
        ];
        assert!(!compare(&base, &uniform, 0.25, &[]).expect("uniform"));
        // One bench blows up 10x while the rest hold: regression.
        let blowup = vec![
            ("a".to_string(), 100.0),
            ("b".to_string(), 200.0),
            ("c".to_string(), 500.0),
        ];
        assert!(compare(&base, &blowup, 0.25, &[]).expect("blowup"));
    }

    #[test]
    fn new_benches_without_baseline_stay_ungated() {
        let base = vec![("a".to_string(), 100.0)];
        let cur = vec![("a".to_string(), 100.0), ("brand_new".to_string(), 1e9)];
        assert!(!compare(&base, &cur, 0.25, &[]).expect("new bench is not gated"));
    }
}
