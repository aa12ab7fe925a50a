//! Renders and diffs `OBS_*.json` observability snapshots.
//!
//! ```text
//! obs_report OBS_run.json [--top N]
//! obs_report OBS_a.json OBS_b.json [--dur-threshold 5.0] [--min-dur-ns 1000000]
//! ```
//!
//! **One file** — a profiling report: the hierarchical span tree
//! (calls, total, self, min..max per call path), the hottest paths by
//! self time (`--top`, default 15), and per-worker utilization when the
//! run fanned out through `vapp-par`.
//!
//! **Two files** — an observability drift gate in the spirit of
//! `bench_compare`: the run at a fixed seed must produce the *same*
//! counters, histogram distributions and profile (call paths and their
//! counts) every time. Missing, new or changed **stable** values are hard
//! failures (exit 1); durations are wall-clock and only gated by a
//! coarse ratio (`--dur-threshold`, applied when both sides are at
//! least `--min-dur-ns`). Names under the `par.` namespace or ending in
//! `_ns` are *unstable* — scheduling- and clock-dependent — and are
//! reported but never enforced. CI runs the gate on two
//! `VAPP_THREADS=1` pipeline runs at the same seed, where everything
//! stable must match exactly.

use std::process::ExitCode;
use vapp_obs::Snapshot;

/// Scheduling- or clock-dependent names, exempt from exact comparison:
/// the per-worker `par.*` utilization counters and anything ending in
/// `_ns` (wall-clock).
fn is_unstable(name: &str) -> bool {
    name.starts_with("par.") || name.ends_with("_ns")
}

/// Diff tolerances for wall-clock values.
#[derive(Clone, Copy, Debug)]
struct DiffOpts {
    /// Maximum allowed ratio between total durations (both directions).
    dur_threshold: f64,
    /// Durations below this on either side are ignored by the ratio
    /// gate (too noisy to compare).
    min_dur_ns: u64,
}

impl Default for DiffOpts {
    fn default() -> Self {
        DiffOpts {
            dur_threshold: 5.0,
            min_dur_ns: 1_000_000,
        }
    }
}

fn dur_ratio_exceeded(a_ns: u64, b_ns: u64, opts: DiffOpts) -> bool {
    if a_ns < opts.min_dur_ns || b_ns < opts.min_dur_ns {
        return false;
    }
    let ratio = a_ns.max(b_ns) as f64 / a_ns.min(b_ns).max(1) as f64;
    ratio > opts.dur_threshold
}

/// Compares two snapshots; returns the list of drift findings (empty
/// means the runs agree on everything stable).
fn diff(a: &Snapshot, b: &Snapshot, opts: DiffOpts) -> Vec<String> {
    let mut out = Vec::new();

    // Counters: exact key set and values, unstable names exempt.
    let stable = |cs: &[(String, u64)]| -> Vec<(String, u64)> {
        cs.iter()
            .filter(|(n, _)| !is_unstable(n))
            .cloned()
            .collect()
    };
    let (ca, cb) = (stable(&a.counters), stable(&b.counters));
    for (name, va) in &ca {
        match cb.iter().find(|(n, _)| n == name) {
            None => out.push(format!("counter `{name}` missing from the second run")),
            Some((_, vb)) if vb != va => {
                out.push(format!("counter `{name}` changed: {va} -> {vb}"))
            }
            Some(_) => {}
        }
    }
    for (name, _) in &cb {
        if !ca.iter().any(|(n, _)| n == name) {
            out.push(format!("counter `{name}` new in the second run"));
        }
    }

    // Histograms: same names; stable ones must have identical
    // distributions (count, sum, min, max and every sketch bucket).
    for ha in &a.histograms {
        let Some(hb) = b.histogram(&ha.name) else {
            out.push(format!(
                "histogram `{}` missing from the second run",
                ha.name
            ));
            continue;
        };
        if is_unstable(&ha.name) {
            continue;
        }
        if (ha.count, ha.sum, ha.min, ha.max) != (hb.count, hb.sum, hb.min, hb.max) {
            out.push(format!(
                "histogram `{}` changed: count/sum/min/max {}/{}/{}/{} -> {}/{}/{}/{}",
                ha.name, ha.count, ha.sum, ha.min, ha.max, hb.count, hb.sum, hb.min, hb.max
            ));
        } else if ha.sketch != hb.sketch {
            out.push(format!(
                "histogram `{}` changed: same summary, different distribution",
                ha.name
            ));
        }
    }
    for hb in &b.histograms {
        if a.histogram(&hb.name).is_none() {
            out.push(format!("histogram `{}` new in the second run", hb.name));
        }
    }

    // Profile: same call paths and counts (the tree shape is part of
    // the determinism contract; per-name span counts are sums of path
    // counts); totals gated by the duration ratio.
    for pa in &a.profile {
        let Some(pb) = b.profile_path(&pa.path) else {
            out.push(format!(
                "profile path `{}` missing from the second run",
                pa.path
            ));
            continue;
        };
        if pa.count != pb.count {
            out.push(format!(
                "profile path `{}` count changed: {} -> {}",
                pa.path, pa.count, pb.count
            ));
        } else if dur_ratio_exceeded(pa.total_ns, pb.total_ns, opts) {
            out.push(format!(
                "profile path `{}` duration drifted past {:.1}x: {} ns -> {} ns",
                pa.path, opts.dur_threshold, pa.total_ns, pb.total_ns
            ));
        }
    }
    for pb in &b.profile {
        if a.profile_path(&pb.path).is_none() {
            out.push(format!("profile path `{}` new in the second run", pb.path));
        }
    }

    out
}

/// Renders the single-snapshot profiling report.
fn render_report(run: &str, snap: &Snapshot, top: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "obs_report: run `{run}` — {} counters, {} histograms, {} profile paths \
         (captured at {:.1} ms)",
        snap.counters.len(),
        snap.histograms.len(),
        snap.profile.len(),
        snap.captured_ns as f64 / 1e6,
    );
    if !snap.profile.is_empty() {
        out.push('\n');
        out.push_str(&vapp_obs::profile::render_tree(&snap.profile));
        out.push('\n');
        out.push_str(&vapp_obs::profile::render_self_table(&snap.profile, top));
    }
    let workers: Vec<&(String, u64)> = snap
        .counters
        .iter()
        .filter(|(n, _)| n.starts_with("par.worker.") && n.ends_with(".tasks"))
        .collect();
    if !workers.is_empty() {
        out.push_str("\nworker utilization:\n");
        for (name, tasks) in workers {
            let w = name
                .trim_start_matches("par.worker.")
                .trim_end_matches(".tasks");
            let busy = snap.counter(&format!("par.worker.{w}.busy_ns"));
            let idle = snap.counter(&format!("par.worker.{w}.idle_ns"));
            let wall = busy + idle;
            let frac = if wall == 0 {
                0.0
            } else {
                100.0 * busy as f64 / wall as f64
            };
            let _ = writeln!(
                out,
                "  worker {w:>2}: {tasks:>6} tasks, busy {frac:>5.1}% ({:.1} ms busy / {:.1} ms idle)",
                busy as f64 / 1e6,
                idle as f64 / 1e6,
            );
        }
    }
    if !snap.histograms.is_empty() {
        out.push_str("\nhistograms (count, mean, p50/p95/p99, min..max):\n");
        for h in &snap.histograms {
            let _ = writeln!(
                out,
                "  {:<36} x{:<7} mean {:>10.1}  p50 {:.1} p95 {:.1} p99 {:.1}  [{} .. {}]",
                h.name,
                h.count,
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99),
                h.min,
                h.max,
            );
        }
    }
    out
}

fn load(path: &str) -> Result<(String, Snapshot), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Snapshot::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = DiffOpts::default();
    let mut top = 15usize;
    let mut paths = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--dur-threshold" {
            opts.dur_threshold = it
                .next()
                .ok_or("--dur-threshold needs a value")?
                .parse()
                .map_err(|_| "--dur-threshold: invalid value".to_string())?;
        } else if a == "--min-dur-ns" {
            opts.min_dur_ns = it
                .next()
                .ok_or("--min-dur-ns needs a value")?
                .parse()
                .map_err(|_| "--min-dur-ns: invalid value".to_string())?;
        } else if a == "--top" {
            top = it
                .next()
                .ok_or("--top needs a value")?
                .parse()
                .map_err(|_| "--top: invalid value".to_string())?;
        } else {
            paths.push(a);
        }
    }
    match paths.as_slice() {
        [path] => {
            let (run, snap) = load(path)?;
            print!("{}", render_report(&run, &snap, top));
            Ok(())
        }
        [path_a, path_b] => {
            let (run_a, a) = load(path_a)?;
            let (run_b, b) = load(path_b)?;
            let findings = diff(&a, &b, opts);
            if findings.is_empty() {
                println!(
                    "obs_report: `{run_a}` and `{run_b}` agree on all stable observables \
                     ({} counters, {} histograms, {} profile paths)",
                    a.counters.iter().filter(|(n, _)| !is_unstable(n)).count(),
                    a.histograms.len(),
                    a.profile.len(),
                );
                Ok(())
            } else {
                for f in &findings {
                    eprintln!("obs_report: DRIFT: {f}");
                }
                Err(format!(
                    "{} drift finding(s) between {path_a} and {path_b}",
                    findings.len()
                ))
            }
        }
        _ => Err("usage: obs_report OBS.json [OBS_b.json] [--top N] \
                  [--dur-threshold 5.0] [--min-dur-ns 1000000]"
            .into()),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("obs_report: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vapp_obs::registry::{with_registry, Registry};

    fn sample() -> Snapshot {
        let reg = Arc::new(Registry::new());
        with_registry(reg.clone(), || {
            vapp_obs::counter!("test.stable.count", 7u64);
            vapp_obs::counter!("par.worker.0.tasks", 4u64);
            vapp_obs::counter!("par.worker.0.busy_ns", 3_000_000u64);
            vapp_obs::counter!("par.worker.0.idle_ns", 1_000_000u64);
            vapp_obs::histogram!("test.dist.values", 5u64);
            vapp_obs::histogram!("test.dist.values", 9u64);
            let _outer = vapp_obs::span!("report.outer.run");
            let _inner = vapp_obs::span!("report.inner.run");
        });
        reg.snapshot()
    }

    #[test]
    fn identical_snapshots_have_no_drift() {
        let snap = sample();
        assert!(diff(&snap, &snap, DiffOpts::default()).is_empty());
        // And survive a JSON round trip.
        let (_, parsed) = Snapshot::from_json(&snap.to_json("x")).expect("parses");
        assert!(diff(&snap, &parsed, DiffOpts::default()).is_empty());
    }

    #[test]
    fn changed_missing_and_new_counters_are_findings() {
        let a = sample();
        let mut b = a.clone();
        for (name, v) in &mut b.counters {
            if name == "test.stable.count" {
                *v += 1;
            }
        }
        let findings = diff(&a, &b, DiffOpts::default());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].contains("test.stable.count"), "{findings:?}");
        assert!(findings[0].contains("7 -> 8"), "{findings:?}");

        let mut c = a.clone();
        c.counters.retain(|(n, _)| n != "test.stable.count");
        assert!(diff(&a, &c, DiffOpts::default())
            .iter()
            .any(|f| f.contains("missing")));
        assert!(diff(&c, &a, DiffOpts::default())
            .iter()
            .any(|f| f.contains("new")));
    }

    #[test]
    fn unstable_counters_never_drift() {
        let a = sample();
        let mut b = a.clone();
        for (name, v) in &mut b.counters {
            if name.starts_with("par.") {
                *v = v.wrapping_mul(17).wrapping_add(3);
            }
        }
        assert!(diff(&a, &b, DiffOpts::default()).is_empty());
        // Dropping them entirely is fine too (a 1-thread rerun).
        let mut c = a.clone();
        c.counters.retain(|(n, _)| !n.starts_with("par."));
        assert!(diff(&a, &c, DiffOpts::default()).is_empty());
    }

    #[test]
    fn histogram_distribution_changes_are_findings() {
        let a = sample();
        let mut b = a.clone();
        b.histograms[0].sum += 1;
        assert!(diff(&a, &b, DiffOpts::default())
            .iter()
            .any(|f| f.contains("test.dist.values")));
        let mut c = a.clone();
        c.histograms.clear();
        let findings = diff(&a, &c, DiffOpts::default());
        assert!(
            findings.iter().any(|f| f.contains("missing")),
            "{findings:?}"
        );
    }

    #[test]
    fn span_count_changes_fail_but_duration_noise_does_not() {
        let a = sample();
        let mut b = a.clone();
        for p in &mut b.profile {
            p.total_ns = p.total_ns.wrapping_mul(3) + 5; // < threshold or < min_dur
        }
        assert!(diff(&a, &b, DiffOpts::default()).is_empty());
        let mut c = a.clone();
        c.profile[0].count += 1;
        assert!(diff(&a, &c, DiffOpts::default())
            .iter()
            .any(|f| f.contains("count changed")));
    }

    #[test]
    fn large_duration_drift_is_gated_by_the_ratio() {
        let a = sample();
        let mut b = a.clone();
        // Push both sides over min_dur_ns with a >5x ratio.
        let mut a2 = a.clone();
        a2.profile[0].total_ns = 2_000_000;
        b.profile[0].total_ns = 50_000_000;
        let findings = diff(&a2, &b, DiffOpts::default());
        assert!(
            findings.iter().any(|f| f.contains("drifted past")),
            "{findings:?}"
        );
        // Same magnitudes pass a looser threshold.
        let loose = DiffOpts {
            dur_threshold: 100.0,
            ..DiffOpts::default()
        };
        assert!(diff(&a2, &b, loose).is_empty());
    }

    #[test]
    fn profile_shape_changes_are_findings() {
        let a = sample();
        let mut b = a.clone();
        b.profile.retain(|p| !p.path.contains("inner"));
        let findings = diff(&a, &b, DiffOpts::default());
        assert!(
            findings
                .iter()
                .any(|f| f.contains("report.outer.run>report.inner.run") && f.contains("missing")),
            "{findings:?}"
        );
    }

    #[test]
    fn report_renders_tree_utilization_and_quantiles() {
        let snap = sample();
        let report = render_report("unit", &snap, 10);
        assert!(report.contains("run `unit`"), "{report}");
        assert!(report.contains("report.outer.run"), "{report}");
        assert!(
            report.contains("  report.inner.run"),
            "tree indents:\n{report}"
        );
        assert!(report.contains("worker  0"), "{report}");
        assert!(report.contains("75.0%"), "{report}");
        assert!(report.contains("p95"), "{report}");
    }

    #[test]
    fn unstable_classification_is_prefix_and_suffix_based() {
        assert!(is_unstable("par.worker.3.tasks"));
        assert!(is_unstable("storage.decode.busy_ns"));
        assert!(!is_unstable("core.flips.injected"));
        assert!(!is_unstable("storage.bch.clean"));
    }
}
