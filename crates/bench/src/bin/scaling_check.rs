//! Asserts the parallel layer actually scales, from a finished bench run.
//!
//! ```text
//! scaling_check BENCH_parallel.json [--min-speedup 1.5] [--cores N] [--obs OBS.json]
//! ```
//!
//! Reads the `parallel` bench group emitted by `benches/parallel.rs` and
//! requires `loss_curve_w4` to beat `loss_curve_w1` by at least the
//! minimum speedup. The workloads are byte-identical by the vapp-par
//! determinism invariant, so the ratio of their medians is a pure
//! scaling measurement.
//!
//! With `--obs OBS_parallel.json` (an obs snapshot from the same run,
//! e.g. via `VAPP_OBS_OUT`), the per-worker `par.worker.<w>.busy_ns` /
//! `idle_ns` utilization counters are rendered as busy fractions, and a
//! failing gate says *why* scaling fell short — workers starved for
//! tasks (low busy fraction) look very different from workers saturated
//! by an inherently serial stage.
//!
//! On a host with fewer than 4 cores the 4-worker lane cannot physically
//! fan out, so a shortfall there is reported as a `::warning::`
//! annotation instead of a failure — the gate only binds where the
//! hardware can satisfy it. `--cores` overrides the detected count
//! (used by the tests; CI relies on detection).

use std::process::ExitCode;
use vapp_bench::harness::load_medians;
use vapp_obs::Snapshot;

/// One worker's utilization, read from the `par.worker.<w>.*` counters.
#[derive(Debug, PartialEq)]
struct WorkerUtil {
    worker: usize,
    tasks: u64,
    busy_ns: u64,
    idle_ns: u64,
}

impl WorkerUtil {
    fn busy_fraction(&self) -> f64 {
        let wall = self.busy_ns + self.idle_ns;
        if wall == 0 {
            0.0
        } else {
            self.busy_ns as f64 / wall as f64
        }
    }
}

/// Extracts per-worker utilization rows from a snapshot's counters.
fn worker_utilization(snap: &Snapshot) -> Vec<WorkerUtil> {
    let mut out = Vec::new();
    for (name, tasks) in &snap.counters {
        let Some(rest) = name.strip_prefix("par.worker.") else {
            continue;
        };
        let Some(w) = rest.strip_suffix(".tasks") else {
            continue;
        };
        let Ok(worker) = w.parse::<usize>() else {
            continue;
        };
        out.push(WorkerUtil {
            worker,
            tasks: *tasks,
            busy_ns: snap.counter(&format!("par.worker.{worker}.busy_ns")),
            idle_ns: snap.counter(&format!("par.worker.{worker}.idle_ns")),
        });
    }
    out.sort_by_key(|u| u.worker);
    out
}

/// Renders the utilization table (empty string when the snapshot has no
/// worker counters, e.g. a single-threaded run).
fn render_utilization(utils: &[WorkerUtil]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for u in utils {
        let _ = writeln!(
            out,
            "  worker {:>2}: {:>6} tasks, busy {:>6.1}% ({:.1} ms busy / {:.1} ms idle)",
            u.worker,
            u.tasks,
            100.0 * u.busy_fraction(),
            u.busy_ns as f64 / 1e6,
            u.idle_ns as f64 / 1e6,
        );
    }
    out
}

/// How the scaling assertion resolved.
#[derive(Debug, PartialEq)]
enum Outcome {
    /// Speedup met the bar (or the host has enough cores and it passed).
    Pass { speedup: f64 },
    /// Speedup below the bar, but the host cannot run 4 workers in
    /// parallel — reported, not enforced.
    SoftPass { speedup: f64, cores: usize },
}

/// Evaluates w1-vs-w4 scaling from the bench medians. Fails hard only
/// when the host has at least 4 cores and the speedup is below the bar.
fn evaluate(medians: &[(String, f64)], min_speedup: f64, cores: usize) -> Result<Outcome, String> {
    let find = |name: &str| -> Result<f64, String> {
        medians
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, m)| *m)
            .ok_or_else(|| format!("bench `{name}` not found in the parallel group"))
    };
    let w1 = find("loss_curve_w1")?;
    let w4 = find("loss_curve_w4")?;
    if w4 <= 0.0 {
        return Err(format!("loss_curve_w4 median is not positive ({w4})"));
    }
    let speedup = w1 / w4;
    if speedup >= min_speedup {
        Ok(Outcome::Pass { speedup })
    } else if cores < 4 {
        Ok(Outcome::SoftPass { speedup, cores })
    } else {
        Err(format!(
            "parallel scaling regressed: loss_curve speedup at 4 workers is \
             {speedup:.2}x (w1 {w1:.0} ns / w4 {w4:.0} ns), required >= \
             {min_speedup:.2}x on this {cores}-core host"
        ))
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut min_speedup = 1.5f64;
    let mut cores = None;
    let mut obs_path = None;
    let mut paths = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--min-speedup" {
            min_speedup = it
                .next()
                .ok_or("--min-speedup needs a value")?
                .parse()
                .map_err(|_| "--min-speedup: invalid value".to_string())?;
        } else if a == "--cores" {
            cores = Some(
                it.next()
                    .ok_or("--cores needs a value")?
                    .parse()
                    .map_err(|_| "--cores: invalid value".to_string())?,
            );
        } else if a == "--obs" {
            obs_path = Some(it.next().ok_or("--obs needs a path")?);
        } else {
            paths.push(a);
        }
    }
    let [path] = paths.as_slice() else {
        return Err(
            "usage: scaling_check BENCH_parallel.json [--min-speedup 1.5] [--cores N] \
             [--obs OBS.json]"
                .into(),
        );
    };
    let cores = cores.unwrap_or_else(vapp_par::available);
    let medians = load_medians(path)?;
    let utilization = match &obs_path {
        Some(p) => {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
            let (_, snap) = Snapshot::from_json(&text).map_err(|e| format!("{p}: {e}"))?;
            let utils = worker_utilization(&snap);
            if utils.is_empty() {
                println!("scaling_check: {p} has no par.worker.* counters (single-threaded run?)");
            } else {
                println!("scaling_check: worker utilization from {p}:");
                print!("{}", render_utilization(&utils));
            }
            render_utilization(&utils)
        }
        None => String::new(),
    };
    match evaluate(&medians, min_speedup, cores).map_err(|e| {
        if utilization.is_empty() {
            e
        } else {
            format!("{e}\nworker utilization for this run:\n{utilization}")
        }
    })? {
        Outcome::Pass { speedup } => {
            println!(
                "scaling_check: 4-worker speedup {speedup:.2}x >= {min_speedup:.2}x \
                 ({cores} cores) — ok"
            );
        }
        Outcome::SoftPass { speedup, cores } => {
            // GitHub annotation syntax: visible in the job summary without
            // failing the run.
            println!(
                "::warning::scaling_check: 4-worker speedup {speedup:.2}x is below \
                 {min_speedup:.2}x, but this host has only {cores} cores — \
                 not enforced (needs >= 4 cores to bind)"
            );
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("scaling_check: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn medians(w1: f64, w4: f64) -> Vec<(String, f64)> {
        vec![
            ("loss_curve_w1".to_string(), w1),
            ("loss_curve_w2".to_string(), (w1 + w4) / 2.0),
            ("loss_curve_w4".to_string(), w4),
            ("loss_curve_w8".to_string(), w4),
        ]
    }

    #[test]
    fn good_scaling_passes() {
        let out = evaluate(&medians(1000.0, 400.0), 1.5, 8).expect("pass");
        match out {
            Outcome::Pass { speedup } => assert!((speedup - 2.5).abs() < 1e-12),
            other => panic!("expected Pass, got {other:?}"),
        }
    }

    #[test]
    fn poor_scaling_fails_on_a_big_host() {
        let err = evaluate(&medians(1000.0, 900.0), 1.5, 8).expect_err("must fail");
        assert!(err.contains("regressed"), "{err}");
        assert!(err.contains("1.11x"), "reports the measured speedup: {err}");
    }

    #[test]
    fn poor_scaling_soft_passes_on_a_small_host() {
        let out = evaluate(&medians(1000.0, 900.0), 1.5, 2).expect("soft pass");
        match out {
            Outcome::SoftPass { speedup, cores } => {
                assert!((speedup - 1000.0 / 900.0).abs() < 1e-12);
                assert_eq!(cores, 2);
            }
            other => panic!("expected SoftPass, got {other:?}"),
        }
    }

    #[test]
    fn good_scaling_on_a_small_host_is_a_plain_pass() {
        // A 2-core box that still clears the bar (e.g. SMT) passes
        // normally — the soft path is only for shortfalls.
        let out = evaluate(&medians(1000.0, 500.0), 1.5, 2).expect("pass");
        assert!(matches!(out, Outcome::Pass { .. }));
    }

    #[test]
    fn missing_lanes_are_an_error() {
        let only_w1 = vec![("loss_curve_w1".to_string(), 1000.0)];
        let err = evaluate(&only_w1, 1.5, 8).expect_err("must fail");
        assert!(err.contains("loss_curve_w4"), "{err}");
    }

    #[test]
    fn worker_utilization_reads_counters_and_renders_fractions() {
        let snap = Snapshot {
            counters: vec![
                ("core.flips.injected".to_string(), 5),
                ("par.worker.0.busy_ns".to_string(), 3_000_000),
                ("par.worker.0.idle_ns".to_string(), 1_000_000),
                ("par.worker.0.tasks".to_string(), 12),
                ("par.worker.1.busy_ns".to_string(), 2_000_000),
                ("par.worker.1.idle_ns".to_string(), 2_000_000),
                ("par.worker.1.tasks".to_string(), 9),
                ("par.worker.bogus.tasks".to_string(), 1),
            ],
            ..Snapshot::default()
        };
        let utils = worker_utilization(&snap);
        assert_eq!(utils.len(), 2, "non-numeric worker ids are skipped");
        assert_eq!(utils[0].worker, 0);
        assert_eq!(utils[0].tasks, 12);
        assert!((utils[0].busy_fraction() - 0.75).abs() < 1e-12);
        assert!((utils[1].busy_fraction() - 0.50).abs() < 1e-12);
        let table = render_utilization(&utils);
        assert!(table.contains("worker  0"), "{table}");
        assert!(table.contains("75.0%"), "{table}");
        assert!(table.contains("12 tasks"), "{table}");
    }

    #[test]
    fn empty_snapshot_yields_no_utilization() {
        assert!(worker_utilization(&Snapshot::default()).is_empty());
        assert_eq!(render_utilization(&[]), "");
    }
}
