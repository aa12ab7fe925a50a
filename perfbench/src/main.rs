//! `perfbench --workload <ingest|mc_trial|archive> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then as its last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer ledger with `--trace 1`.
//!
//! `perfbench --selfcheck --workload <w> --seed <n>` runs the workload's
//! deterministic checkpoint twice at the seed and once at the next seed,
//! and fails unless the first two agree and the third differs.

use std::process::ExitCode;

use perfbench::catalog::{unit_of, END_TO_END, PER_LAYER};
use perfbench::stats::{nproc, peak_rss_mib};
use perfbench::{archive, ingest, mc_trial, Checkpoint, Outcome, RunCfg};
use vapp_obs::json::{escape, fmt_f64};

const USAGE: &str = "usage: perfbench --workload <ingest|mc_trial|archive> --seed <n> \
                     --seconds <s> --trace <0|1> | --selfcheck --workload <w> --seed <n>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        selfcheck: false,
    };
    while let Some(flag) = it.next() {
        if flag == "--selfcheck" {
            args.selfcheck = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("expected seconds"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn checkpoint(workload: &str, seed: u64) -> Option<Checkpoint> {
    match workload {
        "ingest" => Some(ingest::checkpoint(seed)),
        "mc_trial" => Some(mc_trial::checkpoint(seed)),
        "archive" => Some(archive::checkpoint(seed)),
        _ => None,
    }
}

fn print_checkpoint(label: &str, ck: &Checkpoint) {
    let values: Vec<String> = ck.values.iter().map(|(n, v)| format!("{n}={v}")).collect();
    println!("{label}: digest={:#018x} {}", ck.digest, values.join(" "));
}

fn selfcheck(workload: &str, seed: u64) -> ExitCode {
    let (Some(a), Some(b), Some(c)) = (
        checkpoint(workload, seed),
        checkpoint(workload, seed),
        checkpoint(workload, seed.wrapping_add(1)),
    ) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    print_checkpoint(&format!("seed {seed}, first run"), &a);
    print_checkpoint(&format!("seed {seed}, second run"), &b);
    print_checkpoint(&format!("seed {}", seed.wrapping_add(1)), &c);
    let same = a == b;
    let differs = a.digest != c.digest;
    println!("repeatable at one seed: {same}; digest changes with the seed: {differs}");
    if same && differs {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The last line: the result object the benchmark contract asks for.
fn result_json(out: &Outcome, trace: bool) -> Result<String, String> {
    let list = if trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(list.len());
    for &(name, unit) in list {
        // A layer that does no work in this workload reports 0; every
        // end-to-end metric must have been measured.
        let value = match out.values.get(name) {
            Some(v) => *v,
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            escape(name),
            fmt_f64(value),
            escape(unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.selfcheck {
        return selfcheck(&args.workload, args.seed);
    }
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let mut out = match args.workload.as_str() {
        "ingest" => ingest::run(&cfg),
        "mc_trial" => mc_trial::run(&cfg),
        "archive" => archive::run(&cfg),
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match peak_rss_mib() {
        Some(mib) => out.set("peak_rss_mib", mib),
        None => out.check(false, "peak RSS readable from /proc/self/status"),
    }
    out.set("bench.speed_factor", perfbench::calib::median_factor());
    out.set(
        "failed_frac",
        perfbench::ledger::per(out.failed as f64, out.attempted as f64),
    );

    println!(
        "perfbench {} seed={} seconds={} trace={} nproc={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc()
    );
    for note in &out.notes {
        println!("  {note}");
    }
    print_checkpoint("  checkpoint", &out.checkpoint);
    for (name, value) in &out.values {
        println!("  {name:<36} {value:>14.6} {}", unit_of(name).unwrap_or(""));
    }
    for f in &out.run_failures {
        println!("  CHECK FAILED: {f}");
    }
    println!(
        "  checks: attempted={} failed={} correct={}",
        out.attempted,
        out.failed,
        out.correct()
    );
    match result_json(&out, args.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
