//! The archive report: throughput + per-op-class latency quantiles.
//!
//! Renders a fleet run's outcome and its `vapp-obs` snapshot as the
//! fixed-width table the CLI (`vapp archive`) prints. Latency quantiles
//! come straight from the mergeable sketches behind
//! `archive.op.<class>.ns`.

use vapp_obs::snapshot::{HistogramSnapshot, Snapshot};

use crate::fleet::FleetOutcome;

/// Latency classes the service records, in report order.
const OP_CLASSES: [&str; 4] = ["ingest", "read_hit", "read_miss", "delete"];

/// Samples that must lie beyond a tail quantile for it to be printed:
/// with fewer, p99 and p999 only restate the slowest few samples.
const MIN_TAIL_SAMPLES: u64 = 10;

/// The quantile `permille`/1000 of `h`, or `-` when fewer than
/// [`MIN_TAIL_SAMPLES`] samples lie beyond it (p99 needs 1,000 samples,
/// p999 10,000).
fn tail_cell(h: &HistogramSnapshot, permille: u64) -> String {
    if h.count * (1000 - permille) / 1000 < MIN_TAIL_SAMPLES {
        "-".into()
    } else {
        fmt_ns(h.quantile(permille as f64 / 1000.0))
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

/// Renders the archive report table from a fleet outcome and the obs
/// snapshot taken after the run.
pub fn render(outcome: &FleetOutcome, snap: &Snapshot) -> String {
    let mut out = String::new();
    let secs = outcome.elapsed.as_secs_f64().max(1e-9);
    out.push_str(&format!(
        "archive fleet: {} completed / {} submitted ({} rejected) in {:.2}s — {:.0} req/s\n",
        outcome.completed,
        outcome.submitted,
        outcome.rejected,
        secs,
        outcome.completed as f64 / secs,
    ));
    out.push_str(&format!(
        "reads served {}  cache {}/{} hit/miss ({} evictions)  degraded {}  ingested {}  deleted {}  compactions {}\n",
        outcome.reads_served,
        outcome.cache_hits,
        outcome.cache_misses,
        outcome.cache_evictions,
        outcome.degraded,
        outcome.ingested,
        outcome.deleted,
        outcome.compaction_runs,
    ));
    out.push_str(&format!("digest 0x{:016x}\n\n", outcome.digest));

    let widths = [10, 10, 10, 10, 10];
    let header = ["op", "count", "p50", "p99", "p999"];
    for (h, w) in header.iter().zip(widths) {
        out.push_str(&format!("{h:<w$}"));
    }
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>()));
    out.push('\n');
    for class in OP_CLASSES {
        let name = format!("archive.op.{class}.ns");
        let (count, p50, p99, p999) = match snap.histogram(&name) {
            Some(h) => (
                h.count,
                fmt_ns(h.quantile(0.50)),
                tail_cell(h, 990),
                tail_cell(h, 999),
            ),
            None => (0, "-".into(), "-".into(), "-".into()),
        };
        let cells = [class.to_string(), count.to_string(), p50, p99, p999];
        for (cell, w) in cells.iter().zip(widths) {
            out.push_str(&format!("{cell:<w$}"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vapp_obs::sketch::Sketch;

    fn histogram(count: u64) -> HistogramSnapshot {
        let mut sketch = Sketch::new();
        sketch.record_n(1_000, count - 1);
        sketch.record(300_000); // one slow outlier
        HistogramSnapshot {
            name: "archive.op.read_miss.ns".into(),
            count,
            sum: sketch.sum(),
            min: sketch.min(),
            max: 300_000,
            sketch,
        }
    }

    #[test]
    fn tail_quantiles_need_ten_samples_beyond_them() {
        // One sample short of ten beyond the quantile: not printed.
        assert_eq!(tail_cell(&histogram(999), 990), "-");
        assert_eq!(tail_cell(&histogram(9_999), 999), "-");
        // Exactly ten beyond: printed, and no longer the lone outlier.
        for (count, permille) in [(1_000, 990), (10_000, 999)] {
            let h = histogram(count);
            let q = h.quantile(permille as f64 / 1000.0);
            assert!(q < 2_000.0, "n={count}: {q} ns is the outlier");
            assert_eq!(tail_cell(&h, permille), fmt_ns(q));
        }
    }
}
