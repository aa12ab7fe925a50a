//! The per-layer ledger: what a traced phase's registry says about each
//! layer. The benchmark wraps each call into the program in a span named
//! `bench.<layer>`; spans the program opens inside a call nest under it
//! and belong to that layer.

use vapp_obs::Snapshot;

/// Prefix of the benchmark's own spans.
pub const BENCH_PREFIX: &str = "bench.";

/// A traced phase: its registry snapshot plus what the workload timed.
pub struct Ledger {
    snap: Snapshot,
    /// Ops completed in the traced phase.
    ops: u64,
    /// Nanoseconds of the traced phase spent in timed program calls.
    timed_ns: u64,
}

impl Ledger {
    /// Wraps a traced phase's snapshot.
    pub fn new(snap: Snapshot, ops: u64, timed_ns: u64) -> Self {
        Ledger {
            snap,
            ops,
            timed_ns,
        }
    }

    /// Self time of benchmark layer span `name` in nanoseconds: the
    /// total of every path ending in `name` (whatever bench span it sits
    /// under) minus the benchmark spans directly below it. Program spans
    /// below it count as the layer's own work.
    pub fn self_ns(&self, name: &str) -> u64 {
        self.snap
            .profile
            .iter()
            .filter(|e| e.name() == name)
            .map(|e| {
                let children: u64 = self
                    .snap
                    .profile
                    .iter()
                    .filter(|c| c.parent() == Some(e.path.as_str()))
                    .filter(|c| c.name().starts_with(BENCH_PREFIX))
                    .map(|c| c.total_ns)
                    .sum();
                e.total_ns.saturating_sub(children)
            })
            .sum()
    }

    /// Instances of benchmark layer span `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.snap
            .profile
            .iter()
            .filter(|e| e.name() == name)
            .map(|e| e.count)
            .sum()
    }

    /// Self time of layer `name` per op, in milliseconds.
    pub fn ms_per_op(&self, name: &str) -> f64 {
        per(self.self_ns(name) as f64 / 1e6, self.ops as f64)
    }

    /// Mean time per call of layer `name`, in `unit_ns` units.
    pub fn per_call(&self, name: &str, unit_ns: f64) -> f64 {
        per(self.self_ns(name) as f64 / unit_ns, self.calls(name) as f64)
    }

    /// Share of timed program time outside every benchmark layer span,
    /// in per cent.
    pub fn unattributed_pct(&self) -> f64 {
        let layers: u64 = self
            .snap
            .profile
            .iter()
            .filter(|e| e.depth() == 1 && e.name().starts_with(BENCH_PREFIX))
            .map(|e| e.total_ns)
            .sum();
        100.0
            * per(
                self.timed_ns.saturating_sub(layers) as f64,
                self.timed_ns as f64,
            )
    }

    /// Span closes the program itself recorded, per op.
    pub fn program_spans_per_op(&self) -> f64 {
        let closes: u64 = self
            .snap
            .profile
            .iter()
            .filter(|e| !e.name().starts_with(BENCH_PREFIX))
            .map(|e| e.count)
            .sum();
        per(closes as f64, self.ops as f64)
    }

    /// A counter's value in the traced phase.
    pub fn counter(&self, name: &str) -> u64 {
        self.snap.counter(name)
    }

    /// Sum of every counter whose name starts with `prefix` and ends
    /// with `suffix`.
    pub fn counter_sum(&self, prefix: &str, suffix: &str) -> u64 {
        self.snap
            .counters
            .iter()
            .filter(|(n, _)| n.starts_with(prefix) && n.ends_with(suffix))
            .map(|(_, v)| *v)
            .sum()
    }

    /// Median of histogram `name` divided by `unit_ns`; 0 if unrecorded.
    pub fn p50(&self, name: &str, unit_ns: f64) -> f64 {
        self.snap
            .histogram(name)
            .filter(|h| h.count > 0)
            .map_or(0.0, |h| h.quantile(0.5) / unit_ns)
    }

    /// Busy share of the `vapp-par` workers across every fanned-out
    /// region; 0 when nothing fanned out (one worker).
    pub fn par_busy_frac(&self) -> f64 {
        let busy = self.counter_sum("par.worker.", ".busy_ns");
        let idle = self.counter_sum("par.worker.", ".idle_ns");
        per(busy as f64, (busy + idle) as f64)
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn per(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vapp_obs::registry::{with_registry, Registry};

    #[test]
    fn layer_self_time_excludes_bench_children_only() {
        let reg = Arc::new(Registry::new());
        with_registry(reg.clone(), || {
            for _ in 0..3 {
                let _outer = vapp_obs::span!("bench.outer");
                {
                    let _inner = vapp_obs::span!("bench.inner");
                    let _program = vapp_obs::span!("codec.work");
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        });
        let snap = reg.snapshot();
        let outer_total = snap.profile_path("bench.outer").expect("outer").total_ns;
        let inner_total = snap
            .profile_path("bench.outer>bench.inner")
            .expect("inner")
            .total_ns;
        let ledger = Ledger::new(snap, 3, outer_total);
        assert_eq!(ledger.self_ns("bench.outer"), outer_total - inner_total);
        // The program span nested in `bench.inner` stays part of it.
        assert_eq!(ledger.self_ns("bench.inner"), inner_total);
        assert_eq!(ledger.calls("bench.inner"), 3);
        assert_eq!(ledger.program_spans_per_op(), 1.0);
        assert!(ledger.unattributed_pct().abs() < 1e-9);
    }
}
