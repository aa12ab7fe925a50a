//! Deterministic data parallelism on `std::thread::scope`.
//!
//! [`par_map`] is the one primitive: order-preserving, panic-propagating,
//! and — because the units it runs are seeded with sub-seeds derived
//! *up front* — its results are a pure function of the inputs,
//! byte-identical at any worker count. Parallelism here changes
//! wall-clock only, never output; the tier-1 determinism tests lock that
//! invariant in.
//!
//! # Where regions open
//!
//! At the unit of work — a clip, a Monte Carlo trial, a B-frame wave —
//! never inside a stage: a region spawns its workers afresh, which costs
//! more than a stage such as a stream split takes. DESIGN.md §8 lists
//! the regions and their cost.
//!
//! # Worker count
//!
//! Resolution order (first match wins):
//!
//! 1. a [`with_threads`] scope on the calling thread (tests, scaling
//!    benches);
//! 2. a process-wide [`set_threads`] override (the `vapp --threads`
//!    flag);
//! 3. the `VAPP_THREADS` environment variable (read once; invalid or
//!    `0` means "auto");
//! 4. [`std::thread::available_parallelism`].
//!
//! A resolved count of `1` disables spawning entirely — the closure runs
//! inline on the caller, so single-threaded runs have zero threading
//! overhead and identical stack traces.
//!
//! # Observability inheritance
//!
//! Workers install the parent thread's current scoped registry
//! ([`vapp_obs::registry::with_registry`]) before running any unit, so
//! counters and spans recorded inside a parallel region land in the same
//! registry the caller sees — `vapp-check` cases and test-local
//! registries keep working. Workers also install the caller's open-span
//! path as a prefix ([`vapp_obs::span::with_path_prefix`]), so spans
//! opened inside a unit fold into the spawning span's subtree and the
//! call-path profile is identical at any thread count. Counter totals
//! are thread-count-invariant (atomics commute); only span timeline
//! *order* may vary.
//!
//! When a region actually fans out, each worker additionally records
//! utilization counters — `par.worker.<w>.tasks` (units claimed),
//! `par.worker.<w>.busy_ns` (time inside units) and
//! `par.worker.<w>.idle_ns` (region wall minus busy) — read back by
//! [`worker_utilization`] for `obs_report` and `scaling_check --obs`.
//! These are wall-clock-derived and scheduling-dependent, so snapshot
//! diffing treats the `par.` namespace as unstable; none are recorded on
//! the inline (1-worker) path.
//!
//! # Nesting
//!
//! A `par_map` issued from inside a worker runs sequentially: the outer
//! fan-out already owns the cores, and nested spawning would oversubscribe
//! without changing any result (by the determinism invariant above).

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

thread_local! {
    /// Scoped override installed by [`with_threads`].
    static SCOPED_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
    /// Set inside workers so nested parallel calls run inline.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Process-wide override (0 = unset). Set by the `vapp --threads` flag.
static PROCESS_THREADS: AtomicUsize = AtomicUsize::new(0);

/// `VAPP_THREADS`, parsed once. `None` when unset, empty, invalid or `0`.
fn env_threads() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("VAPP_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
    })
}

/// Hardware parallelism, defaulting to 1 when unknown. Cached on first
/// use: `available_parallelism` re-reads affinity masks and cgroup
/// quotas on every call (microseconds of syscalls and /sys reads), which
/// used to tax every parallel region entered with no explicit override.
pub fn available() -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Sets (or with `None` clears) the process-wide worker-count override.
pub fn set_threads(n: Option<usize>) {
    PROCESS_THREADS.store(n.unwrap_or(0), Ordering::Relaxed);
}

/// Runs `f` with the worker count pinned to `n` on this thread (and any
/// parallel region it opens). Scopes nest; the innermost wins.
pub fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPED_THREADS.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(SCOPED_THREADS.with(|c| c.replace(Some(n.max(1)))));
    f()
}

/// The worker count a parallel region opened here would use.
pub fn effective_threads() -> usize {
    if let Some(n) = SCOPED_THREADS.with(Cell::get) {
        return n.max(1);
    }
    let p = PROCESS_THREADS.load(Ordering::Relaxed);
    if p > 0 {
        return p;
    }
    env_threads().unwrap_or_else(available)
}

/// Maps `f` over `items` on up to [`effective_threads`] workers,
/// returning results in input order. `f` receives the item's index and
/// the item. Workers inherit the caller's current obs registry; a panic
/// in any unit aborts the region and is re-raised on the caller with its
/// original payload.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let workers = effective_threads().min(n);
    if workers <= 1 || IN_WORKER.with(Cell::get) {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }

    let reg = vapp_obs::current();
    // Captured on the caller so worker-side spans fold into the spawning
    // span's subtree (profile paths thread-count invariant).
    let prefix = vapp_obs::span::current_path_parts();
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let poisoned = AtomicBool::new(false);
    let panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

    std::thread::scope(|s| {
        for w in 0..workers {
            let reg = reg.clone();
            let prefix = &prefix;
            let slots = &slots;
            let results = &results;
            let cursor = &cursor;
            let poisoned = &poisoned;
            let panic_payload = &panic_payload;
            let f = &f;
            s.spawn(move || {
                vapp_obs::registry::with_registry(reg, || {
                    vapp_obs::span::with_path_prefix(prefix, || {
                        IN_WORKER.with(|c| c.set(true));
                        let region_start = std::time::Instant::now();
                        let mut tasks: u64 = 0;
                        let mut busy_ns: u64 = 0;
                        loop {
                            if poisoned.load(Ordering::Relaxed) {
                                break;
                            }
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= slots.len() {
                                break;
                            }
                            let item = slots[i]
                                .lock()
                                .expect("item slot lock")
                                .take()
                                .expect("each item is claimed exactly once");
                            tasks += 1;
                            let unit_start = std::time::Instant::now();
                            let outcome = catch_unwind(AssertUnwindSafe(|| f(i, item)));
                            busy_ns =
                                busy_ns.saturating_add(unit_start.elapsed().as_nanos() as u64);
                            match outcome {
                                Ok(r) => *results[i].lock().expect("result slot lock") = Some(r),
                                Err(p) => {
                                    poisoned.store(true, Ordering::Relaxed);
                                    let mut first = panic_payload.lock().expect("panic slot lock");
                                    if first.is_none() {
                                        *first = Some(p);
                                    }
                                    break;
                                }
                            }
                        }
                        let wall_ns = region_start.elapsed().as_nanos() as u64;
                        let r = vapp_obs::current();
                        r.counter(&format!("par.worker.{w}.tasks")).add(tasks);
                        r.counter(&format!("par.worker.{w}.busy_ns")).add(busy_ns);
                        r.counter(&format!("par.worker.{w}.idle_ns"))
                            .add(wall_ns.saturating_sub(busy_ns));
                    });
                });
            });
        }
    });

    if let Some(p) = panic_payload.into_inner().expect("panic slot lock") {
        resume_unwind(p);
    }
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot lock")
                .expect("every unit produced a result")
        })
        .collect()
}

/// One worker's utilization, read from the `par.worker.<w>.*` counters
/// [`par_map`] records when a region fans out.
#[derive(Debug, PartialEq)]
pub struct WorkerUtil {
    pub worker: usize,
    pub tasks: u64,
    pub busy_ns: u64,
    pub idle_ns: u64,
}

impl WorkerUtil {
    /// Busy share of the worker's region wall time (0 when it has none).
    pub fn busy_fraction(&self) -> f64 {
        let wall = self.busy_ns + self.idle_ns;
        if wall == 0 {
            0.0
        } else {
            self.busy_ns as f64 / wall as f64
        }
    }
}

/// Extracts per-worker utilization rows from a snapshot's counters,
/// sorted by worker index (non-numeric worker ids are skipped).
pub fn worker_utilization(snap: &vapp_obs::Snapshot) -> Vec<WorkerUtil> {
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

/// Renders the utilization table, one line per worker (empty string when
/// there are no rows, e.g. a single-threaded run).
pub fn render_utilization(utils: &[WorkerUtil]) -> String {
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn par_map_preserves_order_at_any_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1, 2, 3, 8] {
            let got = with_threads(threads, || {
                par_map(items.clone(), |i, x| {
                    assert_eq!(i as u64, x);
                    x * x + 1
                })
            });
            assert_eq!(got, expect, "threads {threads}");
        }
    }

    #[test]
    fn panic_payload_propagates() {
        let caught = std::panic::catch_unwind(|| {
            with_threads(4, || {
                par_map((0..64).collect::<Vec<u32>>(), |_, x| {
                    assert!(x != 17, "unit seventeen exploded");
                    x
                })
            })
        });
        let payload = caught.expect_err("must panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("seventeen"), "payload lost: {msg}");
    }

    #[test]
    fn workers_inherit_scoped_registry() {
        let reg = Arc::new(vapp_obs::Registry::new());
        vapp_obs::registry::with_registry(reg.clone(), || {
            with_threads(4, || {
                par_map((0..40).collect::<Vec<u32>>(), |_, _| {
                    vapp_obs::current().counter("par.test.units").add(1);
                })
            });
        });
        assert_eq!(reg.counter("par.test.units").get(), 40);
        // The parallel region recorded into the scoped registry, not the
        // global one.
        assert_eq!(vapp_obs::global().counter("par.test.units").get(), 0);
    }

    #[test]
    fn worker_spans_fold_into_the_callers_subtree() {
        let reg = Arc::new(vapp_obs::Registry::new());
        vapp_obs::registry::with_registry(reg.clone(), || {
            let _outer = vapp_obs::span!("par.test.region");
            with_threads(4, || {
                par_map((0..12).collect::<Vec<u32>>(), |_, _| {
                    let _s = vapp_obs::span!("par.test.unit");
                })
            });
        });
        let snap = reg.snapshot();
        let unit = snap
            .profile
            .iter()
            .find(|p| p.path == "par.test.region>par.test.unit")
            .expect("worker span nests under the caller's open span");
        assert_eq!(unit.count, 12);
        // No stray root-level `par.test.unit` path from worker threads.
        assert!(!snap.profile.iter().any(|p| p.path == "par.test.unit"));
    }

    #[test]
    fn fanned_out_regions_record_worker_utilization() {
        let reg = Arc::new(vapp_obs::Registry::new());
        vapp_obs::registry::with_registry(reg.clone(), || {
            with_threads(4, || {
                par_map((0..32).collect::<Vec<u32>>(), |_, _| {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                })
            });
        });
        let snap = reg.snapshot();
        let tasks: u64 = (0..4)
            .map(|w| snap.counter(&format!("par.worker.{w}.tasks")))
            .sum();
        assert_eq!(tasks, 32, "every unit claimed exactly once");
        let busy: u64 = (0..4)
            .map(|w| snap.counter(&format!("par.worker.{w}.busy_ns")))
            .sum();
        // 32 units × ≥200 µs of sleep is a hard lower bound on busy time.
        assert!(busy >= 32 * 200_000, "busy {busy} ns too small");
        for w in 0..4 {
            assert!(snap
                .counters
                .iter()
                .any(|(n, _)| *n == format!("par.worker.{w}.idle_ns")));
        }
    }

    #[test]
    fn inline_regions_record_no_worker_counters() {
        let reg = Arc::new(vapp_obs::Registry::new());
        vapp_obs::registry::with_registry(reg.clone(), || {
            with_threads(1, || par_map((0..8).collect::<Vec<u32>>(), |_, x| x * 2));
        });
        let snap = reg.snapshot();
        assert!(
            !snap
                .counters
                .iter()
                .any(|(n, _)| n.starts_with("par.worker.")),
            "inline path must stay utilization-free: {:?}",
            snap.counters
        );
    }

    #[test]
    fn nested_par_map_runs_inline_and_stays_correct() {
        let got = with_threads(4, || {
            par_map((0..8u64).collect::<Vec<_>>(), |_, outer| {
                par_map((0..8u64).collect::<Vec<_>>(), |_, inner| outer * 10 + inner)
                    .into_iter()
                    .sum::<u64>()
            })
        });
        let expect: Vec<u64> = (0..8).map(|o| (0..8).map(|i| o * 10 + i).sum()).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn thread_count_resolution_order() {
        set_threads(Some(3));
        assert_eq!(effective_threads(), 3);
        // A scope beats the process override.
        with_threads(5, || assert_eq!(effective_threads(), 5));
        assert_eq!(effective_threads(), 3);
        set_threads(None);
        assert!(effective_threads() >= 1);
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(empty, |_, x: u32| x).is_empty());
        assert_eq!(
            with_threads(8, || par_map(vec![9], |i, x| (i, x))),
            vec![(0, 9)]
        );
    }

    #[test]
    fn worker_utilization_reads_counters_and_renders_fractions() {
        let snap = vapp_obs::Snapshot {
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
            ..vapp_obs::Snapshot::default()
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
        assert!(worker_utilization(&vapp_obs::Snapshot::default()).is_empty());
        assert_eq!(render_utilization(&[]), "");
    }
}
