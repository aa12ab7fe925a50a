//! The metrics registry: named counters, histograms, the call-path
//! profile and the span timeline.
//!
//! Values are plain atomics — recording never blocks on other recorders.
//! The only locks are the name → handle maps (taken once per lookup;
//! hot loops should hoist the [`Counter`] / [`Histogram`] handle out of
//! the loop, see [`Registry::counter`]) and the one span lock over the
//! profile and the timeline (taken once per *span close*, which is
//! coarse by design).
//!
//! Lock poisoning is survivable by construction: a worker thread that
//! panics while a span guard is live drops that span during unwinding,
//! and the drop path must still be able to record — so every lock site
//! recovers the inner value with `unwrap_or_else(|e| e.into_inner())`
//! instead of cascading the panic into an abort. The maps hold only
//! monotonic aggregates, so a poisoned-then-recovered map is never
//! structurally torn.
//!
//! There is one process-global registry ([`global`]) plus a thread-local
//! override stack ([`with_registry`]) so tests and property-check cases
//! can observe their own isolated metrics while the rest of the process
//! keeps using the global one.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::profile::ProfileEntry;
use crate::sketch::{self, Sketch};
use crate::snapshot::{HistogramSnapshot, Snapshot};

/// Locks a mutex, recovering the guard if a panicking thread poisoned
/// it (see the module docs — observability must survive unwinding).
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A monotonic event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A histogram backed by the log-bucketed quantile sketch
/// ([`crate::sketch`]): γ = 2^(1/32) geometric buckets recorded as
/// atomics, plus exact count, sum, min and max. Snapshots carry the
/// sketch, which answers p50..p999.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: (0..sketch::SKETCH_BUCKETS)
                .map(|_| AtomicU64::new(0))
                .collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one value.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[sketch::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// The recorded distribution as a mergeable [`Sketch`].
    pub fn to_sketch(&self) -> Sketch {
        let count = self.count.load(Ordering::Relaxed);
        let sparse: Vec<(usize, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let c = c.load(Ordering::Relaxed);
                (c > 0).then_some((i, c))
            })
            .collect();
        Sketch::from_parts(
            &sparse,
            count,
            self.sum.load(Ordering::Relaxed),
            self.min.load(Ordering::Relaxed),
            self.max.load(Ordering::Relaxed),
        )
        .expect("atomic buckets are consistent with their own count")
    }

    fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let sketch = self.to_sketch();
        HistogramSnapshot {
            name: name.to_string(),
            count: sketch.count(),
            sum: sketch.sum(),
            min: sketch.min(),
            max: sketch.max(),
            sketch,
        }
    }
}

/// Aggregate statistics for one *call path* (the `>`-joined chain of
/// open span names, worker prefixes included — see
/// [`crate::span::with_path_prefix`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathStats {
    /// Completed instances of this exact path.
    pub count: u64,
    /// Total wall-clock time, nanoseconds.
    pub total_ns: u64,
    /// Fastest instance.
    pub min_ns: u64,
    /// Slowest instance.
    pub max_ns: u64,
}

impl Default for PathStats {
    fn default() -> Self {
        PathStats {
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }
}

/// One completed span on the timeline (an individual record, unlike the
/// call-path profile — this is what gives *per-frame* durations).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (`crate.noun.verb`).
    pub name: String,
    /// `name=value` fields captured at the [`crate::span!`] call site.
    pub fields: String,
    /// Nesting depth at completion time (1 = top level).
    pub depth: u32,
    /// Start offset from the registry's creation, in nanoseconds.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// Stable per-thread id ([`crate::span::current_tid`]; 1-based,
    /// assigned on first span close per thread) — the trace-event
    /// export's `tid`.
    pub tid: u64,
}

/// Timeline capacity. Beyond this, records are counted as dropped rather
/// than stored — the snapshot reports the drop count so truncation is
/// never silent.
pub const TIMELINE_CAP: usize = 16_384;

/// Everything a span close writes, kept behind one lock: the call-path
/// profile and the bounded timeline.
#[derive(Debug, Default)]
struct Spans {
    profile: BTreeMap<String, PathStats>,
    timeline: Vec<SpanRecord>,
    dropped: u64,
}

/// A collection point for counters, histograms, the call-path profile
/// and the span timeline.
#[derive(Debug)]
pub struct Registry {
    epoch: Instant,
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    spans: Mutex<Spans>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// Creates an empty registry; its epoch (timeline zero) is now.
    pub fn new() -> Self {
        Registry {
            epoch: Instant::now(),
            counters: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            spans: Mutex::new(Spans::default()),
        }
    }

    /// The registry's creation instant (timeline records are offsets
    /// from this).
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// The counter registered under `name`, creating it on first use.
    /// The handle is cheap to clone and can be cached across calls.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = lock_recover(&self.counters);
        if let Some(c) = map.get(name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::default());
        map.insert(name.to_string(), Arc::clone(&c));
        c
    }

    /// The histogram registered under `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = lock_recover(&self.histograms);
        if let Some(h) = map.get(name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::default());
        map.insert(name.to_string(), Arc::clone(&h));
        h
    }

    /// Records one completed span under its full `>`-joined call
    /// `path`: folds the duration into the profile and appends the
    /// record to the timeline (or counts it as dropped past
    /// [`TIMELINE_CAP`]), both under the one span lock.
    pub fn record_span(&self, path: String, record: SpanRecord) {
        let mut spans = lock_recover(&self.spans);
        let stats = spans.profile.entry(path).or_default();
        stats.count += 1;
        stats.total_ns += record.dur_ns;
        stats.min_ns = stats.min_ns.min(record.dur_ns);
        stats.max_ns = stats.max_ns.max(record.dur_ns);
        if spans.timeline.len() < TIMELINE_CAP {
            spans.timeline.push(record);
        } else {
            spans.dropped += 1;
        }
    }

    /// A consistent copy of everything collected so far.
    pub fn snapshot(&self) -> Snapshot {
        let counters = lock_recover(&self.counters)
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect();
        let histograms = lock_recover(&self.histograms)
            .iter()
            .map(|(name, h)| h.snapshot(name))
            .collect();
        let spans = lock_recover(&self.spans);
        Snapshot {
            captured_ns: self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            counters,
            histograms,
            profile: ProfileEntry::from_paths(spans.profile.iter()),
            timeline: spans.timeline.clone(),
            timeline_dropped: spans.dropped,
        }
    }
}

static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();

thread_local! {
    static SCOPED: RefCell<Vec<Arc<Registry>>> = const { RefCell::new(Vec::new()) };
}

/// The process-global registry (created on first use).
pub fn global() -> Arc<Registry> {
    Arc::clone(GLOBAL.get_or_init(|| Arc::new(Registry::new())))
}

/// The registry recording calls on this thread: the innermost
/// [`with_registry`] scope if one is active, the global registry
/// otherwise.
pub fn current() -> Arc<Registry> {
    SCOPED
        .with(|stack| stack.borrow().last().cloned())
        .unwrap_or_else(global)
}

/// Runs `f` with `reg` installed as this thread's current registry.
/// Scopes nest; the previous registry is restored on exit, including on
/// panic (so a failing test case's metrics stay inspectable by the
/// caller that catches the panic).
pub fn with_registry<T>(reg: Arc<Registry>, f: impl FnOnce() -> T) -> T {
    struct PopGuard;
    impl Drop for PopGuard {
        fn drop(&mut self) {
            SCOPED.with(|stack| {
                stack.borrow_mut().pop();
            });
        }
    }
    SCOPED.with(|stack| stack.borrow_mut().push(reg));
    let _guard = PopGuard;
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(name: &str, start_ns: u64, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            name: name.into(),
            fields: String::new(),
            depth: 1,
            start_ns,
            dur_ns,
            tid: 1,
        }
    }

    #[test]
    fn counters_accumulate_and_are_shared_by_name() {
        let reg = Registry::new();
        reg.counter("a.b.c").add(2);
        let handle = reg.counter("a.b.c");
        handle.add(3);
        assert_eq!(reg.counter("a.b.c").get(), 5);
        assert_eq!(reg.counter("other").get(), 0);
    }

    #[test]
    fn histogram_buckets_follow_bit_length() {
        let reg = Registry::new();
        let h = reg.histogram("h");
        for v in [0u64, 1, 2, 3, 1000] {
            h.record(v);
        }
        let snap = reg.snapshot();
        let hs = snap.histogram("h").expect("recorded");
        assert_eq!(hs.count, 5);
        assert_eq!(hs.sum, 1006);
        assert_eq!(hs.min, 0);
        assert_eq!(hs.max, 1000);
        assert_eq!(hs.sketch.count(), 5);
    }

    #[test]
    fn histogram_sketch_reports_quantiles() {
        let reg = Registry::new();
        let h = reg.histogram("lat");
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.to_sketch();
        let p50 = s.quantile(0.5);
        assert!((p50 - 500.0).abs() / 500.0 <= 0.02, "p50 {p50}");
    }

    #[test]
    fn scoped_registry_shadows_global_and_restores_on_panic() {
        let reg = Arc::new(Registry::new());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_registry(reg.clone(), || {
                current().counter("scoped.only").add(1);
                panic!("boom");
            })
        }));
        assert!(result.is_err());
        // The scope unwound: current() is the global registry again.
        assert_eq!(reg.snapshot().counter("scoped.only"), 1);
        assert!(!Arc::ptr_eq(&current(), &reg));
    }

    #[test]
    fn scopes_nest_innermost_wins() {
        let outer = Arc::new(Registry::new());
        let inner = Arc::new(Registry::new());
        with_registry(outer.clone(), || {
            current().counter("depth").add(1);
            with_registry(inner.clone(), || {
                current().counter("depth").add(10);
            });
            current().counter("depth").add(100);
        });
        assert_eq!(outer.snapshot().counter("depth"), 101);
        assert_eq!(inner.snapshot().counter("depth"), 10);
    }

    #[test]
    fn timeline_caps_and_reports_drops() {
        let reg = Registry::new();
        for i in 0..(TIMELINE_CAP + 3) {
            reg.record_span("x".into(), record("x", i as u64, 1));
        }
        let snap = reg.snapshot();
        assert_eq!(snap.timeline.len(), TIMELINE_CAP);
        assert_eq!(snap.timeline_dropped, 3);
        // The profile still counts every close, kept or dropped.
        let x = snap.profile_path("x").expect("x");
        assert_eq!(x.count, TIMELINE_CAP as u64 + 3);
    }

    #[test]
    fn panic_inside_a_span_still_yields_a_usable_snapshot() {
        // A worker that panics drops its live span guards during
        // unwinding; the registry must absorb that (recovering any
        // poisoned lock) and keep snapshotting.
        let reg = Arc::new(Registry::new());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_registry(reg.clone(), || {
                let _outer = crate::span!("test.panic.outer");
                let _inner = crate::span!("test.panic.inner");
                reg.counter("test.panic.before").add(1);
                panic!("worker exploded mid-span");
            })
        }));
        assert!(result.is_err());
        let snap = reg.snapshot();
        assert_eq!(snap.counter("test.panic.before"), 1);
        // Both spans closed during unwinding and were recorded.
        let count = |path: &str| snap.profile_path(path).map(|p| p.count);
        assert_eq!(count("test.panic.outer>test.panic.inner"), Some(1));
        assert_eq!(count("test.panic.outer"), Some(1));
        assert_eq!(snap.timeline.len(), 2);
    }

    #[test]
    fn path_profile_aggregates_by_full_path() {
        let reg = Registry::new();
        reg.record_span("a>b".into(), record("b", 0, 10));
        reg.record_span("a>b".into(), record("b", 10, 30));
        reg.record_span("a".into(), record("a", 0, 50));
        let snap = reg.snapshot();
        let ab = snap.profile.iter().find(|p| p.path == "a>b").expect("a>b");
        assert_eq!(
            (ab.count, ab.total_ns, ab.min_ns, ab.max_ns),
            (2, 40, 10, 30)
        );
        let a = snap.profile.iter().find(|p| p.path == "a").expect("a");
        // Self time = own total minus direct children's total.
        assert_eq!(a.self_ns, 10);
        assert_eq!(ab.self_ns, 40);
    }
}
