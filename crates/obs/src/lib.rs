//! # vapp-obs — zero-dependency tracing, metrics and events
//!
//! An in-repo structured observability layer in the spirit of the
//! `tracing` + `metrics` crates, built on `std` only (the workspace is
//! hermetic — see DESIGN.md §"Zero-dependency policy"). It provides:
//!
//! * **Spans** — [`span!`] opens a named, hierarchical wall-clock span
//!   (`Instant`-backed) that records its duration on drop, under one
//!   lock, into the call-path profile ([`profile`]) and a bounded
//!   per-run timeline.
//! * **Profile** — the one span aggregate: completed spans aggregate by
//!   *full call path* (`outer>inner`) with self-time attribution; a
//!   span name's call count is the sum over its paths. Worker pools install
//!   the spawning thread's path as a prefix
//!   ([`span::with_path_prefix`]) so the tree is identical at any
//!   thread count. Rendered by `obs_report`.
//! * **Metrics** — [`counter!`] and [`histogram!`] update a global
//!   registry of named monotonic counters and histograms backed by a
//!   mergeable log-bucketed quantile sketch ([`sketch`], ~1% relative
//!   error, constant memory) that answers p50/p90/p95/p99/p999. Values
//!   are atomics. The macros take literal names only and cache their
//!   handle per call site, per thread and per registry, so a warm call
//!   is a thread-local id check plus the atomic adds; the name → handle
//!   map lock is taken only on a miss (first call, another
//!   [`registry::with_registry`] scope, a new worker thread). Computed
//!   names go through [`Registry::counter`] / [`Registry::histogram`],
//!   one locked lookup each.
//! * **Events** — [`event!`] and the leveled shorthands ([`error!`],
//!   [`warn!`], [`info!`], [`debug!`], [`trace!`]) replace ad-hoc
//!   `eprintln!` diagnostics. They format and print *only* when enabled
//!   by the `VAPP_OBS` environment variable, so library crates are
//!   silent by default.
//! * **Sinks** — a human-readable stderr sink gated by
//!   `VAPP_OBS=error|warn|info|debug|trace` (default: off), a
//!   machine-readable JSON snapshot ([`Snapshot::to_json`], written as
//!   `OBS_<run>.json` by [`write_run_snapshot`] — same shape discipline
//!   as the bench harness's `BENCH_*.json`; schema documented in
//!   [`snapshot`]), and a chrome://tracing trace-event export
//!   ([`mod@trace`], written by [`write_trace`]).
//!
//! ## Naming convention
//!
//! Spans, counters and histograms are named `crate.noun.verb` (e.g.
//! `codec.frame.encode`, `storage.bch.uncorrectable`,
//! `sim.flips.per_draw`). Per-level pipeline counters insert the level
//! index: `core.level.0.stored_bits`.
//!
//! ## Environment contract
//!
//! * `VAPP_OBS` — stderr verbosity: `off` (default), `error`, `warn`,
//!   `info`, `debug`, `trace`. Anything unrecognised means `off`.
//!   Metrics and the span profile are *always* collected;
//!   the variable only gates the stderr sink.
//! * `VAPP_OBS_OUT` — when set to a directory, [`maybe_write_run_snapshot`]
//!   writes `OBS_<run>.json` there (used by the CLI, the examples and CI).
//! * `VAPP_OBS_TRACE` — when set to a file path, every snapshot-emitting
//!   entry point also writes a chrome://tracing trace-event JSON there
//!   ([`maybe_write_trace`]); `vapp --trace out.json` sets the same sink
//!   explicitly.
//!
//! ## Test isolation
//!
//! The registry is process-global by default, which is wrong for
//! parallel `cargo test` threads asserting on counter values. Use
//! [`registry::with_registry`] to install a fresh [`Registry`] for the
//! current thread for the duration of a closure:
//!
//! ```
//! use vapp_obs::{counter, registry};
//! use std::sync::Arc;
//!
//! let reg = Arc::new(registry::Registry::new());
//! registry::with_registry(reg.clone(), || {
//!     counter!("demo.widgets.built", 3);
//! });
//! assert_eq!(reg.snapshot().counter("demo.widgets.built"), 3);
//! ```

pub mod json;
pub mod level;
pub mod profile;
pub mod registry;
pub mod sketch;
pub mod snapshot;
pub mod span;
pub mod trace;

pub use level::{set_stderr_level, stderr_enabled, stderr_level, Level};
pub use profile::ProfileEntry;
pub use registry::{current, global, Registry};
pub use sketch::Sketch;
pub use snapshot::{
    maybe_write_run_snapshot, write_run_snapshot, HistogramSnapshot, Snapshot, SCHEMA_MAJOR,
    SCHEMA_VERSION,
};
pub use span::Span;
pub use trace::{maybe_write_trace, write_trace};

/// Opens a wall-clock span; the returned guard records the duration when
/// dropped. Extra expressions become `name=value` fields on the
/// timeline record.
///
/// ```
/// let idx = 3;
/// {
///     let _span = vapp_obs::span!("codec.frame.encode", idx);
///     // ... timed work ...
/// } // duration recorded here
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::Span::enter($name, String::new())
    };
    ($name:expr, $($field:expr),+ $(,)?) => {
        $crate::span::Span::enter($name, {
            let mut fields = String::new();
            $(
                {
                    use std::fmt::Write as _;
                    if !fields.is_empty() {
                        fields.push(',');
                    }
                    let _ = write!(fields, "{}={:?}", stringify!($field), $field);
                }
            )+
            fields
        })
    };
}

/// Increments a named monotonic counter (by 1, or by an explicit amount).
///
/// The name must be a string literal: each expansion caches its handle
/// per thread and per registry ([`registry::CachedHandle`]), so a warm
/// call does no lock and no map lookup, and one cached handle must never
/// stand for several names.
///
/// ```
/// vapp_obs::counter!("storage.bch.uncorrectable");
/// vapp_obs::counter!("core.flips.injected", 17u64);
/// ```
///
/// A computed name goes through [`Registry::counter`] instead:
///
/// ```compile_fail
/// let level = 2;
/// vapp_obs::counter!(&format!("core.level.{level}.flips"), 1u64);
/// ```
#[macro_export]
macro_rules! counter {
    ($name:literal) => {
        $crate::counter!($name, 1u64)
    };
    ($name:literal, $amount:expr) => {{
        let amount: u64 = $amount;
        ::std::thread_local! {
            static SITE: $crate::registry::CachedHandle<$crate::registry::Counter> =
                const { $crate::registry::CachedHandle::new() };
        }
        $crate::registry::record_cached(
            &SITE,
            $name,
            $crate::registry::Registry::counter,
            |c: &$crate::registry::Counter| c.add(amount),
        )
    }};
}

/// Records a value into a named histogram (log-bucketed quantile
/// sketch; see [`sketch`]). The name must be a string literal; the
/// handle is cached per call site like [`counter!`]'s. A third argument
/// records the value that many times in one update
/// ([`registry::Histogram::record_n`]), for callers that tally repeats
/// before flushing them; a count of 0 records nothing.
///
/// ```
/// vapp_obs::histogram!("sim.flips.per_draw", 12u64);
/// vapp_obs::histogram!("sim.flips.per_draw", 0u64, 40u64);
/// ```
#[macro_export]
macro_rules! histogram {
    ($name:literal, $value:expr) => {
        $crate::histogram!($name, $value, 1u64)
    };
    ($name:literal, $value:expr, $n:expr) => {{
        let value: u64 = $value;
        let n: u64 = $n;
        ::std::thread_local! {
            static SITE: $crate::registry::CachedHandle<$crate::registry::Histogram> =
                const { $crate::registry::CachedHandle::new() };
        }
        // A zero count records nothing and, unlike a lookup, leaves no
        // empty histogram behind in the snapshot.
        if n > 0 {
            $crate::registry::record_cached(
                &SITE,
                $name,
                $crate::registry::Registry::histogram,
                |h: &$crate::registry::Histogram| h.record_n(value, n),
            )
        }
    }};
}

/// Emits a leveled event to the stderr sink. No formatting happens when
/// the level is disabled (the common `VAPP_OBS=off` case).
///
/// ```
/// vapp_obs::event!(vapp_obs::Level::Info, "core.assignment", "picked {} schemes", 4);
/// ```
#[macro_export]
macro_rules! event {
    ($lvl:expr, $target:expr, $($arg:tt)+) => {
        if $crate::level::stderr_enabled($lvl) {
            $crate::level::emit($lvl, $target, format_args!($($arg)+));
        }
    };
}

/// [`event!`] at [`Level::Error`].
#[macro_export]
macro_rules! error {
    ($target:expr, $($arg:tt)+) => { $crate::event!($crate::Level::Error, $target, $($arg)+) };
}

/// [`event!`] at [`Level::Warn`].
#[macro_export]
macro_rules! warn {
    ($target:expr, $($arg:tt)+) => { $crate::event!($crate::Level::Warn, $target, $($arg)+) };
}

/// [`event!`] at [`Level::Info`].
#[macro_export]
macro_rules! info {
    ($target:expr, $($arg:tt)+) => { $crate::event!($crate::Level::Info, $target, $($arg)+) };
}

/// [`event!`] at [`Level::Debug`].
#[macro_export]
macro_rules! debug {
    ($target:expr, $($arg:tt)+) => { $crate::event!($crate::Level::Debug, $target, $($arg)+) };
}

/// [`event!`] at [`Level::Trace`].
#[macro_export]
macro_rules! trace {
    ($target:expr, $($arg:tt)+) => { $crate::event!($crate::Level::Trace, $target, $($arg)+) };
}

#[cfg(test)]
mod tests {
    use crate::registry::{with_registry, Registry};
    use std::sync::Arc;

    #[test]
    fn macros_flow_into_scoped_registry() {
        let reg = Arc::new(Registry::new());
        with_registry(reg.clone(), || {
            counter!("test.widgets.built");
            counter!("test.widgets.built", 4u64);
            histogram!("test.widget.size", 9u64);
            {
                let part = 7usize;
                let _s = span!("test.widget.assemble", part);
            }
        });
        let snap = reg.snapshot();
        assert_eq!(snap.counter("test.widgets.built"), 5);
        let h = snap
            .histogram("test.widget.size")
            .expect("histogram recorded");
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 9);
        let s = snap
            .profile_path("test.widget.assemble")
            .expect("span recorded");
        assert_eq!(s.count, 1);
        assert!(s.total_ns >= s.min_ns);
        assert_eq!(snap.timeline.len(), 1);
        assert_eq!(snap.timeline[0].fields, "part=7");
    }

    #[test]
    fn counted_histogram_form_matches_repeated_records() {
        let (counted, repeated) = (Arc::new(Registry::new()), Arc::new(Registry::new()));
        let tallies = [(0u64, 40u64), (1, 9), (3, 1), (12, 0), (700, 2)];
        with_registry(counted.clone(), || {
            for &(w, n) in &tallies {
                histogram!("test.widget.weight", w, n);
            }
            histogram!("test.widget.untouched", 5u64, 0u64);
        });
        with_registry(repeated.clone(), || {
            for &(w, n) in &tallies {
                for _ in 0..n {
                    histogram!("test.widget.weight", w);
                }
            }
        });
        let (a, b) = (counted.snapshot(), repeated.snapshot());
        assert_eq!(a.histograms, b.histograms);
        assert!(
            a.histogram("test.widget.untouched").is_none(),
            "a zero count must not register the histogram"
        );
        let h = a.histogram("test.widget.weight").expect("recorded");
        assert_eq!((h.count, h.sum, h.min, h.max), (52, 1412, 0, 700));
    }

    #[test]
    fn span_fields_use_stringified_names() {
        let reg = Arc::new(Registry::new());
        with_registry(reg.clone(), || {
            let idx = 2usize;
            let _s = span!("test.named.fields", idx);
        });
        let snap = reg.snapshot();
        assert_eq!(snap.timeline[0].fields, "idx=2");
    }
}
