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
//!   are atomics; the name → handle maps are the only locks and handles
//!   can be hoisted out of hot loops via [`Registry::counter`] /
//!   [`Registry::histogram`].
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
/// ```
/// vapp_obs::counter!("storage.bch.uncorrectable");
/// vapp_obs::counter!("core.flips.injected", 17u64);
/// ```
#[macro_export]
macro_rules! counter {
    ($name:expr) => {
        $crate::registry::current().counter($name).add(1)
    };
    ($name:expr, $amount:expr) => {
        $crate::registry::current().counter($name).add($amount)
    };
}

/// Records a value into a named histogram (log-bucketed quantile
/// sketch; see [`sketch`]).
///
/// ```
/// vapp_obs::histogram!("sim.flips.per_draw", 12u64);
/// ```
#[macro_export]
macro_rules! histogram {
    ($name:expr, $value:expr) => {
        $crate::registry::current().histogram($name).record($value)
    };
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
