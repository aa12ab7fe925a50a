//! Hierarchical wall-clock spans.
//!
//! A [`Span`] is an RAII guard: [`Span::enter`] notes the start instant
//! and pushes the name onto a thread-local stack (so events and nested
//! spans know their context); dropping it pops that name back off and
//! records the duration into the current registry's call-path profile
//! ([`crate::profile`]) and bounded timeline, under one lock. The stack
//! holds the only copy of the name, so spans must close in reverse
//! order of opening on the thread that opened them — which scoped
//! guards do by construction.
//!
//! Spans are deliberately coarse — per frame, per stream, per pipeline
//! stage — so two `Instant` reads and one registry update per span are
//! negligible next to the work they measure. Per-bit or per-bin work is
//! counted with [`crate::counter!`] instead.
//!
//! # Worker path prefixes
//!
//! A thread's full span path is a *prefix* (installed once per worker
//! by `vapp-par` via [`with_path_prefix`], capturing the spawning
//! thread's open spans) followed by the thread's own stack. That is
//! what keeps the call-path profile identical at any thread count: a
//! span opened inside a parallel unit folds into the same
//! `caller>unit` path whether the unit ran inline on the caller or on a
//! worker thread.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::level::{stderr_enabled, Level};
use crate::registry::{current, SpanRecord};

thread_local! {
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
    static PATH_PREFIX: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
    static TID: Cell<u64> = const { Cell::new(0) };
}

/// Next thread id to hand out. Ids are 1-based and stable for a
/// thread's lifetime; the order of assignment follows first use, so the
/// main thread is 1 in single-threaded runs.
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// A small process-stable id for the calling thread (1-based, assigned
/// on first use). Stood up for the trace-event export: `std::thread`
/// does not expose a stable integral id, and trace viewers need one.
pub fn current_tid() -> u64 {
    TID.with(|c| {
        let v = c.get();
        if v != 0 {
            return v;
        }
        let v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        c.set(v);
        v
    })
}

/// The `>`-joined names of the spans currently open on this thread
/// (worker path prefix first, then the local stack, outermost first);
/// empty when no span is active and no prefix is installed.
pub fn current_path() -> String {
    PATH_PREFIX.with(|prefix| SPAN_STACK.with(|stack| join_path(&prefix.borrow(), &stack.borrow())))
}

/// `prefix` then `stack`, `>`-joined into one string allocated once.
fn join_path(prefix: &[String], stack: &[String]) -> String {
    let parts = prefix.iter().chain(stack);
    let mut path = String::with_capacity(parts.clone().map(|p| p.len() + 1).sum());
    for (i, part) in parts.enumerate() {
        if i > 0 {
            path.push('>');
        }
        path.push_str(part);
    }
    path
}

/// The open-span path as individual segments (prefix + local stack).
/// `vapp-par` captures this on the spawning thread and installs it in
/// workers via [`with_path_prefix`].
pub fn current_path_parts() -> Vec<String> {
    let mut parts = PATH_PREFIX.with(|p| p.borrow().clone());
    SPAN_STACK.with(|stack| parts.extend(stack.borrow().iter().cloned()));
    parts
}

/// Current nesting depth (installed prefix + open spans on this thread).
pub fn current_depth() -> usize {
    PATH_PREFIX.with(|p| p.borrow().len()) + SPAN_STACK.with(|stack| stack.borrow().len())
}

/// Runs `f` with `prefix` installed as this thread's span-path prefix
/// (replacing any previous prefix, which is restored on exit, including
/// on panic). Used by worker pools so spans opened on the worker fold
/// into the spawning thread's subtree.
pub fn with_path_prefix<T>(prefix: &[String], f: impl FnOnce() -> T) -> T {
    struct Restore(Vec<String>);
    impl Drop for Restore {
        fn drop(&mut self) {
            PATH_PREFIX.with(|p| *p.borrow_mut() = std::mem::take(&mut self.0));
        }
    }
    let previous = PATH_PREFIX.with(|p| std::mem::replace(&mut *p.borrow_mut(), prefix.to_vec()));
    let _restore = Restore(previous);
    f()
}

/// An open span; created by the [`crate::span!`] macro.
#[derive(Debug)]
pub struct Span {
    fields: String,
    start: Instant,
}

impl Span {
    /// Opens a span: records the start instant and enters the name onto
    /// this thread's span stack.
    pub fn enter(name: &str, fields: String) -> Span {
        SPAN_STACK.with(|stack| stack.borrow_mut().push(name.to_string()));
        Span {
            fields,
            start: Instant::now(),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let dur_ns = self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        // Depth and full path are taken *before* popping, so both
        // include this span itself (and any worker prefix).
        let (path, name, depth) = PATH_PREFIX.with(|prefix| {
            SPAN_STACK.with(|stack| {
                let prefix = prefix.borrow();
                let mut stack = stack.borrow_mut();
                let path = join_path(&prefix, &stack);
                let depth = (prefix.len() + stack.len()) as u32;
                (path, stack.pop().unwrap_or_default(), depth)
            })
        });
        if stderr_enabled(Level::Debug) {
            let braces = if self.fields.is_empty() {
                String::new()
            } else {
                format!("{{{}}}", self.fields)
            };
            eprintln!("[span] {path}{braces} {:.3} ms", dur_ns as f64 / 1e6);
        }
        let reg = current();
        let start_ns = self
            .start
            .duration_since(reg.epoch())
            .as_nanos()
            .min(u64::MAX as u128) as u64;
        reg.record_span(
            path,
            SpanRecord {
                name,
                fields: std::mem::take(&mut self.fields),
                depth,
                start_ns,
                dur_ns,
                tid: current_tid(),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{with_registry, Registry};
    use std::sync::Arc;

    #[test]
    fn spans_nest_and_record_depth() {
        let reg = Arc::new(Registry::new());
        with_registry(reg.clone(), || {
            assert_eq!(current_depth(), 0);
            let _outer = Span::enter("outer.work.run", String::new());
            assert_eq!(current_path(), "outer.work.run");
            {
                let _inner = Span::enter("inner.work.run", String::new());
                assert_eq!(current_path(), "outer.work.run>inner.work.run");
                assert_eq!(current_depth(), 2);
            }
            assert_eq!(current_depth(), 1);
        });
        let snap = reg.snapshot();
        // Inner completed first.
        assert_eq!(snap.timeline[0].name, "inner.work.run");
        assert_eq!(snap.timeline[0].depth, 2);
        assert_eq!(snap.timeline[1].name, "outer.work.run");
        assert_eq!(snap.timeline[1].depth, 1);
        assert!(snap.timeline[1].dur_ns >= snap.timeline[0].dur_ns);
        // Same thread closed both spans.
        assert_eq!(snap.timeline[0].tid, snap.timeline[1].tid);
        assert!(snap.timeline[0].tid >= 1);
    }

    #[test]
    fn aggregates_cover_all_instances() {
        let reg = Arc::new(Registry::new());
        with_registry(reg.clone(), || {
            for _ in 0..5 {
                let _s = Span::enter("repeat.work.run", String::new());
            }
        });
        let snap = reg.snapshot();
        let s = snap.profile_path("repeat.work.run").expect("recorded");
        assert_eq!(s.count, 5);
        assert!(s.min_ns <= s.max_ns);
        assert!(s.total_ns >= s.max_ns);
    }

    #[test]
    fn profile_paths_include_the_worker_prefix() {
        let reg = Arc::new(Registry::new());
        with_registry(reg.clone(), || {
            let prefix = vec!["outer.region.run".to_string()];
            with_path_prefix(&prefix, || {
                assert_eq!(current_depth(), 1);
                let _s = Span::enter("unit.work.run", String::new());
                assert_eq!(current_path(), "outer.region.run>unit.work.run");
                assert_eq!(current_depth(), 2);
            });
            assert_eq!(current_depth(), 0);
        });
        let snap = reg.snapshot();
        assert!(snap
            .profile
            .iter()
            .any(|p| p.path == "outer.region.run>unit.work.run" && p.count == 1));
        // The prefix affects the path and depth, not the recorded name.
        assert_eq!(snap.profile[0].name(), "unit.work.run");
        assert_eq!(snap.timeline[0].name, "unit.work.run");
        assert_eq!(snap.timeline[0].depth, 2);
    }

    #[test]
    fn each_close_makes_one_profile_count_and_one_timeline_record() {
        let reg = Arc::new(Registry::new());
        with_registry(reg.clone(), || {
            let prefix = vec!["caller.region.run".to_string()];
            with_path_prefix(&prefix, || {
                for _ in 0..3 {
                    let _outer = Span::enter("unit.outer.run", String::new());
                    for _ in 0..2 {
                        let _inner = Span::enter("unit.inner.run", String::new());
                    }
                }
            });
        });
        let snap = reg.snapshot();
        let outer = "caller.region.run>unit.outer.run";
        let inner = "caller.region.run>unit.outer.run>unit.inner.run";
        let paths: Vec<(&str, u64)> = snap
            .profile
            .iter()
            .map(|p| (p.path.as_str(), p.count))
            .collect();
        assert_eq!(paths, [(outer, 3), (inner, 6)]);
        assert_eq!(snap.timeline.len(), 9);
        assert_eq!(snap.timeline_dropped, 0);
        for (path, depth) in [(outer, 2), (inner, 3)] {
            let entry = snap.profile_path(path).expect("recorded");
            let records: Vec<&SpanRecord> = snap
                .timeline
                .iter()
                .filter(|r| r.name == entry.name())
                .collect();
            assert_eq!(records.len() as u64, entry.count, "{path}");
            assert!(records.iter().all(|r| r.depth == depth), "{path}");
            // Both stores saw the very same durations.
            let total: u64 = records.iter().map(|r| r.dur_ns).sum();
            assert_eq!(total, entry.total_ns, "{path}");
        }
    }

    #[test]
    fn prefix_scopes_nest_and_restore() {
        let a = vec!["a".to_string()];
        let b = vec!["b1".to_string(), "b2".to_string()];
        with_path_prefix(&a, || {
            assert_eq!(current_path(), "a");
            with_path_prefix(&b, || assert_eq!(current_path(), "b1>b2"));
            assert_eq!(current_path(), "a");
        });
        assert_eq!(current_path(), "");
    }

    #[test]
    fn tids_are_stable_per_thread_and_distinct_across_threads() {
        let mine = current_tid();
        assert_eq!(current_tid(), mine);
        let other = std::thread::spawn(current_tid).join().expect("join");
        assert_ne!(mine, other);
    }
}
