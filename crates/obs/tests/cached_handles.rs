//! `counter!` and `histogram!` cache their handle per call site, per
//! thread and per registry. These tests pin that the cache never sends a
//! count to the wrong registry: across nested scopes, across a dropped
//! registry and its successor, on `par_map` workers, and at thread
//! teardown.

use std::sync::Arc;
use vapp_obs::registry::{global, with_registry, Registry};
use vapp_obs::{counter, histogram};

/// One call site for each macro, shared by every call below.
fn bump(n: u64) {
    counter!("test.cached.bump", n);
    histogram!("test.cached.bump_size", n);
}

fn counts(reg: &Registry) -> (u64, u64, u64) {
    let snap = reg.snapshot();
    let h = snap.histogram("test.cached.bump_size");
    (
        snap.counter("test.cached.bump"),
        h.map_or(0, |h| h.count),
        h.map_or(0, |h| h.sum),
    )
}

#[test]
fn one_site_follows_the_current_registry_through_nested_scopes() {
    // Only this test records into the global registry, so deltas of it
    // are this test's own.
    let before = counts(&global());
    let outer = Arc::new(Registry::new());
    let inner = Arc::new(Registry::new());
    bump(1);
    with_registry(outer.clone(), || {
        bump(10);
        with_registry(inner.clone(), || bump(100));
        bump(1000);
    });
    bump(2);
    let after = counts(&global());
    assert_eq!(
        (after.0 - before.0, after.1 - before.1, after.2 - before.2),
        (3, 2, 3)
    );
    assert_eq!(counts(&outer), (1010, 2, 1010));
    assert_eq!(counts(&inner), (100, 1, 100));
}

#[test]
fn a_dropped_registry_leaves_no_stale_handle() {
    // A new registry may reuse the dropped one's allocation; ids are
    // never reused, so its first call must still look the name up.
    for round in 1..=4u64 {
        let reg = Arc::new(Registry::new());
        with_registry(reg.clone(), || {
            bump(round);
            bump(round);
        });
        assert_eq!(counts(&reg), (2 * round, 2, 2 * round), "round {round}");
        drop(reg);
    }
}

#[test]
fn par_map_totals_do_not_depend_on_the_worker_count() {
    let run = |workers: usize| {
        let reg = Arc::new(Registry::new());
        with_registry(reg.clone(), || {
            vapp_par::with_threads(workers, || {
                vapp_par::par_map((0..64u64).collect(), |_, x| bump(x * 3))
            })
        });
        let snap = reg.snapshot();
        (
            snap.counter("test.cached.bump"),
            snap.histogram("test.cached.bump_size").cloned(),
        )
    };
    let one = run(1);
    assert_eq!(one.0, 3 * (0..64).sum::<u64>());
    assert_eq!(one.1.as_ref().map(|h| h.count), Some(64));
    assert_eq!(run(2), one);
}

#[test]
fn a_call_during_thread_teardown_still_counts() {
    // A thread-local whose destructor records through a macro call site.
    // Whether the site's own slot is still alive or already gone, the
    // count lands in the registry current at teardown (the global one,
    // since every scope has ended).
    fn site() {
        counter!("test.cached.teardown");
    }
    struct RecordOnDrop;
    impl Drop for RecordOnDrop {
        fn drop(&mut self) {
            site();
        }
    }
    thread_local! {
        static GUARD: RecordOnDrop = const { RecordOnDrop };
    }
    let before = global().snapshot().counter("test.cached.teardown");
    std::thread::spawn(|| {
        // Initialise the guard first and the call site second, so the
        // site's slot can be torn down before the guard drops.
        GUARD.with(|_| ());
        let reg = Arc::new(Registry::new());
        with_registry(reg.clone(), site);
        assert_eq!(reg.snapshot().counter("test.cached.teardown"), 1);
    })
    .join()
    .expect("teardown recording does not panic");
    let after = global().snapshot().counter("test.cached.teardown");
    assert_eq!(after - before, 1);
}
