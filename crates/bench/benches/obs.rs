//! Per-call instrumentation cost: warm `counter!`, `histogram!` and
//! `span!` calls, next to the uncached registry lookups the macros
//! replace on a warm call (`*_lookup`). Recorded, not gated: sub-100-ns
//! benches do not fill the measurement window reliably yet.

use std::hint::black_box;
use std::sync::Arc;
use vapp_bench::harness::Criterion;
use vapp_bench::{criterion_group, criterion_main};
use vapp_obs::registry::{current, with_registry, Registry};

fn bench_obs(c: &mut Criterion) {
    // A scoped registry, as perfbench's traced runs and the tests use.
    with_registry(Arc::new(Registry::new()), || {
        let mut group = c.benchmark_group("obs");
        group.bench_function("counter_cached", |b| {
            b.iter(|| vapp_obs::counter!("bench.obs.counter", black_box(1u64)));
        });
        group.bench_function("counter_lookup", |b| {
            b.iter(|| current().counter("bench.obs.counter").add(black_box(1)));
        });
        group.bench_function("histogram_cached", |b| {
            b.iter(|| vapp_obs::histogram!("bench.obs.histogram", black_box(1000u64)));
        });
        group.bench_function("histogram_lookup", |b| {
            b.iter(|| {
                current()
                    .histogram("bench.obs.histogram")
                    .record(black_box(1000))
            });
        });
        // Past the first 16,384 closes the timeline is full and a close
        // only counts the drop, so this is the steady-state span cost.
        group.bench_function("span", |b| {
            b.iter(|| drop(vapp_obs::span!("bench.obs.span")));
        });
        group.finish();
    });
}

criterion_group!(benches, bench_obs);
criterion_main!(benches);
