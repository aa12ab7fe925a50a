//! VideoApp analysis cost: graph construction, importance,
//! bins/classes/pivots — the §4.3.1 overhead claim.

use std::hint::black_box;
use vapp_bench::harness::Criterion;
use vapp_bench::{criterion_group, criterion_main};
use vapp_codec::{Encoder, EncoderConfig};
use vapp_workloads::{ClipSpec, SceneKind};
use videoapp::{
    equal_storage_bins, importance_classes, DependencyGraph, ImportanceMap, PivotTable,
};

fn bench_analysis(c: &mut Criterion) {
    let video = ClipSpec::new(112, 64, 24, SceneKind::MovingBlocks)
        .seed(2)
        .generate();
    let result = Encoder::new(EncoderConfig {
        keyint: 12,
        bframes: 2,
        ..EncoderConfig::default()
    })
    .encode(&video);
    let rec = &result.analysis;

    let mut group = c.benchmark_group("analysis");
    group.sample_size(20);
    group.bench_function("graph_build", |b| {
        b.iter(|| black_box(DependencyGraph::from_analysis(black_box(rec))));
    });
    let graph = DependencyGraph::from_analysis(rec);
    group.bench_function("importance_global", |b| {
        b.iter(|| black_box(ImportanceMap::compute(black_box(&graph))));
    });
    let imp = ImportanceMap::compute(&graph);
    group.bench_function("equal_storage_bins", |b| {
        b.iter(|| black_box(equal_storage_bins(rec, &imp, 16)));
    });
    group.bench_function("importance_classes", |b| {
        b.iter(|| black_box(importance_classes(rec, &imp)));
    });
    group.bench_function("pivot_table", |b| {
        b.iter(|| black_box(PivotTable::build(rec, &imp, &[4.0, 32.0, 256.0])));
    });
    group.finish();
}

criterion_group!(benches, bench_analysis);
criterion_main!(benches);
