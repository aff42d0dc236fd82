//! Criterion bench for Figure 6(a): per-query latency of the four methods
//! at the sweep's endpoints (H = 40 and H = 240).
//!
//! The `figures` binary reports the full-workload elapsed time (the paper's
//! y-axis); this bench gives statistically robust per-query latencies for
//! regression tracking. The `query_batch_64` group times the serving
//! stage behind a `QueryBatch` frame without a server: routing a 64-tuple
//! trajectory chunk to its windows, locating the nearest centroids and
//! evaluating their models, on the static engine and on a published
//! `CoverSet`.

// Harness code, exempt from the library panic policy: an unwrap here
// fails the run loudly, which is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use enviro_bench::fig6a::engine_for_h;
use enviro_bench::workload::{build, Scale};
use enviro_meter::{CoverRegistry, PublishedCover, QueryMethod};
use std::hint::black_box;
use std::sync::Arc;

fn bench_query_time(c: &mut Criterion) {
    let workload = build(Scale::Quick, 0);
    let mut group = c.benchmark_group("fig6a_query");
    for h in [40usize, 240] {
        let engine = engine_for_h(&workload, h);
        for method in [
            QueryMethod::ModelCover,
            QueryMethod::VpTree,
            QueryMethod::RTree,
            QueryMethod::Naive,
        ] {
            engine.prepare(method);
            let queries = &workload.queries;
            group.bench_with_input(BenchmarkId::new(method.name(), h), &h, |b, _| {
                let mut i = 0usize;
                b.iter(|| {
                    let q = &queries[i % queries.len()];
                    i += 1;
                    black_box(engine.query(black_box(q), method))
                });
            });
        }
    }
    group.finish();
}

fn bench_query_batch(c: &mut Criterion) {
    let workload = build(Scale::Quick, 0);
    let engine = engine_for_h(&workload, 240);
    engine.prepare(QueryMethod::ModelCover);
    let registry = CoverRegistry::new();
    registry.publish(
        (0..engine.window_count())
            .map(|idx| PublishedCover {
                window_id: idx as u64,
                first_time: engine.window_tuples(idx)[0].time,
                cover: Arc::new(engine.cover(idx).clone()).into(),
            })
            .collect(),
    );
    let set = registry.snapshot();
    // A time-sorted chunk at the readings' own 30 s spacing, as a phone
    // streams it.
    let batch = workload.sim.continuous_trajectory(64, 30, 7);
    let mut out = Vec::with_capacity(batch.len());
    let mut group = c.benchmark_group("query_batch_64");
    group.bench_function("engine", |b| {
        b.iter(|| {
            engine.query_batch_into(black_box(&batch), QueryMethod::ModelCover, &mut out);
            black_box(&out);
        })
    });
    group.bench_function("cover_set", |b| {
        b.iter(|| {
            let read = set.query_batch_into(black_box(&batch), &mut out);
            assert!(read.is_ok(), "static covers are resident");
            black_box(&out);
        })
    });
    group.finish();
}

criterion_group!(benches, bench_query_time, bench_query_batch);
criterion_main!(benches);
