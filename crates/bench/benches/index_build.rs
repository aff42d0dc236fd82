//! Index-construction cost per window: the price the metric-space methods
//! pay before they can answer their first query.

// Harness code, exempt from the library panic policy: an unwrap here
// fails the run loudly, which is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use enviro_bench::workload::{build, Scale};
use enviro_index::{Entry, GridIndex, RTree, VpTree};
use std::hint::black_box;

fn bench_index_builds(c: &mut Criterion) {
    let workload = build(Scale::Quick, 0);
    let mut group = c.benchmark_group("index_build");
    for h in [240usize, 5_000] {
        let entries: Vec<Entry> = workload.dataset.tuples()[..h]
            .iter()
            .enumerate()
            .map(|(i, t)| Entry::new(t.pos, i as u32))
            .collect();
        group.bench_with_input(BenchmarkId::new("rtree_bulk", h), &h, |b, _| {
            b.iter(|| black_box(RTree::bulk_load(black_box(entries.clone()))));
        });
        group.bench_with_input(BenchmarkId::new("vptree", h), &h, |b, _| {
            b.iter(|| black_box(VpTree::build(black_box(entries.clone()))));
        });
        group.bench_with_input(BenchmarkId::new("grid", h), &h, |b, _| {
            b.iter(|| black_box(GridIndex::build(black_box(&entries), 1_000.0)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_index_builds);
criterion_main!(benches);
