//! Model-creation cost: Ad-KMN cover builds vs plain k-means, per window
//! size. The paper's lazy update policy amortizes this cost over a window's
//! validity period; this bench quantifies what is amortized.

// Harness code, exempt from the library panic policy: an unwrap here
// fails the run loudly, which is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use enviro_bench::workload::{build, Scale};
use enviro_data::{Pollutant, WindowSpec, Windows};
use enviro_meter::{AdKmn, AdKmnConfig, KMeans};
use std::hint::black_box;

fn bench_builds(c: &mut Criterion) {
    let workload = build(Scale::Quick, 0);
    let mut group = c.benchmark_group("adkmn_build");
    for h in [40usize, 240, 1_000] {
        let window = Windows::new(&workload.dataset, WindowSpec::ByCount(h))
            .next()
            .expect("window exists");
        let tuples = window.tuples;
        group.bench_with_input(BenchmarkId::new("adkmn", h), &h, |b, _| {
            let adkmn = AdKmn::new(AdKmnConfig::default());
            b.iter(|| black_box(adkmn.run(black_box(tuples), Pollutant::Co2)));
        });
        let positions: Vec<enviro_geo::Point> = tuples.iter().map(|t| t.pos).collect();
        group.bench_with_input(BenchmarkId::new("kmeans_k2", h), &h, |b, _| {
            b.iter(|| black_box(KMeans::fit(black_box(&positions), 2)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_builds);
criterion_main!(benches);
