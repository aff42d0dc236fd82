//! Platform set-up, stage by stage, at paper scale: simulating the
//! 30-day, 30-s history, then standing up the platform with every window's
//! cover prebuilt. These are the two stages of a `read_static` set-up
//! (perfbench's `setup.sim_s` and `setup.platform_s`), timed outside the
//! serving benchmark.

// Harness code, exempt from the library panic policy: an unwrap here
// fails the run loudly, which is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, Criterion};
use enviro_data::{LausanneSim, SimConfig, WindowSpec};
use enviro_meter::{AdKmnConfig, EnviroMeter, QueryMethod};
use std::hint::black_box;

/// Window width and query radius of the served platform, as in perfbench.
const WINDOW_SECS: i64 = 3_600;
const RADIUS_M: f64 = 1_000.0;

fn bench_setup(c: &mut Criterion) {
    let sim = LausanneSim::lausanne(SimConfig::paper_scale(3));
    let mut group = c.benchmark_group("setup");
    group.bench_function("sim_paper_scale", |b| {
        b.iter(|| black_box(sim.generate()));
    });
    // Each iteration clones the dataset it hands over (~5.5 MB, well under
    // a millisecond), as the platform takes ownership of it.
    let dataset = sim.generate();
    group.bench_function("platform_paper_scale", |b| {
        b.iter(|| {
            let platform = EnviroMeter::new(
                dataset.clone(),
                WindowSpec::ByDuration(WINDOW_SECS),
                AdKmnConfig::default(),
                RADIUS_M,
            );
            platform
                .engine()
                .prepare_parallel_auto(QueryMethod::ModelCover);
            black_box(platform)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_setup);
criterion_main!(benches);
