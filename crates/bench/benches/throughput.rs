//! Concurrent-serving throughput: end-to-end batches through the
//! transport, plus the isolated per-frame serving cost.
//!
//! Criterion-grade timings for the pieces: one batch frame served
//! end-to-end at each permit count (1, 2, 4), and the raw
//! `handle_bytes_into` hot path at batch sizes 1, 16 and 64.
//!
//! Under load, `enviro serve FILE --workers W --batch B --clients K
//! --requests M` drives one workers × batch cell from the CLI, and
//! `perfbench`'s `read_static` and `mixed_live` workloads measure serving
//! end to end.

// Harness code, exempt from the library panic policy: an unwrap here
// fails the run loudly, which is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use enviro_bench::workload::{Scale, RADIUS_M};
use enviro_data::{LausanneSim, QueryTuple, WindowSpec};
use enviro_meter::{AdKmnConfig, EnviroMeter, QueryMethod};
use enviro_net::{BinaryCodec, ConcurrentTransport, EnviroServer, Request, WireCodec};
use std::hint::black_box;
use std::sync::Arc;

fn build_server(seed: u64) -> EnviroServer<BinaryCodec> {
    let sim = LausanneSim::lausanne(Scale::Quick.sim_config(seed));
    let platform = EnviroMeter::new(
        sim.generate(),
        WindowSpec::ByDuration(4 * 3_600),
        AdKmnConfig::default(),
        RADIUS_M,
    );
    EnviroServer::new(platform, BinaryCodec, QueryMethod::ModelCover)
}

fn batch_frame(sim: &LausanneSim, n: usize) -> Vec<u8> {
    let queries: Vec<QueryTuple> = sim.continuous_trajectory(n, 60, 5);
    BinaryCodec.encode_request(&Request::QueryBatch { seq: 1, queries })
}

fn bench_throughput(c: &mut Criterion) {
    let sim = LausanneSim::lausanne(Scale::Quick.sim_config(0));
    let server = Arc::new(build_server(0));

    let mut group = c.benchmark_group("throughput");

    // The raw serving hot path: one batch frame, no transport.
    for n in [1usize, 16, 64] {
        let frame = batch_frame(&sim, n);
        let server = Arc::clone(&server);
        group.bench_with_input(BenchmarkId::new("handle_bytes/batch", n), &n, |b, _| {
            let mut reply = Vec::new();
            b.iter(|| {
                server.handle_bytes_into(black_box(&frame), &mut reply);
                black_box(reply.len())
            });
        });
    }

    // End-to-end through the transport: one session, batch 64.
    for workers in [1usize, 2, 4] {
        let transport = ConcurrentTransport::spawn_shared(Arc::clone(&server), workers).unwrap();
        let frame = batch_frame(&sim, 64);
        group.bench_with_input(
            BenchmarkId::new("session_roundtrip/batch64", workers),
            &workers,
            |b, _| {
                let mut session = transport.session();
                b.iter(|| {
                    let reply = session
                        .call_with(|out| out.extend_from_slice(black_box(&frame)))
                        .unwrap();
                    black_box(reply.len())
                });
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench_throughput);
criterion_main!(benches);
