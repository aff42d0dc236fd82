//! Durable write path: the isolated per-batch costs — one `IngestBatch`
//! frame encoded, served (WAL append + ack), and appended raw at the
//! storage layer, at batch sizes 1, 64 and 256.
//!
//! End to end, `enviro ingest FILE --dir DIR --batch B` streams a dataset
//! through the client, wire, server and WAL at one batch size, and
//! `perfbench`'s `ingest_fleet` workload measures a loaded fleet.

// Harness code, exempt from the library panic policy: an unwrap here
// fails the run loudly, which is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use enviro_bench::workload::synthetic_tuples;
use enviro_data::{Pollutant, WindowSpec};
use enviro_meter::{AdKmnConfig, EnviroMeter, QueryMethod};
use enviro_net::{BinaryCodec, EnviroServer, IngestConfig, IngestState, Request, WireCodec};
use enviro_storage::{WalConfig, WalStore};
use std::hint::black_box;
use std::sync::Arc;

fn bench_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "enviro-criterion-ingest-{tag}-{}",
        std::process::id()
    ))
}

fn ingest_server(state: &Arc<IngestState>) -> EnviroServer<BinaryCodec> {
    EnviroServer::new(
        EnviroMeter::new(
            enviro_data::Dataset::new(Pollutant::Co2),
            WindowSpec::ByDuration(3_600),
            AdKmnConfig::default(),
            1_000.0,
        ),
        BinaryCodec,
        QueryMethod::ModelCover,
    )
    .with_ingest(Arc::clone(state))
}

fn bench_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("ingest");

    // Frame encode: tuples -> IngestBatch bytes.
    for n in [1usize, 64, 256] {
        let tuples = synthetic_tuples(n, 7);
        group.bench_with_input(BenchmarkId::new("encode_frame/batch", n), &n, |b, _| {
            b.iter(|| {
                black_box(BinaryCodec.encode_request(&Request::IngestBatch {
                    source: 1,
                    seq: 9,
                    tuples: black_box(tuples.clone()),
                }))
                .len()
            });
        });
    }

    // End-to-end serve: decode + dedup + WAL append + ack encode. The seq
    // advances every iteration so each frame really lands (no dedup hits).
    for n in [1usize, 64, 256] {
        let dir = bench_dir(&format!("serve-{n}"));
        let _ = std::fs::remove_dir_all(&dir);
        let state = Arc::new(
            IngestState::open(
                &dir,
                WalConfig {
                    window_secs: 3_600,
                    ..WalConfig::default()
                },
                IngestConfig::default(),
            )
            .unwrap(),
        );
        let server = ingest_server(&state);
        let tuples = synthetic_tuples(n, 7);
        group.bench_with_input(BenchmarkId::new("serve_frame/batch", n), &n, |b, _| {
            let mut seq = 0u32;
            let mut reply = Vec::new();
            b.iter(|| {
                seq = seq.wrapping_add(1);
                let frame = BinaryCodec.encode_request(&Request::IngestBatch {
                    source: 1,
                    seq,
                    tuples: tuples.clone(),
                });
                server.handle_bytes_into(black_box(&frame), &mut reply);
                black_box(reply.len())
            });
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    // The storage layer alone: one durable append of 64 tuples.
    {
        let dir = bench_dir("wal-append");
        let _ = std::fs::remove_dir_all(&dir);
        let mut wal = WalStore::open(
            &dir,
            WalConfig {
                window_secs: 3_600,
                ..WalConfig::default()
            },
        )
        .unwrap();
        let tuples = synthetic_tuples(64, 7);
        group.bench_with_input(BenchmarkId::new("wal_append/batch", 64), &64, |b, _| {
            b.iter(|| black_box(wal.append_batch(black_box(&tuples)).unwrap()));
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    group.finish();
}

criterion_group!(benches, bench_ingest);
criterion_main!(benches);
