//! Wire-codec throughput: encode/decode cost of the messages the phone and
//! server exchange, binary vs text, and of the CRC-32 kernel that stamps
//! and verifies every batch frame.
//!
//! The batch cases are the serving benchmark's frames: `QueryBatch`-64 and
//! its `ValueBatch`-64 reply, and an `IngestBatch`-256. They encode into a
//! reused buffer and hand decoded batches back to the per-thread pools, as
//! the server and client do, so they time the codec rather than the
//! allocator. The `crc32` group hashes the bytes one CRC covers, `<n>B`
//! naming how many: `query_batch64` and `value_batch64` a `QueryBatch`-64
//! frame and its `ValueBatch`-64 reply (`n` taken from the encoded frame),
//! `window_tuples256` the tuple frame of a sealed window file holding 256
//! tuples, 8 KiB of 32-byte records.

// Harness code, exempt from the library panic policy: an unwrap here
// fails the run loudly, which is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use enviro_data::{Pollutant, QueryTuple, RawTuple, Timestamp};
use enviro_geo::Point;
use enviro_meter::{CoverRegion, LinearModel, ModelCover, RegionModel};
use enviro_net::{buffers, BinaryCodec, Request, Response, TextCodec, WireCodec};
use enviro_storage::crc::crc32;
use enviro_storage::record::encode_records;
use std::hint::black_box;

fn sample_cover(regions: usize) -> ModelCover {
    ModelCover {
        pollutant: Pollutant::default(),
        window_id: 0,
        valid_until: Timestamp::from_secs(14_400),
        regions: (0..regions)
            .map(|i| CoverRegion {
                centroid: Point::new(i as f64 * 100.0, -(i as f64) * 50.0),
                model: RegionModel::Linear(LinearModel::from_coefficients(
                    &[i as f64 + 1.0; LinearModel::COEFFICIENT_COUNT],
                )),
                training_error_percent: 0.0,
                population: 0,
            })
            .collect(),
    }
}

fn query_batch(n: usize) -> Request {
    Request::QueryBatch {
        seq: 7,
        queries: (0..n)
            .map(|i| {
                QueryTuple::new(
                    Timestamp::from_secs(3_600 + i as i64 * 30),
                    Point::new(i as f64 * 12.5, -(i as f64) * 7.25),
                )
            })
            .collect(),
    }
}

fn value_batch(n: usize) -> Response {
    Response::ValueBatch {
        seq: 7,
        generation: 3,
        // Mostly hits, one miss in eight, like a cover with gaps.
        values: (0..n)
            .map(|i| (i % 8 != 7).then_some(400.0 + i as f64 * 0.5))
            .collect(),
    }
}

fn raw_tuples(n: usize) -> Vec<RawTuple> {
    (0..n)
        .map(|i| {
            RawTuple::new(
                Timestamp::from_secs(i as i64 * 30),
                Point::new(i as f64 * 2.5, -(i as f64) * 0.125),
                400.0 + i as f64,
            )
        })
        .collect()
}

fn ingest_batch(n: usize) -> Request {
    Request::IngestBatch {
        source: 42,
        seq: 11,
        tuples: raw_tuples(n),
    }
}

/// Returns a decoded batch's vector to its pool, as the serving path does.
fn recycle_request(req: Request) {
    if let Request::QueryBatch { queries, .. } = req {
        buffers::recycle_queries(queries);
    }
}

fn recycle_response(resp: Response) {
    if let Response::ValueBatch { values, .. } = resp {
        buffers::recycle_values(values);
    }
}

fn bench_codecs(c: &mut Criterion) {
    let query = Request::Query {
        time: Timestamp::from_secs(12_345),
        pos: Point::new(123.456, -654.321),
    };
    let cover = Response::Cover(sample_cover(16));
    let batches = [
        ("query_batch64", query_batch(64)),
        ("ingest256", ingest_batch(256)),
    ];
    let values = value_batch(64);

    let mut group = c.benchmark_group("codec");
    for (name, codec) in [
        ("binary", &BinaryCodec as &dyn WireCodec),
        ("text", &TextCodec as &dyn WireCodec),
    ] {
        group.bench_with_input(BenchmarkId::new("encode_query", name), &name, |b, _| {
            b.iter(|| black_box(codec.encode_request(black_box(&query))));
        });
        let query_bytes = codec.encode_request(&query);
        group.bench_with_input(BenchmarkId::new("decode_query", name), &name, |b, _| {
            b.iter(|| black_box(codec.decode_request(black_box(&query_bytes)).unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("encode_cover16", name), &name, |b, _| {
            b.iter(|| black_box(codec.encode_response(black_box(&cover))));
        });
        let cover_bytes = codec.encode_response(&cover);
        group.bench_with_input(BenchmarkId::new("decode_cover16", name), &name, |b, _| {
            b.iter(|| black_box(codec.decode_response(black_box(&cover_bytes)).unwrap()));
        });
        let mut out = Vec::new();
        for (case, req) in &batches {
            group.bench_with_input(
                BenchmarkId::new(format!("encode_{case}"), name),
                &name,
                |b, _| {
                    b.iter(|| {
                        out.clear();
                        codec.encode_request_into(black_box(req), &mut out);
                        black_box(out.len())
                    });
                },
            );
            let bytes = codec.encode_request(req);
            group.bench_with_input(
                BenchmarkId::new(format!("decode_{case}"), name),
                &name,
                |b, _| {
                    b.iter(|| {
                        recycle_request(black_box(codec.decode_request(black_box(&bytes)).unwrap()))
                    });
                },
            );
        }
        group.bench_with_input(
            BenchmarkId::new("encode_value_batch64", name),
            &name,
            |b, _| {
                b.iter(|| {
                    out.clear();
                    codec.encode_response_into(black_box(&values), &mut out);
                    black_box(out.len())
                });
            },
        );
        let bytes = codec.encode_response(&values);
        group.bench_with_input(
            BenchmarkId::new("decode_value_batch64", name),
            &name,
            |b, _| {
                b.iter(|| {
                    recycle_response(black_box(codec.decode_response(black_box(&bytes)).unwrap()))
                });
            },
        );
    }
    group.finish();
}

fn bench_crc(c: &mut Criterion) {
    // The bytes a batch frame's CRC covers: all but its trailer.
    let query = BinaryCodec.encode_request(&query_batch(64));
    let reply = BinaryCodec.encode_response(&value_batch(64));
    let mut tuples = Vec::new();
    encode_records(&raw_tuples(256), &mut tuples);
    let cases = [
        ("query_batch64", &query[..query.len() - 4]),
        ("value_batch64", &reply[..reply.len() - 4]),
        ("window_tuples256", &tuples[..]),
    ];
    let mut group = c.benchmark_group("crc32");
    for (name, covered) in cases {
        let case = BenchmarkId::new(name, format!("{}B", covered.len()));
        group.bench_function(case, |b| b.iter(|| black_box(crc32(black_box(covered)))));
    }
    group.finish();
}

criterion_group!(benches, bench_codecs, bench_crc);
criterion_main!(benches);
