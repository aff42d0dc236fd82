//! Concurrency stress: many client sessions hammering one shared server
//! must produce answers bit-identical to sequential in-process calls.
//!
//! This is the correctness half of the throughput story: the concurrent
//! transport shares one `EnviroServer` across the sessions' threads with no
//! locks on the query path, so any data race or cross-session reply mixup would
//! show up here as a value mismatch.

// Harness code, exempt from the library panic policy: an unwrap here
// fails the run loudly, which is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use enviro_data::{LausanneSim, Pollutant, QueryTuple, SimConfig, WindowSpec};
use enviro_meter::{AdKmnConfig, EnviroMeter, QueryMethod};
use enviro_net::{
    BinaryCodec, ConcurrentTransport, EnviroClient, EnviroServer, Request, Response,
    TransportConfig, WireCodec,
};
use std::sync::Arc;

const CLIENTS: usize = 4;
const QUERIES_PER_CLIENT: usize = 200;

fn shared_server() -> Arc<EnviroServer<BinaryCodec>> {
    let sim = LausanneSim::lausanne(SimConfig {
        duration_secs: 6 * 3_600,
        seed: 4242,
        ..SimConfig::default()
    });
    let platform = EnviroMeter::new(
        sim.generate(),
        WindowSpec::ByDuration(2 * 3_600),
        AdKmnConfig::default(),
        1_000.0,
    );
    Arc::new(EnviroServer::new(
        platform,
        BinaryCodec,
        QueryMethod::ModelCover,
    ))
}

/// Client `k`'s trajectory: distinct per client so a reply delivered to the
/// wrong session cannot accidentally carry the right value.
fn trajectory(k: usize) -> Vec<QueryTuple> {
    let sim = LausanneSim::lausanne(SimConfig {
        duration_secs: 6 * 3_600,
        seed: 4242,
        ..SimConfig::default()
    });
    sim.continuous_trajectory(QUERIES_PER_CLIENT, 90, k as u64 + 1)
}

/// The ground truth: answer `traj` sequentially, straight through
/// `handle()`, no wire, no threads.
fn sequential_answers(server: &EnviroServer<BinaryCodec>, traj: &[QueryTuple]) -> Vec<Option<f64>> {
    traj.iter()
        .map(|q| {
            match server.handle(&Request::Query {
                time: q.time,
                pos: q.pos,
            }) {
                Response::Value { value } => Some(value),
                Response::NoData => None,
                other => panic!("unexpected response {other:?}"),
            }
        })
        .collect()
}

fn assert_bit_identical(expected: &[Option<f64>], got: &[Option<f64>], who: &str) {
    assert_eq!(expected.len(), got.len(), "{who}: length mismatch");
    for (i, (e, g)) in expected.iter().zip(got).enumerate() {
        match (e, g) {
            (Some(e), Some(g)) => assert_eq!(
                e.to_bits(),
                g.to_bits(),
                "{who}: tuple {i} differs: {e} vs {g}"
            ),
            (None, None) => {}
            other => panic!("{who}: tuple {i} differs: {other:?}"),
        }
    }
}

#[test]
fn concurrent_sessions_match_sequential_bit_for_bit() {
    let server = shared_server();
    let expected: Vec<Vec<Option<f64>>> = (0..CLIENTS)
        .map(|k| sequential_answers(&server, &trajectory(k)))
        .collect();

    // Four permits serve every session at once; one permit makes three of
    // the four sessions wait, in a wait list deep enough to shed nothing.
    for workers in [4, 1] {
        let config = TransportConfig {
            workers,
            max_queue: CLIENTS,
        };
        let transport =
            ConcurrentTransport::spawn_shared_with(Arc::clone(&server), config).unwrap();
        sessions_match(&transport, &expected, workers);
        assert_eq!(transport.shed_total(), 0, "{workers} workers");
    }
}

/// Runs the `CLIENTS` sessions on `transport` concurrently and checks each
/// one's answers against `expected`, bit for bit.
fn sessions_match(transport: &ConcurrentTransport, expected: &[Vec<Option<f64>>], workers: usize) {
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for k in 0..CLIENTS {
            handles.push(scope.spawn(move || {
                let traj = trajectory(k);
                let mut session = transport.session();
                // Odd clients batch, even clients send per-tuple frames, so
                // both frame kinds interleave on the same permits.
                if k % 2 == 1 {
                    let mut client =
                        EnviroClient::new(BinaryCodec, Pollutant::Co2).with_batch(16 + k);
                    let mut values = Vec::new();
                    client
                        .query_batch(&mut session, &traj, &mut values)
                        .unwrap();
                    values
                } else {
                    traj.iter()
                        .map(|q| {
                            let reply = session
                                .call_with(|out| {
                                    BinaryCodec.encode_request_into(
                                        &Request::Query {
                                            time: q.time,
                                            pos: q.pos,
                                        },
                                        out,
                                    )
                                })
                                .unwrap();
                            match BinaryCodec.decode_response(reply).unwrap() {
                                Response::Value { value } => Some(value),
                                Response::NoData => None,
                                other => panic!("unexpected response {other:?}"),
                            }
                        })
                        .collect()
                }
            }));
        }
        for (k, handle) in handles.into_iter().enumerate() {
            let got: Vec<Option<f64>> = handle.join().unwrap();
            let who = format!("client {k}, {workers} workers");
            assert_bit_identical(&expected[k], &got, &who);
        }
    });
}

#[test]
fn garbage_frames_mid_stream_do_not_poison_other_sessions() {
    let server = shared_server();
    let transport = ConcurrentTransport::spawn_shared(Arc::clone(&server), 2).unwrap();
    let traj = trajectory(0);
    let expected = sequential_answers(&server, &traj);

    std::thread::scope(|scope| {
        // A vandal session interleaving garbage with valid traffic.
        let vandal = {
            let transport = &transport;
            scope.spawn(move || {
                let mut session = transport.session();
                for i in 0..100u8 {
                    let reply = session
                        .call_with(|out| out.extend_from_slice(&[0xFF, i, 0xEE]))
                        .unwrap();
                    assert!(matches!(
                        BinaryCodec.decode_response(reply).unwrap(),
                        Response::Error(_)
                    ));
                }
            })
        };
        // A well-behaved batched client running alongside.
        let honest = {
            let transport = &transport;
            let traj = &traj;
            scope.spawn(move || {
                let mut session = transport.session();
                let mut client = EnviroClient::new(BinaryCodec, Pollutant::Co2).with_batch(32);
                let mut values = Vec::new();
                client.query_batch(&mut session, traj, &mut values).unwrap();
                assert_eq!(client.protocol_errors(), 0);
                values
            })
        };
        vandal.join().unwrap();
        let got = honest.join().unwrap();
        assert_bit_identical(&expected, &got, "honest client");
    });
}

/// A stream of batch frames on one session, one at a time over a
/// four-permit transport: reply N answers request N (its `seq`), bit-identical
/// to sequential `handle()` calls.
#[test]
fn pipelined_batches_round_trip_under_contention() {
    let server = shared_server();
    let transport = ConcurrentTransport::spawn_shared(Arc::clone(&server), 4).unwrap();
    let traj = trajectory(2);
    let expected = sequential_answers(&server, &traj);

    let mut session = transport.session();
    let mut got = Vec::with_capacity(traj.len());
    for (i, chunk) in traj.chunks(25).enumerate() {
        let reply = session
            .call_with(|out| {
                BinaryCodec.encode_request_into(
                    &Request::QueryBatch {
                        seq: i as u32 + 1,
                        queries: chunk.to_vec(),
                    },
                    out,
                )
            })
            .unwrap();
        match BinaryCodec.decode_response(reply).unwrap() {
            Response::ValueBatch { seq, values, .. } => {
                assert_eq!(seq, i as u32 + 1);
                assert_eq!(values.len(), chunk.len());
                got.extend_from_slice(&values);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_bit_identical(&expected, &got, "sequential batches");
}

#[test]
fn corrupt_frame_mid_pipeline_is_isolated_to_its_own_reply() {
    let server = shared_server();
    let transport = ConcurrentTransport::spawn_shared(Arc::clone(&server), 2).unwrap();
    let traj = trajectory(1);
    let expected = sequential_answers(&server, &traj);

    // Three batch frames on one session; the middle one gets a bit flipped
    // after encoding, so its CRC check must fail server-side. The
    // corruption must produce exactly one Error reply, to that frame, with
    // both neighbors served.
    let mut session = transport.session();
    let chunks: Vec<&[QueryTuple]> = traj.chunks(traj.len().div_ceil(3)).collect();
    assert_eq!(chunks.len(), 3);
    let mut got: Vec<Option<f64>> = Vec::new();
    for (i, chunk) in chunks.iter().enumerate() {
        let reply = session
            .call_with(|out| {
                BinaryCodec.encode_request_into(
                    &Request::QueryBatch {
                        seq: i as u32 + 1,
                        queries: chunk.to_vec(),
                    },
                    out,
                );
                if i == 1 {
                    let mid = out.len() / 2;
                    out[mid] ^= 0x01;
                }
            })
            .unwrap();
        match BinaryCodec.decode_response(reply).unwrap() {
            Response::ValueBatch { seq, values, .. } => {
                assert_ne!(i, 1, "corrupted frame must not be answered");
                assert_eq!(seq, i as u32 + 1);
                assert_eq!(values.len(), chunk.len());
                got.extend_from_slice(&values);
            }
            Response::Error(_) => {
                assert_eq!(i, 1, "only the corrupted frame may error");
                // Placeholders so the audit below lines up positionally.
                got.extend(std::iter::repeat_n(None, chunk.len()));
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    let healthy = |v: &[Option<f64>]| {
        v.iter()
            .enumerate()
            .filter(|(i, _)| *i < chunks[0].len() || *i >= chunks[0].len() + chunks[1].len())
            .map(|(_, v)| *v)
            .collect::<Vec<_>>()
    };
    assert_bit_identical(&healthy(&expected), &healthy(&got), "neighbor frames");
}

#[test]
fn transport_shutdown_is_clean_after_heavy_traffic() {
    let server = shared_server();
    let transport = ConcurrentTransport::spawn_shared(server, 4).unwrap();
    std::thread::scope(|scope| {
        for k in 0..CLIENTS {
            let transport = &transport;
            scope.spawn(move || {
                let traj = trajectory(k);
                let mut session = transport.session();
                let mut client = EnviroClient::new(BinaryCodec, Pollutant::Co2).with_batch(8);
                let mut values = Vec::new();
                client
                    .query_batch(&mut session, &traj, &mut values)
                    .unwrap();
            });
        }
    });
    drop(transport); // must find every permit returned, without hanging
}
