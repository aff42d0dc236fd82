//! Cross-crate integration: the full mobile protocol — codec, link,
//! server, clients, concurrent transport — against a live platform.

// Harness code, exempt from the library panic policy: an unwrap here
// fails the run loudly, which is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use enviro_data::{LausanneSim, QueryTuple, SimConfig, Timestamp, WindowSpec};
use enviro_geo::Point;
use enviro_meter::{AdKmnConfig, EnviroMeter, QueryMethod};
use enviro_net::{
    BaselineClient, BinaryCodec, ConcurrentTransport, EnviroServer, ErrorCode, LinkProfile,
    ModelCacheClient, Request, Response, SimulatedLink, TextCodec, WireCodec,
};
use std::sync::Arc;

fn server<C: WireCodec>(codec: C, seed: u64) -> (EnviroServer<C>, LausanneSim) {
    let sim = LausanneSim::lausanne(SimConfig {
        duration_secs: 86_400,
        seed,
        ..SimConfig::default()
    });
    let platform = EnviroMeter::new(
        sim.generate(),
        WindowSpec::ByDuration(4 * 3_600),
        AdKmnConfig::default(),
        1_000.0,
    );
    (
        EnviroServer::new(platform, codec, QueryMethod::ModelCover),
        sim,
    )
}

#[test]
fn cached_cover_answers_match_server_answers() {
    let (srv, sim) = server(BinaryCodec, 1);
    let traj = sim.continuous_trajectory(80, 60, 2);
    let mut l1 = SimulatedLink::new(LinkProfile::IDEAL);
    let base = BaselineClient::new(BinaryCodec)
        .run(&srv, &traj, &mut l1)
        .unwrap();
    let mut l2 = SimulatedLink::new(LinkProfile::IDEAL);
    let cache = ModelCacheClient::new(BinaryCodec)
        .run(&srv, &traj, &mut l2)
        .unwrap();
    for (i, (a, b)) in base.values.iter().zip(&cache.values).enumerate() {
        match (a, b) {
            (Some(x), Some(y)) => {
                assert!((x - y).abs() < 1e-9, "tuple {i}: server {x} vs cached {y}")
            }
            (None, None) => {}
            other => panic!("tuple {i}: {other:?}"),
        }
    }
}

#[test]
fn text_and_binary_codecs_give_identical_values() {
    let (bin_srv, sim) = server(BinaryCodec, 3);
    let (txt_srv, _) = server(TextCodec, 3);
    let traj = sim.continuous_trajectory(40, 60, 4);
    let mut l1 = SimulatedLink::new(LinkProfile::IDEAL);
    let bin = BaselineClient::new(BinaryCodec)
        .run(&bin_srv, &traj, &mut l1)
        .unwrap();
    let mut l2 = SimulatedLink::new(LinkProfile::IDEAL);
    let txt = BaselineClient::new(TextCodec)
        .run(&txt_srv, &traj, &mut l2)
        .unwrap();
    for (a, b) in bin.values.iter().zip(&txt.values) {
        match (a, b) {
            // Text codec prints 9 decimal places; equality up to that.
            (Some(x), Some(y)) => assert!((x - y).abs() < 1e-6, "{x} vs {y}"),
            (None, None) => {}
            other => panic!("{other:?}"),
        }
    }
    // The text session must cost strictly more bytes for equal answers.
    assert!(txt.usage.sent_bytes > bin.usage.sent_bytes);
    assert!(txt.usage.received_bytes > bin.usage.received_bytes);
}

#[test]
fn model_cache_bandwidth_savings_hold_over_3g_too() {
    let (srv, sim) = server(BinaryCodec, 5);
    let traj = sim.continuous_trajectory(100, 60, 6);
    for profile in [LinkProfile::GPRS, LinkProfile::THREE_G] {
        let mut l1 = SimulatedLink::new(profile);
        let base = BaselineClient::new(BinaryCodec)
            .run(&srv, &traj, &mut l1)
            .unwrap();
        let mut l2 = SimulatedLink::new(profile);
        let cache = ModelCacheClient::new(BinaryCodec)
            .run(&srv, &traj, &mut l2)
            .unwrap();
        assert!(
            base.usage.sent_bytes > cache.usage.sent_bytes * 20,
            "{}: sent {} vs {}",
            profile.name,
            base.usage.sent_bytes,
            cache.usage.sent_bytes
        );
        assert!(
            base.elapsed_secs > cache.elapsed_secs * 20.0,
            "{}",
            profile.name
        );
    }
}

#[test]
fn thread_transport_serves_both_request_kinds() {
    let (srv, _) = server(BinaryCodec, 7);
    let transport = ConcurrentTransport::spawn_shared(Arc::new(srv), 1).unwrap();
    let mut session = transport.session();
    let mut call = |req: Request| {
        let reply = session
            .call_with(|out| BinaryCodec.encode_request_into(&req, out))
            .unwrap();
        BinaryCodec.decode_response(reply).unwrap()
    };

    let resp = call(Request::Query {
        time: Timestamp::from_hours(8),
        pos: Point::new(0.0, -200.0),
    });
    assert!(matches!(resp, Response::Value { .. }));

    let resp = call(Request::ModelRequest {
        time: Timestamp::from_hours(8),
    });
    match resp {
        Response::Cover(cover) => assert!(!cover.is_empty()),
        other => panic!("expected cover, got {other:?}"),
    }
}

#[test]
fn reconstructed_cover_round_trips_through_both_codecs() {
    let (srv, _) = server(BinaryCodec, 8);
    let req = Request::ModelRequest {
        time: Timestamp::from_hours(2),
    };
    let resp = srv.handle(&req);
    let Response::Cover(a) = resp else {
        panic!("expected cover");
    };
    for codec in [&BinaryCodec as &dyn WireCodec, &TextCodec as &dyn WireCodec] {
        let bytes = codec.encode_response(&Response::Cover(a.clone()));
        let back = codec.decode_response(&bytes).unwrap();
        let Response::Cover(b) = back else {
            panic!("{}: expected cover", codec.name());
        };
        assert_eq!(b.len(), a.len(), "{}", codec.name());
        assert_eq!(b.valid_until, a.valid_until, "{}", codec.name());
        // Every region must evaluate identically after the round trip
        // (text codec: up to print precision).
        let t = Timestamp::from_hours(2);
        for p in [
            Point::new(0.0, 0.0),
            Point::new(-1_000.0, 500.0),
            Point::new(2_000.0, -1_000.0),
        ] {
            let va = a.interpolate(t, &p).unwrap();
            let vb = b.interpolate(t, &p).unwrap();
            assert!((va - vb).abs() < 1e-6, "{}: {va} vs {vb}", codec.name());
        }
    }
}

/// A query whose position is not finite is a bad request in both codecs,
/// as a non-finite ingest tuple is: the server must not answer it with a
/// NaN, nor answer the rest of its batch.
#[test]
fn a_non_finite_query_coordinate_is_a_bad_request() {
    fn check<C: WireCodec + Copy>(codec: C) {
        let (srv, _) = server(codec, 3);
        let t = Timestamp::from_hours(8);
        let good = Point::new(0.0, -200.0);
        for bad in [
            Point::new(f64::NAN, -200.0),
            Point::new(0.0, f64::NAN),
            Point::new(f64::INFINITY, 0.0),
        ] {
            for req in [
                Request::Query { time: t, pos: bad },
                Request::QueryBatch {
                    seq: 1,
                    queries: vec![QueryTuple::new(t, bad), QueryTuple::new(t, good)],
                },
            ] {
                let reply = srv.handle_bytes(&codec.encode_request(&req));
                match codec.decode_response(&reply).unwrap() {
                    Response::Error(e) => {
                        assert_eq!(e.code, ErrorCode::BadRequest, "{}", codec.name())
                    }
                    other => panic!("{}: {req:?} answered {other:?}", codec.name()),
                }
            }
        }
    }
    check(BinaryCodec);
    check(TextCodec);
}
