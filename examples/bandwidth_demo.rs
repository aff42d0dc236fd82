//! The §2.3 bandwidth story, end to end: a phone runs the same continuous
//! query as a baseline client and as a model-cache client, over simulated
//! GPRS and 3G bearers — and once across a real thread boundary via a
//! one-worker concurrent transport.
//!
//! ```text
//! cargo run -p enviro-net --example bandwidth_demo
//! ```

// Harness code, exempt from the library panic policy: an unwrap here
// fails the run loudly, which is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use enviro_data::{LausanneSim, SimConfig, Timestamp, WindowSpec};
use enviro_geo::Point;
use enviro_meter::{AdKmnConfig, EnviroMeter, QueryMethod};
use enviro_net::{
    BaselineClient, BinaryCodec, ConcurrentTransport, EnviroServer, LinkProfile, ModelCacheClient,
    Request, Response, SimulatedLink, WireCodec,
};
use std::sync::Arc;

fn main() {
    let sim = LausanneSim::lausanne(SimConfig {
        duration_secs: 86_400,
        ..SimConfig::default()
    });
    let platform = EnviroMeter::new(
        sim.generate(),
        WindowSpec::ByDuration(4 * 3_600),
        AdKmnConfig::default(),
        1_000.0,
    );
    let server = EnviroServer::new(platform, BinaryCodec, QueryMethod::ModelCover);
    let trajectory = sim.continuous_trajectory(100, 60, 9);

    println!("100-tuple continuous query, binary codec\n");
    for profile in [LinkProfile::GPRS, LinkProfile::THREE_G] {
        println!("--- bearer: {} ---", profile.name);
        let mut base_link = SimulatedLink::new(profile);
        let base = BaselineClient::new(BinaryCodec)
            .run(&server, &trajectory, &mut base_link)
            .expect("baseline session");
        let mut cache_link = SimulatedLink::new(profile);
        let cache = ModelCacheClient::new(BinaryCodec)
            .run(&server, &trajectory, &mut cache_link)
            .expect("model-cache session");
        for (name, s) in [("baseline", &base), ("model-cache", &cache)] {
            println!(
                "  {name:>11}: sent {:>6} B, received {:>6} B, {:>7.2} s, {} round-trips",
                s.usage.sent_bytes, s.usage.received_bytes, s.elapsed_secs, s.server_exchanges
            );
        }
        println!(
            "  savings: {:.0}x sent, {:.0}x received, {:.0}x faster\n",
            base.usage.sent_bytes as f64 / cache.usage.sent_bytes.max(1) as f64,
            base.usage.received_bytes as f64 / cache.usage.received_bytes.max(1) as f64,
            base.elapsed_secs / cache.elapsed_secs.max(1e-9)
        );
    }

    // The same protocol through the concurrent transport: the phone talks
    // to the server in raw bytes, one permit serving one frame at a time.
    println!("--- concurrent transport (one permit) ---");
    let transport = ConcurrentTransport::spawn_shared(Arc::new(server), 1).expect("transport");
    let req = Request::Query {
        time: Timestamp::from_hours(8),
        pos: Point::new(0.0, -200.0),
    };
    let mut session = transport.session();
    let resp_bytes = session
        .call_with(|out| BinaryCodec.encode_request_into(&req, out))
        .expect("server answers");
    match BinaryCodec
        .decode_response(resp_bytes)
        .expect("well-formed")
    {
        Response::Value { value } => {
            println!("  CO2 at the interchange via the transport: {value:.1} ppm")
        }
        other => println!("  unexpected response: {other:?}"),
    }
}
