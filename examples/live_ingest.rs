//! A live deployment in one process: tuples stream in from the buses and
//! land durably in the WAL, a background maintenance worker rebuilds each
//! touched window's Ad-KMN cover and publishes it, and a user polls the
//! pollution around them from the published covers — then the server
//! "crashes", recovers from disk and answers the same.
//!
//! ```text
//! cargo run -p enviro-net --example live_ingest
//! ```

// Harness code, exempt from the library panic policy: an unwrap here
// fails the run loudly, which is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use enviro_data::{LausanneSim, QueryTuple, SimConfig, Timestamp};
use enviro_geo::Point;
use enviro_net::{IngestConfig, IngestState, ModelMaintenance};
use enviro_storage::WalConfig;
use std::sync::Arc;
use std::time::Duration;

fn open(dir: &std::path::Path) -> Arc<IngestState> {
    let wal = WalConfig {
        window_secs: 2 * 3_600,
        ..WalConfig::default()
    };
    Arc::new(IngestState::open(dir, wal, IngestConfig::default()).expect("open ingest state"))
}

/// Waits until the maintenance worker has published every acked window.
fn settle(state: &IngestState) {
    while state.has_dirty_windows() {
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn main() {
    let sim = LausanneSim::lausanne(SimConfig {
        duration_secs: 12 * 3_600,
        ..SimConfig::default()
    });
    let dataset = sim.generate();

    let dir = std::env::temp_dir().join("enviro-live-demo");
    let _ = std::fs::remove_dir_all(&dir);
    let state = open(&dir);
    let maintenance = ModelMaintenance::spawn(Arc::clone(&state)).expect("spawn maintenance");

    // Replay the day: one durable batch per simulated 10 minutes, with a
    // user query every simulated hour.
    let user_at = Point::new(0.0, -200.0); // the central interchange
    let step = 600;
    let tuples = dataset.tuples();
    let mut offset = 0usize;
    for tick in 0u32.. {
        let until = Timestamp::from_secs((i64::from(tick) + 1) * step);
        let end = tuples[offset..]
            .iter()
            .position(|t| t.time >= until)
            .map_or(tuples.len(), |p| offset + p);
        if offset == end && end == tuples.len() {
            break;
        }
        let ack = state
            .ingest(1, tick, &tuples[offset..end])
            .expect("durable append");
        offset = end;

        if until.as_secs() % 3_600 == 0 {
            settle(&state);
            let q = QueryTuple::new(until, user_at);
            match state.query(&q).flatten() {
                Some(v) => println!(
                    "{until}  CO2 at interchange: {v:7.1} ppm   \
                     (durable {:>6}, cover generation {:>3})",
                    ack.durable_upto,
                    state.generation()
                ),
                None => println!("{until}  no covers published yet"),
            }
        }
    }
    settle(&state);
    drop(maintenance);

    let stats = state.stats();
    println!(
        "\ningest: {} tuples durable in {} acked batches; {} maintenance passes \
         published {} window covers and sealed {} windows",
        stats.durable_tuples,
        stats.acked_batches,
        stats.rebuilds,
        stats.published_windows,
        stats.sealed_windows
    );

    // Crash recovery works end to end: reopen the directory, republish
    // every recovered window, and ask again.
    let last = QueryTuple::new(Timestamp::from_secs(12 * 3_600 - 1), user_at);
    let before = state.query(&last).flatten();
    drop(state);
    let recovered = open(&dir);
    recovered
        .rebuild_dirty_now()
        .expect("republish after recovery");
    let after = recovered.query(&last).flatten();
    println!(
        "recovered {} tuples from disk after restart; last answer {} ✓",
        recovered.stats().durable_tuples,
        if before.map(f64::to_bits) == after.map(f64::to_bits) {
            "unchanged"
        } else {
            "CHANGED"
        }
    );
    std::fs::remove_dir_all(&dir).ok();
}
