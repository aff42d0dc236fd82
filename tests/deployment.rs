//! The full deployment pipeline in one test file:
//! simulate → durable store → crash → recover → platform → server →
//! phone client over a lossy cellular link.

// Harness code, exempt from the library panic policy: an unwrap here
// fails the run loudly, which is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use enviro_data::{Dataset, LausanneSim, Pollutant, SimConfig, WindowSpec};
use enviro_meter::{AdKmnConfig, EnviroMeter, QueryMethod};
use enviro_net::{
    BaselineClient, BinaryCodec, EnviroServer, LinkProfile, ModelCacheClient, SimulatedLink,
};
use enviro_storage::{WalConfig, WalStore};
use std::path::PathBuf;

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("enviro-deploy-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn sensing_to_phone_through_storage_and_crash() {
    let dir = tempdir("full");
    let sim = LausanneSim::lausanne(SimConfig {
        duration_secs: 12 * 3_600,
        seed: 99,
        ..SimConfig::default()
    });
    let dataset = sim.generate();

    // Ingestion node: stream the day into the store in hourly batches, with
    // small WAL segments to force rotation.
    let config = WalConfig {
        max_wal_segment_bytes: 8_192,
        ..WalConfig::default()
    };
    {
        let mut store = WalStore::open(&dir, config).unwrap();
        let tuples = dataset.tuples();
        let mut offset = 0;
        while offset < tuples.len() {
            let end = (offset + 120).min(tuples.len());
            store.append_batch(&tuples[offset..end]).unwrap();
            offset = end;
        }
        assert!(
            store.stats().wal_segments > 1,
            "rotation must have happened"
        );
    }

    // "Crash": tear the active WAL segment's tail.
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir.join("wal"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "log"))
        .collect();
    segs.sort();
    let last = segs.last().unwrap();
    let len = std::fs::metadata(last).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(last)
        .unwrap()
        .set_len(len - 7)
        .unwrap();

    // Recovery: reopen, losing at most the torn batch.
    let store = WalStore::open(&dir, config).unwrap();
    let stats = store.stats();
    assert!(stats.recovered_torn_tail);
    assert!(
        stats.durable_tuples as usize > dataset.len() - 240,
        "lost too much: {stats:?}"
    );
    let recovered = Dataset::from_tuples(Pollutant::Co2, store.tuples().unwrap()).unwrap();

    // Server over the recovered data; phone session over a lossy GPRS cell.
    let platform = EnviroMeter::new(
        recovered,
        WindowSpec::ByDuration(4 * 3_600),
        AdKmnConfig::default(),
        1_000.0,
    );
    let server = EnviroServer::new(platform, BinaryCodec, QueryMethod::ModelCover);
    let trajectory = sim.continuous_trajectory(60, 60, 5);

    let mut base_link = SimulatedLink::with_seed(LinkProfile::GPRS.with_loss(0.1), 1);
    let baseline = BaselineClient::new(BinaryCodec)
        .run(&server, &trajectory, &mut base_link)
        .unwrap();
    let mut cache_link = SimulatedLink::with_seed(LinkProfile::GPRS.with_loss(0.1), 2);
    let cache = ModelCacheClient::new(BinaryCodec)
        .run(&server, &trajectory, &mut cache_link)
        .unwrap();

    // Both clients answer the whole trajectory with identical values.
    assert!(baseline.values.iter().all(Option::is_some));
    for (a, b) in baseline.values.iter().zip(&cache.values) {
        match (a, b) {
            (Some(x), Some(y)) => assert!((x - y).abs() < 1e-9),
            other => panic!("{other:?}"),
        }
    }
    // And caching still wins by a wide margin on the lossy link.
    assert!(baseline.elapsed_secs > cache.elapsed_secs * 10.0);
    assert!(baseline.usage.sent_bytes > cache.usage.sent_bytes * 10);

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn ingest_state_over_store_replay_matches_batch_platform() {
    use enviro_data::QueryTuple;
    use enviro_net::{IngestConfig, IngestState};

    let dir = tempdir("replay");
    let sim = LausanneSim::lausanne(SimConfig {
        duration_secs: 8 * 3_600,
        seed: 77,
        ..SimConfig::default()
    });
    let dataset = sim.generate();
    {
        let mut store = WalStore::open(&dir, WalConfig::default()).unwrap();
        store.append_batch(dataset.tuples()).unwrap();
    }
    let store = WalStore::open(&dir, WalConfig::default()).unwrap();
    let recovered = Dataset::from_tuples(Pollutant::Co2, store.tuples().unwrap()).unwrap();

    // The durable write path fed by replay: one ingest batch per 500
    // recovered tuples, then one maintenance pass publishes every window.
    let wal_dir = tempdir("replay-wal");
    let live = IngestState::open(
        &wal_dir,
        WalConfig {
            window_secs: 2 * 3_600,
            ..WalConfig::default()
        },
        IngestConfig::default(),
    )
    .unwrap();
    for (seq, chunk) in (1..).zip(recovered.tuples().chunks(500)) {
        live.ingest(1, seq, chunk).unwrap();
    }
    live.rebuild_dirty_now().unwrap();

    // Batch platform over the same data and windowing.
    let platform = EnviroMeter::new(
        recovered,
        WindowSpec::ByDuration(2 * 3_600),
        AdKmnConfig::default(),
        1_000.0,
    );

    for (i, q) in sim.query_workload(60, 200.0, 13).into_iter().enumerate() {
        let batch = platform.point_query(&q, QueryMethod::ModelCover);
        let streaming = live.query(&QueryTuple::new(q.time, q.pos)).flatten();
        match (batch, streaming) {
            (Some(a), Some(b)) => {
                assert!((a - b).abs() < 1e-9, "query {i}: batch {a} vs live {b}")
            }
            other => panic!("query {i}: {other:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&wal_dir).unwrap();
}
