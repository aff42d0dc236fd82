//! Sealed windows' covers are paged out of memory and read back from their
//! window files through the registry's cover cache. Nothing a client sees
//! may change: `Query`, `QueryBatch` and `ModelRequest` answers for a
//! paged-out window, from a cold cache and a warm one, are bit-equal to a
//! batch `QueryEngine` over the same tuples and to what the same state
//! answered while the cover was resident. A cover that cannot be read
//! back is an error reply naming its window, never `NoData` or a value.

// Harness code, exempt from the library panic policy: an unwrap here
// fails the run loudly, which is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use enviro_data::{Dataset, Pollutant, QueryTuple, RawTuple, Timestamp, WindowSpec};
use enviro_geo::Point;
use enviro_meter::{AdKmnConfig, EnviroMeter, QueryEngine, QueryMethod};
use enviro_net::{
    BinaryCodec, EnviroServer, ErrorCode, IngestConfig, IngestState, Request, Response, XorShiftRng,
};
use enviro_storage::WalConfig;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const WINDOW_SECS: i64 = 100;

fn temp_dir(tag: &str) -> PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("enviro-paged-{tag}-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open_state(dir: &Path) -> Arc<IngestState> {
    let wal = WalConfig {
        window_secs: WINDOW_SECS,
        ..WalConfig::default()
    };
    Arc::new(IngestState::open(dir, wal, IngestConfig::default()).unwrap())
}

/// A server with no static history, answering from `state`'s registry.
fn serve(state: &Arc<IngestState>) -> EnviroServer<BinaryCodec> {
    let platform = EnviroMeter::new(
        Dataset::new(Pollutant::Co2),
        WindowSpec::ByDuration(WINDOW_SECS),
        AdKmnConfig::default(),
        1_000.0,
    );
    EnviroServer::new(platform, BinaryCodec, QueryMethod::ModelCover).with_ingest(Arc::clone(state))
}

/// The tuples of window `id`: evenly spaced, distinct times from a random
/// offset into the window, at a per-window level.
fn window(id: i64, rng: &mut XorShiftRng) -> Vec<RawTuple> {
    let n = rng.next_in_range(8, 24) as i64;
    let start = id * WINDOW_SECS + rng.next_in_range(0, 20) as i64;
    let step = (WINDOW_SECS - 20) / n;
    let level = 300.0 + 600.0 * rng.next_f64();
    (0..n)
        .map(|i| {
            RawTuple::new(
                Timestamp::from_secs(start + i * step),
                Point::new(400.0 * rng.next_f64(), -400.0 * rng.next_f64()),
                level + 50.0 * rng.next_f64(),
            )
        })
        .collect()
}

/// Probe times before, inside (edges, first tuple, middle) and after every
/// window, at random positions.
fn probes(windows: &[Vec<RawTuple>], rng: &mut XorShiftRng) -> Vec<QueryTuple> {
    let mut times = vec![-WINDOW_SECS];
    for (id, w) in windows.iter().enumerate() {
        let base = id as i64 * WINDOW_SECS;
        times.extend([base, w[0].time.as_secs(), base + 50, base + WINDOW_SECS - 1]);
    }
    times.push(100 * WINDOW_SECS);
    times
        .iter()
        .map(|&t| {
            let pos = Point::new(500.0 * rng.next_f64() - 50.0, -500.0 * rng.next_f64());
            QueryTuple::new(Timestamp::from_secs(t), pos)
        })
        .collect()
}

/// What a client sees for `q`: the `Query` value's bits and the
/// `ModelRequest` reply.
type Seen = (Option<u64>, Response);

fn seen(server: &EnviroServer<BinaryCodec>, q: &QueryTuple) -> Seen {
    let value = match server.handle(&Request::Query {
        time: q.time,
        pos: q.pos,
    }) {
        Response::Value { value } => Some(value.to_bits()),
        Response::NoData => None,
        other => panic!("expected a value at {}, got {other:?}", q.time.as_secs()),
    };
    (
        value,
        server.handle(&Request::ModelRequest { time: q.time }),
    )
}

/// The batch engine's answer for `q`.
fn batch_seen(batch: &QueryEngine, q: &QueryTuple) -> Seen {
    let value = batch.query(q, QueryMethod::ModelCover).map(f64::to_bits);
    let cover = batch
        .cover_for_time(q.time)
        .filter(|c| !c.is_empty())
        .map_or(Response::NoData, |c| Response::Cover(c.clone()));
    (value, cover)
}

/// The `QueryBatch` reply's values as bits, and its generation.
fn batch_reply(
    server: &EnviroServer<BinaryCodec>,
    queries: &[QueryTuple],
) -> (u64, Vec<Option<u64>>) {
    match server.handle(&Request::QueryBatch {
        seq: 3,
        queries: queries.to_vec(),
    }) {
        Response::ValueBatch {
            generation, values, ..
        } => (
            generation,
            values.iter().map(|v| v.map(f64::to_bits)).collect(),
        ),
        other => panic!("expected a value batch, got {other:?}"),
    }
}

/// Ingests `windows` one at a time, a maintenance pass after each, and
/// returns, per probe, what the server answered once every window that
/// can answer it was published, while that window's cover was resident.
fn ingest_recording(
    state: &Arc<IngestState>,
    server: &EnviroServer<BinaryCodec>,
    windows: &[Vec<RawTuple>],
    probes: &[QueryTuple],
) -> Vec<Seen> {
    let mut before: Vec<Option<Seen>> = vec![None; probes.len()];
    for (k, w) in windows.iter().enumerate() {
        state.ingest(1, k as u32 + 1, w).unwrap();
        state.rebuild_dirty_now().unwrap();
        // Windows past epoch `k` start later than any time in it, so a
        // probe up to epoch `k` has its final answer now, from window
        // `k - 1` or `k`: both still open.
        let final_below = Timestamp::from_secs((k as i64 + 1) * WINDOW_SECS);
        let snapshot = state.registry().snapshot();
        for (q, slot) in probes.iter().zip(&mut before) {
            if slot.is_none() && (q.time < final_below || k + 1 == windows.len()) {
                let entry = snapshot.cover_for_time(q.time).unwrap();
                assert!(
                    entry.cover.resident().is_some(),
                    "recorded from a resident cover"
                );
                *slot = Some(seen(server, q));
            }
        }
    }
    before.into_iter().map(Option::unwrap).collect()
}

/// Every probe's answers, one by one and as one batch, equal `want`.
fn check_answers(
    state: &IngestState,
    server: &EnviroServer<BinaryCodec>,
    probes: &[QueryTuple],
    want: &[Seen],
    label: &str,
) -> Result<(), TestCaseError> {
    for (q, want) in probes.iter().zip(want) {
        prop_assert_eq!(&seen(server, q), want, "{} at {}", label, q.time.as_secs());
    }
    let (generation, values) = batch_reply(server, probes);
    prop_assert_eq!(generation, state.generation(), "{}", label);
    let want_values: Vec<Option<u64>> = want.iter().map(|w| w.0).collect();
    prop_assert_eq!(values, want_values, "{} batch", label);
    Ok(())
}

fn paged_windows(state: &IngestState) -> Vec<u64> {
    let snapshot = state.registry().snapshot();
    let paged = snapshot
        .entries()
        .iter()
        .filter(|e| e.cover.resident().is_none());
    paged.map(|e| e.window_id).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn paged_covers_answer_like_the_batch_engine_and_as_before_the_seal(
        n in 3usize..7,
        seed in any::<u64>(),
    ) {
        let mut rng = XorShiftRng::new(seed);
        let windows: Vec<Vec<RawTuple>> = (0..n).map(|id| window(id as i64, &mut rng)).collect();
        let probes = probes(&windows, &mut rng);
        let batch = QueryEngine::new(
            Dataset::from_tuples(Pollutant::Co2, windows.concat()).unwrap(),
            WindowSpec::ByDuration(WINDOW_SECS),
            AdKmnConfig::default(),
            1_000.0,
        );
        let want: Vec<Seen> = probes.iter().map(|q| batch_seen(&batch, q)).collect();

        let dir = temp_dir("props");
        let state = open_state(&dir);
        let server = serve(&state);
        let before = ingest_recording(&state, &server, &windows, &probes);
        prop_assert_eq!(&before, &want, "resident answers");
        // Seal lag 1: every window but the newest two is sealed and paged
        // out. The seal leaves the cache empty: the first reads miss once
        // per paged window, the next ones hit.
        let sealed: Vec<u64> = (0..n as u64 - 2).collect();
        prop_assert_eq!(paged_windows(&state), sealed.clone());
        let generation = state.generation();
        check_answers(&state, &server, &probes, &want, "cold after the seal")?;
        prop_assert_eq!(state.registry().cache_stats().misses, n as u64 - 2);
        check_answers(&state, &server, &probes, &want, "warm after the seal")?;
        prop_assert_eq!(state.registry().cache_stats().misses, n as u64 - 2);
        prop_assert_eq!(state.generation(), generation, "reads publish nothing");
        drop(server);
        drop(state);

        // A restart publishes the sealed windows paged out, with a cold
        // cache: the first reads miss, the next ones hit.
        let state = open_state(&dir);
        state.rebuild_dirty_now().unwrap();
        prop_assert_eq!(paged_windows(&state), sealed);
        let server = serve(&state);
        check_answers(&state, &server, &probes, &want, "cold after a restart")?;
        let misses = state.registry().cache_stats().misses;
        prop_assert_eq!(misses, n as u64 - 2, "one miss per paged window");
        check_answers(&state, &server, &probes, &want, "warm after a restart")?;
        prop_assert_eq!(state.registry().cache_stats().misses, misses);
        prop_assert_eq!(state.registry().cache_stats().read_errors, 0);
        prop_assert_eq!(state.check_invariants(), Ok(()));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The reply's error code and message, for an error reply.
fn error(resp: Response) -> (ErrorCode, String) {
    match resp {
        Response::Error(e) => (e.code, e.message),
        other => panic!("expected an error reply, got {other:?}"),
    }
}

#[test]
fn an_unreadable_cover_fails_its_window_only() {
    let mut rng = XorShiftRng::new(0x9A6E);
    let windows: Vec<Vec<RawTuple>> = (0..5).map(|id| window(id, &mut rng)).collect();
    let batch = QueryEngine::new(
        Dataset::from_tuples(Pollutant::Co2, windows.concat()).unwrap(),
        WindowSpec::ByDuration(WINDOW_SECS),
        AdKmnConfig::default(),
        1_000.0,
    );
    let dir = temp_dir("unreadable");
    {
        let state = open_state(&dir);
        for (seq, w) in (1..).zip(&windows) {
            state.ingest(1, seq, w).unwrap();
        }
        state.rebuild_dirty_now().unwrap();
        assert_eq!(state.stats().sealed_windows, 3);
    }
    let state = open_state(&dir);
    state.rebuild_dirty_now().unwrap();
    let server = serve(&state);
    // After the open: flip the last byte of window 1's cover frame, and
    // remove window 2's file.
    let file = |id: u32| dir.join("windows").join(format!("seg-{id:08}.log"));
    let mut bytes = std::fs::read(file(1)).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(file(1), bytes).unwrap();
    std::fs::remove_file(file(2)).unwrap();

    // Each window's first tuple time: routed to that window.
    let at = |id: usize| QueryTuple::new(windows[id][0].time, Point::new(120.0, -80.0));
    for (errors, id) in (1..).zip([1usize, 2]) {
        let (code, message) = error(server.handle(&Request::QueryBatch {
            seq: 1,
            queries: vec![at(0), at(id), at(4)],
        }));
        assert_eq!(code, ErrorCode::Internal);
        assert!(message.contains(&format!("window {id}")), "{message}");
        assert_eq!(state.registry().cache_stats().read_errors, errors);
    }
    let (code, message) = error(server.handle(&Request::Query {
        time: at(1).time,
        pos: at(1).pos,
    }));
    assert_eq!(
        (code, message.contains("window 1")),
        (ErrorCode::Internal, true)
    );
    let (code, message) = error(server.handle(&Request::ModelRequest { time: at(2).time }));
    assert_eq!(
        (code, message.contains("window 2")),
        (ErrorCode::Internal, true)
    );
    assert_eq!(state.query(&at(1)), None);
    assert_eq!(state.registry().cache_stats().read_errors, 5);

    // Every other window still answers, as the batch engine does.
    for id in [0, 3, 4] {
        let q = at(id);
        assert_eq!(seen(&server, &q), batch_seen(&batch, &q), "window {id}");
        let want = batch.query(&q, QueryMethod::ModelCover).map(f64::to_bits);
        assert_eq!(batch_reply(&server, &[q]).1, [want], "window {id}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
