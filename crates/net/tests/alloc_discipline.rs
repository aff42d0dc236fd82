//! Allocation discipline: the warmed byte-in/byte-out serving path must not
//! touch the heap.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after a
//! warm-up pass (engine caches built, buffer pools primed, vector
//! capacities grown), a steady-state loop of `handle_bytes_into` calls —
//! single queries and batches, over the binary codec — must report zero
//! allocations, and so must the client's warmed `query_batch` calls. This
//! pins the tentpole perf claim as a test instead of a comment:
//! regressions that sneak an allocation into the hot path fail CI. Both
//! server set-ups are covered: a static server, and a streaming one
//! answering from the cover registry it shares with its ingest state.
//!
//! Both paths run on the measuring thread, so the count is per thread: the
//! test harness starting other tests' threads meanwhile cannot leak into a
//! measurement.
//!
//! (`unsafe` is required to implement `GlobalAlloc`; the library crates all
//! `forbid(unsafe_code)` — this harness is deliberately outside them.)

// Harness code, exempt from the library panic policy: an unwrap here
// fails the run loudly, which is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use enviro_data::{
    Dataset, LausanneSim, Pollutant, QueryTuple, RawTuple, SimConfig, Timestamp, WindowSpec,
};
use enviro_geo::Point;
use enviro_meter::{AdKmnConfig, EnviroMeter, ModelCover, QueryMethod};
use enviro_net::buffers;
use enviro_net::codec::CodecError;
use enviro_net::{
    BinaryCodec, ConcurrentTransport, EnviroClient, EnviroServer, IngestConfig, IngestState,
    LinkProfile, LoopbackWire, Request, Response, SimulatedLink, WireCodec,
};
use enviro_storage::crc::crc32;
use enviro_storage::WalConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::Arc;

/// Counts every allocation and reallocation (frees are irrelevant to the
/// claim: a path that frees without allocating cannot exist in safe Rust).
struct CountingAlloc;

thread_local! {
    // Const-initialized and drop-free, so touching it from inside the
    // allocator never allocates or registers a destructor.
    static ALLOC_CALLS: Cell<usize> = const { Cell::new(0) };
}

fn count_allocation() {
    let _ = ALLOC_CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations this thread makes while running `f`.
fn allocations<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOC_CALLS.with(Cell::get);
    let result = f();
    (ALLOC_CALLS.with(Cell::get) - before, result)
}

/// Two simulated hours of readings.
fn history() -> Dataset {
    LausanneSim::lausanne(SimConfig {
        duration_secs: 2 * 3_600,
        seed: 21,
        ..SimConfig::default()
    })
    .generate()
}

fn server(method: QueryMethod) -> EnviroServer<BinaryCodec> {
    let platform = EnviroMeter::new(
        history(),
        WindowSpec::ByDuration(3_600),
        AdKmnConfig::default(),
        1_000.0,
    );
    EnviroServer::new(platform, BinaryCodec, method)
}

fn tuple(i: i64) -> QueryTuple {
    QueryTuple::new(
        Timestamp::from_secs((i * 37) % 7_000),
        Point::new(
            (i % 40) as f64 * 25.0 - 500.0,
            (i % 17) as f64 * 50.0 - 400.0,
        ),
    )
}

/// A model-cover server over an empty platform, answering from `state`'s
/// registry alone.
fn ingest_server(state: &Arc<IngestState>) -> EnviroServer<BinaryCodec> {
    let platform = EnviroMeter::new(
        Dataset::new(Pollutant::Co2),
        WindowSpec::ByDuration(3_600),
        AdKmnConfig::default(),
        1_000.0,
    );
    EnviroServer::new(platform, BinaryCodec, QueryMethod::ModelCover).with_ingest(Arc::clone(state))
}

/// A model-cover server with an ingest state attached: two simulated
/// hours are ingested and published as one stream generation, so value
/// queries are answered from resident covers in the ingest state's
/// registry; returns the state's directory too, for the caller to remove.
fn streaming_server() -> (EnviroServer<BinaryCodec>, PathBuf) {
    let dir = std::env::temp_dir().join(format!("enviro-alloc-streamed-{}", std::process::id()));
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
    state.ingest(1, 1, history().tuples()).unwrap();
    state.rebuild_dirty_now().unwrap();
    let server = ingest_server(&state);
    let snapshot = state.registry().snapshot();
    assert!(snapshot.len() > 1, "the streamed batch must cross windows");
    assert!(
        snapshot
            .entries()
            .iter()
            .all(|e| e.cover.resident().is_some()),
        "the streamed covers stay resident"
    );
    (server, dir)
}

/// Runs `rounds` of single + batch frames through `handle_bytes_into`,
/// recycling the request and reply buffers like a worker loop does, and
/// returns the allocation count of the steady-state portion.
fn steady_state_allocs(method: QueryMethod) -> usize {
    steady_state_allocs_on(&server(method))
}

fn steady_state_allocs_on(server: &EnviroServer<BinaryCodec>) -> usize {
    let mut request = Vec::new();
    let mut reply = Vec::new();

    let frame_single = |out: &mut Vec<u8>, i: i64| {
        out.clear();
        let t = tuple(i);
        BinaryCodec.encode_request_into(
            &Request::Query {
                time: t.time,
                pos: t.pos,
            },
            out,
        );
    };
    // Batch frames are encoded from a pre-built query list so the test's
    // own allocation (building the Vec) stays outside the measured region;
    // the server-side decode draws from the per-thread pool. The batch
    // spans both hourly windows, so it is served as two window runs.
    let batch: Vec<QueryTuple> = (0..64).map(|i| tuple(3 * i)).collect();
    let frame_batch = |out: &mut Vec<u8>| {
        out.clear();
        BinaryCodec.encode_request_into(
            &Request::QueryBatch {
                seq: 1,
                queries: batch.clone(),
            },
            out,
        );
    };

    // Warm-up: build engine caches, prime buffer pools, grow capacities.
    for i in 0..32 {
        frame_single(&mut request, i);
        server.handle_bytes_into(&request, &mut reply);
        frame_batch(&mut request);
        server.handle_bytes_into(&request, &mut reply);
    }

    // Steady state: only the serving calls are measured (frame encoding
    // into the recycled request buffer is also allocation-free, but batch
    // request *construction* clones a Vec, so it stays outside the timer).
    let mut frames: Vec<Vec<u8>> = Vec::new();
    for i in 32..48 {
        frame_single(&mut request, i);
        frames.push(request.clone());
        frame_batch(&mut request);
        frames.push(request.clone());
    }
    let (allocs, ()) = allocations(|| {
        for _ in 0..8 {
            for frame in &frames {
                server.handle_bytes_into(frame, &mut reply);
            }
        }
    });
    allocs
}

#[test]
fn model_cover_serving_path_is_allocation_free() {
    assert_eq!(steady_state_allocs(QueryMethod::ModelCover), 0);
}

#[test]
fn grid_indexed_serving_path_is_allocation_free() {
    assert_eq!(steady_state_allocs(QueryMethod::Grid), 0);
}

#[test]
fn naive_serving_path_is_allocation_free() {
    assert_eq!(steady_state_allocs(QueryMethod::Naive), 0);
}

/// The streamed read path: `QueryBatch` frames answered from one snapshot
/// of the published covers, routed once per window run.
#[test]
fn published_cover_serving_path_is_allocation_free() {
    let (server, dir) = streaming_server();
    let reply = server.handle(&Request::QueryBatch {
        seq: 1,
        queries: (0..64).map(tuple).collect(),
    });
    assert!(
        matches!(reply, Response::ValueBatch { generation: 1, .. }),
        "answered from the published covers: {reply:?}"
    );
    let allocs = steady_state_allocs_on(&server);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(allocs, 0);
}

/// The paged read path: every window the frames ask about is sealed, so
/// its cover is paged out of the registry and read through the cover
/// cache. A warm cache hit allocates nothing.
#[test]
fn paged_cover_cache_hit_is_allocation_free() {
    let dir = std::env::temp_dir().join(format!("enviro-alloc-paged-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let wal = WalConfig {
        window_secs: 3_600,
        ..WalConfig::default()
    };
    let state = Arc::new(IngestState::open(&dir, wal, IngestConfig::default()).unwrap());
    let readings: Vec<RawTuple> = (0..4 * 45)
        .map(|i| {
            let pos = Point::new(
                (i % 9) as f64 * 110.0 - 500.0,
                (i % 7) as f64 * 120.0 - 400.0,
            );
            RawTuple::new(Timestamp::from_secs(i * 80), pos, 400.0 + (i % 13) as f64)
        })
        .collect();
    state.ingest(1, 1, &readings).unwrap();
    state.rebuild_dirty_now().unwrap();
    // Seal lag 1 over windows 0..=3: windows 0 and 1, which the frames
    // ask about, are sealed and paged out, and the cache is still empty.
    let snapshot = state.registry().snapshot();
    let paged: Vec<u64> = snapshot
        .entries()
        .iter()
        .filter(|e| e.cover.resident().is_none())
        .map(|e| e.window_id)
        .collect();
    assert_eq!(paged, [0, 1]);
    let server = ingest_server(&state);
    // The same batch the measured frames send, spanning both windows.
    let reply = server.handle(&Request::QueryBatch {
        seq: 1,
        queries: (0..64).map(|i| tuple(3 * i)).collect(),
    });
    assert!(
        matches!(&reply, Response::ValueBatch { values, .. } if values.iter().all(Option::is_some)),
        "answered from the paged covers: {reply:?}"
    );
    // That first frame warmed the cache: one miss per paged window.
    assert_eq!(state.registry().cache_stats().misses, 2);
    let allocs = steady_state_allocs_on(&server);
    assert_eq!(
        state.registry().cache_stats().misses,
        2,
        "every later read hit the cache"
    );
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(allocs, 0);
}

/// The client half: a warmed `EnviroClient::query_batch` encodes into the
/// client's own scratch buffer and takes every batch `Vec` from the
/// per-thread pool, so a steady-state call allocates nothing (the
/// in-process wire and server included).
#[test]
fn client_query_batch_is_allocation_free() {
    let server = server(QueryMethod::ModelCover);
    let mut link = SimulatedLink::new(LinkProfile::IDEAL);
    let mut wire = LoopbackWire::new(&server, &mut link);
    let mut client = EnviroClient::new(BinaryCodec, Pollutant::Co2);
    let trajectory: Vec<QueryTuple> = (0..256).map(tuple).collect();
    let mut values = Vec::with_capacity(trajectory.len());
    for _ in 0..4 {
        client
            .query_batch(&mut wire, &trajectory, &mut values)
            .unwrap();
    }
    let (allocs, ()) = allocations(|| {
        for _ in 0..8 {
            client
                .query_batch(&mut wire, &trajectory, &mut values)
                .unwrap();
        }
    });
    assert_eq!(allocs, 0);
    assert_eq!(values.len(), trajectory.len());
}

/// The transport: a warmed `Session::call_with` round trip through a
/// `ConcurrentTransport` allocates nothing on the session thread, which
/// runs the server's work too. The session keeps its request and reply
/// buffers, and taking and returning a permit is a few field writes.
#[test]
fn session_round_trip_is_allocation_free() {
    let transport =
        ConcurrentTransport::spawn_shared(Arc::new(server(QueryMethod::ModelCover)), 1).unwrap();
    let mut session = transport.session();
    let t = tuple(5);
    let frames = [
        BinaryCodec.encode_request(&Request::Query {
            time: t.time,
            pos: t.pos,
        }),
        BinaryCodec.encode_request(&Request::QueryBatch {
            seq: 1,
            queries: (0..64).map(tuple).collect(),
        }),
    ];
    // Warm-up: grow the session's buffers and the thread's pools, and
    // check the replies are answers (decoding allocates, so it stays out
    // of the measurement). Like a client, hand each decoded value batch
    // back to the thread's pool: the server, serving on this thread, takes
    // its reply's values from the same pool.
    for _ in 0..32 {
        for frame in &frames {
            let reply = session
                .call_with(|out| out.extend_from_slice(frame))
                .unwrap();
            match BinaryCodec.decode_response(reply).unwrap() {
                Response::ValueBatch { values, .. } => buffers::recycle_values(values),
                Response::Error(_) | Response::Busy { .. } => panic!("not an answer"),
                _ => {}
            }
        }
    }
    let (allocs, ()) = allocations(|| {
        for _ in 0..8 {
            for frame in &frames {
                session
                    .call_with(|out| out.extend_from_slice(frame))
                    .unwrap();
            }
        }
    });
    assert_eq!(allocs, 0);
}

/// A `Cover` reply carries no CRC, so its region count is checked against
/// the bytes present before anything is reserved for it: an empty cover
/// whose count says a million regions is refused without allocating.
#[test]
fn a_cover_count_beyond_its_bytes_is_refused_before_allocating() {
    let mut frame = BinaryCodec.encode_response(&Response::Cover(ModelCover {
        pollutant: Pollutant::Co2,
        window_id: 0,
        valid_until: Timestamp::from_secs(3_600),
        regions: Vec::new(),
    }));
    assert_eq!(frame.len(), 13, "tag + valid_until + count");
    frame[9..].copy_from_slice(&1_000_000u32.to_le_bytes());
    let (allocs, decoded) = allocations(|| BinaryCodec.decode_response(&frame));
    assert!(matches!(decoded, Err(CodecError::Truncated)), "{decoded:?}");
    assert_eq!(allocs, 0);
}

/// A `QueryBatch` tuple takes at least 17 bytes (a one-byte time delta and
/// 16 bytes of coordinates), so a count above a seventeenth of the body is
/// refused before a query buffer is reserved for it, even under a valid
/// CRC: a 64-tuple frame whose count says 65 allocates nothing.
#[test]
fn a_query_batch_count_beyond_its_bytes_is_refused_before_allocating() {
    let mut frame = BinaryCodec.encode_request(&Request::QueryBatch {
        seq: 1,
        queries: (0..64)
            .map(|i| QueryTuple::new(Timestamp::from_secs(60 * i), Point::new(i as f64, 0.5)))
            .collect(),
    });
    assert_eq!(frame.len(), 14 + 64 * 17, "one-byte deltas");
    frame[6..10].copy_from_slice(&65u32.to_le_bytes());
    let body = frame.len() - 4;
    let crc = crc32(&frame[..body]);
    frame[body..].copy_from_slice(&crc.to_le_bytes());
    let (allocs, decoded) = allocations(|| BinaryCodec.decode_request(&frame));
    assert!(matches!(decoded, Err(CodecError::Truncated)), "{decoded:?}");
    assert_eq!(allocs, 0);
}
