//! Deterministic-schedule model checks for the serving and write paths.
//!
//! Compiled only under `RUSTFLAGS="--cfg enviro_schedules"` (the CI
//! `concurrency-check` job). Every harness re-executes its closure under
//! each interleaving the bounded-preemption search enumerates; a failing
//! schedule panics with a `SCHED_REPLAY=` path that reproduces it exactly.
//!
//! The expensive fixtures (the simulated platform, the query server) are
//! built **once**, outside [`enviro_schedule::explore`]; only the
//! interaction under test runs per schedule.
#![cfg(enviro_schedules)]

use enviro_data::{
    Dataset, LausanneSim, Pollutant, QueryTuple, RawTuple, SimConfig, Timestamp, Window, WindowSpec,
};
use enviro_geo::Point;
use enviro_meter::{AdKmnConfig, CoverBuilder, EnviroMeter, QueryMethod};
use enviro_net::codec::CodecError;
use enviro_net::{
    BinaryCodec, ConcurrentTransport, EnviroServer, IngestConfig, IngestState, ModelMaintenance,
    Request, Response, TransportConfig, TransportError, WireCodec,
};
use enviro_schedule::sync::atomic::AtomicUsize;
use enviro_schedule::sync::Arc;
use enviro_schedule::thread::JoinHandle;
use enviro_storage::WalConfig;
use std::sync::atomic::{AtomicU64, Ordering};

/// Fresh WAL directory per schedule execution: the search re-runs the
/// closure many times and durable state must not leak between runs.
fn fresh_dir(tag: &str, round: u64) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("enviro-sched-{tag}-{}-{round}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open_state(dir: &std::path::Path) -> IngestState {
    IngestState::open(
        dir,
        WalConfig {
            window_secs: 100,
            ..WalConfig::default()
        },
        IngestConfig::default(),
    )
    .expect("wal opens")
}

fn batch(n: i64) -> Vec<RawTuple> {
    (0..n)
        .map(|i| {
            RawTuple::new(
                Timestamp::from_secs(i),
                Point::new(i as f64 * 25.0, 0.0),
                400.0 + i as f64,
            )
        })
        .collect()
}

/// Exactly-once acks under retransmission: a client that resends the same
/// `(source, seq)` chunk concurrently (the stop-and-wait client's timeout
/// racing its own in-flight ack) must get the batch appended exactly once,
/// whatever order the two ingest calls interleave in.
#[test]
fn retransmitted_batch_is_appended_exactly_once() {
    let round = AtomicU64::new(0);
    let report = enviro_schedule::explore("ingest-retransmit-dedup", move || {
        let dir = fresh_dir("dedup", round.fetch_add(1, Ordering::Relaxed));
        let state = Arc::new(open_state(&dir));
        let tuples = batch(5);
        let spawn_ingest = |state: &Arc<IngestState>, tuples: &[RawTuple]| {
            let state = Arc::clone(state);
            let tuples = tuples.to_vec();
            enviro_schedule::thread::spawn(move || {
                state.ingest(7, 1, &tuples).expect("ingest succeeds")
            })
        };
        let a = spawn_ingest(&state, &tuples);
        let b = spawn_ingest(&state, &tuples);
        let out_a = a.join().expect("first sender");
        let out_b = b.join().expect("second sender");
        // One append, one idempotent re-ack — in either order.
        assert_ne!(
            out_a.duplicate, out_b.duplicate,
            "exactly one of the racing sends may append"
        );
        assert_eq!(out_a.durable_upto, 5);
        assert_eq!(out_b.durable_upto, 5);
        let stats = state.stats();
        assert_eq!(stats.durable_tuples, 5, "no double append");
        assert_eq!(stats.acked_batches, 1);
        assert_eq!(stats.duplicate_batches, 1);
        state.check_invariants().expect("state is consistent");
        let _ = std::fs::remove_dir_all(&dir);
    });
    println!("{report}");
    assert!(report.schedules > 1);
}

fn query_server<C: WireCodec>(codec: C) -> EnviroServer<C> {
    let sim = LausanneSim::lausanne(SimConfig {
        duration_secs: 600,
        seed: 3,
        ..SimConfig::default()
    });
    let platform = EnviroMeter::new(
        sim.generate(),
        WindowSpec::ByDuration(600),
        AdKmnConfig::default(),
        1_000.0,
    );
    EnviroServer::new(platform, codec, QueryMethod::ModelCover)
}

fn transport<C>(
    server: &Arc<EnviroServer<C>>,
    workers: usize,
    max_queue: usize,
) -> Arc<ConcurrentTransport>
where
    C: WireCodec + Send + Sync + 'static,
{
    let config = TransportConfig { workers, max_queue };
    Arc::new(ConcurrentTransport::spawn_shared_with(Arc::clone(server), config).expect("built"))
}

/// One exchange on a fresh session, with the reply copied out.
fn call(transport: &ConcurrentTransport, request: &[u8]) -> Result<Vec<u8>, TransportError> {
    transport
        .session()
        .call_with(|out| out.extend_from_slice(request))
        .map(<[u8]>::to_vec)
}

/// [`call`] with `query(i)`, on a model thread of its own.
fn spawn_call(
    transport: &Arc<ConcurrentTransport>,
    i: i64,
) -> JoinHandle<Result<Vec<u8>, TransportError>> {
    let transport = Arc::clone(transport);
    enviro_schedule::thread::spawn(move || call(&transport, &query(i)))
}

/// Drops the last handle to `transport`: its `Drop` checks that every
/// permit was returned and the wait list is empty.
fn drop_last(transport: Arc<ConcurrentTransport>) {
    drop(Arc::into_inner(transport).expect("the callers are joined"));
}

/// `query(i)` as the server answers it.
fn answer<C: WireCodec>(server: &EnviroServer<C>, i: i64) -> Vec<u8> {
    let mut reply = Vec::new();
    server.handle_bytes_into(&query(i), &mut reply);
    reply
}

fn query(i: i64) -> Vec<u8> {
    BinaryCodec.encode_request(&Request::Query {
        time: Timestamp::from_secs(60 * i),
        pos: Point::new(0.0, -200.0),
    })
}

/// Transport drop: three sessions on one permit with a one-deep wait list,
/// so a session may find the list full and be shed. Each call gets its own
/// answer or `Busy`, the shed count matches the `Busy` replies, and the
/// transport's `Drop` then finds every permit returned and the wait list
/// empty on every schedule.
#[test]
fn transport_drop_finds_every_permit_returned() {
    let server = Arc::new(query_server(BinaryCodec));
    let expected: Vec<Vec<u8>> = (1..=3).map(|i| answer(&server, i)).collect();
    let report = enviro_schedule::explore("transport-drop-join", move || {
        let transport = transport(&server, 1, 1);
        let others = [2, 3].map(|i| spawn_call(&transport, i));
        let mut replies = vec![call(&transport, &query(1))];
        replies.extend(others.map(|other| other.join().expect("caller returns")));
        let mut busy = 0;
        for (reply, expected) in replies.into_iter().zip(&expected) {
            let reply = reply.expect("answered");
            if let Ok(Response::Busy { .. }) = BinaryCodec.decode_response(&reply) {
                busy += 1;
            } else {
                assert_eq!(&reply, expected);
            }
        }
        assert!(
            busy <= 1,
            "one permit and one waiter leave one caller to shed"
        );
        assert_eq!(transport.shed_total(), busy);
        drop_last(transport);
    });
    println!("{report}");
    assert!(report.schedules > 1);
}

/// A frame whose decoding panics under [`ProbeCodec`].
const POISON: &[u8] = b"poison";

/// The binary codec, except that it panics on [`POISON`], in the middle
/// of serving it.
struct ProbeCodec;

impl WireCodec for ProbeCodec {
    fn name(&self) -> &'static str {
        "probe"
    }

    fn encode_request_into(&self, req: &Request, out: &mut Vec<u8>) {
        BinaryCodec.encode_request_into(req, out);
    }

    fn decode_request(&self, bytes: &[u8]) -> Result<Request, CodecError> {
        assert_ne!(bytes, POISON, "poison frame");
        BinaryCodec.decode_request(bytes)
    }

    fn encode_response_into(&self, resp: &Response, out: &mut Vec<u8>) {
        BinaryCodec.encode_response_into(resp, out);
    }

    fn decode_response(&self, bytes: &[u8]) -> Result<Response, CodecError> {
        BinaryCodec.decode_response(bytes)
    }
}

/// A probe server, built once: the platform is the expensive part.
fn probe_server() -> Arc<EnviroServer<ProbeCodec>> {
    // Each schedule of the worker-exit harness panics on purpose; keep
    // those expected panics out of the log.
    static QUIET: std::sync::Once = std::sync::Once::new();
    QUIET.call_once(|| {
        let report = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let poison = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|msg| msg.contains("poison frame"));
            if !poison {
                report(info);
            }
        }));
    });
    Arc::new(query_server(ProbeCodec))
}

/// The admission wake protocol: two sessions on two threads share one
/// permit. The one that finds it taken waits, and either may park at any
/// point; the permit's return must wake the waiter, so no schedule loses a
/// wakeup (the model checker reports that as a deadlock), and each session
/// gets its own answer.
#[test]
fn two_sessions_never_lose_a_wakeup() {
    let server = Arc::new(query_server(BinaryCodec));
    let expected: Vec<Vec<u8>> = (1..=2).map(|i| answer(&server, i)).collect();
    let report = enviro_schedule::explore("transport-wakeup", move || {
        let transport = transport(&server, 1, 4);
        let other = spawn_call(&transport, 2);
        assert_eq!(call(&transport, &query(1)).expect("answered"), expected[0]);
        let reply = other.join().expect("second caller returns");
        assert_eq!(reply.expect("answered"), expected[1]);
        drop_last(transport);
    });
    println!("{report}");
    assert!(report.schedules > 1);
}

/// A panic while serving (here: on a poison frame) closes the transport,
/// and no waiter hangs. The poisoned call gets `Disconnected`. The other
/// session's call gets its correct reply (served before the poison) or
/// `Disconnected` (it waited behind the poison, or came after it). A call
/// after the panic gets `Disconnected`, and the panicked call's permit is
/// back by the time the transport drops.
#[test]
fn serve_panic_disconnects_every_waiter() {
    let server = probe_server();
    let expected = answer(&server, 1);
    let report = enviro_schedule::explore("transport-worker-exit", move || {
        let transport = transport(&server, 1, 4);
        let other = spawn_call(&transport, 1);
        assert_eq!(
            call(&transport, POISON),
            Err(TransportError::Disconnected),
            "the poisoned request"
        );
        match other.join().expect("second caller returns") {
            Ok(reply) => assert_eq!(reply, expected, "served before the poison"),
            Err(e) => assert_eq!(e, TransportError::Disconnected),
        }
        assert_eq!(
            call(&transport, &query(2)),
            Err(TransportError::Disconnected),
            "a call after the panic"
        );
        drop_last(transport);
    });
    println!("{report}");
    assert!(report.schedules > 1);
}

/// The binary codec, counting the frames between the start of their
/// decode and the end of their reply's encode, that is, inside
/// `handle_bytes_into`; a decode that would make them more than two
/// panics.
#[derive(Default)]
struct CountingCodec {
    in_handle: AtomicUsize,
}

impl WireCodec for CountingCodec {
    fn name(&self) -> &'static str {
        "counting"
    }

    fn encode_request_into(&self, req: &Request, out: &mut Vec<u8>) {
        BinaryCodec.encode_request_into(req, out);
    }

    fn decode_request(&self, bytes: &[u8]) -> Result<Request, CodecError> {
        let inside = self.in_handle.fetch_add(1, Ordering::SeqCst) + 1;
        assert!(inside <= 2, "{inside} frames in handle under 2 permits");
        BinaryCodec.decode_request(bytes)
    }

    fn encode_response_into(&self, resp: &Response, out: &mut Vec<u8>) {
        BinaryCodec.encode_response_into(resp, out);
        // The server never answers `Busy`; the transport encodes its shed
        // reply once, outside any handle.
        if !matches!(resp, Response::Busy { .. }) {
            self.in_handle.fetch_sub(1, Ordering::SeqCst);
        }
    }

    fn decode_response(&self, bytes: &[u8]) -> Result<Response, CodecError> {
        BinaryCodec.decode_response(bytes)
    }
}

/// The permit count: three sessions share two permits. On every schedule
/// at most two frames are in `handle` at once ([`CountingCodec`] checks
/// each entry), and no waiter is lost: each session gets its own answer.
#[test]
fn permits_bound_the_frames_in_handle() {
    let server = Arc::new(query_server(CountingCodec::default()));
    let expected: Vec<Vec<u8>> = (1..=3).map(|i| answer(&server, i)).collect();
    let report = enviro_schedule::explore("transport-permit-bound", move || {
        let transport = transport(&server, 2, 4);
        let others = [2, 3].map(|i| spawn_call(&transport, i));
        assert_eq!(call(&transport, &query(1)).expect("answered"), expected[0]);
        for (other, expected) in others.into_iter().zip(&expected[1..]) {
            let reply = other.join().expect("caller returns");
            assert_eq!(&reply.expect("answered"), expected);
        }
        drop_last(transport);
    });
    println!("{report}");
    assert!(report.schedules > 1);
}

/// Maintenance shutdown: an ingest leaves a window dirty, and dropping the
/// [`ModelMaintenance`] races the worker's pass. The worker either rebuilt
/// before it saw the shutdown or exited first; both are legal, but no
/// schedule may hang the join (a shutdown notify lost between the worker's
/// check and its park) or leave a torn registry.
#[test]
fn maintenance_always_shuts_down() {
    let round = AtomicU64::new(0);
    let report = enviro_schedule::explore("maintenance-shutdown", move || {
        let dir = fresh_dir("shutdown", round.fetch_add(1, Ordering::Relaxed));
        let state = Arc::new(open_state(&dir));
        let maintenance = ModelMaintenance::spawn(Arc::clone(&state)).expect("spawn");
        state.ingest(1, 1, &batch(6)).expect("ingest succeeds");
        drop(maintenance); // request_shutdown + join, racing the pass
        assert!(state.generation() <= 1);
        state.check_invariants().expect("state is consistent");
        let _ = std::fs::remove_dir_all(&dir);
    });
    println!("{report}");
    assert!(report.schedules > 1);
}

/// One reply, one publication: a `QueryBatch` answered while maintenance
/// republishes its window must be answered entirely from one cover set and
/// stamped with *that* set's generation — never a mix of two publications,
/// never the number of a set that did not answer. Like a read pinned to one
/// sequence number in an LSM tree, the request reads one registry snapshot
/// from first tuple to generation stamp. Both generations reach the
/// registry through its one writer, the ingest path, so the store holds
/// every published window and the state's invariants hold on every
/// schedule.
#[test]
fn reply_generation_names_the_covers_that_answered() {
    let queries: Vec<QueryTuple> = [(10, 0.0), (20, 200.0)]
        .into_iter()
        .map(|(t, x)| QueryTuple::new(Timestamp::from_secs(t), Point::new(x, -50.0)))
        .collect();
    let round = AtomicU64::new(0);
    let report = enviro_schedule::explore("reply-generation", move || {
        let dir = fresh_dir("reply-gen", round.fetch_add(1, Ordering::Relaxed));
        let state = Arc::new(open_state(&dir));
        let server = EnviroServer::new(
            EnviroMeter::new(
                Dataset::new(Pollutant::Co2),
                WindowSpec::ByDuration(100),
                AdKmnConfig::default(),
                1_000.0,
            ),
            BinaryCodec,
            QueryMethod::ModelCover,
        )
        .with_ingest(Arc::clone(&state));
        // One reply's generation stamp and answers.
        let ask = || {
            let reply = server.handle(&Request::QueryBatch {
                seq: 1,
                queries: queries.clone(),
            });
            let Response::ValueBatch {
                generation, values, ..
            } = reply
            else {
                panic!("expected a value batch, got {reply:?}");
            };
            let bits: Vec<Option<u64>> = values.iter().map(|v| v.map(f64::to_bits)).collect();
            (generation, bits)
        };
        state
            .ingest(1, 1, &level_tuples(0, 100.0))
            .expect("ingest succeeds");
        assert_eq!(state.rebuild_dirty_now().expect("pass succeeds"), 1);
        let (first, old) = ask();
        assert_eq!(first, 1);
        state
            .ingest(1, 2, &level_tuples(0, 900.0))
            .expect("ingest succeeds");
        let pass = {
            let state = Arc::clone(&state);
            enviro_schedule::thread::spawn(move || {
                state.rebuild_dirty_now().expect("pass succeeds")
            })
        };
        let (generation, got) = ask();
        assert_eq!(pass.join().expect("pass ran"), 1);
        let (second, new) = ask();
        assert_eq!(second, 2);
        assert_ne!(old, new, "covers must differ");
        assert!(
            (1..=2).contains(&generation),
            "stamped generation {generation} was never published"
        );
        assert_eq!(
            got,
            [old, new][generation as usize - 1],
            "reply stamped generation {generation} was answered by other covers"
        );
        assert_eq!(state.check_invariants(), Ok(()));
        let _ = std::fs::remove_dir_all(&dir);
    });
    println!("{report}");
    assert!(report.schedules > 1);
}

/// Readings for window `id` (100-s windows) all at `level`.
fn level_tuples(id: i64, level: f64) -> Vec<RawTuple> {
    (0..12)
        .map(|i| {
            RawTuple::new(
                Timestamp::from_secs(id * 100 + i * 5),
                Point::new(i as f64 * 40.0, -(i as f64) * 15.0),
                level,
            )
        })
        .collect()
}

/// The cover of window `id` built from `tuples` exactly as maintenance
/// builds it.
fn window_cover(id: u64, tuples: &[RawTuple]) -> enviro_meter::ModelCover {
    let window = Window {
        id,
        tuples,
        valid_until: Timestamp::from_secs((id as i64 + 1) * 100),
    };
    CoverBuilder::new(AdKmnConfig::default()).build(&window, Pollutant::Co2)
}

/// The seal rule racing a late write: window 0 is old but still open
/// when an `ingest` into it races a maintenance pass that publishes it
/// and then seals it (seal lag 1, newest window 2). The write lands before
/// the pass takes the dirty set, between that and the seal (window 0 is
/// dirty at the seal and must wait for the next pass), or after the seal
/// (a late tuple, dropped). In every interleaving, after one more pass,
/// window 0 is sealed, nothing is dirty, and each window's published cover
/// equals a fresh build over that window's tuples as `tuples()` reads them
/// back, from disk for a sealed window.
#[test]
fn sealed_windows_keep_their_final_cover() {
    let round = AtomicU64::new(0);
    let report = enviro_schedule::explore("seal-vs-late-ingest", move || {
        let dir = fresh_dir("seal", round.fetch_add(1, Ordering::Relaxed));
        let state = Arc::new(open_state(&dir));
        state
            .ingest(1, 1, &level_tuples(0, 100.0))
            .expect("window 0");
        state
            .ingest(1, 2, &level_tuples(2, 300.0))
            .expect("window 2");
        let writer = {
            let state = Arc::clone(&state);
            enviro_schedule::thread::spawn(move || {
                let late: Vec<RawTuple> = level_tuples(0, 900.0)
                    .into_iter()
                    .map(|t| RawTuple::new(t.time + 2, t.pos, t.value))
                    .collect();
                state.ingest(2, 1, &late).expect("late write acked")
            })
        };
        state.rebuild_dirty_now().expect("racing pass");
        writer.join().expect("writer ran");
        state.rebuild_dirty_now().expect("one more pass");

        assert_eq!(state.stats().sealed_windows, 1, "window 0 sealed");
        assert!(!state.has_dirty_windows());
        state.check_invariants().expect("state is consistent");
        let tuples = state.tuples().expect("history reads back");
        let snapshot = state.registry().snapshot();
        for id in [0u64, 2] {
            let window: Vec<RawTuple> = tuples
                .iter()
                .filter(|t| t.time.as_secs().div_euclid(100) as u64 == id)
                .copied()
                .collect();
            let published = snapshot.cover_for_window(id).expect("window published");
            let cover = snapshot.with_cover(published, Clone::clone);
            assert_eq!(
                cover.expect("cover reads back"),
                window_cover(id, &window),
                "window {id}: the published cover is not the one its {} tuples build",
                window.len()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    });
    println!("{report}");
    assert!(report.schedules > 1);
}

/// A reader racing a seal's page-out. Windows 0 and 1 are published as
/// generation 1 and still open; a write into window 2 makes the next pass
/// publish it (generation 2), seal window 0 and page its cover out of the
/// registry. A `QueryBatch` over window 0 served during that pass answers
/// the values it answered before, whether it reads the resident cover or
/// the paged one, stamped with a published generation; and the page-out
/// itself publishes nothing.
#[test]
fn a_page_out_changes_no_answer_and_no_generation() {
    let queries: Vec<QueryTuple> = [(10, 0.0), (40, 200.0)]
        .into_iter()
        .map(|(t, x)| QueryTuple::new(Timestamp::from_secs(t), Point::new(x, -50.0)))
        .collect();
    let round = AtomicU64::new(0);
    let report = enviro_schedule::explore("read-vs-page-out", move || {
        let dir = fresh_dir("page-out", round.fetch_add(1, Ordering::Relaxed));
        let state = Arc::new(open_state(&dir));
        state
            .ingest(1, 1, &level_tuples(0, 100.0))
            .expect("window 0");
        state
            .ingest(1, 2, &level_tuples(1, 300.0))
            .expect("window 1");
        state.rebuild_dirty_now().expect("first pass");
        let server = EnviroServer::new(
            EnviroMeter::new(
                Dataset::new(Pollutant::Co2),
                WindowSpec::ByDuration(100),
                AdKmnConfig::default(),
                1_000.0,
            ),
            BinaryCodec,
            QueryMethod::ModelCover,
        )
        .with_ingest(Arc::clone(&state));
        let batch = Request::QueryBatch {
            seq: 1,
            queries: queries.clone(),
        };
        let Response::ValueBatch {
            generation: 1,
            values: before,
            ..
        } = server.handle(&batch)
        else {
            panic!("window 0 is published as generation 1");
        };
        state
            .ingest(1, 3, &level_tuples(2, 500.0))
            .expect("window 2");
        let pass = {
            let state = Arc::clone(&state);
            enviro_schedule::thread::spawn(move || state.rebuild_dirty_now().expect("racing pass"))
        };
        let reply = server.handle(&batch);
        assert_eq!(pass.join().expect("pass ran"), 1);

        let Response::ValueBatch {
            generation, values, ..
        } = reply
        else {
            panic!("expected a value batch, got {reply:?}");
        };
        assert!(
            (1..=2).contains(&generation),
            "stamped generation {generation} was never published"
        );
        let bits = |v: &[Option<f64>]| -> Vec<Option<u64>> {
            v.iter().map(|x| x.map(f64::to_bits)).collect()
        };
        assert_eq!(bits(&values), bits(&before), "generation {generation}");
        let snapshot = state.registry().snapshot();
        assert_eq!(snapshot.generation(), 2, "the page-out kept the generation");
        let window0 = snapshot.cover_for_window(0).expect("window 0 published");
        assert!(window0.cover.resident().is_none(), "window 0 is paged out");
        state.check_invariants().expect("state is consistent");
        let _ = std::fs::remove_dir_all(&dir);
    });
    println!("{report}");
    assert!(report.schedules > 1);
}
