//! The concurrent serving layer: one shared server, served on the callers'
//! threads under a count of permits.
//!
//! [`ConcurrentTransport`] is the one in-process transport, from the
//! single-worker shape of the Figure 7 bandwidth demos to a deployment that
//! absorbs "heavy traffic from millions of users": it holds one
//! `Arc<EnviroServer>` and `workers` permits, and gives each connection a
//! [`Session`] that carries one request at a time, as every client of the
//! protocol waits for each reply before it sends the next request. A
//! session serves its own request: it takes a permit, runs the server on
//! its own thread and returns the permit, so a frame crosses no thread.
//!
//! Sharing one server across threads is sound because the entire query
//! path is `&self`: the engine's per-window structures live behind
//! `OnceLock`s (first builder wins, everyone else reads), and the codec,
//! platform and window metadata are immutable after construction. The
//! query path itself therefore needs no locks.
//!
//! Admission is one mutex and one condvar. A session that finds no free
//! permit takes a ticket and waits, in a wait list bounded at `max_queue`;
//! a returned permit passes straight to the oldest ticket, and only a
//! return that finds a waiter notifies. A session that finds the wait list
//! full is shed: it gets a `Busy` frame at once.
//!
//! A panic while serving is caught on the session's thread. That call
//! answers [`TransportError::Disconnected`], its permit goes back, and the
//! transport closes, because the server's state is unknown after a panic:
//! every waiter and every later call gets `Disconnected`, so no waiter
//! hangs.
//!
//! A session keeps its request and reply buffers from call to call, so in
//! steady state a call allocates nothing.

use crate::codec::WireCodec;
use crate::protocol::Response;
use crate::server::EnviroServer;
use enviro_schedule::sync::atomic::{AtomicU64, Ordering};
use enviro_schedule::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Default bound on the sessions waiting for a permit.
const WAIT_LIST: usize = 256;

/// The backoff hint carried by shed [`Response::Busy`] frames, ms.
const RETRY_AFTER_MS: u32 = 25;

/// Errors crossing the transport (not the protocol: a malformed request
/// comes back as `Ok` bytes encoding a [`Response::Error`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The transport is closed: serving a request panicked.
    Disconnected,
    /// The exchange did not complete within the caller's deadline. Raised
    /// by fault-injecting wires ([`crate::fault::ChaosWire`]) when a frame
    /// is dropped or stalled past its timeout; a resilient client treats it
    /// as a retryable loss.
    TimedOut,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Disconnected => f.write_str("server closed after a panic"),
            TransportError::TimedOut => f.write_str("exchange timed out"),
        }
    }
}

impl std::error::Error for TransportError {}

/// Sizing for [`ConcurrentTransport::spawn_shared_with`].
#[derive(Debug, Clone)]
pub struct TransportConfig {
    /// Permits: frames served at once (clamped to at least 1).
    pub workers: usize,
    /// Sessions that may wait for a permit (clamped to at least 1). A
    /// request arriving at a full wait list is **shed**: the sender gets an
    /// immediate [`Response::Busy`] frame instead of blocking, so server
    /// memory stays bounded no matter how hard the fleet pushes.
    pub max_queue: usize,
}

impl Default for TransportConfig {
    fn default() -> Self {
        Self {
            workers: 1,
            max_queue: WAIT_LIST,
        }
    }
}

/// Serves one request frame into a reply buffer.
type Serve = dyn Fn(&[u8], &mut Vec<u8>) + Send + Sync;

/// The permits and the wait list, under the transport's one lock.
struct Admission {
    /// Permits no session holds.
    free: usize,
    /// Tickets handed to waiters so far.
    issued: u64,
    /// Tickets given a permit so far: ticket `t` holds one once
    /// `t < admitted`, and `issued - admitted` sessions are waiting.
    admitted: u64,
    /// Serving panicked: nothing more is answered.
    closed: bool,
}

/// One shared [`EnviroServer`] behind `workers` permits.
///
/// Sessions serve their own requests, at most `workers` at once; dropping
/// the transport has no thread to stop.
pub struct ConcurrentTransport {
    /// The server's `handle_bytes_into`, with its codec type erased.
    serve: Box<Serve>,
    workers: usize,
    max_queue: u64,
    admission: Mutex<Admission>,
    /// Signalled when a permit passes to a waiter or the transport closes.
    wake: Condvar,
    /// The pre-encoded [`Response::Busy`] frame shed requests answer with
    /// (encoded once, in the server's codec).
    busy_frame: Vec<u8>,
    /// Requests shed across all sessions.
    shed: AtomicU64,
}

impl ConcurrentTransport {
    /// Serves `server`, which the caller may keep a handle to (e.g. for
    /// direct in-process queries alongside the served traffic), under
    /// `workers` permits (at least 1). It starts no thread and never
    /// fails; the `io::Result` is kept for its callers.
    pub fn spawn_shared<C>(server: Arc<EnviroServer<C>>, workers: usize) -> std::io::Result<Self>
    where
        C: WireCodec + Send + Sync + 'static,
    {
        Self::spawn_shared_with(
            server,
            TransportConfig {
                workers,
                ..TransportConfig::default()
            },
        )
    }

    /// [`Self::spawn_shared`] with an explicit wait-list bound.
    pub fn spawn_shared_with<C>(
        server: Arc<EnviroServer<C>>,
        config: TransportConfig,
    ) -> std::io::Result<Self>
    where
        C: WireCodec + Send + Sync + 'static,
    {
        let workers = config.workers.max(1);
        Ok(Self {
            busy_frame: server.codec().encode_response(&Response::Busy {
                retry_after_ms: RETRY_AFTER_MS,
            }),
            serve: Box::new(move |request, reply| server.handle_bytes_into(request, reply)),
            workers,
            max_queue: config.max_queue.max(1) as u64,
            admission: Mutex::new(Admission {
                free: workers,
                issued: 0,
                admitted: 0,
                closed: false,
            }),
            wake: Condvar::new(),
            shed: AtomicU64::new(0),
        })
    }

    /// Number of permits.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Total requests shed (answered [`Response::Busy`]) since spawn.
    pub fn shed_total(&self) -> u64 {
        // ordering: Relaxed — `shed` is a statistics counter; nothing is
        // published through it and no control flow gates on a fresh value,
        // so only the count's atomicity matters. (Tests that assert exact
        // totals read it after the shedding calls have returned.)
        self.shed.load(Ordering::Relaxed)
    }

    /// Opens a connection-like [`Session`].
    pub fn session(&self) -> Session<'_> {
        Session {
            transport: self,
            request: Vec::new(),
            reply: Vec::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Admission> {
        // Every update under this lock is a few field writes, and no other
        // code runs while it is held, so the state is valid even if a
        // holder panicked.
        self.admission
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// A permit, after waiting for one if none is free; `None` if the wait
    /// list is full.
    fn admit(&self) -> Result<Option<Permit<'_>>, TransportError> {
        let mut st = self.lock();
        if st.closed {
            return Err(TransportError::Disconnected);
        }
        // A free permit means an empty wait list: a returned permit goes to
        // the oldest waiter first.
        if st.free > 0 {
            st.free -= 1;
            return Ok(Some(Permit(self)));
        }
        if st.issued - st.admitted >= self.max_queue {
            return Ok(None);
        }
        let ticket = st.issued;
        st.issued += 1;
        while st.admitted <= ticket {
            if st.closed {
                return Err(TransportError::Disconnected);
            }
            st = self.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        if st.closed {
            // Admitted just before the close: hand the permit back.
            st.free += 1;
            return Err(TransportError::Disconnected);
        }
        Ok(Some(Permit(self)))
    }

    /// Stops answering: every waiter leaves the wait list with
    /// `Disconnected`, and permits returned from now on stay free.
    fn close(&self) {
        let mut st = self.lock();
        st.closed = true;
        st.issued = st.admitted;
        drop(st);
        self.wake.notify_all();
    }
}

impl Drop for ConcurrentTransport {
    fn drop(&mut self) {
        // Sessions borrow the transport and return their permit before
        // each call returns, so nothing is held or waiting here.
        let st = self
            .admission
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        if !std::thread::panicking() {
            debug_assert_eq!(st.free, self.workers, "a permit was never returned");
            debug_assert_eq!(st.issued, st.admitted, "a waiter outlived its transport");
        }
    }
}

/// One held permit, returned on drop, also when serving panicked.
struct Permit<'t>(&'t ConcurrentTransport);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut st = self.0.lock();
        if st.issued > st.admitted {
            // Pass it to the oldest waiter. The condvar wakes every waiter
            // and only that ticket proceeds.
            st.admitted += 1;
            drop(st);
            self.0.wake.notify_all();
        } else {
            st.free += 1;
        }
    }
}

/// A per-connection handle: one request at a time, served on the calling
/// thread.
pub struct Session<'t> {
    transport: &'t ConcurrentTransport,
    request: Vec<u8>,
    reply: Vec<u8>,
}

impl Session<'_> {
    /// One full exchange: encodes a request with `encode`, waits for a
    /// permit and serves it. The returned slice is valid until the next
    /// call on this session.
    ///
    /// If the wait list is full the request is shed: the reply is a
    /// [`Response::Busy`] frame, returned at once. A request whose serving
    /// panicked, or that reaches a transport closed by such a panic,
    /// yields [`TransportError::Disconnected`].
    pub fn call_with(
        &mut self,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> Result<&[u8], TransportError> {
        let transport = self.transport;
        self.request.clear();
        encode(&mut self.request);
        let Some(permit) = transport.admit()? else {
            // ordering: Relaxed — statistics only; see `shed_total`.
            transport.shed.fetch_add(1, Ordering::Relaxed);
            return Ok(&transport.busy_frame);
        };
        let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            (transport.serve)(&self.request, &mut self.reply);
        }));
        if served.is_err() {
            // Closed before the permit goes back, so no waiter is admitted
            // to a server whose state is unknown.
            transport.close();
        }
        drop(permit);
        served.map_err(|_| TransportError::Disconnected)?;
        Ok(&self.reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::BinaryCodec;
    use crate::protocol::{Request, Response};
    use enviro_data::{LausanneSim, SimConfig, Timestamp, WindowSpec};
    use enviro_geo::Point;
    use enviro_meter::{AdKmnConfig, EnviroMeter, QueryMethod};
    use std::time::{Duration, Instant};

    fn platform() -> EnviroMeter {
        let sim = LausanneSim::lausanne(SimConfig {
            duration_secs: 3_600,
            seed: 3,
            ..SimConfig::default()
        });
        EnviroMeter::new(
            sim.generate(),
            WindowSpec::ByDuration(3_600),
            AdKmnConfig::default(),
            1_000.0,
        )
    }

    fn server() -> EnviroServer<BinaryCodec> {
        EnviroServer::new(platform(), BinaryCodec, QueryMethod::ModelCover)
    }

    fn spawn(workers: usize) -> ConcurrentTransport {
        ConcurrentTransport::spawn_shared(Arc::new(server()), workers).unwrap()
    }

    /// One exchange on a fresh session, with the reply copied out.
    fn call(t: &ConcurrentTransport, request: &[u8]) -> Result<Vec<u8>, TransportError> {
        t.session()
            .call_with(|out| out.extend_from_slice(request))
            .map(<[u8]>::to_vec)
    }

    fn query_bytes(i: i64) -> Vec<u8> {
        BinaryCodec.encode_request(&Request::Query {
            time: Timestamp::from_secs(i * 60),
            pos: Point::new(0.0, -200.0),
        })
    }

    fn decode(reply: &[u8]) -> Response {
        BinaryCodec.decode_response(reply).unwrap()
    }

    /// Polls `done` until it holds; a hang fails the test after 30 s.
    fn wait_until(what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting: {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Sessions in a transport's wait list.
    fn queued(t: &ConcurrentTransport) -> usize {
        let st = t.lock();
        (st.issued - st.admitted) as usize
    }

    /// Holds every request decoded under a [`GatedCodec`] until the test
    /// opens it, so a test can keep a permit held and fill the wait list to
    /// an exact depth.
    struct Gate {
        /// Requests that reached the gate, and whether it is open.
        state: Mutex<(usize, bool)>,
        changed: Condvar,
    }

    impl Gate {
        fn lock(&self) -> MutexGuard<'_, (usize, bool)> {
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }

        fn pass(&self) {
            let mut st = self.lock();
            st.0 += 1;
            self.changed.notify_all();
            while !st.1 {
                st = self
                    .changed
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        fn wait_entered(&self, n: usize) {
            let mut st = self.lock();
            while st.0 < n {
                st = self
                    .changed
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        fn open(&self) {
            self.lock().1 = true;
            self.changed.notify_all();
        }
    }

    /// A frame whose decoding panics under [`GatedCodec`].
    const POISON: &[u8] = b"poison";

    /// The binary codec, except that every decode first waits at the gate,
    /// and a [`POISON`] frame then panics — a stand-in for any bug that
    /// panics mid-request.
    struct GatedCodec(Arc<Gate>);

    impl WireCodec for GatedCodec {
        fn name(&self) -> &'static str {
            "gated"
        }

        fn encode_request_into(&self, req: &Request, out: &mut Vec<u8>) {
            BinaryCodec.encode_request_into(req, out);
        }

        fn decode_request(&self, bytes: &[u8]) -> Result<Request, crate::codec::CodecError> {
            self.0.pass();
            assert_ne!(bytes, POISON, "poison frame");
            BinaryCodec.decode_request(bytes)
        }

        fn encode_response_into(&self, resp: &Response, out: &mut Vec<u8>) {
            BinaryCodec.encode_response_into(resp, out);
        }

        fn decode_response(&self, bytes: &[u8]) -> Result<Response, crate::codec::CodecError> {
            BinaryCodec.decode_response(bytes)
        }
    }

    /// One permit with a `max_queue`-deep wait list over a [`GatedCodec`]
    /// server, and its gate, shut.
    fn gated_transport(max_queue: usize) -> (ConcurrentTransport, Arc<Gate>) {
        let gate = Arc::new(Gate {
            state: Mutex::new((0, false)),
            changed: Condvar::new(),
        });
        let server = EnviroServer::new(
            platform(),
            GatedCodec(Arc::clone(&gate)),
            QueryMethod::ModelCover,
        );
        let config = TransportConfig {
            workers: 1,
            max_queue,
        };
        let transport = ConcurrentTransport::spawn_shared_with(Arc::new(server), config).unwrap();
        (transport, gate)
    }

    #[test]
    fn call_round_trips_on_every_worker_count() {
        for workers in [1, 2, 4] {
            let t = spawn(workers);
            assert_eq!(t.workers(), workers);
            for i in 0..8 {
                let reply = call(&t, &query_bytes(i)).unwrap();
                assert!(matches!(decode(&reply), Response::Value { .. }));
            }
        }
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        assert_eq!(spawn(0).workers(), 1);
    }

    #[test]
    fn session_calls_match_direct_handling() {
        let t = spawn(2);
        let mut session = t.session();
        let s = server();
        for i in 0..10 {
            let request = Request::Query {
                time: Timestamp::from_secs(i * 60),
                pos: Point::new(i as f64, 0.0),
            };
            let reply = session
                .call_with(|out| BinaryCodec.encode_request_into(&request, out))
                .unwrap();
            assert_eq!(decode(reply), s.handle(&request), "reply {i}");
        }
    }

    #[test]
    fn garbage_frames_get_error_replies_and_session_survives() {
        let t = spawn(2);
        let mut session = t.session();
        let reply = session
            .call_with(|out| out.extend_from_slice(&[0xDE, 0xAD]))
            .unwrap();
        assert!(matches!(decode(reply), Response::Error(_)));
        let reply = session
            .call_with(|out| out.extend_from_slice(&query_bytes(1)))
            .unwrap();
        assert!(matches!(decode(reply), Response::Value { .. }));
    }

    /// A panic mid-request closes the transport, but no waiter hangs: the
    /// request being served, a request waiting behind it, and anything
    /// sent afterwards all fail with
    /// `Disconnected`. Each waiter runs on its own thread, and the whole
    /// exchange behind a watchdog, so a hang fails the test.
    #[test]
    fn serve_panic_disconnects_every_waiter() {
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let (t, gate) = gated_transport(4);
            let outcome = std::thread::scope(|scope| {
                let poisoned = scope.spawn(|| {
                    let mut session = t.session();
                    let first = session
                        .call_with(|out| out.extend_from_slice(POISON))
                        .map(<[u8]>::to_vec);
                    let again = session
                        .call_with(|out| out.extend_from_slice(&query_bytes(4)))
                        .map(<[u8]>::to_vec);
                    (first, again)
                });
                gate.wait_entered(1);
                let queued_behind = scope.spawn(|| call(&t, &query_bytes(1)));
                wait_until("the second request to wait", || queued(&t) == 1);
                gate.open();
                let (first, again) = poisoned.join().unwrap();
                (first, queued_behind.join().unwrap(), again)
            });
            let after = call(&t, &query_bytes(3));
            let _ = done.send((outcome, after));
        });
        let ((first, second, again), after) = finished
            .recv_timeout(Duration::from_secs(30))
            .expect("a waiter hung on a closed transport");
        for (waiter, outcome) in [
            ("the poisoned request", first),
            ("a request waiting behind it", second),
            ("the next call on the poisoned session", again),
            ("a call after the panic", after),
        ] {
            assert_eq!(outcome, Err(TransportError::Disconnected), "{waiter}");
        }
    }

    #[test]
    fn drop_with_no_traffic_shuts_down_cleanly() {
        drop(spawn(4));
    }

    /// One permit held in decode, wait list 2: the next two requests wait
    /// and the one after that is shed with an immediate `Busy`; once the
    /// permit is released every waiting request is answered.
    #[test]
    fn full_queue_sheds_with_busy_replies_in_order() {
        let (t, gate) = gated_transport(2);
        std::thread::scope(|scope| {
            let waiters: Vec<_> = (0..3)
                .map(|i| {
                    let waiter = scope.spawn({
                        let t = &t;
                        move || call(t, &query_bytes(i)).unwrap()
                    });
                    if i == 0 {
                        gate.wait_entered(1);
                    }
                    waiter
                })
                .collect();
            wait_until("two requests to wait", || queued(&t) == 2);
            // The caller is answered at once, on its own thread, while the
            // permit is still held.
            let mut session = t.session();
            for _ in 0..2 {
                let reply = session
                    .call_with(|out| out.extend_from_slice(&query_bytes(9)))
                    .unwrap();
                assert_eq!(
                    decode(reply),
                    Response::Busy {
                        retry_after_ms: RETRY_AFTER_MS
                    }
                );
            }
            assert_eq!(t.shed_total(), 2);
            gate.open();
            for waiter in waiters {
                assert!(matches!(
                    decode(&waiter.join().unwrap()),
                    Response::Value { .. }
                ));
            }
            // Once the wait list drains, the same session is served again.
            let reply = session
                .call_with(|out| out.extend_from_slice(&query_bytes(9)))
                .unwrap();
            assert!(matches!(decode(reply), Response::Value { .. }));
        });
        assert_eq!(t.shed_total(), 2);
    }

    #[test]
    fn one_shot_call_sheds_when_full() {
        let (t, gate) = gated_transport(1);
        std::thread::scope(|scope| {
            let held = scope.spawn(|| call(&t, &query_bytes(0)));
            gate.wait_entered(1);
            let queued_behind = scope.spawn(|| call(&t, &query_bytes(1)));
            wait_until("the second request to wait", || queued(&t) == 1);
            let reply = call(&t, &query_bytes(2)).unwrap();
            assert_eq!(
                decode(&reply),
                Response::Busy {
                    retry_after_ms: RETRY_AFTER_MS
                }
            );
            assert_eq!(t.shed_total(), 1);
            gate.open();
            for waiter in [held, queued_behind] {
                assert!(matches!(
                    decode(&waiter.join().unwrap().unwrap()),
                    Response::Value { .. }
                ));
            }
        });
    }

    /// A flood far past a tiny wait list, with the permit held: exactly the
    /// list's bound waits and every other caller is shed at once instead
    /// of blocking, so the list never grows past its cap. After release,
    /// each reply is a real answer or `Busy`, and the Busy count is the
    /// transport's shed count.
    #[test]
    fn shedding_keeps_memory_bounded_under_flood() {
        const CALLERS: i64 = 16;
        let (t, gate) = gated_transport(4);
        let (busy, answered) = std::thread::scope(|scope| {
            let mut waiters = vec![scope.spawn(|| call(&t, &query_bytes(0)))];
            gate.wait_entered(1);
            for i in 1..=CALLERS {
                let t = &t;
                waiters.push(scope.spawn(move || call(t, &query_bytes(i))));
            }
            wait_until("the flood to shed", || t.shed_total() == CALLERS as u64 - 4);
            assert_eq!(queued(&t), 4, "the wait list stays at its cap");
            gate.open();
            let (mut busy, mut answered) = (0u64, 0u64);
            for waiter in waiters {
                match decode(&waiter.join().unwrap().unwrap()) {
                    Response::Busy { .. } => busy += 1,
                    Response::Value { .. } | Response::NoData => answered += 1,
                    other => panic!("{other:?}"),
                }
            }
            (busy, answered)
        });
        assert_eq!(busy, t.shed_total());
        assert_eq!(answered, 5, "the held request and the four waiting");
    }

    #[test]
    fn concurrent_sessions_from_many_threads() {
        let t = spawn(4);
        std::thread::scope(|scope| {
            for k in 0..4 {
                let t = &t;
                scope.spawn(move || {
                    let mut session = t.session();
                    for i in 0..25 {
                        let reply = session
                            .call_with(|out| {
                                BinaryCodec.encode_request_into(
                                    &Request::Query {
                                        time: Timestamp::from_secs((k * 100 + i) * 30),
                                        pos: Point::new(i as f64 * 20.0, k as f64 * 50.0),
                                    },
                                    out,
                                )
                            })
                            .unwrap();
                        decode(reply);
                    }
                });
            }
        });
    }

    // The one-permit transport is the serial baseline (one frame served at
    // a time); these pin its request/response contract.

    #[test]
    fn query_round_trips_on_one_permit() {
        let t = spawn(1);
        let req = BinaryCodec.encode_request(&Request::Query {
            time: Timestamp::from_secs(100),
            pos: Point::new(0.0, -200.0),
        });
        let reply = call(&t, &req).unwrap();
        assert!(matches!(decode(&reply), Response::Value { .. }));
    }

    #[test]
    fn many_sequential_calls() {
        let t = spawn(1);
        let mut session = t.session();
        for i in 0..50 {
            let req = Request::Query {
                time: Timestamp::from_secs(i * 60),
                pos: Point::new(i as f64 * 10.0, 0.0),
            };
            let reply = session
                .call_with(|out| BinaryCodec.encode_request_into(&req, out))
                .unwrap();
            assert!(!matches!(
                decode(reply),
                Response::Busy { .. } | Response::Error(_)
            ));
        }
    }

    #[test]
    fn garbage_request_returns_error_reply_not_panic() {
        let t = spawn(1);
        // The transport succeeds; the *protocol* reports the error, so the
        // transport stays usable for the next request.
        let reply = call(&t, &[0xDE, 0xAD]).unwrap();
        assert!(matches!(decode(&reply), Response::Error(_)));
        assert!(call(&t, &query_bytes(1)).is_ok());
    }

    #[test]
    fn concurrent_clients() {
        let t = spawn(1);
        std::thread::scope(|scope| {
            for k in 0..4 {
                let t = &t;
                scope.spawn(move || {
                    for i in 0..25 {
                        let req = BinaryCodec.encode_request(&Request::Query {
                            time: Timestamp::from_secs((k * 100 + i) * 30),
                            pos: Point::new(i as f64 * 20.0, k as f64 * 50.0),
                        });
                        call(t, &req).unwrap();
                    }
                });
            }
        });
        assert_eq!(t.shed_total(), 0, "four callers never fill the wait list");
    }

    #[test]
    fn drop_shuts_down_cleanly() {
        let t = spawn(1);
        call(&t, &query_bytes(1)).unwrap();
        drop(t); // must not hang or panic after serving traffic
    }
}
