//! The concurrent serving layer: N worker threads over one shared server.
//!
//! [`ConcurrentTransport`] is the one in-process transport, from the
//! single-worker shape of the Figure 7 bandwidth demos to a deployment that
//! absorbs "heavy traffic from millions of users": it spawns `workers`
//! threads over one `Arc<EnviroServer>`, shards requests across per-worker
//! queues, and gives each connection a [`Session`] that carries one request
//! at a time, as every client of the protocol waits for each reply before
//! it sends the next request.
//!
//! Sharing one server across threads is sound because the entire query
//! path is `&self`: the engine's per-window structures live behind
//! `OnceLock`s (first builder wins, everyone else reads), and the codec,
//! platform and window metadata are immutable after construction. Workers
//! therefore need no locks on the hot path.
//!
//! The hand-off is two purpose-built structures, each one mutex plus one
//! condvar. A `Shard` is one worker's request queue; a `Mailbox` is one
//! session's one-slot reply box. Each side records under its lock whether
//! its owner is parked, and the peer notifies only a parked owner, so a
//! frame served to a busy peer costs no wake-up syscall. Every queued
//! request carries a `ReplyTo` guard that answers "lost" if it is dropped
//! unanswered; a worker that exits, by shutdown or by panic, closes its
//! shard and drops what is still queued, so no session waits on a worker
//! that is gone.
//!
//! Buffers circulate instead of being allocated: a session encodes into
//! the buffer its last reply came back in, and a worker swaps each request
//! buffer into service as its next reply buffer. Queue capacity is reserved
//! up front, so in steady state a session ↔ worker pair trades the same two
//! `Vec`s forever and the hand-off allocates nothing.

use crate::codec::WireCodec;
use crate::protocol::Response;
use crate::server::EnviroServer;
use enviro_schedule::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use enviro_schedule::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use enviro_schedule::thread::JoinHandle;
use std::collections::VecDeque;

/// Default per-worker request queue depth.
const SHARD_QUEUE: usize = 256;

/// The backoff hint carried by shed [`Response::Busy`] frames, ms.
const RETRY_AFTER_MS: u32 = 25;

/// Errors crossing the transport (not the protocol: a malformed request
/// comes back as `Ok` bytes encoding a [`Response::Error`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The worker threads are gone (shut down or panicked).
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
            TransportError::Disconnected => f.write_str("server thread terminated"),
            TransportError::TimedOut => f.write_str("exchange timed out"),
        }
    }
}

impl std::error::Error for TransportError {}

/// Sizing for [`ConcurrentTransport::spawn_shared_with`].
#[derive(Debug, Clone)]
pub struct TransportConfig {
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Per-worker request queue depth (clamped to at least 1). A request
    /// arriving at a full queue is **shed**: the sender gets an immediate
    /// [`Response::Busy`] frame instead of blocking, so server memory stays
    /// bounded no matter how hard the fleet pushes.
    pub max_queue: usize,
}

impl Default for TransportConfig {
    fn default() -> Self {
        Self {
            workers: 1,
            max_queue: SHARD_QUEUE,
        }
    }
}

/// One worker's request queue. Producers are the sessions routed to it;
/// the consumer is its worker alone.
struct Shard {
    state: Mutex<ShardState>,
    /// Signalled, only while `parked`, when the worker has cause to look
    /// again: a request arrived, or the shard was closed.
    wake: Condvar,
}

struct ShardState {
    queue: VecDeque<Envelope>,
    cap: usize,
    /// No more envelopes are accepted; the worker exits once the queue is
    /// empty.
    closed: bool,
    /// The worker is waiting on `wake`.
    parked: bool,
}

/// Why [`Shard::push`] refused a request.
enum Rejected {
    /// The queue is at capacity; the request buffer comes back for reuse.
    Full(Vec<u8>),
    /// The worker is gone.
    Closed,
}

impl Shard {
    fn new(cap: usize) -> Self {
        Self {
            state: Mutex::new(ShardState {
                queue: VecDeque::with_capacity(cap),
                cap,
                closed: false,
                parked: false,
            }),
            wake: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, ShardState> {
        // Every update under this lock is a single field write or queue
        // push/pop, and no other code runs while it is held, so the state
        // is valid even if a holder panicked.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Applies `change` under the lock, then wakes the worker if it is
    /// parked. Clearing `parked` here makes a burst of changes cost one
    /// notify.
    fn update<R>(&self, change: impl FnOnce(&mut ShardState) -> R) -> R {
        let mut st = self.lock();
        let out = change(&mut st);
        let wake = std::mem::take(&mut st.parked);
        drop(st);
        if wake {
            self.wake.notify_one();
        }
        out
    }

    /// Queues `request` for the worker, to be answered into `mailbox`.
    fn push(&self, request: Vec<u8>, mailbox: &Arc<Mailbox>) -> Result<(), Rejected> {
        self.update(|st| {
            if st.closed {
                return Err(Rejected::Closed);
            }
            if st.queue.len() >= st.cap {
                return Err(Rejected::Full(request));
            }
            st.queue.push_back(Envelope {
                request,
                reply_to: ReplyTo(Some(Arc::clone(mailbox))),
            });
            Ok(())
        })
    }

    /// The worker's next envelope, parking while the queue is empty; `None`
    /// once the shard is closed and empty.
    fn next(&self) -> Option<Envelope> {
        let mut st = self.lock();
        loop {
            if let Some(envelope) = st.queue.pop_front() {
                return Some(envelope);
            }
            if st.closed {
                return None;
            }
            st.parked = true;
            st = self.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
            st.parked = false;
        }
    }
}

/// Retires its shard when the worker exits, however it exits: closes it
/// for good and drops every envelope still queued, so each one's mailbox
/// is told its request was lost.
struct RetireOnExit<'a>(&'a Shard);

impl Drop for RetireOnExit<'_> {
    fn drop(&mut self) {
        let orphans = {
            let mut st = self.0.lock();
            st.closed = true;
            std::mem::take(&mut st.queue)
        };
        // Dropped outside the shard lock: each drop posts to a mailbox,
        // and the two locks are never nested.
        drop(orphans);
    }
}

/// One session's reply slot.
struct Mailbox {
    state: Mutex<MailboxState>,
    /// Signalled, only while `parked`, when a reply is posted.
    posted: Condvar,
}

struct MailboxState {
    /// The posted reply: `Some(buffer)` for an answer, `None` for a request
    /// lost with its worker.
    reply: Option<Option<Vec<u8>>>,
    /// The owning session is waiting on `posted`.
    parked: bool,
}

impl Mailbox {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(MailboxState {
                reply: None,
                parked: false,
            }),
            posted: Condvar::new(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, MailboxState> {
        // As with the shard lock: single-step updates, no foreign code
        // under the lock.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn post(&self, reply: Option<Vec<u8>>) {
        let mut st = self.lock();
        st.reply = Some(reply);
        let wake = std::mem::take(&mut st.parked);
        drop(st);
        if wake {
            self.posted.notify_one();
        }
    }

    /// The reply, parking until it is posted.
    fn take(&self) -> Option<Vec<u8>> {
        let mut st = self.lock();
        loop {
            if let Some(reply) = st.reply.take() {
                return reply;
            }
            st.parked = true;
            st = self.posted.wait(st).unwrap_or_else(PoisonError::into_inner);
            st.parked = false;
        }
    }
}

/// A worker's duty to answer one request. [`ReplyTo::deliver`] posts the
/// reply; dropped undelivered (its worker panicked, or exited with the
/// envelope still queued) it posts "lost", so the waiter never hangs.
struct ReplyTo(Option<Arc<Mailbox>>);

impl ReplyTo {
    fn deliver(mut self, reply: Vec<u8>) {
        if let Some(mailbox) = self.0.take() {
            mailbox.post(Some(reply));
        }
    }
}

impl Drop for ReplyTo {
    fn drop(&mut self) {
        if let Some(mailbox) = self.0.take() {
            mailbox.post(None);
        }
    }
}

/// A request envelope: opaque bytes plus the duty to answer them.
struct Envelope {
    request: Vec<u8>,
    reply_to: ReplyTo,
}

/// A pool of worker threads serving one shared [`EnviroServer`].
///
/// Each worker owns one shard; sessions are assigned to shards
/// round-robin. Dropping the transport closes every shard and joins the
/// workers.
pub struct ConcurrentTransport {
    shards: Vec<Arc<Shard>>,
    workers: Vec<JoinHandle<()>>,
    next_shard: AtomicUsize,
    /// The pre-encoded [`Response::Busy`] frame shed requests answer with
    /// (encoded once at spawn, in the server's codec).
    busy_frame: Vec<u8>,
    /// Requests shed across all sessions.
    shed: AtomicU64,
}

impl ConcurrentTransport {
    /// Spawns `workers` threads (at least 1) serving `server`, a server the
    /// caller may keep a handle to (e.g. for direct in-process queries
    /// alongside the served traffic). `Err` means the OS refused to create
    /// a thread.
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

    /// Spawns with an explicit queue depth.
    pub fn spawn_shared_with<C>(
        server: Arc<EnviroServer<C>>,
        config: TransportConfig,
    ) -> std::io::Result<Self>
    where
        C: WireCodec + Send + Sync + 'static,
    {
        let workers = config.workers.max(1);
        let max_queue = config.max_queue.max(1);
        let mut transport = Self {
            shards: Vec::with_capacity(workers),
            workers: Vec::with_capacity(workers),
            next_shard: AtomicUsize::new(0),
            busy_frame: server.codec().encode_response(&Response::Busy {
                retry_after_ms: RETRY_AFTER_MS,
            }),
            shed: AtomicU64::new(0),
        };
        for i in 0..workers {
            let shard = Arc::new(Shard::new(max_queue));
            let server = Arc::clone(&server);
            let worker_shard = Arc::clone(&shard);
            // On `Err` the partial transport drops, closing and joining
            // the workers already started.
            let handle = enviro_schedule::thread::Builder::new()
                .name(format!("enviro-worker-{i}"))
                .spawn(move || {
                    // A panic while serving ends this worker only. By the
                    // time the unwind gets here `RetireOnExit` has closed
                    // the shard and answered every envelope "lost", and
                    // the panic hook has reported it; catching it makes
                    // the exit as orderly as a shutdown, for `join` and
                    // for the schedule checker alike.
                    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        worker_loop(&server, &worker_shard);
                    }));
                })?;
            transport.shards.push(shard);
            transport.workers.push(handle);
        }
        Ok(transport)
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Total requests shed (answered [`Response::Busy`]) since spawn.
    pub fn shed_total(&self) -> u64 {
        // ordering: Relaxed — `shed` is a statistics counter; nothing is
        // published through it and no control flow gates on a fresh value,
        // so only the count's atomicity matters. (Tests that assert exact
        // totals read it after the shedding calls have returned.)
        self.shed.load(Ordering::Relaxed)
    }

    /// Opens a connection-like [`Session`] pinned to one worker shard.
    pub fn session(&self) -> Session<'_> {
        // ordering: Relaxed — a round-robin distribution counter. Fairness
        // is best-effort by design; correctness never depends on which
        // shard a session lands on, so no ordering is required.
        let shard = self.next_shard.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        Session {
            transport: self,
            shard: &self.shards[shard],
            mailbox: Mailbox::new(),
            buf: Vec::new(),
        }
    }
}

impl Drop for ConcurrentTransport {
    fn drop(&mut self) {
        // Sessions borrow the transport and wait out every request they
        // queue, so no request is still queued here: closing a shard lets
        // its parked worker exit, and the join cannot hang.
        for shard in &self.shards {
            shard.update(|st| st.closed = true);
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One worker: serve envelopes until the shard closes, reusing one reply
/// buffer by swapping it with each served request's buffer.
fn worker_loop<C: WireCodec>(server: &EnviroServer<C>, shard: &Shard) {
    let _retire = RetireOnExit(shard);
    let mut reply = Vec::new();
    while let Some(Envelope {
        mut request,
        reply_to,
    }) = shard.next()
    {
        server.handle_bytes_into(&request, &mut reply);
        // Ship the reply in the request's allocation-slot and keep the
        // other buffer as the next reply scratch (`handle_bytes_into`
        // clears it before use).
        std::mem::swap(&mut request, &mut reply);
        reply_to.deliver(request);
    }
}

/// A per-connection handle: one request at a time goes to one pinned
/// worker shard, and its reply comes back through a private one-slot
/// mailbox.
pub struct Session<'t> {
    transport: &'t ConcurrentTransport,
    shard: &'t Shard,
    mailbox: Arc<Mailbox>,
    /// The buffer the last reply came back in, reused for the next request.
    buf: Vec<u8>,
}

impl Session<'_> {
    /// One full exchange: encodes a request with `encode`, hands it to the
    /// worker and waits for the reply. The returned slice is valid until
    /// the next call on this session.
    ///
    /// If the worker queue is full the request is shed: the reply is a
    /// [`Response::Busy`] frame, returned at once. A request whose worker
    /// is gone, or died before answering it, yields
    /// [`TransportError::Disconnected`].
    pub fn call_with(
        &mut self,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> Result<&[u8], TransportError> {
        let mut request = std::mem::take(&mut self.buf);
        request.clear();
        encode(&mut request);
        match self.shard.push(request, &self.mailbox) {
            Ok(()) => {
                self.buf = self.mailbox.take().ok_or(TransportError::Disconnected)?;
                Ok(&self.buf)
            }
            Err(Rejected::Full(request)) => {
                self.buf = request;
                // ordering: Relaxed — statistics only; see `shed_total`.
                self.transport.shed.fetch_add(1, Ordering::Relaxed);
                Ok(&self.transport.busy_frame)
            }
            Err(Rejected::Closed) => Err(TransportError::Disconnected),
        }
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

    /// Requests queued on a transport's first shard.
    fn queued(t: &ConcurrentTransport) -> usize {
        t.shards[0].lock().queue.len()
    }

    /// Holds every request decoded under a [`GatedCodec`] until the test
    /// opens it, so a test can keep a worker busy and fill its queue to an
    /// exact depth.
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
    /// kills a worker mid-request.
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

    /// One worker with a `max_queue`-deep queue over a [`GatedCodec`]
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

    /// A worker that panics mid-request takes its shard down with it, but
    /// no waiter hangs: the request it was serving, a request queued behind
    /// it, and anything sent to the shard afterwards all fail with
    /// `Disconnected`. Each waiter runs on its own thread, and the whole
    /// exchange behind a watchdog, so a hang fails the test.
    #[test]
    fn worker_death_disconnects_every_waiter() {
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
                wait_until("the second request to queue", || queued(&t) == 1);
                gate.open();
                let (first, again) = poisoned.join().unwrap();
                (first, queued_behind.join().unwrap(), again)
            });
            let after = call(&t, &query_bytes(3));
            let _ = done.send((outcome, after));
        });
        let ((first, second, again), after) = finished
            .recv_timeout(Duration::from_secs(30))
            .expect("a waiter hung on a dead worker");
        for (waiter, outcome) in [
            ("the poisoned request", first),
            ("a request queued behind it", second),
            ("the next call on the poisoned session", again),
            ("a call after the death", after),
        ] {
            assert_eq!(outcome, Err(TransportError::Disconnected), "{waiter}");
        }
    }

    #[test]
    fn drop_with_no_traffic_shuts_down_cleanly() {
        drop(spawn(4));
    }

    /// One worker held in decode, queue depth 2: the next two requests
    /// queue and the one after that is shed with an immediate `Busy`; once
    /// the worker is released every queued request is answered.
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
            wait_until("two requests to queue", || queued(&t) == 2);
            // The caller is answered at once, on its own thread, while the
            // worker is still held.
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
            // Once the queue drains, the same session is served again.
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
            wait_until("the second request to queue", || queued(&t) == 1);
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

    /// A flood far past a tiny queue, with the worker held: exactly the
    /// queue's depth waits and every other caller is shed at once instead
    /// of blocking, so the queue never grows past its cap. After release,
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
            assert_eq!(queued(&t), 4, "the queue stays at its cap");
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
        assert_eq!(answered, 5, "the held request and the four queued");
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

    // The single-worker transport is the serial baseline (one server thread
    // behind a queue); these pin its request/response contract.

    #[test]
    fn query_across_thread_boundary() {
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
        // worker stays usable for the next request.
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
        assert_eq!(t.shed_total(), 0, "four callers never fill one queue");
    }

    #[test]
    fn drop_shuts_down_cleanly() {
        let t = spawn(1);
        call(&t, &query_bytes(1)).unwrap();
        drop(t); // must not hang or panic after serving traffic
    }
}
