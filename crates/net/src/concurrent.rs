//! The concurrent serving layer: N worker threads over one shared server.
//!
//! [`ConcurrentTransport`] is the one in-process transport, from the
//! single-worker shape of the Figure 7 bandwidth demos to a deployment that
//! absorbs "heavy traffic from millions of users": it spawns `workers`
//! threads over one `Arc<EnviroServer>`, shards requests across per-worker
//! queues, and gives each connection a pipelined [`Session`].
//!
//! Sharing one server across threads is sound because the entire query
//! path is `&self`: the engine's per-window structures live behind
//! `OnceLock`s (first builder wins, everyone else reads), and the codec,
//! platform and window metadata are immutable after construction. Workers
//! therefore need no locks on the hot path.
//!
//! The hand-off is two purpose-built structures, each one mutex plus one
//! condvar. A `Shard` is one worker's request queue, with the pause flag
//! folded into the same lock; a `Mailbox` is one session's reply queue.
//! Each side records under its lock whether its owner is parked, and the
//! peer notifies only a parked owner, so a frame served to a busy peer
//! costs no wake-up syscall. Every queued request carries a `ReplyTo`
//! guard that answers "lost" if it is dropped unanswered; a worker that
//! exits, by shutdown or by panic, closes its shard and drops what is still
//! queued, so no session waits on a worker that is gone.
//!
//! Buffers circulate instead of being allocated: a worker swaps each
//! request buffer into service as the next reply buffer, and a [`Session`]
//! pools the reply buffers it gets back for its next request. Queue and
//! mailbox capacity is reserved up front, so in steady state a session ↔
//! worker pair recycles the same two or three `Vec`s forever and the
//! hand-off allocates nothing.

use crate::codec::WireCodec;
use crate::protocol::Response;
use crate::server::EnviroServer;
use enviro_schedule::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use enviro_schedule::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use enviro_schedule::thread::JoinHandle;
use std::collections::VecDeque;

/// Maximum unacknowledged requests a [`Session`] may pipeline.
///
/// This is the capacity reserved in the session's reply mailbox, so a
/// worker posts every outstanding reply without blocking or allocating.
pub const PIPELINE_MAX: usize = 64;

/// Default per-worker request queue depth.
const SHARD_QUEUE: usize = 256;

/// Errors crossing the transport (not the protocol: a malformed request
/// comes back as `Ok` bytes encoding a [`Response::Error`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The worker threads are gone (shut down or panicked).
    Disconnected,
    /// A session has [`PIPELINE_MAX`] requests in flight; receive replies
    /// before sending more.
    PipelineFull,
    /// `recv` was called on a session with no request in flight (it would
    /// block forever).
    NoPendingReply,
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
            TransportError::PipelineFull => f.write_str("session pipeline is full"),
            TransportError::NoPendingReply => f.write_str("no reply pending on this session"),
            TransportError::TimedOut => f.write_str("exchange timed out"),
        }
    }
}

impl std::error::Error for TransportError {}

/// Tuning knobs for [`ConcurrentTransport::spawn_shared_with`].
#[derive(Debug, Clone)]
pub struct TransportConfig {
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Per-worker request queue depth (clamped to at least 1). A request
    /// arriving at a full queue is **shed**: the sender gets an immediate
    /// [`Response::Busy`] frame instead of blocking, so server memory stays
    /// bounded no matter how hard the fleet pushes.
    pub max_queue: usize,
    /// The backoff hint carried by shed [`Response::Busy`] frames, ms.
    pub retry_after_ms: u32,
    /// Spawn with every worker paused until
    /// [`ConcurrentTransport::resume_workers`] — lets tests fill queues to
    /// a deterministic depth before anything drains.
    pub start_paused: bool,
}

impl Default for TransportConfig {
    fn default() -> Self {
        Self {
            workers: 1,
            max_queue: SHARD_QUEUE,
            retry_after_ms: 25,
            start_paused: false,
        }
    }
}

/// One worker's request queue. Producers are the sessions and one-shot
/// calls routed to it; the consumer is its worker alone.
struct Shard {
    state: Mutex<ShardState>,
    /// Signalled, only while `parked`, when the worker has cause to look
    /// again: a request arrived, or the shard was resumed or closed.
    wake: Condvar,
}

struct ShardState {
    queue: VecDeque<Envelope>,
    cap: usize,
    /// Held by [`TransportConfig::start_paused`] until resumed: queued
    /// envelopes wait.
    paused: bool,
    /// No more envelopes are accepted; the worker drains and exits.
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
    fn new(cap: usize, paused: bool) -> Self {
        Self {
            state: Mutex::new(ShardState {
                queue: VecDeque::with_capacity(cap),
                cap,
                paused,
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

    /// The worker's next envelope, parking while the queue is empty or
    /// paused; `None` once the shard is closed and drained.
    fn next(&self) -> Option<Envelope> {
        let mut st = self.lock();
        loop {
            if !st.paused {
                if let Some(envelope) = st.queue.pop_front() {
                    return Some(envelope);
                }
                if st.closed {
                    return None;
                }
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

/// One session's (or one call's) replies, in send order: `Some(buffer)`
/// for an answer, `None` for a request lost with its worker.
struct Mailbox {
    state: Mutex<MailboxState>,
    /// Signalled, only while `parked`, when a reply is posted.
    posted: Condvar,
}

struct MailboxState {
    replies: VecDeque<Option<Vec<u8>>>,
    /// The owning session is waiting on `posted`.
    parked: bool,
}

impl Mailbox {
    fn new(capacity: usize) -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(MailboxState {
                replies: VecDeque::with_capacity(capacity),
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
        st.replies.push_back(reply);
        let wake = std::mem::take(&mut st.parked);
        drop(st);
        if wake {
            self.posted.notify_one();
        }
    }

    /// The next reply, parking until one is posted.
    fn take(&self) -> Option<Vec<u8>> {
        let mut st = self.lock();
        loop {
            if let Some(reply) = st.replies.pop_front() {
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
/// Each worker owns one shard; sessions and one-shot calls are assigned
/// to shards round-robin. Dropping the transport closes every shard, lets
/// the workers drain, and joins them.
pub struct ConcurrentTransport {
    shards: Vec<Arc<Shard>>,
    workers: Vec<JoinHandle<()>>,
    next_shard: AtomicUsize,
    /// The pre-encoded [`Response::Busy`] frame shed requests answer with
    /// (encoded once at spawn, in the server's codec).
    busy_frame: Vec<u8>,
    /// Requests shed across all sessions and one-shot calls.
    shed: AtomicU64,
}

impl ConcurrentTransport {
    /// Spawns `workers` threads (at least 1) serving `server`. `Err` means
    /// the OS refused to create a thread.
    pub fn spawn<C>(server: EnviroServer<C>, workers: usize) -> std::io::Result<Self>
    where
        C: WireCodec + Send + Sync + 'static,
    {
        Self::spawn_shared(Arc::new(server), workers)
    }

    /// Like [`ConcurrentTransport::spawn`], but over a server the caller
    /// keeps a handle to (e.g. for direct in-process queries alongside the
    /// served traffic).
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

    /// Spawns with explicit queue-depth / shedding configuration.
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
                retry_after_ms: config.retry_after_ms,
            }),
            shed: AtomicU64::new(0),
        };
        for i in 0..workers {
            let shard = Arc::new(Shard::new(max_queue, config.start_paused));
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
        // totals read it from the thread that did the shedding.)
        self.shed.load(Ordering::Relaxed)
    }

    /// Releases workers held by [`TransportConfig::start_paused`].
    pub fn resume_workers(&self) {
        for shard in &self.shards {
            shard.update(|st| st.paused = false);
        }
    }

    /// Performs one request/response exchange (a fresh reply mailbox per
    /// call). Sessions amortize that setup.
    ///
    /// When the chosen shard's queue is full the request is shed and the
    /// reply is a pre-encoded [`Response::Busy`] frame.
    pub fn call(&self, request: Vec<u8>) -> Result<Vec<u8>, TransportError> {
        let mailbox = Mailbox::new(1);
        match self.shards[self.pick_shard()].push(request, &mailbox) {
            Ok(()) => mailbox.take().ok_or(TransportError::Disconnected),
            Err(Rejected::Full(_)) => {
                // ordering: Relaxed — statistics only; see `shed_total`.
                self.shed.fetch_add(1, Ordering::Relaxed);
                Ok(self.busy_frame.clone())
            }
            Err(Rejected::Closed) => Err(TransportError::Disconnected),
        }
    }

    /// Opens a connection-like [`Session`] pinned to one worker shard.
    pub fn session(&self) -> Session<'_> {
        Session {
            transport: self,
            shard: &self.shards[self.pick_shard()],
            mailbox: Mailbox::new(PIPELINE_MAX),
            sources: VecDeque::new(),
            pool: Vec::new(),
            last: Vec::new(),
        }
    }

    fn pick_shard(&self) -> usize {
        // ordering: Relaxed — a round-robin distribution counter. Fairness
        // is best-effort by design; correctness never depends on which
        // shard a request lands on, so no ordering is required.
        self.next_shard.fetch_add(1, Ordering::Relaxed) % self.shards.len()
    }
}

impl Drop for ConcurrentTransport {
    fn drop(&mut self) {
        // Close every shard (which also lifts a pause), let the workers
        // drain what is queued, and join them. Sessions borrow the
        // transport, so none can be alive here.
        for shard in &self.shards {
            shard.update(|st| {
                st.paused = false;
                st.closed = true;
            });
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One worker: serve envelopes until the shard closes and drains, reusing
/// one reply buffer by swapping it with each served request's buffer.
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

/// Where the next in-order reply for a session comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReplySource {
    /// A worker owes the session a reply through its mailbox.
    Wire,
    /// The request was shed; the reply is the transport's pre-encoded
    /// `Busy` frame.
    Shed,
}

/// A per-connection handle: requests go to one pinned worker shard, replies
/// come back in order through a private mailbox.
///
/// Sessions support **pipelining**: up to [`PIPELINE_MAX`] requests may be
/// sent before receiving their replies, which batch-oriented clients use to
/// keep the wire full. Replies arrive in send order (the shard serves one
/// session's envelopes FIFO); a shed request's synthetic `Busy` reply is
/// slotted into that order via a per-session source ledger.
pub struct Session<'t> {
    transport: &'t ConcurrentTransport,
    shard: &'t Shard,
    mailbox: Arc<Mailbox>,
    /// One entry per in-flight request, in send order.
    sources: VecDeque<ReplySource>,
    /// Reply buffers returned by [`Session::recv`], reused for requests.
    pool: Vec<Vec<u8>>,
    /// The most recent reply, borrowed out by [`Session::recv`].
    last: Vec<u8>,
}

impl Session<'_> {
    /// Sends one request frame without waiting for its reply. The frame is
    /// encoded by `encode` into a recycled buffer.
    ///
    /// Fails with [`TransportError::PipelineFull`] when [`PIPELINE_MAX`]
    /// replies are outstanding — receive some first. If the worker queue is
    /// full the request is shed: the send still "succeeds", and the
    /// matching [`Session::recv`] yields a [`Response::Busy`] frame.
    pub fn send_with(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> Result<(), TransportError> {
        if self.sources.len() >= PIPELINE_MAX {
            return Err(TransportError::PipelineFull);
        }
        let mut request = self.pool.pop().unwrap_or_default();
        request.clear();
        encode(&mut request);
        match self.shard.push(request, &self.mailbox) {
            Ok(()) => self.sources.push_back(ReplySource::Wire),
            Err(Rejected::Full(request)) => {
                // ordering: Relaxed — statistics only; see `shed_total`.
                self.transport.shed.fetch_add(1, Ordering::Relaxed);
                if self.pool.len() < 4 {
                    self.pool.push(request);
                }
                self.sources.push_back(ReplySource::Shed);
            }
            Err(Rejected::Closed) => return Err(TransportError::Disconnected),
        }
        Ok(())
    }

    /// Receives the next pending reply, in send order. The returned slice
    /// is valid until the next `recv`/`call` on this session.
    ///
    /// A request whose worker died before answering it yields
    /// [`TransportError::Disconnected`].
    pub fn recv(&mut self) -> Result<&[u8], TransportError> {
        let Some(source) = self.sources.pop_front() else {
            return Err(TransportError::NoPendingReply);
        };
        match source {
            ReplySource::Wire => {
                let reply = self.mailbox.take().ok_or(TransportError::Disconnected)?;
                let prev = std::mem::replace(&mut self.last, reply);
                if self.pool.len() < 4 {
                    self.pool.push(prev);
                }
            }
            ReplySource::Shed => {
                self.last.clear();
                self.last.extend_from_slice(&self.transport.busy_frame);
            }
        }
        Ok(&self.last)
    }

    /// One full exchange: [`Session::send_with`] then [`Session::recv`].
    pub fn call_with(
        &mut self,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> Result<&[u8], TransportError> {
        self.send_with(encode)?;
        self.recv()
    }

    /// Number of requests sent but not yet received.
    pub fn inflight(&self) -> usize {
        self.sources.len()
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

    /// A frame whose decoding panics under [`ProbeCodec`].
    const POISON: &[u8] = b"poison";

    /// The binary codec, except that it counts the requests it decodes and
    /// panics on [`POISON`] — a stand-in for any bug that kills a worker
    /// mid-request.
    struct ProbeCodec {
        decoded: Arc<AtomicUsize>,
    }

    impl WireCodec for ProbeCodec {
        fn name(&self) -> &'static str {
            "probe"
        }

        fn encode_request_into(&self, req: &Request, out: &mut Vec<u8>) {
            BinaryCodec.encode_request_into(req, out);
        }

        fn decode_request(&self, bytes: &[u8]) -> Result<Request, crate::codec::CodecError> {
            assert_ne!(bytes, POISON, "poison frame");
            // ordering: Relaxed — a test tally, read after the workers
            // are joined.
            self.decoded.fetch_add(1, Ordering::Relaxed);
            BinaryCodec.decode_request(bytes)
        }

        fn encode_response_into(&self, resp: &Response, out: &mut Vec<u8>) {
            BinaryCodec.encode_response_into(resp, out);
        }

        fn decode_response(&self, bytes: &[u8]) -> Result<Response, crate::codec::CodecError> {
            BinaryCodec.decode_response(bytes)
        }
    }

    /// One paused worker over a [`ProbeCodec`] server, and the codec's
    /// decode tally.
    fn paused_probe_transport() -> (ConcurrentTransport, Arc<AtomicUsize>) {
        let decoded = Arc::new(AtomicUsize::new(0));
        let server = EnviroServer::new(
            platform(),
            ProbeCodec {
                decoded: Arc::clone(&decoded),
            },
            QueryMethod::ModelCover,
        );
        let transport = ConcurrentTransport::spawn_shared_with(
            Arc::new(server),
            TransportConfig {
                workers: 1,
                start_paused: true,
                ..TransportConfig::default()
            },
        )
        .unwrap();
        (transport, decoded)
    }

    fn query_bytes(i: i64) -> Vec<u8> {
        BinaryCodec.encode_request(&Request::Query {
            time: Timestamp::from_secs(i * 60),
            pos: Point::new(0.0, -200.0),
        })
    }

    #[test]
    fn call_round_trips_on_every_worker_count() {
        for workers in [1, 2, 4] {
            let t = ConcurrentTransport::spawn(server(), workers).unwrap();
            assert_eq!(t.workers(), workers);
            for i in 0..8 {
                let reply = t.call(query_bytes(i)).unwrap();
                assert!(matches!(
                    BinaryCodec.decode_response(&reply).unwrap(),
                    Response::Value { .. }
                ));
            }
        }
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let t = ConcurrentTransport::spawn(server(), 0).unwrap();
        assert_eq!(t.workers(), 1);
    }

    #[test]
    fn session_pipelines_in_order() {
        let t = ConcurrentTransport::spawn(server(), 2).unwrap();
        let mut session = t.session();
        let codec = BinaryCodec;
        for i in 0..10 {
            session
                .send_with(|out| {
                    codec.encode_request_into(
                        &Request::Query {
                            time: Timestamp::from_secs(i * 60),
                            pos: Point::new(i as f64, 0.0),
                        },
                        out,
                    )
                })
                .unwrap();
        }
        assert_eq!(session.inflight(), 10);
        let mut values = Vec::new();
        for _ in 0..10 {
            let reply = session.recv().unwrap();
            match codec.decode_response(reply).unwrap() {
                Response::Value { value } => values.push(value),
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(session.inflight(), 0);
        // In-order delivery: each reply matches its direct-handled twin.
        let s = server();
        for (i, v) in values.iter().enumerate() {
            let direct = s.handle(&Request::Query {
                time: Timestamp::from_secs(i as i64 * 60),
                pos: Point::new(i as f64, 0.0),
            });
            assert_eq!(direct, Response::Value { value: *v }, "reply {i}");
        }
    }

    #[test]
    fn pipeline_cap_is_enforced() {
        let t = ConcurrentTransport::spawn(server(), 1).unwrap();
        let mut session = t.session();
        for _ in 0..PIPELINE_MAX {
            session
                .send_with(|out| out.extend_from_slice(b"junk"))
                .unwrap();
        }
        assert_eq!(
            session.send_with(|out| out.extend_from_slice(b"junk")),
            Err(TransportError::PipelineFull)
        );
        while session.inflight() > 0 {
            session.recv().unwrap();
        }
    }

    #[test]
    fn recv_without_send_is_an_error_not_a_hang() {
        let t = ConcurrentTransport::spawn(server(), 1).unwrap();
        let mut session = t.session();
        assert_eq!(session.recv(), Err(TransportError::NoPendingReply));
    }

    #[test]
    fn garbage_frames_get_error_replies_and_session_survives() {
        let t = ConcurrentTransport::spawn(server(), 2).unwrap();
        let mut session = t.session();
        let reply = session
            .call_with(|out| out.extend_from_slice(&[0xDE, 0xAD]))
            .unwrap();
        assert!(matches!(
            BinaryCodec.decode_response(reply).unwrap(),
            Response::Error(_)
        ));
        let reply = session
            .call_with(|out| {
                BinaryCodec.encode_request_into(
                    &Request::Query {
                        time: Timestamp::from_secs(60),
                        pos: Point::new(0.0, -200.0),
                    },
                    out,
                )
            })
            .unwrap();
        assert!(matches!(
            BinaryCodec.decode_response(reply).unwrap(),
            Response::Value { .. }
        ));
    }

    /// A worker that panics mid-request takes its shard down with it, but
    /// no waiter hangs: the request it was serving, the requests queued
    /// behind it (from a session or a one-shot call) and anything sent to
    /// the shard afterwards all fail with `Disconnected`. The exchange runs
    /// on its own thread behind a watchdog, so a hang fails the test.
    #[test]
    fn worker_death_disconnects_every_waiter() {
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let (t, _) = paused_probe_transport();
            let mut first = t.session();
            let mut second = t.session();
            first
                .send_with(|out| out.extend_from_slice(POISON))
                .unwrap();
            second
                .send_with(|out| out.extend_from_slice(&query_bytes(1)))
                .unwrap();
            let outcome = std::thread::scope(|scope| {
                // The call queues behind the poison frame or, if the worker
                // is already gone, finds its shard closed: either way it
                // must come back `Disconnected`.
                let caller = scope.spawn(|| t.call(query_bytes(2)));
                t.resume_workers();
                let first = first.recv().map(<[u8]>::to_vec);
                let second = second.recv().map(<[u8]>::to_vec);
                (first, second, caller.join().unwrap())
            });
            let after = t.call(query_bytes(3));
            let resend = first.send_with(|out| out.extend_from_slice(&query_bytes(4)));
            let _ = done.send((outcome, after, resend));
        });
        let ((first, second, call), after, resend) = finished
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("a waiter hung on a dead worker");
        for (waiter, outcome) in [
            ("the poisoned request", first),
            ("a request queued behind it", second),
            ("a one-shot call", call),
            ("a call after the death", after),
        ] {
            assert_eq!(outcome, Err(TransportError::Disconnected), "{waiter}");
        }
        assert_eq!(resend, Err(TransportError::Disconnected), "a send after it");
    }

    /// Drop closes the shards but lets each worker drain its queue first,
    /// even when the transport was never resumed.
    #[test]
    fn drop_drains_a_paused_queue_then_joins() {
        let (t, decoded) = paused_probe_transport();
        let mut session = t.session();
        for i in 0..3 {
            session
                .send_with(|out| out.extend_from_slice(&query_bytes(i)))
                .unwrap();
        }
        drop(session);
        // ordering: Relaxed — test tally; nothing runs while paused.
        assert_eq!(decoded.load(Ordering::Relaxed), 0, "paused");
        drop(t);
        // ordering: Relaxed — the workers are joined, so the tally is final.
        assert_eq!(decoded.load(Ordering::Relaxed), 3, "all queued served");
    }

    #[test]
    fn drop_with_no_traffic_shuts_down_cleanly() {
        let t = ConcurrentTransport::spawn(server(), 4).unwrap();
        drop(t);
    }

    #[test]
    fn full_queue_sheds_with_busy_replies_in_order() {
        // One paused worker, queue depth 2: the first two sends queue, the
        // next two shed — deterministically, because nothing drains until
        // resume_workers().
        let t = ConcurrentTransport::spawn_shared_with(
            Arc::new(server()),
            TransportConfig {
                workers: 1,
                max_queue: 2,
                retry_after_ms: 7,
                start_paused: true,
            },
        )
        .unwrap();
        let mut session = t.session();
        for i in 0..4 {
            session
                .send_with(|out| {
                    BinaryCodec.encode_request_into(
                        &Request::Query {
                            time: Timestamp::from_secs(i * 60),
                            pos: Point::new(0.0, -200.0),
                        },
                        out,
                    )
                })
                .unwrap();
        }
        assert_eq!(t.shed_total(), 2);
        assert_eq!(session.inflight(), 4);
        t.resume_workers();
        let mut got = Vec::new();
        for _ in 0..4 {
            let reply = session.recv().unwrap();
            got.push(match BinaryCodec.decode_response(reply).unwrap() {
                Response::Value { .. } => "value",
                Response::Busy { retry_after_ms } => {
                    assert_eq!(retry_after_ms, 7);
                    "busy"
                }
                other => panic!("{other:?}"),
            });
        }
        // Send order is preserved: queued requests answer first, shed ones
        // get their synthetic Busy in their original slots.
        assert_eq!(got, ["value", "value", "busy", "busy"]);
        assert_eq!(session.inflight(), 0);
    }

    #[test]
    fn one_shot_call_sheds_when_full() {
        let t = ConcurrentTransport::spawn_shared_with(
            Arc::new(server()),
            TransportConfig {
                workers: 1,
                max_queue: 1,
                retry_after_ms: 25,
                start_paused: true,
            },
        )
        .unwrap();
        // First call would block on its reply; use a session to occupy the
        // queue without waiting.
        let mut session = t.session();
        session
            .send_with(|out| out.extend_from_slice(b"junk"))
            .unwrap();
        let reply = t.call(query_bytes(1)).unwrap();
        assert!(matches!(
            BinaryCodec.decode_response(&reply).unwrap(),
            Response::Busy { retry_after_ms: 25 }
        ));
        assert_eq!(t.shed_total(), 1);
        t.resume_workers();
        session.recv().unwrap();
    }

    #[test]
    fn shedding_keeps_memory_bounded_under_flood() {
        // Hammer a tiny queue far past its capacity: every send must
        // complete immediately (no blocking), every reply must be either a
        // real answer or Busy, and the transport must shut down cleanly.
        let t = ConcurrentTransport::spawn_shared_with(
            Arc::new(server()),
            TransportConfig {
                workers: 1,
                max_queue: 4,
                retry_after_ms: 1,
                start_paused: false,
            },
        )
        .unwrap();
        let mut session = t.session();
        let mut busy = 0u32;
        let mut answered = 0u32;
        for round in 0..50 {
            for i in 0..PIPELINE_MAX {
                session
                    .send_with(|out| {
                        BinaryCodec.encode_request_into(
                            &Request::Query {
                                time: Timestamp::from_secs(((round * 7 + i) % 60) as i64 * 60),
                                pos: Point::new(i as f64, 0.0),
                            },
                            out,
                        )
                    })
                    .unwrap();
            }
            while session.inflight() > 0 {
                match BinaryCodec
                    .decode_response(session.recv().unwrap())
                    .unwrap()
                {
                    Response::Busy { .. } => busy += 1,
                    Response::Value { .. } | Response::NoData => answered += 1,
                    other => panic!("{other:?}"),
                }
            }
        }
        assert_eq!(u64::from(busy), t.shed_total());
        assert!(answered > 0, "some queries must get through");
    }

    #[test]
    fn concurrent_sessions_from_many_threads() {
        let t = ConcurrentTransport::spawn(server(), 4).unwrap();
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
                        BinaryCodec.decode_response(reply).unwrap();
                    }
                });
            }
        });
    }

    // The single-worker transport is the serial baseline (one server thread
    // behind a queue); these pin its request/response contract.

    fn one_worker() -> ConcurrentTransport {
        ConcurrentTransport::spawn(server(), 1).unwrap()
    }

    #[test]
    fn query_across_thread_boundary() {
        let t = one_worker();
        let req = BinaryCodec.encode_request(&Request::Query {
            time: Timestamp::from_secs(100),
            pos: Point::new(0.0, -200.0),
        });
        let reply = t.call(req).unwrap();
        assert!(matches!(
            BinaryCodec.decode_response(&reply).unwrap(),
            Response::Value { .. }
        ));
    }

    #[test]
    fn many_sequential_calls() {
        let t = one_worker();
        for i in 0..50 {
            let req = BinaryCodec.encode_request(&Request::Query {
                time: Timestamp::from_secs(i * 60),
                pos: Point::new(i as f64 * 10.0, 0.0),
            });
            let reply = t.call(req).unwrap();
            assert!(!matches!(
                BinaryCodec.decode_response(&reply).unwrap(),
                Response::Busy { .. } | Response::Error(_)
            ));
        }
    }

    #[test]
    fn garbage_request_returns_error_reply_not_panic() {
        let t = one_worker();
        // The transport succeeds; the *protocol* reports the error, so the
        // worker stays usable for the next request.
        let reply = t.call(vec![0xDE, 0xAD]).unwrap();
        assert!(matches!(
            BinaryCodec.decode_response(&reply).unwrap(),
            Response::Error(_)
        ));
        assert!(t.call(query_bytes(1)).is_ok());
    }

    #[test]
    fn concurrent_clients() {
        let t = one_worker();
        std::thread::scope(|scope| {
            for k in 0..4 {
                let t = &t;
                scope.spawn(move || {
                    for i in 0..25 {
                        let req = BinaryCodec.encode_request(&Request::Query {
                            time: Timestamp::from_secs((k * 100 + i) * 30),
                            pos: Point::new(i as f64 * 20.0, k as f64 * 50.0),
                        });
                        t.call(req).unwrap();
                    }
                });
            }
        });
        assert_eq!(t.shed_total(), 0, "four callers never fill one queue");
    }

    #[test]
    fn drop_shuts_down_cleanly() {
        let t = one_worker();
        t.call(query_bytes(1)).unwrap();
        drop(t); // must not hang or panic after serving traffic
    }
}
