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
//! Buffers circulate instead of being allocated: a worker swaps each
//! request buffer into service as the next reply buffer, and a [`Session`]
//! pools the reply buffers it gets back for its next request. In steady
//! state a session ↔ worker pair recycles the same two or three `Vec`s
//! forever (the channel internals are the only allocator traffic).

use crate::codec::WireCodec;
use crate::protocol::Response;
use crate::server::EnviroServer;
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use enviro_schedule::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use enviro_schedule::sync::{Arc, Condvar, Mutex, PoisonError};
use enviro_schedule::thread::JoinHandle;
use std::collections::VecDeque;

/// Maximum unacknowledged requests a [`Session`] may pipeline.
///
/// This equals the session's reply-queue capacity, so a worker can always
/// deposit every outstanding reply without blocking — which is what makes
/// the design deadlock-free by construction.
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
    /// Spawn with every worker parked at a gate until
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

/// The pause gate workers park at between envelopes.
#[derive(Debug, Default)]
struct Gate {
    paused: Mutex<bool>,
    resumed: Condvar,
}

impl Gate {
    fn new(paused: bool) -> Self {
        Self {
            paused: Mutex::new(paused),
            resumed: Condvar::new(),
        }
    }

    fn resume(&self) {
        // A poisoned lock only means a worker panicked mid-serve; the gate
        // state itself (a bool) cannot be torn, so continue with it.
        *self.paused.lock().unwrap_or_else(PoisonError::into_inner) = false;
        self.resumed.notify_all();
    }

    fn wait_until_resumed(&self) {
        let mut paused = self.paused.lock().unwrap_or_else(PoisonError::into_inner);
        while *paused {
            paused = self
                .resumed
                .wait(paused)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A request envelope: opaque bytes plus the reply channel of the issuing
/// session.
struct Envelope {
    request: Vec<u8>,
    reply_to: Sender<Vec<u8>>,
}

/// A pool of worker threads serving one shared [`EnviroServer`].
///
/// Each worker owns its request queue (the vendored channel receiver is
/// single-consumer); sessions and one-shot calls are assigned to shards
/// round-robin. Dropping the transport closes every queue, lets the workers
/// drain, and joins them.
pub struct ConcurrentTransport {
    shards: Vec<Sender<Envelope>>,
    workers: Vec<JoinHandle<()>>,
    next_shard: AtomicUsize,
    gate: Arc<Gate>,
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
        let busy_frame = server.codec().encode_response(&Response::Busy {
            retry_after_ms: config.retry_after_ms,
        });
        let gate = Arc::new(Gate::new(config.start_paused));
        let mut shards = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let (tx, rx): (Sender<Envelope>, Receiver<Envelope>) = bounded(max_queue);
            let server = Arc::clone(&server);
            let gate = Arc::clone(&gate);
            let handle = enviro_schedule::thread::Builder::new()
                .name(format!("enviro-worker-{i}"))
                .spawn(move || worker_loop(&server, &rx, &gate))?;
            shards.push(tx);
            handles.push(handle);
        }
        Ok(Self {
            shards,
            workers: handles,
            next_shard: AtomicUsize::new(0),
            gate,
            busy_frame,
            shed: AtomicU64::new(0),
        })
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

    /// Releases workers parked by [`TransportConfig::start_paused`].
    pub fn resume_workers(&self) {
        self.gate.resume();
    }

    /// Performs one request/response exchange (a fresh reply channel per
    /// call). Sessions amortize that setup.
    ///
    /// When the chosen shard's queue is full the request is shed and the
    /// reply is a pre-encoded [`Response::Busy`] frame.
    pub fn call(&self, request: Vec<u8>) -> Result<Vec<u8>, TransportError> {
        let (reply_tx, reply_rx) = bounded(1);
        let shard = self.pick_shard();
        match self.shards[shard].try_send(Envelope {
            request,
            reply_to: reply_tx,
        }) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => {
                // ordering: Relaxed — statistics only; see `shed_total`.
                self.shed.fetch_add(1, Ordering::Relaxed);
                return Ok(self.busy_frame.clone());
            }
            Err(TrySendError::Disconnected(_)) => return Err(TransportError::Disconnected),
        }
        reply_rx.recv().map_err(|_| TransportError::Disconnected)
    }

    /// Opens a connection-like [`Session`] pinned to one worker shard.
    pub fn session(&self) -> Session<'_> {
        let shard = self.pick_shard();
        let (reply_tx, reply_rx) = bounded(PIPELINE_MAX);
        Session {
            transport: self,
            shard,
            reply_tx,
            reply_rx,
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
        // Wake any workers parked at the pause gate so they can observe
        // the closed queues, then close every request queue and join.
        // Sessions borrow the transport, so none can be alive here.
        self.gate.resume();
        self.shards.clear();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One worker: serve envelopes until the queue closes, reusing one reply
/// buffer by swapping it with each served request's buffer. The gate check
/// runs before each receive so a paused transport accumulates queue depth
/// deterministically.
fn worker_loop<C: WireCodec>(server: &EnviroServer<C>, rx: &Receiver<Envelope>, gate: &Gate) {
    let mut reply = Vec::new();
    loop {
        gate.wait_until_resumed();
        let Ok(envelope) = rx.recv() else {
            break;
        };
        let Envelope {
            mut request,
            reply_to,
        } = envelope;
        server.handle_bytes_into(&request, &mut reply);
        // Ship the reply in the request's allocation-slot and keep the
        // other buffer as the next reply scratch (`handle_bytes_into`
        // clears it before use).
        std::mem::swap(&mut request, &mut reply);
        // A dropped reply channel just means the client gave up.
        let _ = reply_to.send(request);
    }
}

/// Where the next in-order reply for a session comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReplySource {
    /// A worker owes the session a reply over its queue.
    Wire,
    /// The request was shed; the reply is the transport's pre-encoded
    /// `Busy` frame.
    Shed,
}

/// A per-connection handle: requests go to one pinned worker shard, replies
/// come back in order over a private queue.
///
/// Sessions support **pipelining**: up to [`PIPELINE_MAX`] requests may be
/// sent before receiving their replies, which batch-oriented clients use to
/// keep the wire full. Replies arrive in send order (the shard serves one
/// session's envelopes FIFO); a shed request's synthetic `Busy` reply is
/// slotted into that order via a per-session source ledger.
pub struct Session<'t> {
    transport: &'t ConcurrentTransport,
    shard: usize,
    reply_tx: Sender<Vec<u8>>,
    reply_rx: Receiver<Vec<u8>>,
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
        match self.transport.shards[self.shard].try_send(Envelope {
            request,
            reply_to: self.reply_tx.clone(),
        }) {
            Ok(()) => self.sources.push_back(ReplySource::Wire),
            Err(TrySendError::Full(envelope)) => {
                // ordering: Relaxed — statistics only; see `shed_total`.
                self.transport.shed.fetch_add(1, Ordering::Relaxed);
                if self.pool.len() < 4 {
                    self.pool.push(envelope.request);
                }
                self.sources.push_back(ReplySource::Shed);
            }
            Err(TrySendError::Disconnected(_)) => return Err(TransportError::Disconnected),
        }
        Ok(())
    }

    /// Receives the next pending reply, in send order. The returned slice
    /// is valid until the next `recv`/`call` on this session.
    pub fn recv(&mut self) -> Result<&[u8], TransportError> {
        let Some(source) = self.sources.pop_front() else {
            return Err(TransportError::NoPendingReply);
        };
        match source {
            ReplySource::Wire => {
                let reply = self
                    .reply_rx
                    .recv()
                    .map_err(|_| TransportError::Disconnected)?;
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

    fn server() -> EnviroServer<BinaryCodec> {
        let sim = LausanneSim::lausanne(SimConfig {
            duration_secs: 3_600,
            seed: 3,
            ..SimConfig::default()
        });
        let platform = EnviroMeter::new(
            sim.generate(),
            WindowSpec::ByDuration(3_600),
            AdKmnConfig::default(),
            1_000.0,
        );
        EnviroServer::new(platform, BinaryCodec, QueryMethod::ModelCover)
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
