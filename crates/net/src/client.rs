//! The mobile clients: the two Figure 7(b) baselines plus the batched
//! production client.
//!
//! [`BaselineClient`] and [`ModelCacheClient`] reproduce the paper's §2.3
//! comparison over a simulated link. [`EnviroClient`] is the deployment
//! client: it speaks `QueryBatch` frames over any [`Wire`] (a concurrent
//! session, a simulated link, …) and can optionally layer the model-cache
//! technique on top, answering locally while the cached cover is valid.

use crate::buffers;
use crate::clock::{Clock, SystemClock};
use crate::codec::WireCodec;
use crate::concurrent::TransportError;
use crate::fault::XorShiftRng;
use crate::link::{LinkUsage, SimulatedLink};
use crate::protocol::{Request, Response, MAX_BATCH};
use crate::server::EnviroServer;
use enviro_data::{Pollutant, QueryTuple, RawTuple, Timestamp};
use enviro_meter::{ModelCover, QueryOutcome};

/// The outcome of running one continuous query session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionStats {
    /// Interpolated value per query tuple (in trajectory order).
    pub values: Vec<Option<f64>>,
    /// Link usage totals (bytes include protocol overhead).
    pub usage: LinkUsage,
    /// Total virtual time to complete the continuous query, in seconds.
    pub elapsed_secs: f64,
    /// Number of server round-trips performed.
    pub server_exchanges: usize,
    /// Number of [`Response::Error`] replies received. The session keeps
    /// going (the affected tuples read as misses); a non-zero count flags
    /// a protocol-level problem worth investigating.
    pub protocol_errors: usize,
}

/// An error that ends a client session.
///
/// Note what is *not* here: a server-side [`Response::Error`] reply does
/// not end the session — the paper clients count it in
/// [`SessionStats::protocol_errors`] and [`EnviroClient`] retries it,
/// because a mobile client must survive a flaky server. The paper clients
/// fail on a reply they cannot even decode; [`EnviroClient::query_batch`]
/// fails only once a request has spent its whole retry budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The server's reply bytes failed to decode.
    BadReply(String),
    /// The transport underneath the session failed (e.g. server gone).
    Transport(TransportError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::BadReply(m) => write!(f, "undecodable server reply: {m}"),
            ClientError::Transport(e) => write!(f, "transport failure: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<TransportError> for ClientError {
    fn from(e: TransportError) -> Self {
        ClientError::Transport(e)
    }
}

/// Backoff before the first retry, in ms; doubles per retry.
const BACKOFF_BASE_MS: u64 = 25;

/// Ceiling on any single backoff sleep, in ms. Also the degraded-mode
/// cool-off: an unreachable server is not re-probed more often than this
/// in model-cache mode.
const BACKOFF_MAX_MS: u64 = 800;

/// Retry and deadline budget for every [`EnviroClient`] exchange.
///
/// The backoff before retry *k* is `min(25 ms << (k-1), 800 ms)` with
/// uniform jitter in the upper half of that value, and every sleep is
/// clamped to the remaining deadline — a chunk never outlives
/// `deadline_ms` no matter how the retries land.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Per-chunk time budget on the injected clock, in ms. Once spent, the
    /// chunk's tuples read as [`QueryOutcome::Unavailable`].
    pub deadline_ms: u64,
    /// Retries after the first attempt (so at most `max_retries + 1`
    /// sends per chunk).
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            deadline_ms: 2_000,
            max_retries: 4,
        }
    }
}

/// Counters describing how hard the retrying exchanges had to work.
///
/// Deterministic for a fixed seed, clock and fault schedule — the chaos
/// suite asserts that two identical runs produce identical stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Chunk or cover re-sends after a failed or rejected attempt.
    pub retries: u64,
    /// Transport-level failures (drops, stalls, outages) observed.
    pub timeouts: u64,
    /// Replies that failed to decode — bit corruption caught by the frame
    /// CRC (or by the fixed layout for unframed replies).
    pub corrupt_replies: u64,
    /// Well-formed replies rejected as not answering the outstanding
    /// request: wrong sequence number, wrong answer count, or wrong kind
    /// (duplicates and reordered leftovers).
    pub stale_replies: u64,
    /// [`Response::Busy`] shed replies from an overloaded server.
    pub busy_replies: u64,
    /// Tuples answered from an expired cover while the server was
    /// unreachable (model-cache degraded mode).
    pub stale_answers: u64,
    /// Tuples the client could not answer at all.
    pub unavailable: u64,
    /// Cached covers dropped because a reply carried a newer cover
    /// generation — background maintenance republished behind our back.
    pub invalidated_covers: u64,
}

/// The baseline technique: one server round-trip per query tuple — "simply
/// responds to each query tuple with the interpolated sensor value ŝ_l,
/// without caching the models".
#[derive(Debug)]
pub struct BaselineClient<C: WireCodec> {
    codec: C,
}

impl<C: WireCodec> BaselineClient<C> {
    /// Creates the client with its codec (must match the server's).
    pub fn new(codec: C) -> Self {
        Self { codec }
    }

    /// Runs a continuous query against `server` over `link`.
    pub fn run(
        &self,
        server: &EnviroServer<C>,
        trajectory: &[QueryTuple],
        link: &mut SimulatedLink,
    ) -> Result<SessionStats, ClientError> {
        let start = link.clock_secs();
        let mut values = Vec::with_capacity(trajectory.len());
        let mut exchanges = 0usize;
        let mut protocol_errors = 0usize;
        for q in trajectory {
            let req = self.codec.encode_request(&Request::Query {
                time: q.time,
                pos: q.pos,
            });
            let resp_bytes = server.handle_bytes(&req);
            link.exchange(req.len(), resp_bytes.len());
            exchanges += 1;
            let value = match self
                .codec
                .decode_response(&resp_bytes)
                .map_err(|e| ClientError::BadReply(e.to_string()))?
            {
                Response::Value { value } => Some(value),
                Response::NoData => None,
                Response::Error(_) => {
                    protocol_errors += 1;
                    None
                }
                // Cover/ValueBatch/IngestAck/Busy: protocol misuse; miss.
                Response::Cover(_)
                | Response::ValueBatch { .. }
                | Response::IngestAck { .. }
                | Response::Busy { .. } => None,
            };
            values.push(value);
        }
        Ok(SessionStats {
            values,
            usage: link.usage(),
            elapsed_secs: link.clock_secs() - start,
            server_exchanges: exchanges,
            protocol_errors,
        })
    }
}

/// The model-cache technique: download `(t_n, µ, M)` once, answer locally
/// while `t_l ≤ t_n`, refresh only on expiry.
///
/// One production refinement over the paper's sketch: when a refresh
/// returns a cover that is *already expired* for the requested time, the
/// server simply has nothing newer (sensing gap, end of deployment). The
/// client then serves from the stale cover without hammering the server on
/// every subsequent tuple, and resumes refreshing once a fetch yields a
/// live horizon again.
#[derive(Debug)]
pub struct ModelCacheClient<C: WireCodec> {
    codec: C,
    cached: Option<ModelCover>,
    /// Set when the last refresh proved the server has no fresher cover.
    nothing_fresher: bool,
}

impl<C: WireCodec> ModelCacheClient<C> {
    /// Creates the client with an empty cache.
    pub fn new(codec: C) -> Self {
        Self {
            codec,
            cached: None,
            nothing_fresher: false,
        }
    }

    /// The currently cached cover, if any.
    pub fn cached_cover(&self) -> Option<&ModelCover> {
        self.cached.as_ref()
    }

    /// Runs a continuous query against `server` over `link`.
    pub fn run(
        &mut self,
        server: &EnviroServer<C>,
        trajectory: &[QueryTuple],
        link: &mut SimulatedLink,
    ) -> Result<SessionStats, ClientError> {
        let start = link.clock_secs();
        let pollutant = server.platform().engine().dataset().pollutant();
        let mut values = Vec::with_capacity(trajectory.len());
        let mut exchanges = 0usize;
        let mut protocol_errors = 0usize;
        for q in trajectory {
            // The §2.3 check: is the cached cover still valid at t_l?
            let valid = self.cached.as_ref().is_some_and(|c| c.is_valid_at(q.time));
            if !valid && !self.nothing_fresher {
                let req = self
                    .codec
                    .encode_request(&Request::ModelRequest { time: q.time });
                let resp_bytes = server.handle_bytes(&req);
                link.exchange(req.len(), resp_bytes.len());
                exchanges += 1;
                match self
                    .codec
                    .decode_response(&resp_bytes)
                    .map_err(|e| ClientError::BadReply(e.to_string()))?
                {
                    Response::Cover(mut cover) => {
                        cover.pollutant = pollutant;
                        // A cover already expired for t_l means the server
                        // has nothing fresher: serve stale, stop refreshing.
                        self.nothing_fresher = !cover.is_valid_at(q.time);
                        self.cached = Some(cover);
                    }
                    Response::Error(_) => {
                        // Counted, but the cache (possibly stale) is kept:
                        // an error reply says nothing about our cover.
                        protocol_errors += 1;
                        self.nothing_fresher = true;
                    }
                    _ => {
                        self.cached = None;
                        self.nothing_fresher = true;
                    }
                }
            }
            values.push(
                self.cached
                    .as_ref()
                    .and_then(|c| c.interpolate(q.time, &q.pos)),
            );
        }
        Ok(SessionStats {
            values,
            usage: link.usage(),
            elapsed_secs: link.clock_secs() - start,
            server_exchanges: exchanges,
            protocol_errors,
        })
    }
}

/// One request/response exchange over some transport.
///
/// The returned reply slice stays valid until the next `exchange` call.
/// Implemented by [`crate::concurrent::Session`] (the real thread-pool
/// deployment) and [`LoopbackWire`] (in-process, with simulated-link byte
/// accounting), so [`EnviroClient`] runs unchanged over both.
pub trait Wire {
    /// Sends `request` and blocks for the reply.
    fn exchange(&mut self, request: &[u8]) -> Result<&[u8], TransportError>;
}

impl Wire for crate::concurrent::Session<'_> {
    fn exchange(&mut self, request: &[u8]) -> Result<&[u8], TransportError> {
        self.call_with(|out| out.extend_from_slice(request))
    }
}

/// A [`Wire`] that calls the server in-process and charges every exchange
/// to a [`SimulatedLink`] — the bandwidth-evaluation harness for
/// [`EnviroClient`].
pub struct LoopbackWire<'a, C: WireCodec> {
    server: &'a EnviroServer<C>,
    link: &'a mut SimulatedLink,
    reply: Vec<u8>,
}

impl<'a, C: WireCodec> LoopbackWire<'a, C> {
    /// Wires `server` and `link` together.
    pub fn new(server: &'a EnviroServer<C>, link: &'a mut SimulatedLink) -> Self {
        Self {
            server,
            link,
            reply: Vec::new(),
        }
    }
}

impl<C: WireCodec> Wire for LoopbackWire<'_, C> {
    fn exchange(&mut self, request: &[u8]) -> Result<&[u8], TransportError> {
        self.server.handle_bytes_into(request, &mut self.reply);
        self.link.exchange(request.len(), self.reply.len());
        Ok(&self.reply)
    }
}

/// The production mobile client: batched wire queries, optional model
/// caching.
///
/// Two serving modes, chosen per the query method the deployment runs:
///
/// * **Batched** (default) — trajectory chunks go to the server as
///   `QueryBatch` frames of up to `batch` tuples, amortizing framing and
///   round-trip cost. This is the only option for the raw-data methods
///   (naive/indexed/IDW), whose full window data never leaves the server.
/// * **Model-cache** (`with_model_cache(true)`) — the §2.3 technique:
///   download the cover once, answer locally while it is valid, refresh on
///   expiry (with the stale-serve refinement of [`ModelCacheClient`]).
///   Tuples the cover cannot answer are *not* sent upstream; like the
///   paper's client, a missing cover reads as a miss.
///
/// Every request kind — a `QueryBatch` chunk, a cover refresh, an
/// `IngestBatch` chunk — goes through one retrying exchange loop under the
/// [`RetryPolicy`]; [`Self::query_batch`] and [`Self::query_resilient`]
/// are two views of the same answers.
#[derive(Debug)]
pub struct EnviroClient<C: WireCodec> {
    codec: C,
    pollutant: Pollutant,
    batch: usize,
    model_cache: bool,
    cached: Option<ModelCover>,
    exchanges: usize,
    protocol_errors: usize,
    /// The encoded request of the exchange in progress, reused across
    /// requests so a steady-state query allocates nothing.
    scratch: Vec<u8>,
    policy: RetryPolicy,
    clock: Box<dyn Clock>,
    rng: XorShiftRng,
    next_seq: u32,
    resilience: ResilienceStats,
    /// While the injected clock reads below this, the model-cache path
    /// serves from the cover it holds without re-probing the server: it
    /// was unreachable, or had nothing fresher.
    degraded_until: u64,
    /// Highest cover generation seen in any reply (0 until a generation-
    /// stamping server answers). An increase invalidates the cached cover.
    last_generation: u64,
}

impl<C: WireCodec> EnviroClient<C> {
    /// Default batch size: big enough that framing overhead is negligible,
    /// small enough to keep per-chunk latency low on slow links.
    pub const DEFAULT_BATCH: usize = 64;

    /// Creates a batched client (no model cache) for `pollutant` data.
    pub fn new(codec: C, pollutant: Pollutant) -> Self {
        Self {
            codec,
            pollutant,
            batch: Self::DEFAULT_BATCH,
            model_cache: false,
            cached: None,
            exchanges: 0,
            protocol_errors: 0,
            scratch: Vec::new(),
            policy: RetryPolicy::default(),
            clock: Box::new(SystemClock::new()),
            rng: XorShiftRng::new(0x5EED),
            next_seq: 0,
            resilience: ResilienceStats::default(),
            degraded_until: 0,
            last_generation: 0,
        }
    }

    /// Sets the tuples-per-frame cap (clamped to `1..=`[`MAX_BATCH`]).
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch.clamp(1, MAX_BATCH);
        self
    }

    /// Enables or disables the model-cache mode.
    pub fn with_model_cache(mut self, enabled: bool) -> Self {
        self.model_cache = enabled;
        self
    }

    /// Sets the retry/deadline policy every exchange runs under.
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Injects the clock consulted for deadlines, backoff and the
    /// degraded-mode cool-off. The chaos suite shares one
    /// [`crate::clock::VirtualClock`] between the client and the fault
    /// layer, so no resilience test ever really sleeps.
    pub fn with_clock(mut self, clock: impl Clock + 'static) -> Self {
        self.clock = Box::new(clock);
        self
    }

    /// Seeds the backoff-jitter RNG (fixed seed ⇒ reproducible retries).
    pub fn with_rng_seed(mut self, seed: u64) -> Self {
        self.rng = XorShiftRng::new(seed);
        self
    }

    /// Server round-trips performed so far (all request kinds).
    pub fn exchanges(&self) -> usize {
        self.exchanges
    }

    /// [`Response::Error`] replies seen so far; each one is retried.
    pub fn protocol_errors(&self) -> usize {
        self.protocol_errors
    }

    /// The currently cached cover, if any.
    pub fn cached_cover(&self) -> Option<&ModelCover> {
        self.cached.as_ref()
    }

    /// Counters from the retrying exchanges (zero on a clean wire).
    pub fn resilience_stats(&self) -> ResilienceStats {
        self.resilience
    }

    /// The highest cover generation observed in any server reply (0 until
    /// a generation-stamping server has answered).
    pub fn last_generation(&self) -> u64 {
        self.last_generation
    }

    /// Records the cover generation stamped into a server reply.
    ///
    /// The first nonzero generation is the baseline — the client learned
    /// what epoch the server is in, nothing to invalidate. Any *increase*
    /// after that means the maintenance worker published fresher covers:
    /// the cached cover is dropped and the degraded-mode cool-off is
    /// cleared, so the next miss refreshes instead of serving a cover the
    /// server has superseded.
    fn observe_generation(&mut self, generation: u64) {
        if generation <= self.last_generation {
            return; // same epoch, or a duplicated older reply
        }
        if self.last_generation != 0 {
            self.cached = None;
            self.degraded_until = 0;
            self.resilience.invalidated_covers += 1;
        }
        self.last_generation = generation;
    }

    /// Per-chunk sequence numbers start at 1 and wrap around 0, so a
    /// zeroed frame never matches a live chunk.
    fn take_seq(&mut self) -> u32 {
        self.next_seq = self.next_seq.wrapping_add(1);
        if self.next_seq == 0 {
            self.next_seq = 1;
        }
        self.next_seq
    }

    /// Answers `queries` over `wire`, appending one value per tuple to
    /// `out` (cleared first).
    ///
    /// The `Option<f64>` view of [`Self::query_resilient`]: `Fresh` and
    /// `Stale` answers read as their value, a miss as `None`. The only
    /// `Err` is a chunk (or, in model-cache mode, a cover refresh with no
    /// cover to fall back on) that spent its whole retry budget; `out`
    /// then holds the answers of the chunks before it.
    pub fn query_batch(
        &mut self,
        wire: &mut dyn Wire,
        queries: &[QueryTuple],
        out: &mut Vec<Option<f64>>,
    ) -> Result<(), ClientError> {
        out.clear();
        out.reserve(queries.len());
        if self.model_cache {
            for q in queries {
                out.push(self.model_answer(wire, q)?.value());
            }
            return Ok(());
        }
        for chunk in queries.chunks(self.batch) {
            let values = self.query_chunk(wire, chunk)?;
            out.extend_from_slice(&values);
            buffers::recycle_values(values);
        }
        Ok(())
    }

    /// Answers `queries` over a lossy `wire`, appending one
    /// [`QueryOutcome`] per tuple to `out` (cleared first).
    ///
    /// Every chunk is retried under the [`RetryPolicy`] (exponential
    /// backoff with jitter, clamped to the per-chunk deadline), replies
    /// are matched by sequence number so a duplicated or reordered frame
    /// can never answer the wrong chunk, and [`Response::Busy`] sheds back
    /// off by the server's hint. It never fails: a chunk whose retry
    /// budget is exhausted reads as [`QueryOutcome::Unavailable`], and in
    /// model-cache mode an unreachable server degrades to
    /// [`QueryOutcome::Stale`] answers from the last cover until a later
    /// refresh reconnects.
    pub fn query_resilient(
        &mut self,
        wire: &mut dyn Wire,
        queries: &[QueryTuple],
        out: &mut Vec<QueryOutcome>,
    ) {
        out.clear();
        out.reserve(queries.len());
        if self.model_cache {
            for q in queries {
                let outcome = self.model_answer(wire, q).unwrap_or_else(|_| {
                    self.resilience.unavailable += 1;
                    QueryOutcome::Unavailable
                });
                out.push(outcome);
            }
            return;
        }
        for chunk in queries.chunks(self.batch) {
            match self.query_chunk(wire, chunk) {
                Ok(values) => {
                    out.extend(values.iter().map(|v| QueryOutcome::Fresh(*v)));
                    buffers::recycle_values(values);
                }
                Err(_) => {
                    self.resilience.unavailable += chunk.len() as u64;
                    out.resize(out.len() + chunk.len(), QueryOutcome::Unavailable);
                }
            }
        }
    }

    /// Sends one `QueryBatch` frame for `chunk` and returns its answers
    /// (a buffer from the thread's pool, for the caller to recycle).
    fn query_chunk(
        &mut self,
        wire: &mut dyn Wire,
        chunk: &[QueryTuple],
    ) -> Result<Vec<Option<f64>>, ClientError> {
        let seq = self.take_seq();
        let mut queries = buffers::take_queries();
        queries.extend_from_slice(chunk);
        let request = Request::QueryBatch { seq, queries };
        self.scratch.clear();
        self.codec.encode_request_into(&request, &mut self.scratch);
        if let Request::QueryBatch { queries, .. } = request {
            buffers::recycle_queries(queries);
        }
        self.exchange(wire, |client, response| match response {
            Response::ValueBatch {
                seq: reply_seq,
                generation,
                values,
            } => {
                client.observe_generation(generation);
                if reply_seq == seq && values.len() == chunk.len() {
                    Some(values)
                } else {
                    buffers::recycle_values(values);
                    None
                }
            }
            _ => None,
        })
    }

    /// Answers one tuple in model-cache mode: from the cached cover while
    /// it is valid, refreshing it on expiry. While the server is
    /// unreachable or has nothing fresher, the expired cover serves
    /// `Stale` answers and the server is not re-probed before the
    /// cool-off ends. `Err` only when a refresh spent its whole retry
    /// budget and no cover is held at all.
    fn model_answer(
        &mut self,
        wire: &mut dyn Wire,
        q: &QueryTuple,
    ) -> Result<QueryOutcome, ClientError> {
        let valid = self.cached.as_ref().is_some_and(|c| c.is_valid_at(q.time));
        if !valid && self.clock.now_ms() >= self.degraded_until {
            let refreshed = self.fetch_cover(wire, q.time);
            if !matches!(refreshed, Ok(true)) {
                // Unreachable or nothing fresher: cool off before probing
                // again instead of paying the full retry budget per tuple.
                self.degraded_until = self.clock.now_ms() + BACKOFF_MAX_MS;
            }
            if self.cached.is_none() {
                refreshed?;
            }
        }
        Ok(match &self.cached {
            Some(c) if c.is_valid_at(q.time) => QueryOutcome::Fresh(c.interpolate(q.time, &q.pos)),
            Some(c) => {
                self.resilience.stale_answers += 1;
                QueryOutcome::Stale(c.interpolate(q.time, &q.pos))
            }
            None => {
                self.resilience.unavailable += 1;
                QueryOutcome::Unavailable
            }
        })
    }

    /// Fetches the cover responsible for `time`. `Ok(true)` only when the
    /// fetched cover is live at `time`; an expired cover (the server has
    /// nothing fresher) is kept but reads `Ok(false)`, and so does a
    /// `NoData` reply, which drops the cached cover.
    fn fetch_cover(&mut self, wire: &mut dyn Wire, time: Timestamp) -> Result<bool, ClientError> {
        self.scratch.clear();
        self.codec
            .encode_request_into(&Request::ModelRequest { time }, &mut self.scratch);
        let pollutant = self.pollutant;
        let fetched = self.exchange(wire, |_, response| match response {
            Response::Cover(mut cover) => {
                cover.pollutant = pollutant;
                Some(Some(cover))
            }
            Response::NoData => Some(None),
            _ => None,
        })?;
        let Some(cover) = fetched else {
            self.cached = None;
            return Ok(false);
        };
        let live = cover.is_valid_at(time);
        // Keep the freshest cover we have: a duplicated reply carrying an
        // old cover must not clobber a newer one.
        if self
            .cached
            .as_ref()
            .is_none_or(|c| cover.valid_until >= c.valid_until)
        {
            self.cached = Some(cover);
        }
        Ok(live)
    }

    /// Streams `tuples` to the server as `IngestBatch` frames of up to
    /// `batch` tuples, with the same retry/deadline/backoff discipline as
    /// [`Self::query_resilient`].
    ///
    /// Chunks are stop-and-wait: a chunk is re-sent (same sequence number)
    /// until a matching [`Response::IngestAck`] arrives or its budget is
    /// spent, then the next chunk goes out. The server deduplicates by
    /// `(source, seq)`, so a retransmit whose original *did* land is acked
    /// without a second append — together this gives exactly-once appends
    /// for every acked chunk within one server process. The dedup table
    /// lives in memory and starts empty at restart, so a chunk made durable
    /// whose ack was lost to a crash is appended again if re-sent to the
    /// restarted server. Never fails: chunks whose budget is spent
    /// are reported in [`IngestReport::failed_tuples`] and
    /// [`IngestReport::chunk_acked`], for the caller to replay later.
    pub fn ingest_resilient(
        &mut self,
        wire: &mut dyn Wire,
        source: u64,
        tuples: &[RawTuple],
    ) -> IngestReport {
        let mut report = IngestReport::default();
        for chunk in tuples.chunks(self.batch) {
            let seq = self.take_seq();
            self.scratch.clear();
            let request = Request::IngestBatch {
                source,
                seq,
                tuples: chunk.to_vec(),
            };
            self.codec.encode_request_into(&request, &mut self.scratch);
            let acked = self.exchange(wire, |_, response| match response {
                Response::IngestAck {
                    seq: reply_seq,
                    durable_upto,
                } if reply_seq == seq => Some(durable_upto),
                _ => None,
            });
            match acked {
                Ok(durable_upto) => {
                    report.durable_upto = report.durable_upto.max(durable_upto);
                    report.acked_tuples += chunk.len() as u64;
                }
                Err(_) => report.failed_tuples += chunk.len() as u64,
            }
            report.chunk_acked.push(acked.is_ok());
        }
        report
    }

    /// The one retrying exchange loop: sends the request in `self.scratch`
    /// until `accept` takes a reply, under the [`RetryPolicy`].
    ///
    /// `accept` sees every well-formed reply other than `Busy` and
    /// `Error`; `None` rejects it as a leftover of another request (a
    /// duplicate or reordered frame), which is consumed and re-sent
    /// without backoff. A transport failure, an undecodable reply or an
    /// `Error` reply (typically our request arrived corrupted and failed
    /// the server-side CRC; the frame we hold is fine) backs off
    /// exponentially; `Busy` backs off by the server's hint. Once the
    /// budget is spent the `Err` is the last transport failure or
    /// undecodable reply, or [`TransportError::TimedOut`] when there was
    /// none.
    fn exchange<T>(
        &mut self,
        wire: &mut dyn Wire,
        mut accept: impl FnMut(&mut Self, Response) -> Option<T>,
    ) -> Result<T, ClientError> {
        let deadline = self.clock.now_ms() + self.policy.deadline_ms;
        let mut failure = ClientError::Transport(TransportError::TimedOut);
        for attempt in 1..=self.policy.max_retries.saturating_add(1) {
            if self.clock.now_ms() >= deadline {
                break;
            }
            if attempt > 1 {
                self.resilience.retries += 1;
            }
            self.exchanges += 1;
            let reply = match wire.exchange(&self.scratch) {
                Ok(reply) => reply,
                Err(e) => {
                    self.resilience.timeouts += 1;
                    failure = ClientError::Transport(e);
                    self.backoff_sleep(attempt, deadline);
                    continue;
                }
            };
            match self.codec.decode_response(reply) {
                Ok(Response::Busy { retry_after_ms }) => {
                    self.resilience.busy_replies += 1;
                    let remaining = deadline.saturating_sub(self.clock.now_ms());
                    self.clock
                        .sleep_ms(u64::from(retry_after_ms).min(remaining));
                }
                Ok(Response::Error(_)) => {
                    self.protocol_errors += 1;
                    self.backoff_sleep(attempt, deadline);
                }
                Ok(response) => match accept(self, response) {
                    Some(answer) => return Ok(answer),
                    None => self.resilience.stale_replies += 1,
                },
                Err(e) => {
                    self.resilience.corrupt_replies += 1;
                    failure = ClientError::BadReply(e.to_string());
                    self.backoff_sleep(attempt, deadline);
                }
            }
        }
        Err(failure)
    }

    /// Sleeps `min(base << (attempt-1), max)` with uniform jitter in the
    /// upper half, clamped to what remains of the deadline.
    fn backoff_sleep(&mut self, attempt: u32, deadline: u64) {
        let exp = attempt.saturating_sub(1).min(10);
        let cap = BACKOFF_BASE_MS
            .saturating_mul(1u64 << exp)
            .min(BACKOFF_MAX_MS);
        if cap == 0 {
            return;
        }
        let ms = self.rng.next_in_range(cap / 2, cap);
        let remaining = deadline.saturating_sub(self.clock.now_ms());
        self.clock.sleep_ms(ms.min(remaining));
    }
}

/// The outcome of one [`EnviroClient::ingest_resilient`] call.
///
/// Deterministic for a fixed seed, clock and fault schedule, like
/// [`ResilienceStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Tuples in chunks the server acknowledged as durable.
    pub acked_tuples: u64,
    /// Tuples in chunks whose retry budget was spent without an ack; the
    /// caller should replay them. The server-side dedup makes a replay to
    /// the same server process safe; after a server restart a replayed
    /// chunk that had already landed is appended twice.
    pub failed_tuples: u64,
    /// Highest durable watermark any ack reported (total tuples the server
    /// has retained from all sources).
    pub durable_upto: u64,
    /// Per-chunk ack flags, in send order — chunk `i` covered tuples
    /// `[i * batch, (i + 1) * batch)` of the input slice.
    pub chunk_acked: Vec<bool>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::codec::BinaryCodec;
    use crate::link::LinkProfile;
    use enviro_data::{LausanneSim, SimConfig, WindowSpec};
    use enviro_meter::{AdKmnConfig, EnviroMeter, QueryMethod};

    fn setup() -> (EnviroServer<BinaryCodec>, LausanneSim) {
        let sim = LausanneSim::lausanne(SimConfig {
            duration_secs: 4 * 3_600,
            seed: 13,
            ..SimConfig::default()
        });
        let platform = EnviroMeter::new(
            sim.generate(),
            WindowSpec::ByDuration(2 * 3_600),
            AdKmnConfig::default(),
            1_000.0,
        );
        (
            EnviroServer::new(platform, BinaryCodec, QueryMethod::ModelCover),
            sim,
        )
    }

    #[test]
    fn baseline_one_exchange_per_tuple() {
        let (server, sim) = setup();
        let traj = sim.continuous_trajectory(50, 60, 1);
        let mut link = SimulatedLink::new(LinkProfile::GPRS);
        let stats = BaselineClient::new(BinaryCodec)
            .run(&server, &traj, &mut link)
            .unwrap();
        assert_eq!(stats.server_exchanges, 50);
        assert_eq!(stats.values.len(), 50);
        assert!(stats.values.iter().all(Option::is_some));
    }

    #[test]
    fn model_cache_fetches_once_within_validity() {
        let (server, sim) = setup();
        // 50 tuples × 60 s = 50 min, well inside one 2 h window.
        let traj = sim.continuous_trajectory(50, 60, 2);
        let mut link = SimulatedLink::new(LinkProfile::GPRS);
        let mut client = ModelCacheClient::new(BinaryCodec);
        let stats = client.run(&server, &traj, &mut link).unwrap();
        // At most 2 fetches (trajectory may straddle one window boundary).
        assert!(stats.server_exchanges <= 2, "{}", stats.server_exchanges);
        assert!(client.cached_cover().is_some());
        assert!(stats.values.iter().all(Option::is_some));
    }

    #[test]
    fn model_cache_refreshes_on_expiry() {
        let (server, sim) = setup();
        // 120 tuples × 120 s = 4 h: crosses the 2 h window boundary.
        let traj = sim.continuous_trajectory(120, 120, 3);
        let mut link = SimulatedLink::new(LinkProfile::GPRS);
        let mut client = ModelCacheClient::new(BinaryCodec);
        let stats = client.run(&server, &traj, &mut link).unwrap();
        assert!(stats.server_exchanges >= 2, "{}", stats.server_exchanges);
        assert!(stats.server_exchanges < 10);
    }

    #[test]
    fn model_cache_saves_bandwidth_and_time() {
        let (server, sim) = setup();
        let traj = sim.continuous_trajectory(100, 30, 4);

        let mut base_link = SimulatedLink::new(LinkProfile::GPRS);
        let base = BaselineClient::new(BinaryCodec)
            .run(&server, &traj, &mut base_link)
            .unwrap();

        let mut cache_link = SimulatedLink::new(LinkProfile::GPRS);
        let cache = ModelCacheClient::new(BinaryCodec)
            .run(&server, &traj, &mut cache_link)
            .unwrap();

        assert!(
            cache.usage.sent_bytes * 10 < base.usage.sent_bytes,
            "sent: cache {} vs base {}",
            cache.usage.sent_bytes,
            base.usage.sent_bytes
        );
        assert!(
            cache.usage.received_bytes < base.usage.received_bytes,
            "received: cache {} vs base {}",
            cache.usage.received_bytes,
            base.usage.received_bytes
        );
        assert!(
            cache.elapsed_secs * 10.0 < base.elapsed_secs,
            "time: cache {} vs base {}",
            cache.elapsed_secs,
            base.elapsed_secs
        );
    }

    #[test]
    fn both_clients_agree_on_values() {
        // Both techniques evaluate the same model cover; answers must match.
        let (server, sim) = setup();
        let traj = sim.continuous_trajectory(40, 60, 5);
        let mut l1 = SimulatedLink::new(LinkProfile::IDEAL);
        let base = BaselineClient::new(BinaryCodec)
            .run(&server, &traj, &mut l1)
            .unwrap();
        let mut l2 = SimulatedLink::new(LinkProfile::IDEAL);
        let cache = ModelCacheClient::new(BinaryCodec)
            .run(&server, &traj, &mut l2)
            .unwrap();
        for (i, (a, b)) in base.values.iter().zip(&cache.values).enumerate() {
            match (a, b) {
                (Some(x), Some(y)) => {
                    assert!((x - y).abs() < 1e-9, "tuple {i}: {x} vs {y}")
                }
                (None, None) => {}
                other => panic!("tuple {i}: {other:?}"),
            }
        }
    }

    #[test]
    fn empty_platform_yields_no_values() {
        let platform = EnviroMeter::new(
            enviro_data::Dataset::new(enviro_data::Pollutant::Co2),
            WindowSpec::ByCount(10),
            AdKmnConfig::default(),
            500.0,
        );
        let server = EnviroServer::new(platform, BinaryCodec, QueryMethod::ModelCover);
        let traj = vec![QueryTuple::new(
            enviro_data::Timestamp::ZERO,
            enviro_geo::Point::origin(),
        )];
        let mut link = SimulatedLink::new(LinkProfile::IDEAL);
        let mut client = ModelCacheClient::new(BinaryCodec);
        let stats = client.run(&server, &traj, &mut link).unwrap();
        assert_eq!(stats.values, vec![None]);
    }

    fn pollutant_of(server: &EnviroServer<BinaryCodec>) -> Pollutant {
        server.platform().engine().dataset().pollutant()
    }

    fn assert_values_match(a: &[Option<f64>], b: &[Option<f64>]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            match (x, y) {
                (Some(x), Some(y)) => {
                    assert_eq!(x.to_bits(), y.to_bits(), "tuple {i}: {x} vs {y}")
                }
                (None, None) => {}
                other => panic!("tuple {i}: {other:?}"),
            }
        }
    }

    #[test]
    fn batched_client_matches_baseline_over_loopback() {
        let (server, sim) = setup();
        let traj = sim.continuous_trajectory(75, 60, 6);
        let mut base_link = SimulatedLink::new(LinkProfile::IDEAL);
        let base = BaselineClient::new(BinaryCodec)
            .run(&server, &traj, &mut base_link)
            .unwrap();

        let mut client = EnviroClient::new(BinaryCodec, pollutant_of(&server)).with_batch(16);
        let mut link = SimulatedLink::new(LinkProfile::IDEAL);
        let mut wire = LoopbackWire::new(&server, &mut link);
        let mut values = Vec::new();
        client.query_batch(&mut wire, &traj, &mut values).unwrap();

        assert_values_match(&base.values, &values);
        // 75 tuples at batch 16 → ceil(75/16) = 5 exchanges, not 75.
        assert_eq!(client.exchanges(), 5);
        assert_eq!(client.protocol_errors(), 0);
    }

    #[test]
    fn batched_client_matches_baseline_over_concurrent_session() {
        let (server, sim) = setup();
        let traj = sim.continuous_trajectory(60, 60, 7);
        let mut base_link = SimulatedLink::new(LinkProfile::IDEAL);
        let base = BaselineClient::new(BinaryCodec)
            .run(&server, &traj, &mut base_link)
            .unwrap();

        let transport =
            crate::concurrent::ConcurrentTransport::spawn_shared(std::sync::Arc::new(server), 2)
                .unwrap();
        let mut session = transport.session();
        let mut client = EnviroClient::new(BinaryCodec, Pollutant::Co2).with_batch(25);
        let mut values = Vec::new();
        client
            .query_batch(&mut session, &traj, &mut values)
            .unwrap();
        assert_values_match(&base.values, &values);
    }

    #[test]
    fn model_cache_mode_matches_model_cache_client() {
        let (server, sim) = setup();
        // Crosses the 2 h window boundary so both clients must refresh.
        let traj = sim.continuous_trajectory(120, 120, 8);

        let mut cache_link = SimulatedLink::new(LinkProfile::IDEAL);
        let mut reference = ModelCacheClient::new(BinaryCodec);
        let expected = reference.run(&server, &traj, &mut cache_link).unwrap();

        // A clock that never moves: the cool-off after "nothing fresher"
        // never ends, like the reference client's latch.
        let mut client = EnviroClient::new(BinaryCodec, pollutant_of(&server))
            .with_model_cache(true)
            .with_clock(VirtualClock::new());
        let mut link = SimulatedLink::new(LinkProfile::IDEAL);
        let mut wire = LoopbackWire::new(&server, &mut link);
        let mut values = Vec::new();
        client.query_batch(&mut wire, &traj, &mut values).unwrap();

        assert_values_match(&expected.values, &values);
        assert_eq!(client.exchanges(), expected.server_exchanges);
        assert!(client.cached_cover().is_some());
    }

    #[test]
    fn batching_reduces_bytes_per_query() {
        let (server, sim) = setup();
        let traj = sim.continuous_trajectory(128, 60, 9);

        let mut base_link = SimulatedLink::new(LinkProfile::IDEAL);
        BaselineClient::new(BinaryCodec)
            .run(&server, &traj, &mut base_link)
            .unwrap();

        let mut client = EnviroClient::new(BinaryCodec, pollutant_of(&server)).with_batch(64);
        let mut batch_link = SimulatedLink::new(LinkProfile::IDEAL);
        let mut wire = LoopbackWire::new(&server, &mut batch_link);
        let mut values = Vec::new();
        client.query_batch(&mut wire, &traj, &mut values).unwrap();

        let base_bytes = base_link.usage().sent_bytes + base_link.usage().received_bytes;
        let batch_bytes = batch_link.usage().sent_bytes + batch_link.usage().received_bytes;
        assert!(
            batch_bytes < base_bytes,
            "batch {batch_bytes} vs baseline {base_bytes} bytes"
        );
    }

    #[test]
    fn resilient_path_matches_plain_batched_on_clean_wire() {
        let (server, sim) = setup();
        let traj = sim.continuous_trajectory(75, 60, 10);

        let mut plain = EnviroClient::new(BinaryCodec, pollutant_of(&server)).with_batch(16);
        let mut l1 = SimulatedLink::new(LinkProfile::IDEAL);
        let mut w1 = LoopbackWire::new(&server, &mut l1);
        let mut values = Vec::new();
        plain.query_batch(&mut w1, &traj, &mut values).unwrap();

        let mut resilient = EnviroClient::new(BinaryCodec, pollutant_of(&server))
            .with_batch(16)
            .with_clock(VirtualClock::new());
        let mut l2 = SimulatedLink::new(LinkProfile::IDEAL);
        let mut w2 = LoopbackWire::new(&server, &mut l2);
        let mut outcomes = Vec::new();
        resilient.query_resilient(&mut w2, &traj, &mut outcomes);

        assert!(outcomes.iter().all(QueryOutcome::is_fresh));
        let resilient_values: Vec<Option<f64>> = outcomes.iter().map(QueryOutcome::value).collect();
        assert_values_match(&values, &resilient_values);
        // A clean wire exercises none of the resilience machinery.
        assert_eq!(resilient.resilience_stats(), ResilienceStats::default());
        assert_eq!(resilient.exchanges(), plain.exchanges());
    }

    #[test]
    fn resilient_rejects_stale_replies_by_sequence() {
        use crate::fault::{ChaosWire, FaultPlan};
        let (server, sim) = setup();
        let traj = sim.continuous_trajectory(48, 60, 11);
        let clock = VirtualClock::new();
        let plan = FaultPlan {
            duplicate: 1.0, // every reply is re-delivered on the next exchange
            ..FaultPlan::default()
        };
        let mut link = SimulatedLink::new(LinkProfile::IDEAL);
        let mut wire = ChaosWire::new(
            LoopbackWire::new(&server, &mut link),
            plan,
            17,
            clock.clone(),
        );
        let mut client = EnviroClient::new(BinaryCodec, Pollutant::Co2)
            .with_batch(16)
            .with_clock(clock)
            .with_rng_seed(1);
        let mut outcomes = Vec::new();
        client.query_resilient(&mut wire, &traj, &mut outcomes);
        // Chunks 2 and 3 each first receive chunk N-1's duplicated reply;
        // the sequence check rejects it and the retry gets the real one.
        assert!(outcomes.iter().all(QueryOutcome::is_fresh));
        assert_eq!(outcomes.len(), traj.len());
        let stats = client.resilience_stats();
        assert_eq!(stats.stale_replies, 2);
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.unavailable, 0);
    }

    #[derive(Debug)]
    struct DeadWire;

    impl Wire for DeadWire {
        fn exchange(&mut self, _request: &[u8]) -> Result<&[u8], TransportError> {
            Err(TransportError::Disconnected)
        }
    }

    #[test]
    fn resilient_times_out_to_unavailable_on_dead_wire() {
        let (server, sim) = setup();
        let traj = sim.continuous_trajectory(5, 60, 12);
        let clock = VirtualClock::new();
        let mut client = EnviroClient::new(BinaryCodec, pollutant_of(&server))
            .with_batch(2)
            .with_clock(clock.clone())
            .with_rng_seed(2);
        let mut outcomes = Vec::new();
        client.query_resilient(&mut DeadWire, &traj, &mut outcomes);
        assert_eq!(outcomes, vec![QueryOutcome::Unavailable; 5]);
        let stats = client.resilience_stats();
        assert_eq!(stats.unavailable, 5);
        // 3 chunks × (1 + max_retries) bounded attempts, all timed out.
        let per_chunk = 1 + u64::from(RetryPolicy::default().max_retries);
        assert_eq!(stats.timeouts, 3 * per_chunk);
        assert_eq!(stats.retries, 3 * (per_chunk - 1));
        // Backoff slept on the virtual clock only, within each deadline.
        assert!(clock.now_ms() <= 3 * RetryPolicy::default().deadline_ms);
    }

    /// A wire that serves canned reply frames before delegating to the
    /// real server — for scripting Busy/corrupt first contacts.
    struct CannedWire<'a> {
        server: &'a EnviroServer<BinaryCodec>,
        canned: std::collections::VecDeque<Vec<u8>>,
        reply: Vec<u8>,
    }

    impl Wire for CannedWire<'_> {
        fn exchange(&mut self, request: &[u8]) -> Result<&[u8], TransportError> {
            self.reply = match self.canned.pop_front() {
                Some(r) => r,
                None => self.server.handle_bytes(request),
            };
            Ok(&self.reply)
        }
    }

    #[test]
    fn resilient_backs_off_on_busy_by_the_server_hint() {
        let (server, sim) = setup();
        let traj = sim.continuous_trajectory(10, 60, 13);
        let clock = VirtualClock::new();
        let busy = BinaryCodec.encode_response(&Response::Busy { retry_after_ms: 40 });
        let mut wire = CannedWire {
            server: &server,
            canned: [busy].into(),
            reply: Vec::new(),
        };
        let mut client = EnviroClient::new(BinaryCodec, pollutant_of(&server))
            .with_clock(clock.clone())
            .with_rng_seed(3);
        let mut outcomes = Vec::new();
        client.query_resilient(&mut wire, &traj, &mut outcomes);
        assert!(outcomes.iter().all(QueryOutcome::is_fresh));
        let stats = client.resilience_stats();
        assert_eq!(stats.busy_replies, 1);
        assert_eq!(stats.retries, 1);
        // The sleep honoured the server's 40 ms hint exactly.
        assert_eq!(clock.now_ms(), 40);
    }

    #[test]
    fn resilient_retries_through_corrupt_replies() {
        let (server, sim) = setup();
        let traj = sim.continuous_trajectory(10, 60, 14);
        let clock = VirtualClock::new();
        let mut wire = CannedWire {
            server: &server,
            canned: [vec![0xFF, 0x00, 0x12]].into(),
            reply: Vec::new(),
        };
        let mut client = EnviroClient::new(BinaryCodec, pollutant_of(&server))
            .with_clock(clock.clone())
            .with_rng_seed(4);
        let mut outcomes = Vec::new();
        client.query_resilient(&mut wire, &traj, &mut outcomes);
        assert!(outcomes.iter().all(QueryOutcome::is_fresh));
        let stats = client.resilience_stats();
        assert_eq!(stats.corrupt_replies, 1);
        assert_eq!(stats.retries, 1);
        assert!(clock.now_ms() > 0, "backoff must consult the clock");
    }

    #[test]
    fn model_cache_degrades_to_stale_and_reconnects() {
        use crate::fault::{ChaosWire, FaultPlan, Outage};
        let (server, sim) = setup();
        // Two tuples, one per 2 h window (times pinned inside the data so
        // the reconnected server really has a fresher cover for the
        // second): the second tuple forces a refresh.
        let base = sim.continuous_trajectory(2, 60, 15);
        let traj = [
            QueryTuple::new(enviro_data::Timestamp::from_secs(3_600), base[0].pos),
            QueryTuple::new(enviro_data::Timestamp::from_secs(3 * 3_600), base[1].pos),
        ];
        let clock = VirtualClock::new();
        let plan = FaultPlan {
            outages: vec![Outage {
                from_ms: 1,
                until_ms: 10_000,
            }],
            ..FaultPlan::default()
        };
        let mut link = SimulatedLink::new(LinkProfile::IDEAL);
        let mut wire = ChaosWire::new(
            LoopbackWire::new(&server, &mut link),
            plan,
            19,
            clock.clone(),
        );
        let mut client = EnviroClient::new(BinaryCodec, pollutant_of(&server))
            .with_model_cache(true)
            .with_clock(clock.clone())
            .with_rng_seed(5);
        let mut out = Vec::new();

        // t=0 ms: before the outage, the window-1 cover downloads cleanly.
        client.query_resilient(&mut wire, &traj[..1], &mut out);
        assert!(out[0].is_fresh());

        // Inside the outage: the window-2 refresh exhausts its retries and
        // the client serves the expired window-1 cover instead.
        clock.advance(10);
        client.query_resilient(&mut wire, &traj[1..], &mut out);
        assert!(out[0].is_stale(), "{:?}", out[0]);
        assert!(client.resilience_stats().stale_answers >= 1);
        let timeouts_during_outage = client.resilience_stats().timeouts;
        assert!(timeouts_during_outage > 0);

        // Still degraded: within the cool-off no refresh is even attempted.
        client.query_resilient(&mut wire, &traj[1..], &mut out);
        assert!(out[0].is_stale());
        assert_eq!(client.resilience_stats().timeouts, timeouts_during_outage);

        // Past the outage and cool-off: reconnect, reconcile, serve fresh.
        clock.advance(20_000);
        client.query_resilient(&mut wire, &traj[1..], &mut out);
        assert!(out[0].is_fresh(), "{:?}", out[0]);
    }

    #[test]
    fn batched_client_survives_empty_platform() {
        let platform = EnviroMeter::new(
            enviro_data::Dataset::new(enviro_data::Pollutant::Co2),
            WindowSpec::ByCount(10),
            AdKmnConfig::default(),
            500.0,
        );
        let server = EnviroServer::new(platform, BinaryCodec, QueryMethod::ModelCover);
        let traj =
            vec![QueryTuple::new(enviro_data::Timestamp::ZERO, enviro_geo::Point::origin()); 5];
        let mut client = EnviroClient::new(BinaryCodec, Pollutant::Co2).with_batch(2);
        let mut link = SimulatedLink::new(LinkProfile::IDEAL);
        let mut wire = LoopbackWire::new(&server, &mut link);
        let mut values = Vec::new();
        client.query_batch(&mut wire, &traj, &mut values).unwrap();
        assert_eq!(values, vec![None; 5]);
        assert_eq!(client.protocol_errors(), 0);
    }

    fn sample_stream(n: i64) -> Vec<RawTuple> {
        (0..n)
            .map(|i| {
                RawTuple::new(
                    Timestamp::from_secs(600 + i),
                    enviro_geo::Point::new(i as f64 * 15.0, -100.0),
                    420.0 + i as f64,
                )
            })
            .collect()
    }

    #[test]
    fn ingest_resilient_chunks_and_reports_durability() {
        let server = EnviroServer::new(
            EnviroMeter::new(
                enviro_data::Dataset::new(Pollutant::Co2),
                WindowSpec::ByDuration(2 * 3_600),
                AdKmnConfig::default(),
                1_000.0,
            ),
            BinaryCodec,
            QueryMethod::ModelCover,
        );
        let dir = std::env::temp_dir().join(format!("enviro-client-ingest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let state = std::sync::Arc::new(
            crate::ingest::IngestState::open(
                &dir,
                enviro_storage::WalConfig::default(),
                crate::ingest::IngestConfig::default(),
            )
            .unwrap(),
        );
        let server = server.with_ingest(std::sync::Arc::clone(&state));
        let mut client = EnviroClient::new(BinaryCodec, pollutant_of(&server)).with_batch(8);
        let mut link = SimulatedLink::new(LinkProfile::IDEAL);
        let mut wire = LoopbackWire::new(&server, &mut link);

        let tuples = sample_stream(20);
        let report = client.ingest_resilient(&mut wire, 42, &tuples);
        assert_eq!(report.acked_tuples, 20);
        assert_eq!(report.failed_tuples, 0);
        assert_eq!(report.durable_upto, 20);
        assert_eq!(report.chunk_acked, vec![true; 3]); // 8 + 8 + 4
        assert_eq!(state.stats().durable_tuples, 20);
        assert_eq!(client.resilience_stats(), ResilienceStats::default());

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ingest_resilient_survives_a_dead_wire() {
        let clock = VirtualClock::new();
        let mut client = EnviroClient::new(BinaryCodec, Pollutant::Co2)
            .with_batch(4)
            .with_clock(clock)
            .with_rng_seed(3);
        let tuples = sample_stream(8);
        let report = client.ingest_resilient(&mut DeadWire, 9, &tuples);
        assert_eq!(report.acked_tuples, 0);
        assert_eq!(report.failed_tuples, 8);
        assert_eq!(report.durable_upto, 0);
        assert_eq!(report.chunk_acked, vec![false, false]);
        assert!(client.resilience_stats().timeouts > 0);
    }

    #[test]
    fn generation_bump_invalidates_cached_cover() {
        let (server, _sim) = setup();
        let cover = server
            .platform()
            .cover_at(Timestamp::from_secs(600))
            .unwrap()
            .clone();
        let mut client = EnviroClient::new(BinaryCodec, pollutant_of(&server)).with_batch(4);
        client.cached = Some(cover);
        client.degraded_until = u64::MAX;

        let reply = |seq: u32, generation: u64| {
            BinaryCodec.encode_response(&Response::ValueBatch {
                seq,
                generation,
                values: vec![None],
            })
        };
        let mut wire = CannedWire {
            server: &server,
            canned: [reply(1, 7), reply(2, 7), reply(3, 9)].into(),
            reply: Vec::new(),
        };
        let q = vec![QueryTuple::new(
            Timestamp::from_secs(600),
            enviro_geo::Point::new(0.0, -200.0),
        )];
        let mut out = Vec::new();

        // The first nonzero generation is the baseline: learning which
        // epoch the server is in must not drop a perfectly good cover.
        client.query_batch(&mut wire, &q, &mut out).unwrap();
        assert_eq!(client.last_generation(), 7);
        assert!(client.cached_cover().is_some());

        // The same generation again: still nothing to invalidate.
        client.query_batch(&mut wire, &q, &mut out).unwrap();
        assert_eq!(client.resilience_stats().invalidated_covers, 0);

        // A bump: background maintenance superseded the cached cover.
        client.query_batch(&mut wire, &q, &mut out).unwrap();
        assert_eq!(client.last_generation(), 9);
        assert!(client.cached_cover().is_none());
        assert_eq!(client.degraded_until, 0, "the cool-off must be cleared");
        assert_eq!(client.resilience_stats().invalidated_covers, 1);
    }
}
