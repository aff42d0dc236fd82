//! Seeded chaos suite: the acceptance gate for fault-injected serving.
//!
//! A resilient [`EnviroClient`] must complete long continuous queries over
//! a wire that drops, duplicates, reorders and bit-corrupts frames — with
//! **zero wrong answers** (every `Fresh` value bit-identical to a
//! fault-free run), bounded retries, and no hangs. All time is virtual
//! (shared [`VirtualClock`]), so the suite never sleeps, and every fault
//! schedule is seeded: two runs of the same case are identical, stats and
//! all.
//!
//! Reproduction knobs:
//! * `CHAOS_SEED=<u64>`  — replay the whole suite under a different seed
//!   (decimal, or hex with an `0x` prefix).
//! * `CHAOS_VERBOSE=1`   — log every injected fault to stderr.
//!
//! Every assertion message carries the seed that produced the failure.

// Harness code, exempt from the library panic policy: an unwrap here
// fails the run loudly, which is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use enviro_data::{
    Dataset, LausanneSim, Pollutant, QueryTuple, RawTuple, SimConfig, Timestamp, WindowSpec,
};
use enviro_geo::Point;
use enviro_meter::{AdKmnConfig, EnviroMeter, QueryMethod, QueryOutcome};
use enviro_net::{
    BinaryCodec, ChaosWire, ConcurrentTransport, EnviroClient, EnviroServer, FaultPlan,
    IngestConfig, IngestReport, IngestState, LinkProfile, LoopbackWire, ModelMaintenance, Outage,
    Request, ResilienceStats, Response, RetryPolicy, SimulatedLink, TextCodec, VirtualClock,
    WireCodec,
};
use enviro_storage::{WalConfig, WalStore};
use std::sync::Arc;

/// Default suite seed; override with `CHAOS_SEED=<u64>`.
const DEFAULT_SEED: u64 = 0xC7A0_5C7A_0001;

fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| {
            let s = s.trim();
            match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16).ok(),
                None => s.parse().ok(),
            }
        })
        .unwrap_or(DEFAULT_SEED)
}

fn seed_is_pinned() -> bool {
    std::env::var("CHAOS_SEED").is_err()
}

fn verbose() -> bool {
    std::env::var("CHAOS_VERBOSE").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn build_server<C: WireCodec>(codec: C) -> EnviroServer<C> {
    let sim = LausanneSim::lausanne(SimConfig {
        duration_secs: 6 * 3_600,
        seed: 4242,
        ..SimConfig::default()
    });
    let platform = EnviroMeter::new(
        sim.generate(),
        WindowSpec::ByDuration(2 * 3_600),
        AdKmnConfig::default(),
        1_000.0,
    );
    EnviroServer::new(platform, codec, QueryMethod::ModelCover)
}

fn trajectory(n: usize, step_secs: i64, seed: u64) -> Vec<QueryTuple> {
    let sim = LausanneSim::lausanne(SimConfig {
        duration_secs: 6 * 3_600,
        seed: 4242,
        ..SimConfig::default()
    });
    sim.continuous_trajectory(n, step_secs, seed)
}

/// The oracle: the server's own answer to one `QueryBatch` frame per
/// `batch` tuples, straight through `handle_bytes` — independent of the
/// client loop under test. (The text codec is deliberately lossy in its
/// decimal formatting, so the ground truth must pass through the same
/// codec as the chaos run.)
fn oracle_values<C: WireCodec + Copy>(
    server: &EnviroServer<C>,
    codec: C,
    traj: &[QueryTuple],
    batch: usize,
) -> Vec<Option<f64>> {
    let mut values = Vec::with_capacity(traj.len());
    for chunk in traj.chunks(batch) {
        let request = codec.encode_request(&Request::QueryBatch {
            seq: 1,
            queries: chunk.to_vec(),
        });
        match codec.decode_response(&server.handle_bytes(&request)) {
            Ok(Response::ValueBatch { values: chunk, .. }) => values.extend(chunk),
            other => panic!("oracle query failed: {other:?}"),
        }
    }
    values
}

/// Counts `Fresh` outcomes whose value is not bit-identical to the oracle,
/// plus the non-fresh tally — the "zero wrong answers" bookkeeping.
fn audit(outcomes: &[QueryOutcome], oracle: &[Option<f64>]) -> (usize, usize) {
    assert_eq!(outcomes.len(), oracle.len());
    let mut wrong = 0;
    let mut not_fresh = 0;
    for (got, want) in outcomes.iter().zip(oracle) {
        match got {
            QueryOutcome::Fresh(v) => {
                let matches = match (v, want) {
                    (Some(a), Some(b)) => a.to_bits() == b.to_bits(),
                    (None, None) => true,
                    _ => false,
                };
                if !matches {
                    wrong += 1;
                }
            }
            _ => not_fresh += 1,
        }
    }
    (wrong, not_fresh)
}

/// One resilient run over `ChaosWire<Session>` against a concurrent
/// transport. Returns (outcomes, client stats, wire exchanges).
fn run_concurrent_chaos<C: WireCodec + Copy + Send + Sync + 'static>(
    server: Arc<EnviroServer<C>>,
    codec: C,
    traj: &[QueryTuple],
    plan: FaultPlan,
    seed: u64,
    batch: usize,
) -> (Vec<QueryOutcome>, ResilienceStats, usize) {
    let transport = ConcurrentTransport::spawn_shared(Arc::clone(&server), 2).unwrap();
    let clock = VirtualClock::new();
    let mut wire =
        ChaosWire::new(transport.session(), plan, seed, clock.clone()).with_trace(verbose());
    let mut client = EnviroClient::new(codec, server.platform().engine().dataset().pollutant())
        .with_batch(batch)
        .with_clock(clock)
        .with_rng_seed(seed ^ 0xD1CE);
    let mut outcomes = Vec::new();
    client.query_resilient(&mut wire, traj, &mut outcomes);
    let stats = client.resilience_stats();
    let exchanges = client.exchanges();
    drop(wire); // release the session before the transport joins
    (outcomes, stats, exchanges)
}

/// Same, over an in-process loopback wire.
fn run_loopback_chaos<C: WireCodec + Copy>(
    server: &EnviroServer<C>,
    codec: C,
    traj: &[QueryTuple],
    plan: FaultPlan,
    seed: u64,
    batch: usize,
) -> (Vec<QueryOutcome>, ResilienceStats, usize) {
    let clock = VirtualClock::new();
    let mut link = SimulatedLink::new(LinkProfile::IDEAL);
    let mut wire = ChaosWire::new(
        LoopbackWire::new(server, &mut link),
        plan,
        seed,
        clock.clone(),
    )
    .with_trace(verbose());
    let mut client = EnviroClient::new(codec, server.platform().engine().dataset().pollutant())
        .with_batch(batch)
        .with_clock(clock)
        .with_rng_seed(seed ^ 0xD1CE);
    let mut outcomes = Vec::new();
    client.query_resilient(&mut wire, traj, &mut outcomes);
    (outcomes, client.resilience_stats(), client.exchanges())
}

/// The ISSUE's acceptance criterion, verbatim: 10 000 continuous queries
/// over the concurrent transport under
/// `FaultPlan { drop: 0.10, corrupt: 0.05, duplicate: 0.05 }` must
/// complete with zero wrong answers, bounded retries and no hangs — and
/// running it twice must produce identical outcomes and counters.
#[test]
fn acceptance_10k_queries_under_faults_with_zero_wrong_answers() {
    const TUPLES: usize = 10_000;
    const BATCH: usize = 64;
    let seed = chaos_seed();
    eprintln!("chaos acceptance: seed={seed} (override with CHAOS_SEED=<u64>)");

    let server = Arc::new(build_server(BinaryCodec));
    let traj = trajectory(TUPLES, 2, 1);
    let oracle = oracle_values(&server, BinaryCodec, &traj, BATCH);
    let plan = FaultPlan {
        drop: 0.10,
        corrupt: 0.05,
        duplicate: 0.05,
        ..FaultPlan::default()
    };

    let (outcomes, stats, exchanges) = run_concurrent_chaos(
        Arc::clone(&server),
        BinaryCodec,
        &traj,
        plan.clone(),
        seed,
        BATCH,
    );

    assert_eq!(outcomes.len(), TUPLES, "seed {seed}: answers missing");
    let (wrong, not_fresh) = audit(&outcomes, &oracle);
    assert_eq!(
        wrong, 0,
        "seed {seed}: {wrong} wrong answers, stats {stats:?}"
    );
    // Retries are bounded: at most 1 + max_retries sends per chunk.
    let chunks = TUPLES.div_ceil(BATCH);
    let cap = chunks * (1 + RetryPolicy::default().max_retries as usize);
    assert!(
        exchanges <= cap,
        "seed {seed}: {exchanges} exchanges exceed the {cap} retry budget"
    );
    // The plan really fired: the run survived actual faults, not luck.
    assert!(stats.timeouts > 0, "seed {seed}: no drops materialized");
    assert!(
        stats.corrupt_replies > 0,
        "seed {seed}: no corruption materialized"
    );
    assert!(
        stats.stale_replies > 0,
        "seed {seed}: no duplicates materialized"
    );
    if seed_is_pinned() {
        // The pinned seed is known to leave no chunk unanswered.
        assert_eq!(
            not_fresh, 0,
            "seed {seed}: {not_fresh} tuples not answered fresh, stats {stats:?}"
        );
    }

    // Determinism: an identical second run, counter for counter.
    let (outcomes2, stats2, exchanges2) =
        run_concurrent_chaos(server, BinaryCodec, &traj, plan, seed, BATCH);
    assert_eq!(outcomes, outcomes2, "seed {seed}: outcomes diverged");
    assert_eq!(stats, stats2, "seed {seed}: stats diverged");
    assert_eq!(
        exchanges2, exchanges,
        "seed {seed}: exchange counts diverged"
    );
}

/// The fault-rate matrix: {2%, 8%} base rates × {loopback, concurrent} ×
/// {binary, text}. Every cell must finish with zero wrong answers.
#[test]
fn chaos_matrix_over_wires_codecs_and_rates() {
    const TUPLES: usize = 2_500;
    const BATCH: usize = 32;
    let seed = chaos_seed();
    let traj = trajectory(TUPLES, 8, 2);

    fn plan_for(rate: f64) -> FaultPlan {
        FaultPlan {
            drop: rate,
            duplicate: rate / 2.0,
            corrupt: rate / 2.0,
            reorder: rate / 4.0,
            stall: rate / 4.0,
            delay: rate,
            ..FaultPlan::default()
        }
    }

    fn cell<C: WireCodec + Copy + Send + Sync + 'static>(
        server: &Arc<EnviroServer<C>>,
        codec: C,
        oracle: &[Option<f64>],
        traj: &[QueryTuple],
        rate: f64,
        concurrent: bool,
        seed: u64,
    ) {
        let label = format!(
            "seed {seed} rate {rate} wire {} codec {}",
            if concurrent { "concurrent" } else { "loopback" },
            std::any::type_name::<C>()
        );
        let plan = plan_for(rate);
        let (outcomes, stats, _) = if concurrent {
            run_concurrent_chaos(Arc::clone(server), codec, traj, plan, seed, BATCH)
        } else {
            run_loopback_chaos(server, codec, traj, plan, seed, BATCH)
        };
        let (wrong, not_fresh) = audit(&outcomes, oracle);
        assert_eq!(wrong, 0, "{label}: {wrong} wrong answers, stats {stats:?}");
        // Even at 8% the retry budget must hold comfortably: allow up to
        // two exhausted chunks' worth of tuples, never a wholesale failure.
        assert!(
            not_fresh <= 2 * BATCH,
            "{label}: {not_fresh} tuples unanswered, stats {stats:?}"
        );
    }

    let binary = Arc::new(build_server(BinaryCodec));
    let text = Arc::new(build_server(TextCodec));
    let binary_oracle = oracle_values(&binary, BinaryCodec, &traj, BATCH);
    let text_oracle = oracle_values(&text, TextCodec, &traj, BATCH);

    for (i, &rate) in [0.02, 0.08].iter().enumerate() {
        let case_seed = seed ^ ((i as u64 + 1) << 32);
        for concurrent in [false, true] {
            cell(
                &binary,
                BinaryCodec,
                &binary_oracle,
                &traj,
                rate,
                concurrent,
                case_seed,
            );
            cell(
                &text,
                TextCodec,
                &text_oracle,
                &traj,
                rate,
                concurrent,
                case_seed,
            );
        }
    }
}

/// Model-cache mode rides through a scripted outage: queries keep being
/// answered (degrading to `Stale` from the expired cover, never
/// `Unavailable`), and once the outage lifts the client reconnects and
/// serves `Fresh` again. Corruption faults are excluded — `Cover` frames
/// carry no CRC (only batch frames do), so a flipped coefficient could
/// decode "successfully"; the batch path is where corruption is tested.
#[test]
fn model_cache_rides_through_an_outage() {
    let seed = chaos_seed();
    let server = build_server(BinaryCodec);
    // Pinned query times, one every 120 s of data time: crosses the 2 h
    // window boundaries at tuples 60 and 120.
    let base = trajectory(170, 120, 3);
    let traj: Vec<QueryTuple> = base
        .iter()
        .enumerate()
        .map(|(i, q)| QueryTuple::new(Timestamp::from_secs(i as i64 * 120), q.pos))
        .collect();
    let oracle = oracle_values(&server, BinaryCodec, &traj, 64);

    let clock = VirtualClock::new();
    let plan = FaultPlan {
        duplicate: 0.05,
        outages: vec![Outage {
            from_ms: 1_000,
            until_ms: 4_000,
        }],
        ..FaultPlan::default()
    };
    let mut link = SimulatedLink::new(LinkProfile::IDEAL);
    let mut wire = ChaosWire::new(
        LoopbackWire::new(&server, &mut link),
        plan,
        seed,
        clock.clone(),
    )
    .with_trace(verbose());
    let mut client = EnviroClient::new(
        BinaryCodec,
        server.platform().engine().dataset().pollutant(),
    )
    .with_model_cache(true)
    .with_clock(clock.clone())
    .with_rng_seed(seed ^ 0xD1CE);

    // One tuple per 50 ms of wall time, so the outage window [1 s, 4 s)
    // lands across the first cover-expiry refresh.
    let mut outcomes = Vec::with_capacity(traj.len());
    let mut one = Vec::new();
    for q in &traj {
        client.query_resilient(&mut wire, std::slice::from_ref(q), &mut one);
        outcomes.push(one[0]);
        clock.advance(50);
    }

    let stats = client.resilience_stats();
    assert_eq!(outcomes.len(), traj.len());
    assert!(
        outcomes.iter().all(|o| !o.is_unavailable()),
        "seed {seed}: outage must degrade, not fail: {stats:?}"
    );
    assert!(
        stats.stale_answers > 0,
        "seed {seed}: the outage never forced a stale answer: {stats:?}"
    );
    assert!(
        stats.timeouts > 0,
        "seed {seed}: the outage never bit a refresh: {stats:?}"
    );
    // Every Fresh answer matches the fault-free model-cache run exactly.
    let (wrong, _) = audit(&outcomes, &oracle);
    assert_eq!(wrong, 0, "seed {seed}: {wrong} wrong fresh answers");
    // After the outage lifts, the client reconnects: the tail is fresh.
    assert!(
        outcomes.last().unwrap().is_fresh(),
        "seed {seed}: never reconnected; stats {stats:?}"
    );
}

/// Holds every request decoded under a [`GatedCodec`] until opened, so a
/// test can keep a worker busy and its queue full for as long as it needs.
#[derive(Default)]
struct Gate {
    /// Requests that reached the gate, and whether it is open.
    state: std::sync::Mutex<(usize, bool)>,
    changed: std::sync::Condvar,
}

impl Gate {
    fn pass(&self) {
        let mut st = self.state.lock().unwrap();
        st.0 += 1;
        self.changed.notify_all();
        while !st.1 {
            st = self.changed.wait(st).unwrap();
        }
    }

    fn wait_entered(&self, n: usize) {
        let mut st = self.state.lock().unwrap();
        while st.0 < n {
            st = self.changed.wait(st).unwrap();
        }
    }

    fn open(&self) {
        self.state.lock().unwrap().1 = true;
        self.changed.notify_all();
    }
}

/// The binary codec, except that every request decode waits at the gate.
struct GatedCodec(Arc<Gate>);

impl WireCodec for GatedCodec {
    fn name(&self) -> &'static str {
        "gated"
    }

    fn encode_request_into(&self, req: &Request, out: &mut Vec<u8>) {
        BinaryCodec.encode_request_into(req, out);
    }

    fn decode_request(&self, bytes: &[u8]) -> Result<Request, enviro_net::codec::CodecError> {
        self.0.pass();
        BinaryCodec.decode_request(bytes)
    }

    fn encode_response_into(&self, resp: &Response, out: &mut Vec<u8>) {
        BinaryCodec.encode_response_into(resp, out);
    }

    fn decode_response(&self, bytes: &[u8]) -> Result<Response, enviro_net::codec::CodecError> {
        BinaryCodec.decode_response(bytes)
    }
}

/// Polls `done` until it holds; a hang fails the test after 30 s.
fn wait_until(what: &str, done: impl Fn() -> bool) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while !done() {
        assert!(
            std::time::Instant::now() < deadline,
            "timed out waiting: {what}"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

/// A server whose queue is saturated sheds with `Busy`, and the resilient
/// client absorbs the sheds: it backs off by the server's hint, retries,
/// and once capacity returns still gets every answer right.
#[test]
fn client_rides_through_server_shedding() {
    use enviro_net::TransportConfig;
    const TUPLES: usize = 500;
    let seed = chaos_seed();
    let traj = trajectory(TUPLES, 4, 5);
    let oracle = oracle_values(&build_server(BinaryCodec), BinaryCodec, &traj, 16);

    // One worker with a one-slot queue, held in decode by the gate: a
    // first request occupies the worker, and of two more, one fills the
    // slot and the other is shed, which proves the queue full. Every send
    // of the client's is then shed until the gate opens, which happens
    // only after the client has been shed at least once. The client's
    // Busy backoff really sleeps (system clock), well inside its budget.
    let gate = Arc::new(Gate::default());
    let transport = ConcurrentTransport::spawn_shared_with(
        Arc::new(build_server(GatedCodec(Arc::clone(&gate)))),
        TransportConfig {
            workers: 1,
            max_queue: 1,
        },
    )
    .unwrap();
    let model_request = BinaryCodec.encode_request(&Request::ModelRequest {
        time: Timestamp::from_secs(60),
    });

    std::thread::scope(|scope| {
        let blocker = || {
            let reply = transport
                .session()
                .call_with(|out| out.extend_from_slice(&model_request))
                .map(|reply| BinaryCodec.decode_response(reply).unwrap());
            reply.unwrap()
        };
        let mut blockers = vec![scope.spawn(blocker)];
        gate.wait_entered(1);
        blockers.extend([scope.spawn(blocker), scope.spawn(blocker)]);
        wait_until("the queue to fill", || transport.shed_total() == 1);
        scope.spawn(|| {
            wait_until("the client to be shed", || transport.shed_total() >= 2);
            gate.open();
        });

        let mut session = transport.session();
        let mut client = EnviroClient::new(BinaryCodec, enviro_data::Pollutant::Co2)
            .with_batch(16)
            .with_retry_policy(RetryPolicy {
                deadline_ms: 10_000,
                max_retries: 100,
            })
            .with_rng_seed(seed);
        let mut outcomes = Vec::new();
        client.query_resilient(&mut session, &traj, &mut outcomes);

        let stats = client.resilience_stats();
        let (wrong, not_fresh) = audit(&outcomes, &oracle);
        assert_eq!(
            wrong, 0,
            "seed {seed}: {wrong} wrong answers under shedding"
        );
        assert_eq!(
            not_fresh, 0,
            "seed {seed}: shedding must delay, not lose: {stats:?}"
        );
        assert!(
            stats.busy_replies > 0,
            "seed {seed}: the saturated queue never shed: {stats:?}"
        );
        assert_eq!(stats.busy_replies, stats.retries, "{stats:?}");
        // The two requests that got in are answered; the third was shed.
        let replies: Vec<Response> = blockers.into_iter().map(|b| b.join().unwrap()).collect();
        let shed = replies
            .iter()
            .filter(|r| matches!(r, Response::Busy { .. }))
            .count();
        assert_eq!(shed, 1, "{replies:?}");
    });
    assert!(transport.shed_total() > 1);
}

// ------------------------------------------------ durable write path chaos

/// A deterministic stream of distinct, finite tuples for ingest tests.
fn ingest_tuples(n: usize, start_secs: i64) -> Vec<RawTuple> {
    (0..n)
        .map(|i| {
            RawTuple::new(
                Timestamp::from_secs(start_secs + i as i64 * 2),
                Point::new(
                    (i % 97) as f64 * 40.0 - 2_000.0,
                    (i % 61) as f64 * 50.0 - 1_500.0,
                ),
                400.0 + (i % 37) as f64 * 3.0,
            )
        })
        .collect()
}

fn chaos_temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("enviro-chaos-{tag}-{}", std::process::id()))
}

/// Bit-exact identity key for a stored tuple.
fn tuple_key(t: &RawTuple) -> (i64, u64, u64, u64) {
    (
        t.time.as_secs(),
        t.pos.x.to_bits(),
        t.pos.y.to_bits(),
        t.value.to_bits(),
    )
}

const INGEST_WINDOW_SECS: i64 = 3_600;

/// A server with no static history, answering from `state`'s store alone.
fn ingest_server(state: &Arc<IngestState>) -> EnviroServer<BinaryCodec> {
    let platform = EnviroMeter::new(
        Dataset::new(Pollutant::Co2),
        WindowSpec::ByDuration(INGEST_WINDOW_SECS),
        AdKmnConfig::default(),
        1_000.0,
    );
    EnviroServer::new(platform, BinaryCodec, QueryMethod::ModelCover).with_ingest(Arc::clone(state))
}

/// A registry's covers: each window's routing key and exact binary form.
type RegistryBits = Vec<(u64, Timestamp, Vec<u8>)>;

fn registry_bits(state: &IngestState) -> RegistryBits {
    let snapshot = state.registry().snapshot();
    snapshot
        .entries()
        .iter()
        .map(|e| {
            let mut bytes = Vec::new();
            let read = snapshot.with_cover(e, |cover| cover.encode_into(&mut bytes));
            read.expect("cover reads back");
            (e.window_id, e.first_time, bytes)
        })
        .collect()
}

/// One chaos ingest run into a fresh WAL at `dir`, ended by one
/// maintenance pass. Returns the registry as that pass left it too.
fn run_ingest_chaos(
    dir: &std::path::Path,
    tuples: &[RawTuple],
    plan: FaultPlan,
    seed: u64,
) -> (IngestReport, ResilienceStats, u64, RegistryBits) {
    let _ = std::fs::remove_dir_all(dir);
    let state = Arc::new(
        IngestState::open(
            dir,
            WalConfig {
                window_secs: INGEST_WINDOW_SECS,
                ..WalConfig::default()
            },
            IngestConfig::default(),
        )
        .unwrap(),
    );
    let server = Arc::new(ingest_server(&state));
    let transport = ConcurrentTransport::spawn_shared(Arc::clone(&server), 2).unwrap();
    let clock = VirtualClock::new();
    let mut wire =
        ChaosWire::new(transport.session(), plan, seed, clock.clone()).with_trace(verbose());
    let mut client = EnviroClient::new(BinaryCodec, Pollutant::Co2)
        .with_batch(64)
        .with_clock(clock)
        .with_rng_seed(seed ^ 0x1A6E);
    let report = client.ingest_resilient(&mut wire, 0xFEED, tuples);
    let stats = client.resilience_stats();
    drop(wire); // release the session before the transport joins
                // Publish, seal and log the history, as a running server's
                // maintenance would have before it shut down.
    state.rebuild_dirty_now().unwrap();
    state.check_invariants().unwrap();
    let durable = state.stats().durable_tuples;
    (report, stats, durable, registry_bits(&state))
}

/// The durable-write acceptance criterion: 10 000 tuples streamed as
/// `IngestBatch` frames under `{drop: 0.10, corrupt: 0.05, dup: 0.05}`
/// must lose **zero acked tuples** — every tuple of every acknowledged
/// chunk is found in the WAL after a cold reopen (crash-equivalent), with
/// no duplicate appends despite the retransmits — and a second identical
/// run must be bit-identical, report and counters included.
#[test]
fn acceptance_10k_ingested_tuples_under_faults_lose_nothing() {
    const TUPLES: usize = 10_000;
    const BATCH: usize = 64;
    let seed = chaos_seed();
    eprintln!("chaos ingest: seed={seed} (override with CHAOS_SEED=<u64>)");

    let tuples = ingest_tuples(TUPLES, 0);
    let plan = FaultPlan {
        drop: 0.10,
        corrupt: 0.05,
        duplicate: 0.05,
        ..FaultPlan::default()
    };
    let dir = chaos_temp_dir("ingest-a");
    let (report, stats, durable, registry) = run_ingest_chaos(&dir, &tuples, plan.clone(), seed);

    assert_eq!(
        report.acked_tuples + report.failed_tuples,
        TUPLES as u64,
        "seed {seed}: tuples unaccounted for"
    );
    // Exactly-once despite retransmits: the server never appends a chunk
    // twice, so the durable count can exceed the acked count only by
    // chunks whose ack was lost — never by duplicates.
    assert!(
        durable >= report.acked_tuples && durable <= TUPLES as u64,
        "seed {seed}: durable {durable} vs acked {} — dedup broke",
        report.acked_tuples
    );
    // The plan really fired.
    assert!(stats.timeouts > 0, "seed {seed}: no drops materialized");
    assert!(
        stats.corrupt_replies > 0 || stats.retries > 0,
        "seed {seed}: no corruption materialized: {stats:?}"
    );

    // Zero lost acked tuples, by cold-reopen audit: replay the WAL from
    // disk exactly as crash recovery would, read the sealed windows back,
    // and check membership of every tuple in every acknowledged chunk.
    let wal_config = WalConfig {
        window_secs: INGEST_WINDOW_SECS,
        ..WalConfig::default()
    };
    let wal = WalStore::open(&dir, wal_config).unwrap();
    assert!(
        !wal.sealed_window_ids().is_empty(),
        "seed {seed}: nothing sealed"
    );
    let stored: std::collections::HashSet<_> =
        wal.tuples().unwrap().iter().map(tuple_key).collect();
    drop(wal);
    assert_eq!(
        stored.len() as u64,
        durable,
        "seed {seed}: reopen lost durable tuples"
    );
    let mut lost = 0usize;
    for (i, chunk) in tuples.chunks(BATCH).enumerate() {
        if report.chunk_acked[i] {
            lost += chunk
                .iter()
                .filter(|t| !stored.contains(&tuple_key(t)))
                .count();
        }
    }
    assert_eq!(lost, 0, "seed {seed}: {lost} acked tuples missing from WAL");

    // The cold restart publishes the sealed windows' logged covers; once
    // its first pass rebuilds the open windows, the recovered registry
    // equals the one before shutdown, bit for bit.
    let state = Arc::new(IngestState::open(&dir, wal_config, IngestConfig::default()).unwrap());
    let _server = ingest_server(&state);
    state.rebuild_dirty_now().unwrap();
    state.check_invariants().unwrap();
    assert_eq!(
        registry_bits(&state),
        registry,
        "seed {seed}: recovered registry differs from the one before shutdown"
    );

    // Determinism: a second run into a fresh WAL, counter for counter.
    let dir2 = chaos_temp_dir("ingest-b");
    let (report2, stats2, durable2, registry2) = run_ingest_chaos(&dir2, &tuples, plan, seed);
    assert_eq!(report, report2, "seed {seed}: ingest reports diverged");
    assert_eq!(stats, stats2, "seed {seed}: stats diverged");
    assert_eq!(durable, durable2, "seed {seed}: durable counts diverged");
    assert_eq!(registry, registry2, "seed {seed}: registries diverged");

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

/// Streamed-vs-batch parity: ingesting the simulation's dataset through
/// the wire and publishing covers online must answer queries **bit
/// identically** to the batch platform built from the same dataset in one
/// shot — same windows, same Ad-KMN covers, same interpolation.
#[test]
fn queries_under_ingest_match_the_batch_platform_bit_for_bit() {
    let seed = chaos_seed();
    let dir = chaos_temp_dir("parity");
    let _ = std::fs::remove_dir_all(&dir);

    let sim = LausanneSim::lausanne(SimConfig {
        duration_secs: 6 * 3_600,
        seed: 4242,
        ..SimConfig::default()
    });
    let tuples = sim.generate().tuples().to_vec();
    let batch_server = build_server(BinaryCodec);

    let state = Arc::new(
        IngestState::open(
            &dir,
            WalConfig {
                window_secs: 2 * 3_600,
                ..WalConfig::default()
            },
            IngestConfig::default(),
        )
        .unwrap(),
    );
    // Every answer comes from the stream's published covers.
    let stream_server = ingest_server(&state);

    // Stream in dataset order (the windows see the same tuple sequence the
    // batch engine does), then publish.
    let mut link = SimulatedLink::new(LinkProfile::IDEAL);
    let mut wire = LoopbackWire::new(&stream_server, &mut link);
    let mut client = EnviroClient::new(BinaryCodec, Pollutant::Co2).with_batch(64);
    let report = client.ingest_resilient(&mut wire, 7, &tuples);
    assert_eq!(report.acked_tuples, tuples.len() as u64, "seed {seed}");
    state.rebuild_dirty_now().unwrap();
    assert!(state.generation() > 0);

    let traj = trajectory(2_000, 8, 9);
    let want = oracle_values(&batch_server, BinaryCodec, &traj, 64);
    let got = oracle_values(&stream_server, BinaryCodec, &traj, 64);
    let mut wrong = 0usize;
    for (a, b) in got.iter().zip(&want) {
        let same = match (a, b) {
            (Some(x), Some(y)) => x.to_bits() == y.to_bits(),
            (None, None) => true,
            _ => false,
        };
        if !same {
            wrong += 1;
        }
    }
    assert_eq!(
        wrong,
        0,
        "seed {seed}: {wrong}/{} streamed answers differ from the batch platform",
        traj.len()
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Queries never block on a rebuild: while a dirty window waits for its
/// cover (here: before any maintenance worker exists), the server keeps
/// answering from the previously published covers; the worker, once
/// spawned, publishes the new window in the background with no
/// query-thread involvement.
#[test]
fn queries_keep_serving_while_a_rebuild_is_pending() {
    let dir = chaos_temp_dir("pending-rebuild");
    let _ = std::fs::remove_dir_all(&dir);
    let state = Arc::new(
        IngestState::open(
            &dir,
            WalConfig {
                window_secs: INGEST_WINDOW_SECS,
                ..WalConfig::default()
            },
            IngestConfig::default(),
        )
        .unwrap(),
    );
    let server = ingest_server(&state);

    // Window 0 ingested and published synchronously.
    let w0 = ingest_tuples(200, 0);
    let mut link = SimulatedLink::new(LinkProfile::IDEAL);
    let mut wire = LoopbackWire::new(&server, &mut link);
    let mut client = EnviroClient::new(BinaryCodec, Pollutant::Co2).with_batch(64);
    assert_eq!(client.ingest_resilient(&mut wire, 1, &w0).failed_tuples, 0);
    state.rebuild_dirty_now().unwrap();
    let gen1 = state.generation();
    assert!(gen1 > 0);

    // A dirty window with no worker to rebuild it yet (an arbitrarily long
    // wait for Ad-KMN).
    let w1 = ingest_tuples(200, INGEST_WINDOW_SECS);
    assert_eq!(client.ingest_resilient(&mut wire, 1, &w1).failed_tuples, 0);

    // While the rebuild is pending, every query is still answered from the
    // generation-1 covers — the hot path shares nothing with the rebuild.
    let probe = |wire: &mut LoopbackWire<BinaryCodec>, client: &mut EnviroClient<BinaryCodec>| {
        let queries: Vec<QueryTuple> = w0
            .iter()
            .step_by(20)
            .map(|t| QueryTuple::new(t.time, t.pos))
            .collect();
        let mut values = Vec::new();
        client.query_batch(wire, &queries, &mut values).unwrap();
        values
    };
    let before = probe(&mut wire, &mut client);
    assert!(
        before.iter().all(Option::is_some),
        "queries starved while a rebuild was pending"
    );
    assert_eq!(state.generation(), gen1, "publication must be deferred");

    // Spawn the worker: it publishes on its own.
    let maintenance = ModelMaintenance::spawn(Arc::clone(&state)).unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while state.generation() == gen1 {
        assert!(
            std::time::Instant::now() < deadline,
            "maintenance worker never published"
        );
        std::thread::yield_now();
    }
    // The new window answers, the old one still does (bit-identically).
    assert_eq!(probe(&mut wire, &mut client), before);
    let q1 = QueryTuple::new(w1[0].time, w1[0].pos);
    let mut values = Vec::new();
    client
        .query_batch(&mut wire, std::slice::from_ref(&q1), &mut values)
        .unwrap();
    assert!(values[0].is_some(), "newly published window must answer");

    drop(maintenance);
    let _ = std::fs::remove_dir_all(&dir);
}
