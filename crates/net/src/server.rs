//! The EnviroMeter server endpoint.

use crate::buffers;
use crate::codec::WireCodec;
use crate::ingest::IngestState;
use crate::protocol::{ErrorCode, ProtocolError, Request, Response};
use enviro_data::QueryTuple;
use enviro_meter::{CoverReadError, CoverReader, EnviroMeter, ModelCover, QueryMethod};
use enviro_schedule::sync::Arc;

/// The server side of Figure 3: decodes a request, consults the platform,
/// encodes the response.
///
/// Value queries are served with the given [`QueryMethod`] —
/// [`QueryMethod::ModelCover`] in production (the whole point of the
/// paper), but the evaluation can plug any method to isolate network
/// effects from processing effects.
///
/// Covers are read through a [`CoverReader`] on the paper's `model_cover`
/// table (one cover per window id), which cannot publish: `new` publishes
/// the platform's covers as generation 1 and keeps only the reader. Every
/// request that reads a cover reads one snapshot, so a reply never mixes
/// two publications and each `ValueBatch` carries the generation that
/// answered it. A query at time `t` is answered by the window holding `t`;
/// before the first window by the oldest one, after the last by the
/// newest (the routing rule of [`enviro_meter::CoverSet::cover_for_time`]).
/// When that window's cover is paged out and cannot be read back, the
/// reply to a `Query`, `QueryBatch` or `ModelRequest` is an
/// [`ErrorCode::Internal`] error naming the window.
///
/// A server built [`EnviroServer::with_ingest`] additionally accepts
/// `IngestBatch` frames on the durable write path and answers from its
/// store alone: it reads the ingest state's registry, whose one writer is
/// the state, the owner of every window; its platform is empty.
pub struct EnviroServer<C: WireCodec> {
    platform: EnviroMeter,
    codec: C,
    method: QueryMethod,
    registry: CoverReader,
    ingest: Option<Arc<IngestState>>,
}

impl<C: WireCodec> EnviroServer<C> {
    /// Creates a server over a platform, building every window's cover and
    /// publishing them as the registry's first generation (an empty
    /// platform publishes nothing and stays at generation 0).
    pub fn new(platform: EnviroMeter, codec: C, method: QueryMethod) -> Self {
        let engine = platform.engine();
        engine.prepare_parallel_auto(QueryMethod::ModelCover);
        let registry = enviro_meter::CoverRegistry::new();
        if engine.window_count() > 0 {
            registry.publish(engine.published_covers());
        }
        Self {
            platform,
            codec,
            method,
            registry: registry.reader().clone(),
            ingest: None,
        }
    }

    /// Attaches a durable ingest state: `IngestBatch` frames are accepted,
    /// and covers are read from the state's registry alone from now on.
    ///
    /// # Panics
    /// Panics when the server's method is not [`QueryMethod::ModelCover`],
    /// or when the platform holds data: the store owns every window, so
    /// there is no second source of covers to reconcile with it.
    pub fn with_ingest(mut self, ingest: Arc<IngestState>) -> Self {
        assert!(
            self.method == QueryMethod::ModelCover,
            "an ingesting server answers from covers, not with {}",
            self.method
        );
        assert!(
            self.platform.engine().dataset().is_empty(),
            "an ingesting server answers from its store alone, not from a platform holding data"
        );
        self.registry = ingest.registry().clone();
        self.ingest = Some(ingest);
        self
    }

    /// The platform behind the server.
    pub fn platform(&self) -> &EnviroMeter {
        &self.platform
    }

    /// The codec in use.
    pub fn codec(&self) -> &C {
        &self.codec
    }

    /// Handles one decoded request.
    pub fn handle(&self, request: &Request) -> Response {
        match request {
            Request::Query { time, pos } => {
                let q = QueryTuple::new(*time, *pos);
                let value = match self.method {
                    QueryMethod::ModelCover => match self.registry.snapshot().query(&q) {
                        Ok(value) => value.flatten(),
                        Err(e) => return unreadable(&e),
                    },
                    method => self.platform.point_query(&q, method),
                };
                match value {
                    Some(value) => Response::Value { value },
                    None => Response::NoData,
                }
            }
            Request::ModelRequest { time } => {
                let covers = self.registry.snapshot();
                match covers.cover_for_time(*time) {
                    Some(entry) if !entry.cover.is_empty() => {
                        match covers.with_cover(entry, ModelCover::clone) {
                            Ok(cover) => Response::Cover(cover),
                            Err(e) => unreadable(&e),
                        }
                    }
                    _ => Response::NoData,
                }
            }
            Request::QueryBatch { seq, queries } => {
                // The value buffer comes from the thread's pool and goes
                // back to it in `handle_bytes_into` after encoding, so a
                // steady-state worker serves batches without allocating.
                // The request's sequence number is echoed so the client can
                // pair this reply with its chunk even after retries, and the
                // generation stamped is that of the snapshot that answered.
                let mut values = buffers::take_values();
                let covers = self.registry.snapshot();
                match self.method {
                    QueryMethod::ModelCover => {
                        if let Err(e) = covers.query_batch_into(queries, &mut values) {
                            buffers::recycle_values(values);
                            return unreadable(&e);
                        }
                    }
                    method => self
                        .platform
                        .point_query_batch_into(queries, method, &mut values),
                }
                Response::ValueBatch {
                    seq: *seq,
                    generation: covers.generation(),
                    values,
                }
            }
            Request::IngestBatch {
                source,
                seq,
                tuples,
            } => match &self.ingest {
                Some(ingest) => match ingest.ingest(*source, *seq, tuples) {
                    Ok(outcome) => Response::IngestAck {
                        seq: *seq,
                        durable_upto: outcome.durable_upto,
                    },
                    // The append failed *before* anything was acked: the
                    // client backs off and retransmits; durability is
                    // never overpromised.
                    Err(e) => Response::Error(ProtocolError::new(
                        ErrorCode::Internal,
                        format!("ingest failed: {e}"),
                    )),
                },
                None => Response::Error(ProtocolError::new(
                    ErrorCode::Unsupported,
                    "this server does not accept ingestion",
                )),
            },
        }
    }

    /// Handles one encoded request: the byte-in/byte-out entry point used
    /// by transports.
    ///
    /// This is infallible by design: a frame that fails to decode produces
    /// an encoded [`Response::Error`] reply instead of an `Err`, so one
    /// corrupt message from a flaky phone can never tear down the
    /// connection or panic the endpoint.
    pub fn handle_bytes(&self, request_bytes: &[u8]) -> Vec<u8> {
        let mut reply = Vec::with_capacity(64);
        self.handle_bytes_into(request_bytes, &mut reply);
        reply
    }

    /// [`EnviroServer::handle_bytes`] into a caller-owned reply buffer:
    /// `reply` is cleared, then filled with the encoded response.
    ///
    /// This is the zero-allocation serving path: with a warmed engine and a
    /// recycled `reply` buffer, decoding, query processing and encoding of
    /// `Query`/`QueryBatch` frames touch no allocator (batch `Vec`s come
    /// from the per-thread pool in [`crate::buffers`] and are returned
    /// here).
    pub fn handle_bytes_into(&self, request_bytes: &[u8], reply: &mut Vec<u8>) {
        reply.clear();
        match self.codec.decode_request(request_bytes) {
            Ok(request) => {
                let response = self.handle(&request);
                self.codec.encode_response_into(&response, reply);
                if let Request::QueryBatch { queries, .. } = request {
                    buffers::recycle_queries(queries);
                }
                if let Response::ValueBatch { values, .. } = response {
                    buffers::recycle_values(values);
                }
            }
            Err(e) => {
                let response =
                    Response::Error(ProtocolError::new(ErrorCode::BadRequest, e.to_string()));
                self.codec.encode_response_into(&response, reply);
            }
        }
    }
}

/// The reply to a request whose answering cover is paged out and could
/// not be read: an internal error naming the window, never `NoData` or a
/// value.
fn unreadable(e: &CoverReadError) -> Response {
    Response::Error(ProtocolError::new(ErrorCode::Internal, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::BinaryCodec;
    use enviro_data::{LausanneSim, SimConfig, Timestamp, WindowSpec};
    use enviro_geo::Point;
    use enviro_meter::AdKmnConfig;

    fn server() -> EnviroServer<BinaryCodec> {
        let sim = LausanneSim::lausanne(SimConfig {
            duration_secs: 2 * 3_600,
            seed: 77,
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

    #[test]
    fn value_query_returns_value() {
        let s = server();
        let resp = s.handle(&Request::Query {
            time: Timestamp::from_secs(600),
            pos: Point::new(0.0, -200.0),
        });
        match resp {
            Response::Value { value } => assert!((100.0..3_000.0).contains(&value)),
            other => panic!("expected value, got {other:?}"),
        }
    }

    #[test]
    fn model_request_returns_cover() {
        let s = server();
        let resp = s.handle(&Request::ModelRequest {
            time: Timestamp::from_secs(600),
        });
        match resp {
            Response::Cover(cover) => {
                assert!(!cover.is_empty());
                assert!(cover.valid_until >= Timestamp::from_secs(600));
            }
            other => panic!("expected cover, got {other:?}"),
        }
    }

    #[test]
    fn batch_reply_echoes_request_sequence_number() {
        let s = server();
        let resp = s.handle(&Request::QueryBatch {
            seq: 41,
            queries: vec![QueryTuple::new(
                Timestamp::from_secs(600),
                Point::new(0.0, -200.0),
            )],
        });
        match resp {
            Response::ValueBatch {
                seq,
                generation,
                values,
            } => {
                assert_eq!(seq, 41);
                assert_eq!(generation, 1, "the static covers are generation 1");
                assert_eq!(values.len(), 1);
            }
            other => panic!("expected value batch, got {other:?}"),
        }
    }

    #[test]
    fn ingest_without_state_is_unsupported() {
        let s = server();
        let resp = s.handle(&Request::IngestBatch {
            source: 7,
            seq: 1,
            tuples: vec![enviro_data::RawTuple::new(
                Timestamp::from_secs(60),
                Point::origin(),
                400.0,
            )],
        });
        match resp {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::Unsupported),
            other => panic!("expected unsupported error, got {other:?}"),
        }
    }

    #[test]
    fn ingest_server_acks_and_stamps_generations() {
        use enviro_data::RawTuple;

        let (state, dir) = open_ingest("ingest", 3_600);
        let s = ingest_server(&state);

        // Write a batch over the wire path.
        let tuples: Vec<RawTuple> = (0..32)
            .map(|i| {
                RawTuple::new(
                    Timestamp::from_secs(600 + i),
                    Point::new(f64::from(i as u32) * 20.0, -100.0),
                    420.0 + f64::from(i as u32),
                )
            })
            .collect();
        let resp = s.handle(&Request::IngestBatch {
            source: 9,
            seq: 3,
            tuples,
        });
        match resp {
            Response::IngestAck { seq, durable_upto } => {
                assert_eq!(seq, 3);
                assert_eq!(durable_upto, 32);
            }
            other => panic!("expected ingest ack, got {other:?}"),
        }

        // Publish covers for the ingested window; replies now carry the new
        // generation and answers come from the stream's cover.
        state.rebuild_dirty_now().unwrap();
        assert!(state.generation() > 0);
        let q = Request::QueryBatch {
            seq: 1,
            queries: vec![QueryTuple::new(
                Timestamp::from_secs(600),
                Point::new(0.0, -200.0),
            )],
        };
        match s.handle(&q) {
            Response::ValueBatch {
                generation, values, ..
            } => {
                assert_eq!(generation, state.generation());
                assert!(values[0].is_some(), "published cover should answer");
            }
            other => panic!("expected value batch, got {other:?}"),
        }

        let _ = std::fs::remove_dir_all(&dir);
    }

    fn open_ingest(tag: &str, window_secs: i64) -> (Arc<IngestState>, std::path::PathBuf) {
        use crate::ingest::IngestConfig;
        use enviro_storage::WalConfig;

        let dir = std::env::temp_dir().join(format!("enviro-server-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let state = IngestState::open(
            &dir,
            WalConfig {
                window_secs,
                ..WalConfig::default()
            },
            IngestConfig::default(),
        )
        .unwrap();
        (Arc::new(state), dir)
    }

    /// A platform with no data, as an ingesting server's must be.
    fn empty_platform() -> EnviroMeter {
        EnviroMeter::new(
            enviro_data::Dataset::new(enviro_data::Pollutant::Co2),
            WindowSpec::ByDuration(3_600),
            AdKmnConfig::default(),
            1_000.0,
        )
    }

    /// A model-cover server answering from `state`'s store alone.
    fn ingest_server(state: &Arc<IngestState>) -> EnviroServer<BinaryCodec> {
        EnviroServer::new(empty_platform(), BinaryCodec, QueryMethod::ModelCover)
            .with_ingest(Arc::clone(state))
    }

    /// An ingest state whose store holds `history` in sealed windows, as
    /// `enviro ingest` then `enviro store compact` leave it: the reopen
    /// rebuilds each sealed window's cover from its file and publishes
    /// them all as generation 1, paged out.
    fn sealed_history(
        tag: &str,
        window_secs: i64,
        history: &[enviro_data::RawTuple],
    ) -> (Arc<IngestState>, std::path::PathBuf) {
        use crate::ingest::IngestConfig;
        use enviro_storage::{WalConfig, WalStore};

        let dir = std::env::temp_dir().join(format!("enviro-server-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = WalConfig {
            window_secs,
            ..WalConfig::default()
        };
        let mut store = WalStore::open(&dir, config).unwrap();
        store.append_batch(history).unwrap();
        store.seal_windows_before(u64::MAX).unwrap();
        drop(store);
        let state = IngestState::open(&dir, config, IngestConfig::default()).unwrap();
        (Arc::new(state), dir)
    }

    /// A stream window far ahead of the sealed history must not answer
    /// for times the history covers: each time is answered by the window
    /// that holds it, as the batch engine over the history answers it.
    #[test]
    fn ingest_window_does_not_answer_for_the_static_history() {
        use enviro_data::RawTuple;

        // The static server's platform is the batch engine over the history.
        let batch = server();
        let history = batch.platform().engine().dataset().tuples();
        let (state, dir) = sealed_history("misroute", 3_600, history);
        assert_eq!(state.generation(), 1);
        let s = ingest_server(&state);
        let day10 = Timestamp::from_days(10).as_secs();
        let stream: Vec<RawTuple> = (0..32)
            .map(|i| {
                RawTuple::new(
                    Timestamp::from_secs(day10 + 60 * i),
                    Point::new(f64::from(i as u32) * 25.0, -100.0),
                    9_000.0,
                )
            })
            .collect();
        state.ingest(1, 1, &stream).unwrap();
        state.rebuild_dirty_now().unwrap();

        let time = Timestamp::from_secs(600);
        let pos = Point::new(0.0, -200.0);
        let want = batch
            .platform()
            .point_query(&QueryTuple::new(time, pos), QueryMethod::ModelCover)
            .unwrap();
        assert!(want < 3_000.0, "{want}");
        assert_eq!(
            s.handle(&Request::Query { time, pos }),
            Response::Value { value: want }
        );
        match s.handle(&Request::QueryBatch {
            seq: 5,
            queries: vec![QueryTuple::new(time, pos)],
        }) {
            Response::ValueBatch {
                generation, values, ..
            } => {
                assert_eq!(values, vec![Some(want)]);
                assert_eq!(generation, 2, "the history's covers, then the stream's");
            }
            other => panic!("expected value batch, got {other:?}"),
        }
        match s.handle(&Request::ModelRequest { time }) {
            Response::Cover(cover) => {
                assert!(cover.valid_until <= Timestamp::from_secs(7_200));
                let batch_cover = batch.platform().cover_at(time).unwrap();
                assert_eq!(&cover, batch_cover);
            }
            other => panic!("expected cover, got {other:?}"),
        }
        // The stream's own window still answers from the stream's cover.
        match s.handle(&Request::Query {
            time: Timestamp::from_secs(day10 + 600),
            pos,
        }) {
            Response::Value { value } => assert!((value - 9_000.0).abs() < 1.0, "{value}"),
            other => panic!("expected value, got {other:?}"),
        }
        assert_eq!(state.check_invariants(), Ok(()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "answers from its store alone")]
    fn with_ingest_refuses_a_platform_holding_data() {
        let (state, dir) = open_ingest("history", 3_600);
        // The refusal reads no file: the directory can go before the panic.
        let _ = std::fs::remove_dir_all(&dir);
        let _ = server().with_ingest(state);
    }

    #[test]
    #[should_panic(expected = "answers from covers")]
    fn with_ingest_refuses_a_non_cover_method() {
        let (state, dir) = open_ingest("method", 3_600);
        let _ = std::fs::remove_dir_all(&dir);
        let _ =
            EnviroServer::new(empty_platform(), BinaryCodec, QueryMethod::Naive).with_ingest(state);
    }

    #[test]
    fn handle_bytes_roundtrip() {
        let s = server();
        let req = BinaryCodec.encode_request(&Request::Query {
            time: Timestamp::from_secs(60),
            pos: Point::new(100.0, 0.0),
        });
        let resp_bytes = s.handle_bytes(&req);
        let resp = BinaryCodec.decode_response(&resp_bytes).unwrap();
        assert!(matches!(resp, Response::Value { .. }));
    }

    #[test]
    fn handle_bytes_replies_to_garbage_with_protocol_error() {
        let s = server();
        let resp_bytes = s.handle_bytes(&[0xAB, 0xCD]);
        match BinaryCodec.decode_response(&resp_bytes).unwrap() {
            Response::Error(e) => assert_eq!(e.code, crate::protocol::ErrorCode::BadRequest),
            other => panic!("expected error reply, got {other:?}"),
        }
    }

    #[test]
    fn server_stays_usable_after_bad_frame() {
        let s = server();
        // A garbage frame, then a valid query: the error reply must not
        // poison the endpoint.
        let _ = s.handle_bytes(b"\xFF\xFF\xFF");
        let req = BinaryCodec.encode_request(&Request::Query {
            time: Timestamp::from_secs(60),
            pos: Point::new(100.0, 0.0),
        });
        let resp = BinaryCodec.decode_response(&s.handle_bytes(&req)).unwrap();
        assert!(matches!(resp, Response::Value { .. }));
    }

    #[test]
    fn empty_platform_says_no_data() {
        let platform = EnviroMeter::new(
            enviro_data::Dataset::new(enviro_data::Pollutant::Co2),
            WindowSpec::ByCount(10),
            AdKmnConfig::default(),
            500.0,
        );
        let s = EnviroServer::new(platform, BinaryCodec, QueryMethod::ModelCover);
        assert_eq!(
            s.handle(&Request::ModelRequest {
                time: Timestamp::ZERO
            }),
            Response::NoData
        );
        assert_eq!(
            s.handle(&Request::Query {
                time: Timestamp::ZERO,
                pos: Point::origin()
            }),
            Response::NoData
        );
    }

    mod one_read_path {
        use super::*;
        use crate::XorShiftRng;
        use enviro_data::{Dataset, Pollutant, RawTuple};
        use enviro_meter::QueryEngine;
        use proptest::prelude::*;
        use std::sync::atomic::{AtomicU64, Ordering};

        const WINDOW_SECS: i64 = 100;

        /// The tuples of window `id`: evenly spaced, distinct times from a
        /// random offset into the window, at a per-window level.
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

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            /// For a history sealed in the store before a stream over
            /// other windows arrives, every answer equals the batch
            /// engine's over both together: the window holding the query
            /// time answers, whichever of the two wrote it. `layout[id]`
            /// says what wrote window `id`: 0 nothing, 1 the history, 2
            /// the stream.
            #[test]
            fn server_answers_like_the_batch_engine_over_history_and_stream(
                layout in proptest::collection::vec(0u8..3, 1..7),
                seed in any::<u64>(),
            ) {
                static CASE: AtomicU64 = AtomicU64::new(0);
                let mut rng = XorShiftRng::new(seed);
                let (mut history, mut stream) = (Vec::new(), Vec::new());
                for (id, owner) in layout.iter().enumerate() {
                    match owner {
                        1 => history.extend(window(id as i64, &mut rng)),
                        2 => stream.extend(window(id as i64, &mut rng)),
                        _ => {}
                    }
                }
                let mut all = history.clone();
                all.extend(stream.iter().copied());
                let batch = QueryEngine::new(
                    Dataset::from_tuples(Pollutant::Co2, all).unwrap(),
                    WindowSpec::ByDuration(WINDOW_SECS),
                    AdKmnConfig::default(),
                    1_000.0,
                );

                let tag = format!("props-{}", CASE.fetch_add(1, Ordering::Relaxed));
                let (state, dir) = sealed_history(&tag, WINDOW_SECS, &history);
                let server = ingest_server(&state);
                for (seq, chunk) in stream.chunks(16).enumerate() {
                    state.ingest(1, seq as u32 + 1, chunk).unwrap();
                }
                state.rebuild_dirty_now().unwrap();

                // Before, inside (first, middle and last tuple time) and
                // after every window, owned or not, and past the end.
                let mut times = vec![-WINDOW_SECS];
                for id in 0..=layout.len() as i64 {
                    let base = id * WINDOW_SECS;
                    times.extend([base, base + 1, base + 30, base + 61, base + WINDOW_SECS - 1]);
                }
                times.push(100 * WINDOW_SECS);
                let probes: Vec<QueryTuple> = times
                    .iter()
                    .map(|&t| {
                        let pos = Point::new(500.0 * rng.next_f64() - 50.0, -500.0 * rng.next_f64());
                        QueryTuple::new(Timestamp::from_secs(t), pos)
                    })
                    .collect();

                let bits = |v: Option<f64>| v.map(f64::to_bits);
                let want: Vec<Option<f64>> = probes
                    .iter()
                    .map(|q| batch.query(q, QueryMethod::ModelCover))
                    .collect();
                for (q, want) in probes.iter().zip(&want) {
                    let got = match server.handle(&Request::Query { time: q.time, pos: q.pos }) {
                        Response::Value { value } => Some(value),
                        Response::NoData => None,
                        other => panic!("expected a value, got {other:?}"),
                    };
                    prop_assert_eq!(bits(got), bits(*want), "Query at {}", q.time.as_secs());
                    let cover = batch
                        .cover_for_time(q.time)
                        .filter(|c| !c.is_empty())
                        .map_or(Response::NoData, |c| Response::Cover(c.clone()));
                    prop_assert_eq!(
                        server.handle(&Request::ModelRequest { time: q.time }),
                        cover,
                        "ModelRequest at {}",
                        q.time.as_secs()
                    );
                }
                match server.handle(&Request::QueryBatch { seq: 9, queries: probes.clone() }) {
                    Response::ValueBatch { generation, values, .. } => {
                        prop_assert_eq!(generation, state.generation());
                        let got: Vec<_> = values.iter().map(|v| bits(*v)).collect();
                        let want: Vec<_> = want.iter().map(|v| bits(*v)).collect();
                        prop_assert_eq!(got, want);
                    }
                    other => panic!("expected a value batch, got {other:?}"),
                }
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}
