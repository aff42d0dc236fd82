//! The EnviroMeter server endpoint.

use crate::buffers;
use crate::codec::WireCodec;
use crate::ingest::IngestState;
use crate::protocol::{ErrorCode, ProtocolError, Request, Response, WireCover};
use enviro_data::QueryTuple;
use enviro_meter::{CoverSet, EnviroMeter, QueryMethod};
use enviro_schedule::sync::Arc;

/// The server side of Figure 3: decodes a request, consults the platform,
/// encodes the response.
///
/// Value queries are served with the given [`QueryMethod`] —
/// [`QueryMethod::ModelCover`] in production (the whole point of the
/// paper), but the evaluation can plug any method to isolate network
/// effects from processing effects.
///
/// A server built [`EnviroServer::with_ingest`] additionally accepts
/// `IngestBatch` frames on the durable write path, and serves value/model
/// queries from the ingest state's published covers once any exist (the
/// static platform remains the fallback for times the stream has not
/// covered yet). Every `ValueBatch` reply then carries the generation of
/// the covers that answered it, so caching clients can invalidate.
pub struct EnviroServer<C: WireCodec> {
    platform: EnviroMeter,
    codec: C,
    method: QueryMethod,
    ingest: Option<Arc<IngestState>>,
}

impl<C: WireCodec> EnviroServer<C> {
    /// Creates a server over a platform.
    pub fn new(platform: EnviroMeter, codec: C, method: QueryMethod) -> Self {
        Self {
            platform,
            codec,
            method,
            ingest: None,
        }
    }

    /// Attaches a durable ingest state: `IngestBatch` frames are accepted,
    /// and queries prefer the stream's published covers.
    pub fn with_ingest(mut self, ingest: Arc<IngestState>) -> Self {
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

    /// The published covers, one snapshot per request, so a reply never
    /// mixes two publications (`None` when the server does not ingest).
    fn covers(&self) -> Option<Arc<CoverSet>> {
        self.ingest.as_ref().map(|i| i.registry().snapshot())
    }

    /// Handles one decoded request.
    pub fn handle(&self, request: &Request) -> Response {
        match request {
            Request::Query { time, pos } => {
                let q = QueryTuple::new(*time, *pos);
                match self.answer_query(&q) {
                    Some(value) => Response::Value { value },
                    None => Response::NoData,
                }
            }
            Request::ModelRequest { time } => {
                // The stream's published cover wins when one exists; the
                // static platform covers the pre-ingest past.
                if let Some(cover) = self
                    .ingest
                    .as_ref()
                    .and_then(|ingest| ingest.cover_at(*time))
                {
                    if !cover.is_empty() {
                        return Response::Cover(WireCover::from_cover(cover.as_ref()));
                    }
                    return Response::NoData;
                }
                match self.platform.cover_at(*time) {
                    Some(cover) if !cover.is_empty() => {
                        Response::Cover(WireCover::from_cover(cover))
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
                let covers = self.covers();
                match covers.as_deref().filter(|c| !c.is_empty()) {
                    Some(set) => set.query_batch_into(queries, &mut values),
                    None => {
                        self.platform
                            .point_query_batch_into(queries, self.method, &mut values);
                    }
                }
                Response::ValueBatch {
                    seq: *seq,
                    generation: covers.map_or(0, |c| c.generation()),
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

    /// Answers one point query: published covers first (once any exist),
    /// the batch platform otherwise.
    fn answer_query(&self, q: &QueryTuple) -> Option<f64> {
        match self.covers().and_then(|c| c.query(q)) {
            Some(answer) => answer,
            None => self.platform.point_query(q, self.method),
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
                assert_eq!(generation, 0, "no ingest state => generation 0");
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
        use crate::ingest::{IngestConfig, IngestState};
        use enviro_data::RawTuple;
        use enviro_storage::WalConfig;

        let dir = std::env::temp_dir().join(format!("enviro-server-ingest-{}", std::process::id()));
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
        let s = server().with_ingest(Arc::clone(&state));

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

        // Before any cover is published, batch replies stamp generation 0
        // and queries fall back to the static platform.
        let q = Request::QueryBatch {
            seq: 1,
            queries: vec![QueryTuple::new(
                Timestamp::from_secs(600),
                Point::new(0.0, -200.0),
            )],
        };
        match s.handle(&q) {
            Response::ValueBatch { generation, .. } => assert_eq!(generation, 0),
            other => panic!("expected value batch, got {other:?}"),
        }

        // Publish covers for the ingested window; replies now carry the new
        // generation and answers come from the stream's cover.
        state.rebuild_dirty_now().unwrap();
        assert!(state.generation() > 0);
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
}
