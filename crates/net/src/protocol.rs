//! Protocol messages between the EnviroMeter app and server.

use enviro_data::{QueryTuple, RawTuple, Timestamp};
use enviro_geo::Point;
use enviro_meter::ModelCover;

/// Version byte carried by the batch frames (`QueryBatch` / `ValueBatch` /
/// `IngestBatch` / `IngestAck`), so the layout can evolve without
/// re-tagging.
///
/// Every batch frame carries a request/reply sequence number (so a
/// resilient client can discard duplicated or stale replies after a
/// retry) and a trailing CRC-32 over the frame (so a bit-corrupted batch
/// is *detected* instead of silently mis-answering); `ValueBatch` also
/// carries the cover **generation** that answered it. A `Cover` reply
/// carries none yet, so a model-cache client cannot see its cover
/// republished (ROADMAP.md item 1).
///
/// Version 4 sends a binary `QueryBatch`'s times as zig-zag LEB128 varints
/// of their wrapping differences (from 0) ahead of 16-byte `x, y` records,
/// and a binary `ValueBatch`'s misses as a presence bitmap ahead of the
/// present values; v3 sent 24-byte tuples and a flag byte per value. The
/// other frames kept v3's layouts.
///
/// Encoders emit this version and decoders accept only this version:
/// any other version byte is a `Malformed` error.
pub const BATCH_VERSION: u8 = 4;

/// Upper bound on the tuples one batch frame may carry.
///
/// Decoders reject larger counts *before* allocating, so a hostile length
/// prefix cannot balloon server memory; clients chunk longer trajectories
/// into multiple frames.
pub const MAX_BATCH: usize = 4_096;

/// A client → server request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// A query tuple `q_l = (t_l, x_l, y_l)`: "interpolate the sensor value
    /// at my position" (the baseline's per-tuple message).
    Query {
        /// Query time `t_l`.
        time: Timestamp,
        /// Query position `(x_l, y_l)`.
        pos: Point,
    },
    /// A model request `e_l`: "send me the current model cover" (the
    /// model-cache initialization/refresh message).
    ModelRequest {
        /// The time the request is issued, so the server can pick the
        /// responsible window.
        time: Timestamp,
    },
    /// A trajectory chunk: up to [`MAX_BATCH`] query tuples answered in one
    /// round-trip, amortizing framing and latency over the chunk.
    ///
    /// The answer is a [`Response::ValueBatch`] with exactly one value per
    /// tuple, in order.
    QueryBatch {
        /// Client-chosen sequence number, echoed verbatim in the matching
        /// [`Response::ValueBatch`]. Lets a retrying client pair replies
        /// with requests and drop duplicates the wire re-delivered.
        seq: u32,
        /// The query tuples, in trajectory order.
        queries: Vec<QueryTuple>,
    },
    /// A chunk of raw sensor tuples `b_i = (t_i, x_i, y_i, s_i)` to persist:
    /// the durable write path. Up to [`MAX_BATCH`] tuples per frame.
    ///
    /// The server WAL-appends and fsyncs the chunk *before* answering with
    /// a [`Response::IngestAck`]; a retransmitted `(source, seq)` pair is
    /// re-acked idempotently instead of applied twice, so a client that
    /// lost an ack can resend without duplicating data.
    IngestBatch {
        /// Stable identity of the sending sensor platform (e.g. one bus).
        /// Retransmission dedup is scoped per source.
        source: u64,
        /// Client-chosen sequence number, echoed in the matching ack.
        seq: u32,
        /// The sensed tuples, in arrival order. Every tuple must be finite.
        tuples: Vec<RawTuple>,
    },
}

/// A server → client response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The interpolated value `ŝ_l` for a [`Request::Query`].
    Value {
        /// The interpolated sensor value.
        value: f64,
    },
    /// The server has no data to answer from.
    NoData,
    /// One interpolated value (or miss) per tuple of a
    /// [`Request::QueryBatch`], in request order.
    ValueBatch {
        /// The sequence number of the [`Request::QueryBatch`] this answers,
        /// echoed verbatim.
        seq: u32,
        /// The cover **generation** that answered this batch: a counter
        /// bumped on every atomic cover publication — the server's static
        /// covers at start-up, then each model-maintenance republication.
        /// 0 when nothing is published (no data yet).
        generation: u64,
        /// `Some(ŝ_l)` per answerable tuple, `None` per miss.
        values: Vec<Option<f64>>,
    },
    /// The model cover `(t_n, µ, M)` for a [`Request::ModelRequest`]:
    /// exactly what §2.3 lists, "(i) the coefficients of all the models
    /// in M, (ii) the cluster centroids µ, and (iii) the time t_n".
    ///
    /// On the wire go `valid_until` and, per region, the centroid and the
    /// model (a mean's one value, or a linear model's
    /// [`enviro_meter::LinearModel::to_coefficients`]). Nothing else is
    /// sent, so a decoded cover carries zeroed training diagnostics,
    /// window 0 and the default pollutant; a client stamps its own
    /// pollutant on it. A region with a non-finite centroid or a model that
    /// fails [`enviro_meter::RegionModel::check_invariants`] does not
    /// decode.
    Cover(ModelCover),
    /// Durability acknowledgement for a [`Request::IngestBatch`]: sent only
    /// after the chunk is WAL-appended and fsynced.
    IngestAck {
        /// The sequence number of the acked `IngestBatch`, echoed verbatim.
        seq: u32,
        /// The server's durability watermark after this chunk: total tuples
        /// accepted and fsynced so far. Monotone; survives any crash.
        durable_upto: u64,
    },
    /// The server is overloaded and shed this request before queueing it.
    ///
    /// Unlike [`Response::Error`] this is not the client's fault: the
    /// request was never looked at. A resilient client backs off for at
    /// least the hinted interval and retries; memory on the server stays
    /// bounded no matter how hard the fleet pushes.
    Busy {
        /// Server's suggestion for how long to back off before retrying,
        /// in milliseconds.
        retry_after_ms: u32,
    },
    /// The request could not be served; the connection stays usable.
    ///
    /// A malformed or unexpected message must degrade into this reply —
    /// never into a server panic or a torn connection: community-sensed
    /// deployments talk to fleets of flaky phones over lossy links, so a
    /// single corrupt frame taking down the endpoint is unacceptable.
    Error(ProtocolError),
}

/// Machine-readable reason classes carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request could not be decoded (bad tag, truncation, bad payload).
    BadRequest,
    /// The request was well-formed but names an unsupported operation.
    Unsupported,
    /// The server failed internally while serving a valid request.
    Internal,
}

impl ErrorCode {
    /// Wire value of the code.
    pub fn as_u8(self) -> u8 {
        match self {
            ErrorCode::BadRequest => 1,
            ErrorCode::Unsupported => 2,
            ErrorCode::Internal => 3,
        }
    }

    /// Parses a wire value.
    pub fn from_u8(v: u8) -> Option<Self> {
        match v {
            1 => Some(ErrorCode::BadRequest),
            2 => Some(ErrorCode::Unsupported),
            3 => Some(ErrorCode::Internal),
            _ => None,
        }
    }

    /// Stable text name (used by the text codec).
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::Unsupported => "unsupported",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parses a stable text name.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "bad-request" => Some(ErrorCode::BadRequest),
            "unsupported" => Some(ErrorCode::Unsupported),
            "internal" => Some(ErrorCode::Internal),
            _ => None,
        }
    }
}

/// The payload of an error reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// Why the request failed.
    pub code: ErrorCode,
    /// Human-readable diagnostic (bounded; not meant for parsing).
    pub message: String,
}

impl ProtocolError {
    /// Builds an error reply, truncating oversized diagnostics so a hostile
    /// peer cannot make us echo unbounded payloads.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        let mut message = message.into();
        if message.len() > Self::MAX_MESSAGE_BYTES {
            let mut cut = Self::MAX_MESSAGE_BYTES;
            while !message.is_char_boundary(cut) {
                cut -= 1;
            }
            message.truncate(cut);
        }
        Self { code, message }
    }

    /// Upper bound on the diagnostic length, on and off the wire.
    pub const MAX_MESSAGE_BYTES: usize = 512;

    /// The diagnostic as it goes on the wire: truncated to
    /// [`Self::MAX_MESSAGE_BYTES`] at a char boundary, so encoders stay
    /// within bounds even for errors built without [`Self::new`].
    pub fn wire_message(&self) -> &str {
        let mut cut = Self::MAX_MESSAGE_BYTES.min(self.message.len());
        while !self.message.is_char_boundary(cut) {
            cut -= 1;
        }
        &self.message[..cut]
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.name(), self.message)
    }
}
