//! Wire codecs with byte-exact accounting.
//!
//! Figure 7(b) counts the bytes a phone transmits and receives, so the wire
//! format is explicit rather than delegated to a serialization framework.
//! Two codecs implement the same [`WireCodec`] trait:
//!
//! * [`BinaryCodec`] — the production format: little-endian fixed layouts,
//!   one tag byte per message (message sizes are dominated by `f64`
//!   payloads; length prefixes are `u32`). Only the batch frames shed what
//!   a trajectory repeats: a `QueryBatch` sends each time as a zig-zag
//!   LEB128 varint of its delta from the one before, and a `ValueBatch`
//!   marks misses in a presence bitmap instead of a flag byte per value.
//! * [`TextCodec`] — a verbose human-readable format standing in for the
//!   JSON-over-HTTP encodings typical of 2013 mobile backends; the
//!   `abl-codec` ablation quantifies what the binary layout saves.

use crate::buffers;
use crate::protocol::{ErrorCode, ProtocolError, Request, Response, BATCH_VERSION, MAX_BATCH};
use enviro_data::{Pollutant, QueryTuple, RawTuple, Timestamp};
use enviro_geo::Point;
use enviro_meter::{CoverRegion, LinearModel, ModelCover, RegionModel};
use enviro_storage::crc::{crc32, Crc32};
use enviro_storage::record::{decode_record, encode_records, RECORD_SIZE};
use std::io::Write;

/// Errors produced while decoding a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the message was complete.
    Truncated,
    /// An unknown message/model tag was encountered.
    BadTag(u8),
    /// The payload failed validation (e.g. non-finite floats, bad text).
    Malformed(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => f.write_str("message truncated"),
            CodecError::BadTag(t) => write!(f, "unknown tag {t:#04x}"),
            CodecError::Malformed(m) => write!(f, "malformed message: {m}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A bidirectional message codec.
///
/// The `_into` methods are the primitive operations: they append to a
/// caller-owned buffer, so the serving hot path can reuse one scratch
/// buffer per thread instead of allocating per message. The by-value
/// `encode_request`/`encode_response` are allocating conveniences on top.
pub trait WireCodec {
    /// Codec name for reports.
    fn name(&self) -> &'static str;

    /// Encodes a request, appending the bytes to `out`.
    fn encode_request_into(&self, req: &Request, out: &mut Vec<u8>);

    /// Decodes a request.
    fn decode_request(&self, bytes: &[u8]) -> Result<Request, CodecError>;

    /// Encodes a response, appending the bytes to `out`.
    fn encode_response_into(&self, resp: &Response, out: &mut Vec<u8>);

    /// Decodes a response.
    fn decode_response(&self, bytes: &[u8]) -> Result<Response, CodecError>;

    /// Encodes a request into a fresh buffer.
    fn encode_request(&self, req: &Request) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        self.encode_request_into(req, &mut out);
        out
    }

    /// Encodes a response into a fresh buffer.
    fn encode_response(&self, resp: &Response) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.encode_response_into(resp, &mut out);
        out
    }
}

// ---------------------------------------------------------------------------
// Binary codec
// ---------------------------------------------------------------------------

/// The compact binary codec (production format).
#[derive(Debug, Clone, Copy, Default)]
pub struct BinaryCodec;

const TAG_QUERY: u8 = 0x01;
const TAG_MODEL_REQUEST: u8 = 0x02;
const TAG_QUERY_BATCH: u8 = 0x03;
const TAG_INGEST: u8 = 0x04;
const TAG_VALUE: u8 = 0x81;
const TAG_NO_DATA: u8 = 0x82;
const TAG_COVER: u8 = 0x83;
const TAG_ERROR: u8 = 0x84;
const TAG_VALUE_BATCH: u8 = 0x85;
const TAG_BUSY: u8 = 0x86;
const TAG_INGEST_ACK: u8 = 0x87;
const MODEL_MEAN: u8 = 0x01;
const MODEL_LINEAR: u8 = 0x02;
/// Bytes of the smallest `Cover` region: centroid `f64 x + f64 y`, model
/// tag, `f64` mean.
const MIN_WIRE_REGION_SIZE: usize = 8 + 8 + 1 + 8;

/// Validates the count prefix of a batch frame.
fn check_batch_count(count: usize) -> Result<(), CodecError> {
    if count > MAX_BATCH {
        return Err(CodecError::Malformed(format!(
            "batch of {count} tuples exceeds the {MAX_BATCH} cap"
        )));
    }
    Ok(())
}

/// Rejects every batch version but [`BATCH_VERSION`]. Checked *before*
/// the CRC so a peer speaking another layout gets a version diagnostic,
/// not a checksum mismatch.
fn check_batch_version(version: i64) -> Result<(), CodecError> {
    if version != i64::from(BATCH_VERSION) {
        return Err(CodecError::Malformed(format!(
            "unsupported batch version {version}"
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Batch frames: CRC envelope, delta-coded times, fixed-width records
// ---------------------------------------------------------------------------

/// Bytes of a `QueryBatch` coordinate record: `f64 x + f64 y`.
const COORD_SIZE: usize = 16;
/// The fewest bytes a `QueryBatch` tuple takes: a one-byte time delta and
/// its coordinate record.
const MIN_QUERY_SIZE: usize = 1 + COORD_SIZE;
/// The most bytes a LEB128 varint of a `u64` takes.
const MAX_VARINT_LEN: usize = 10;

fn encode_coords(pos: &Point) -> [u8; COORD_SIZE] {
    let mut rec = [0; COORD_SIZE];
    rec[..8].copy_from_slice(&pos.x.to_le_bytes());
    rec[8..].copy_from_slice(&pos.y.to_le_bytes());
    rec
}

fn decode_coords(rec: &[u8; COORD_SIZE]) -> Point {
    let (mut x, mut y) = ([0u8; 8], [0u8; 8]);
    x.copy_from_slice(&rec[..8]);
    y.copy_from_slice(&rec[8..]);
    Point::new(f64::from_le_bytes(x), f64::from_le_bytes(y))
}

/// Appends `v` as a zig-zag LEB128 varint: a value in `-64..=63` takes one
/// byte, and any `i64` at most [`MAX_VARINT_LEN`].
fn put_varint(v: i64, out: &mut Vec<u8>) {
    let mut z = ((v << 1) ^ (v >> 63)) as u64;
    while z >= 0x80 {
        out.push(z as u8 | 0x80);
        z >>= 7;
    }
    out.push(z as u8);
}

/// Reads one zig-zag LEB128 varint off the front of `bytes`. Each value
/// has exactly one encoding: a varint longer than a `u64` needs (more than
/// ten bytes, or a tenth byte above 1) or ending in a redundant zero byte
/// is `Malformed`.
fn take_varint(bytes: &mut &[u8]) -> Result<i64, CodecError> {
    let mut z = 0u64;
    let mut shift = 0;
    loop {
        let byte = take_u8(bytes)?;
        if shift == 63 && byte > 1 {
            return Err(CodecError::Malformed("varint overflows 64 bits".into()));
        }
        z |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            if byte == 0 && shift > 0 {
                return Err(CodecError::Malformed(
                    "varint has a redundant zero byte".into(),
                ));
            }
            return Ok((z >> 1) as i64 ^ -((z & 1) as i64));
        }
        shift += 7;
    }
}

/// Splits `n` fixed-width records of `N` bytes off the front of `bytes`.
fn take_records<'a, const N: usize>(
    bytes: &mut &'a [u8],
    n: usize,
) -> Result<&'a [[u8; N]], CodecError> {
    // The cheap structural check before touching any pool or allocator.
    if bytes.len() < n * N {
        return Err(CodecError::Truncated);
    }
    let (records, rest) = bytes.split_at(n * N);
    *bytes = rest;
    Ok(records.as_chunks::<N>().0)
}

/// Builds the CRC-mismatch error shared by both codecs.
fn crc_mismatch(declared: u32, computed: u32) -> CodecError {
    CodecError::Malformed(format!(
        "batch CRC mismatch: frame says {declared:#010x}, computed {computed:#010x}"
    ))
}

/// Takes the version byte of a binary batch frame and verifies its
/// trailing CRC-32.
///
/// `frame` is the whole message; `rest` is the still-unparsed suffix past
/// the tag. On return `rest` starts after the version byte and ends before
/// the 4-byte trailer, so the caller's `ensure_empty` sees a clean
/// end-of-frame.
fn take_batch_envelope(frame: &[u8], rest: &mut &[u8]) -> Result<(), CodecError> {
    check_batch_version(i64::from(take_u8(rest)?))?;
    if rest.len() < 4 {
        return Err(CodecError::Truncated);
    }
    let (body, trailer) = rest.split_at(rest.len() - 4);
    let declared = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    let computed = crc32(&frame[..frame.len() - 4]);
    if declared != computed {
        return Err(crc_mismatch(declared, computed));
    }
    *rest = body;
    Ok(())
}

impl WireCodec for BinaryCodec {
    fn name(&self) -> &'static str {
        "binary"
    }

    fn encode_request_into(&self, req: &Request, out: &mut Vec<u8>) {
        match req {
            Request::Query { time, pos } => {
                out.push(TAG_QUERY);
                out.extend_from_slice(&time.as_secs().to_le_bytes());
                out.extend_from_slice(&pos.x.to_le_bytes());
                out.extend_from_slice(&pos.y.to_le_bytes());
            }
            Request::ModelRequest { time } => {
                out.push(TAG_MODEL_REQUEST);
                out.extend_from_slice(&time.as_secs().to_le_bytes());
            }
            Request::QueryBatch { seq, queries } => {
                // tag, version, seq, count, the time deltas, the coordinate
                // records, crc.
                out.reserve(14 + queries.len() * (MAX_VARINT_LEN + COORD_SIZE));
                let start = out.len();
                out.push(TAG_QUERY_BATCH);
                out.push(BATCH_VERSION);
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&(queries.len() as u32).to_le_bytes());
                let mut prev = 0i64;
                for q in queries {
                    let time = q.time.as_secs();
                    put_varint(time.wrapping_sub(prev), out);
                    prev = time;
                }
                for q in queries {
                    out.extend_from_slice(&encode_coords(&q.pos));
                }
                let crc = crc32(&out[start..]);
                out.extend_from_slice(&crc.to_le_bytes());
            }
            Request::IngestBatch {
                source,
                seq,
                tuples,
            } => {
                // tag, version, source, seq, count, the records, crc.
                out.reserve(22 + tuples.len() * RECORD_SIZE);
                let start = out.len();
                out.push(TAG_INGEST);
                out.push(BATCH_VERSION);
                out.extend_from_slice(&source.to_le_bytes());
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&(tuples.len() as u32).to_le_bytes());
                encode_records(tuples, out);
                let crc = crc32(&out[start..]);
                out.extend_from_slice(&crc.to_le_bytes());
            }
        }
    }

    fn decode_request(&self, mut bytes: &[u8]) -> Result<Request, CodecError> {
        let frame = bytes;
        let tag = take_u8(&mut bytes)?;
        match tag {
            TAG_QUERY => {
                let time = Timestamp::from_secs(take_i64(&mut bytes)?);
                let x = take_f64(&mut bytes)?;
                let y = take_f64(&mut bytes)?;
                ensure_empty(bytes)?;
                Ok(Request::Query {
                    time,
                    pos: Point::new(x, y),
                })
            }
            TAG_MODEL_REQUEST => {
                let time = Timestamp::from_secs(take_i64(&mut bytes)?);
                ensure_empty(bytes)?;
                Ok(Request::ModelRequest { time })
            }
            TAG_QUERY_BATCH => {
                take_batch_envelope(frame, &mut bytes)?;
                let seq = take_u32(&mut bytes)?;
                let n = take_u32(&mut bytes)? as usize;
                check_batch_count(n)?;
                // The cheap structural check before touching the pool.
                if n > bytes.len() / MIN_QUERY_SIZE {
                    return Err(CodecError::Truncated);
                }
                let (mut times, coords) = bytes.split_at(bytes.len() - n * COORD_SIZE);
                let mut queries = buffers::take_queries();
                queries.reserve(n);
                let mut time = 0i64;
                for rec in coords.as_chunks::<COORD_SIZE>().0 {
                    time = time.wrapping_add(take_varint(&mut times)?);
                    queries.push(QueryTuple::new(
                        Timestamp::from_secs(time),
                        decode_coords(rec),
                    ));
                }
                ensure_empty(times)?;
                Ok(Request::QueryBatch { seq, queries })
            }
            TAG_INGEST => {
                take_batch_envelope(frame, &mut bytes)?;
                let source = take_u64(&mut bytes)?;
                let seq = take_u32(&mut bytes)?;
                let n = take_u32(&mut bytes)? as usize;
                check_batch_count(n)?;
                let records = take_records::<RECORD_SIZE>(&mut bytes, n)?;
                let mut tuples = Vec::with_capacity(n);
                for rec in records {
                    let t = decode_record(rec);
                    if !t.is_finite() {
                        return Err(CodecError::Malformed("non-finite ingest tuple".into()));
                    }
                    tuples.push(t);
                }
                ensure_empty(bytes)?;
                Ok(Request::IngestBatch {
                    source,
                    seq,
                    tuples,
                })
            }
            other => Err(CodecError::BadTag(other)),
        }
    }

    fn encode_response_into(&self, resp: &Response, out: &mut Vec<u8>) {
        match resp {
            Response::Value { value } => {
                out.push(TAG_VALUE);
                out.extend_from_slice(&value.to_le_bytes());
            }
            Response::NoData => out.push(TAG_NO_DATA),
            Response::ValueBatch {
                seq,
                generation,
                values,
            } => {
                // tag, version, seq, generation, count, the presence
                // bitmap, the present values, crc.
                out.reserve(22 + values.len().div_ceil(8) + values.len() * 8);
                let start = out.len();
                out.push(TAG_VALUE_BATCH);
                out.push(BATCH_VERSION);
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&generation.to_le_bytes());
                out.extend_from_slice(&(values.len() as u32).to_le_bytes());
                for slots in values.chunks(8) {
                    let byte = slots
                        .iter()
                        .enumerate()
                        .fold(0u8, |byte, (bit, v)| byte | u8::from(v.is_some()) << bit);
                    out.push(byte);
                }
                for value in values.iter().flatten() {
                    out.extend_from_slice(&value.to_le_bytes());
                }
                let crc = crc32(&out[start..]);
                out.extend_from_slice(&crc.to_le_bytes());
            }
            Response::Busy { retry_after_ms } => {
                out.push(TAG_BUSY);
                out.extend_from_slice(&retry_after_ms.to_le_bytes());
            }
            Response::IngestAck { seq, durable_upto } => {
                let start = out.len();
                out.push(TAG_INGEST_ACK);
                out.push(BATCH_VERSION);
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&durable_upto.to_le_bytes());
                let crc = crc32(&out[start..]);
                out.extend_from_slice(&crc.to_le_bytes());
            }
            Response::Cover(cover) => {
                out.push(TAG_COVER);
                out.extend_from_slice(&cover.valid_until.as_secs().to_le_bytes());
                out.extend_from_slice(&(cover.regions.len() as u32).to_le_bytes());
                for r in &cover.regions {
                    out.extend_from_slice(&r.centroid.x.to_le_bytes());
                    out.extend_from_slice(&r.centroid.y.to_le_bytes());
                    match &r.model {
                        RegionModel::Mean(v) => {
                            out.push(MODEL_MEAN);
                            out.extend_from_slice(&v.to_le_bytes());
                        }
                        RegionModel::Linear(m) => {
                            out.push(MODEL_LINEAR);
                            for c in m.to_coefficients() {
                                out.extend_from_slice(&c.to_le_bytes());
                            }
                        }
                    }
                }
            }
            Response::Error(err) => {
                out.push(TAG_ERROR);
                out.push(err.code.as_u8());
                let msg = err.wire_message().as_bytes();
                out.extend_from_slice(&(msg.len() as u32).to_le_bytes());
                out.extend_from_slice(msg);
            }
        }
    }

    fn decode_response(&self, mut bytes: &[u8]) -> Result<Response, CodecError> {
        let frame = bytes;
        let tag = take_u8(&mut bytes)?;
        match tag {
            TAG_VALUE => {
                let value = take_f64(&mut bytes)?;
                ensure_empty(bytes)?;
                Ok(Response::Value { value })
            }
            TAG_NO_DATA => {
                ensure_empty(bytes)?;
                Ok(Response::NoData)
            }
            TAG_VALUE_BATCH => {
                take_batch_envelope(frame, &mut bytes)?;
                let seq = take_u32(&mut bytes)?;
                let generation = take_u64(&mut bytes)?;
                let n = take_u32(&mut bytes)? as usize;
                check_batch_count(n)?;
                let (bitmap, mut rest) = bytes
                    .split_at_checked(n.div_ceil(8))
                    .ok_or(CodecError::Truncated)?;
                let tail_slots = n % 8;
                if tail_slots != 0 && bitmap.last().is_some_and(|&byte| byte >> tail_slots != 0) {
                    return Err(CodecError::Malformed("bitmap padding bits set".into()));
                }
                let present = bitmap.iter().map(|b| b.count_ones() as usize).sum();
                let mut present_values = take_records::<8>(&mut rest, present)?
                    .iter()
                    .map(|v| f64::from_le_bytes(*v));
                ensure_empty(rest)?;
                let mut values = buffers::take_values();
                values.reserve(n);
                for slot in 0..n {
                    let hit = bitmap[slot / 8] >> (slot % 8) & 1 == 1;
                    values.push(if hit { present_values.next() } else { None });
                }
                Ok(Response::ValueBatch {
                    seq,
                    generation,
                    values,
                })
            }
            TAG_BUSY => {
                let retry_after_ms = take_u32(&mut bytes)?;
                ensure_empty(bytes)?;
                Ok(Response::Busy { retry_after_ms })
            }
            TAG_INGEST_ACK => {
                take_batch_envelope(frame, &mut bytes)?;
                let seq = take_u32(&mut bytes)?;
                let durable_upto = take_u64(&mut bytes)?;
                ensure_empty(bytes)?;
                Ok(Response::IngestAck { seq, durable_upto })
            }
            TAG_COVER => {
                let valid_until = Timestamp::from_secs(take_i64(&mut bytes)?);
                let n = take_u32(&mut bytes)? as usize;
                // The frame has no CRC, so bound the count by the bytes
                // present before allocating for it.
                if n > bytes.len() / MIN_WIRE_REGION_SIZE {
                    return Err(CodecError::Truncated);
                }
                let mut regions = Vec::with_capacity(n);
                for _ in 0..n {
                    let cx = take_f64(&mut bytes)?;
                    let cy = take_f64(&mut bytes)?;
                    let model = match take_u8(&mut bytes)? {
                        MODEL_MEAN => RegionModel::Mean(take_f64(&mut bytes)?),
                        MODEL_LINEAR => {
                            let mut coeffs = [0.0; LinearModel::COEFFICIENT_COUNT];
                            for c in &mut coeffs {
                                *c = take_f64(&mut bytes)?;
                            }
                            RegionModel::Linear(LinearModel::from_coefficients(&coeffs))
                        }
                        other => return Err(CodecError::BadTag(other)),
                    };
                    regions.push(decoded_region(Point::new(cx, cy), model)?);
                }
                ensure_empty(bytes)?;
                Ok(decoded_cover(valid_until, regions))
            }
            TAG_ERROR => {
                let code = ErrorCode::from_u8(take_u8(&mut bytes)?)
                    .ok_or_else(|| CodecError::Malformed("bad error code".into()))?;
                let len = take_u32(&mut bytes)? as usize;
                if len > ProtocolError::MAX_MESSAGE_BYTES {
                    return Err(CodecError::Malformed(format!(
                        "error message of {len} bytes"
                    )));
                }
                let (message, rest) = bytes.split_at_checked(len).ok_or(CodecError::Truncated)?;
                let message = std::str::from_utf8(message)
                    .map_err(|e| CodecError::Malformed(e.to_string()))?
                    .to_string();
                ensure_empty(rest)?;
                Ok(Response::Error(ProtocolError { code, message }))
            }
            other => Err(CodecError::BadTag(other)),
        }
    }
}

/// Reads the next `N` bytes off the front of `bytes`.
fn take<const N: usize>(bytes: &mut &[u8]) -> Result<[u8; N], CodecError> {
    let (head, rest) = bytes
        .split_first_chunk::<N>()
        .ok_or(CodecError::Truncated)?;
    *bytes = rest;
    Ok(*head)
}

fn take_u8(bytes: &mut &[u8]) -> Result<u8, CodecError> {
    take(bytes).map(|[b]| b)
}

fn take_u32(bytes: &mut &[u8]) -> Result<u32, CodecError> {
    take(bytes).map(u32::from_le_bytes)
}

fn take_i64(bytes: &mut &[u8]) -> Result<i64, CodecError> {
    take(bytes).map(i64::from_le_bytes)
}

fn take_u64(bytes: &mut &[u8]) -> Result<u64, CodecError> {
    take(bytes).map(u64::from_le_bytes)
}

/// One region of a decoded `Cover` frame. The wire carries only the
/// centroid and the model, so the training diagnostics are zeroed. A
/// region that could not answer a query honestly (see
/// [`CoverRegion::check_queryable`]) is `Malformed`: the frame has no CRC,
/// and a NaN centroid or mean would otherwise reach the client's answers.
fn decoded_region(centroid: Point, model: RegionModel) -> Result<CoverRegion, CodecError> {
    let region = CoverRegion {
        centroid,
        model,
        training_error_percent: 0.0,
        population: 0,
    };
    region.check_queryable().map_err(CodecError::Malformed)?;
    Ok(region)
}

/// A decoded `Cover` reply. The window id and the pollutant are not sent,
/// so they read 0 and the default; the client stamps its own pollutant.
fn decoded_cover(valid_until: Timestamp, regions: Vec<CoverRegion>) -> Response {
    Response::Cover(ModelCover {
        pollutant: Pollutant::default(),
        window_id: 0,
        valid_until,
        regions,
    })
}

fn take_f64(bytes: &mut &[u8]) -> Result<f64, CodecError> {
    take(bytes).map(f64::from_le_bytes)
}

fn ensure_empty(bytes: &[u8]) -> Result<(), CodecError> {
    if bytes.is_empty() {
        Ok(())
    } else {
        Err(CodecError::Malformed(format!(
            "{} trailing bytes",
            bytes.len()
        )))
    }
}

// ---------------------------------------------------------------------------
// Text codec (ablation)
// ---------------------------------------------------------------------------

/// A verbose line-oriented text codec, standing in for JSON-over-HTTP.
#[derive(Debug, Clone, Copy, Default)]
pub struct TextCodec;

impl WireCodec for TextCodec {
    fn name(&self) -> &'static str {
        "text"
    }

    fn encode_request_into(&self, req: &Request, out: &mut Vec<u8>) {
        // `write!` into a `Vec<u8>` cannot fail; the results are discarded
        // rather than unwrapped to honor the workspace panic policy.
        match req {
            Request::Query { time, pos } => {
                let _ = writeln!(
                    out,
                    "REQUEST query time={} x={:.6} y={:.6}",
                    time.as_secs(),
                    pos.x,
                    pos.y
                );
            }
            Request::ModelRequest { time } => {
                let _ = writeln!(out, "REQUEST model-request time={}", time.as_secs());
            }
            Request::QueryBatch { seq, queries } => {
                let start = out.len();
                let _ = writeln!(
                    out,
                    "REQUEST query-batch v={BATCH_VERSION} seq={seq} n={}",
                    queries.len()
                );
                for q in queries {
                    let _ = writeln!(
                        out,
                        "q time={} x={:.6} y={:.6}",
                        q.time.as_secs(),
                        q.pos.x,
                        q.pos.y
                    );
                }
                let crc = crc32(&out[start..]);
                let _ = writeln!(out, "crc={crc:08X}");
            }
            Request::IngestBatch {
                source,
                seq,
                tuples,
            } => {
                let start = out.len();
                let _ = writeln!(
                    out,
                    "REQUEST ingest-batch v={BATCH_VERSION} source={source} seq={seq} n={}",
                    tuples.len()
                );
                for t in tuples {
                    let _ = writeln!(
                        out,
                        "b time={} x={:.6} y={:.6} s={:.9}",
                        t.time.as_secs(),
                        t.pos.x,
                        t.pos.y,
                        t.value
                    );
                }
                let crc = crc32(&out[start..]);
                let _ = writeln!(out, "crc={crc:08X}");
            }
        }
    }

    fn decode_request(&self, bytes: &[u8]) -> Result<Request, CodecError> {
        let text = std::str::from_utf8(bytes).map_err(|e| CodecError::Malformed(e.to_string()))?;
        let mut lines = text.lines();
        let header = lines
            .next()
            .ok_or_else(|| CodecError::Malformed("empty request".into()))?;
        let mut parts = header.split_whitespace();
        expect_token(&mut parts, "REQUEST")?;
        match parts.next() {
            Some("query") => {
                let time = Timestamp::from_secs(kv_i64(&mut parts, "time")?);
                let x = kv_f64(&mut parts, "x")?;
                let y = kv_f64(&mut parts, "y")?;
                Ok(Request::Query {
                    time,
                    pos: Point::new(x, y),
                })
            }
            Some("model-request") => {
                let time = Timestamp::from_secs(kv_i64(&mut parts, "time")?);
                Ok(Request::ModelRequest { time })
            }
            Some("query-batch") => {
                check_batch_version(kv_i64(&mut parts, "v")?)?;
                let seq = kv_u32(&mut parts, "seq")?;
                let n = kv_count(&mut parts)?;
                let mut queries = buffers::take_queries();
                queries.reserve(n);
                text_batch_body(header, lines, n, |line| {
                    let mut p = line.split_whitespace();
                    expect_token(&mut p, "q")?;
                    let time = Timestamp::from_secs(kv_i64(&mut p, "time")?);
                    let x = kv_f64(&mut p, "x")?;
                    let y = kv_f64(&mut p, "y")?;
                    queries.push(QueryTuple::new(time, Point::new(x, y)));
                    Ok(())
                })?;
                Ok(Request::QueryBatch { seq, queries })
            }
            Some("ingest-batch") => {
                check_batch_version(kv_i64(&mut parts, "v")?)?;
                let source = kv_u64(&mut parts, "source")?;
                let seq = kv_u32(&mut parts, "seq")?;
                let n = kv_count(&mut parts)?;
                let mut tuples = Vec::with_capacity(n);
                text_batch_body(header, lines, n, |line| {
                    let mut p = line.split_whitespace();
                    expect_token(&mut p, "b")?;
                    let time = Timestamp::from_secs(kv_i64(&mut p, "time")?);
                    let x = kv_f64(&mut p, "x")?;
                    let y = kv_f64(&mut p, "y")?;
                    let s = kv_f64(&mut p, "s")?;
                    let tuple = RawTuple::new(time, Point::new(x, y), s);
                    if !tuple.is_finite() {
                        return Err(CodecError::Malformed("non-finite ingest tuple".into()));
                    }
                    tuples.push(tuple);
                    Ok(())
                })?;
                Ok(Request::IngestBatch {
                    source,
                    seq,
                    tuples,
                })
            }
            other => Err(CodecError::Malformed(format!("bad verb {other:?}"))),
        }
    }

    fn encode_response_into(&self, resp: &Response, out: &mut Vec<u8>) {
        match resp {
            Response::Value { value } => {
                let _ = writeln!(out, "RESPONSE value s={value:.9}");
            }
            Response::NoData => {
                let _ = writeln!(out, "RESPONSE no-data");
            }
            Response::ValueBatch {
                seq,
                generation,
                values,
            } => {
                let start = out.len();
                let _ = writeln!(
                    out,
                    "RESPONSE value-batch v={BATCH_VERSION} seq={seq} gen={generation} n={}",
                    values.len()
                );
                for v in values {
                    match v {
                        Some(value) => {
                            let _ = writeln!(out, "v s={value:.9}");
                        }
                        None => {
                            let _ = writeln!(out, "v s=miss");
                        }
                    }
                }
                let crc = crc32(&out[start..]);
                let _ = writeln!(out, "crc={crc:08X}");
            }
            Response::Busy { retry_after_ms } => {
                let _ = writeln!(out, "RESPONSE busy retry-after-ms={retry_after_ms}");
            }
            Response::IngestAck { seq, durable_upto } => {
                let start = out.len();
                let _ = writeln!(
                    out,
                    "RESPONSE ingest-ack v={BATCH_VERSION} seq={seq} durable={durable_upto}"
                );
                let crc = crc32(&out[start..]);
                let _ = writeln!(out, "crc={crc:08X}");
            }
            Response::Cover(cover) => {
                let _ = writeln!(
                    out,
                    "RESPONSE cover valid-until={} regions={}",
                    cover.valid_until.as_secs(),
                    cover.regions.len()
                );
                for r in &cover.regions {
                    match &r.model {
                        RegionModel::Mean(v) => {
                            let _ = writeln!(
                                out,
                                "region cx={:.6} cy={:.6} model=mean coeffs={v:.9}",
                                r.centroid.x, r.centroid.y
                            );
                        }
                        RegionModel::Linear(m) => {
                            let _ = write!(
                                out,
                                "region cx={:.6} cy={:.6} model=linear coeffs=",
                                r.centroid.x, r.centroid.y
                            );
                            for (i, c) in m.to_coefficients().iter().enumerate() {
                                let sep = if i == 0 { "" } else { "," };
                                let _ = write!(out, "{sep}{c:.9}");
                            }
                            let _ = writeln!(out);
                        }
                    }
                }
            }
            Response::Error(err) => {
                let _ = writeln!(
                    out,
                    "RESPONSE error code={} message={}",
                    err.code.name(),
                    escape_message(err.wire_message())
                );
            }
        }
    }

    fn decode_response(&self, bytes: &[u8]) -> Result<Response, CodecError> {
        let text = std::str::from_utf8(bytes).map_err(|e| CodecError::Malformed(e.to_string()))?;
        let mut lines = text.lines();
        let header = lines
            .next()
            .ok_or_else(|| CodecError::Malformed("empty response".into()))?;
        let mut parts = header.split_whitespace();
        expect_token(&mut parts, "RESPONSE")?;
        match parts.next() {
            Some("value") => {
                let value = kv_f64(&mut parts, "s")?;
                Ok(Response::Value { value })
            }
            Some("no-data") => Ok(Response::NoData),
            Some("value-batch") => {
                check_batch_version(kv_i64(&mut parts, "v")?)?;
                let seq = kv_u32(&mut parts, "seq")?;
                let generation = kv_u64(&mut parts, "gen")?;
                let n = kv_count(&mut parts)?;
                let mut values = buffers::take_values();
                values.reserve(n);
                text_batch_body(header, lines, n, |line| {
                    let mut p = line.split_whitespace();
                    expect_token(&mut p, "v")?;
                    let s = kv_str(&mut p, "s")?;
                    if s == "miss" {
                        values.push(None);
                    } else {
                        let value = s
                            .parse()
                            .map_err(|_| CodecError::Malformed(format!("bad value {s:?}")))?;
                        values.push(Some(value));
                    }
                    Ok(())
                })?;
                Ok(Response::ValueBatch {
                    seq,
                    generation,
                    values,
                })
            }
            Some("busy") => {
                let retry_after_ms = kv_i64(&mut parts, "retry-after-ms")?;
                if !(0..=u32::MAX as i64).contains(&retry_after_ms) {
                    return Err(CodecError::Malformed("bad retry-after-ms".into()));
                }
                Ok(Response::Busy {
                    retry_after_ms: retry_after_ms as u32,
                })
            }
            Some("ingest-ack") => {
                check_batch_version(kv_i64(&mut parts, "v")?)?;
                let seq = kv_u32(&mut parts, "seq")?;
                let durable_upto = kv_u64(&mut parts, "durable")?;
                text_batch_body(header, lines, 0, |_| Ok(()))?;
                Ok(Response::IngestAck { seq, durable_upto })
            }
            Some("cover") => {
                let valid_until = Timestamp::from_secs(kv_i64(&mut parts, "valid-until")?);
                let n = kv_i64(&mut parts, "regions")? as usize;
                let mut regions = Vec::with_capacity(n.min(4096));
                for line in lines {
                    let mut p = line.split_whitespace();
                    expect_token(&mut p, "region")?;
                    let cx = kv_f64(&mut p, "cx")?;
                    let cy = kv_f64(&mut p, "cy")?;
                    let kind = kv_str(&mut p, "model")?;
                    let coeffs = kv_str(&mut p, "coeffs")?;
                    let model = match kind {
                        "mean" => {
                            RegionModel::Mean(coeffs.parse().map_err(|_| {
                                CodecError::Malformed(format!("bad mean {coeffs:?}"))
                            })?)
                        }
                        "linear" => {
                            let vals: Result<Vec<f64>, _> =
                                coeffs.split(',').map(str::parse).collect();
                            let vals = vals
                                .map_err(|_| CodecError::Malformed("bad linear coeffs".into()))?;
                            if vals.len() != LinearModel::COEFFICIENT_COUNT {
                                return Err(CodecError::Malformed(format!(
                                    "expected {} coeffs, got {}",
                                    LinearModel::COEFFICIENT_COUNT,
                                    vals.len()
                                )));
                            }
                            let mut arr = [0.0; LinearModel::COEFFICIENT_COUNT];
                            arr.copy_from_slice(&vals);
                            RegionModel::Linear(LinearModel::from_coefficients(&arr))
                        }
                        other => {
                            return Err(CodecError::Malformed(format!("bad model kind {other:?}")))
                        }
                    };
                    regions.push(decoded_region(Point::new(cx, cy), model)?);
                }
                if regions.len() != n {
                    return Err(CodecError::Malformed(format!(
                        "declared {n} regions, got {}",
                        regions.len()
                    )));
                }
                Ok(decoded_cover(valid_until, regions))
            }
            Some("error") => {
                let code = ErrorCode::from_name(kv_str(&mut parts, "code")?)
                    .ok_or_else(|| CodecError::Malformed("bad error code".into()))?;
                let message = unescape_message(kv_str(&mut parts, "message")?)?;
                if message.len() > ProtocolError::MAX_MESSAGE_BYTES {
                    return Err(CodecError::Malformed(format!(
                        "error message of {} bytes",
                        message.len()
                    )));
                }
                Ok(Response::Error(ProtocolError { code, message }))
            }
            other => Err(CodecError::Malformed(format!("bad verb {other:?}"))),
        }
    }
}

/// Percent-escapes `%` and whitespace so a diagnostic survives the text
/// codec's whitespace-based tokenizer.
fn escape_message(message: &str) -> String {
    let mut out = String::with_capacity(message.len());
    for c in message.chars() {
        match c {
            '%' | ' ' | '\t' | '\n' | '\r' => {
                out.push('%');
                out.push_str(&format!("{:02X}", c as u32));
            }
            _ => out.push(c),
        }
    }
    out
}

/// Reverses [`escape_message`]; rejects malformed escapes and non-UTF-8.
fn unescape_message(escaped: &str) -> Result<String, CodecError> {
    let bytes = escaped.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes
                .get(i + 1..i + 3)
                .and_then(|h| std::str::from_utf8(h).ok())
                .and_then(|h| u8::from_str_radix(h, 16).ok())
                .ok_or_else(|| CodecError::Malformed("bad escape".into()))?;
            out.push(hex);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|e| CodecError::Malformed(e.to_string()))
}

fn expect_token<'a>(
    parts: &mut impl Iterator<Item = &'a str>,
    want: &str,
) -> Result<(), CodecError> {
    match parts.next() {
        Some(t) if t == want => Ok(()),
        other => Err(CodecError::Malformed(format!(
            "expected {want:?}, got {other:?}"
        ))),
    }
}

fn kv_str<'a>(parts: &mut impl Iterator<Item = &'a str>, key: &str) -> Result<&'a str, CodecError> {
    let token = parts
        .next()
        .ok_or_else(|| CodecError::Malformed(format!("missing {key}")))?;
    token
        .strip_prefix(key)
        .and_then(|rest| rest.strip_prefix('='))
        .ok_or_else(|| CodecError::Malformed(format!("expected {key}=…, got {token:?}")))
}

fn kv_f64<'a>(parts: &mut impl Iterator<Item = &'a str>, key: &str) -> Result<f64, CodecError> {
    kv_str(parts, key)?
        .parse()
        .map_err(|_| CodecError::Malformed(format!("bad float for {key}")))
}

fn kv_i64<'a>(parts: &mut impl Iterator<Item = &'a str>, key: &str) -> Result<i64, CodecError> {
    kv_str(parts, key)?
        .parse()
        .map_err(|_| CodecError::Malformed(format!("bad int for {key}")))
}

fn kv_u64<'a>(parts: &mut impl Iterator<Item = &'a str>, key: &str) -> Result<u64, CodecError> {
    kv_str(parts, key)?
        .parse()
        .map_err(|_| CodecError::Malformed(format!("bad int for {key}")))
}

fn kv_u32<'a>(parts: &mut impl Iterator<Item = &'a str>, key: &str) -> Result<u32, CodecError> {
    kv_str(parts, key)?
        .parse()
        .map_err(|_| CodecError::Malformed(format!("bad int for {key}")))
}

/// The `n=` tuple count of a text batch header, capped at [`MAX_BATCH`].
fn kv_count<'a>(parts: &mut impl Iterator<Item = &'a str>) -> Result<usize, CodecError> {
    let n = kv_str(parts, "n")?
        .parse()
        .map_err(|_| CodecError::Malformed("bad batch header".into()))?;
    check_batch_count(n)?;
    Ok(n)
}

/// Walks the body of a text batch frame: each of the `n` lines before the
/// `crc=` trailer goes to `parse`, and the trailer must hold the CRC-32 of
/// the header and those lines (newlines included).
fn text_batch_body<'a>(
    header: &str,
    lines: impl Iterator<Item = &'a str>,
    n: usize,
    mut parse: impl FnMut(&'a str) -> Result<(), CodecError>,
) -> Result<(), CodecError> {
    let mut hasher = Crc32::new();
    hasher.update(header.as_bytes());
    hasher.update(b"\n");
    let mut trailer = None;
    let mut count = 0;
    for line in lines {
        if trailer.is_some() {
            return Err(CodecError::Malformed("lines after crc trailer".into()));
        }
        if let Some(hex) = line.strip_prefix("crc=") {
            let declared = u32::from_str_radix(hex, 16)
                .map_err(|_| CodecError::Malformed(format!("bad crc {hex:?}")))?;
            trailer = Some(declared);
            continue;
        }
        if count == n {
            return Err(CodecError::Malformed("extra batch lines".into()));
        }
        hasher.update(line.as_bytes());
        hasher.update(b"\n");
        parse(line)?;
        count += 1;
    }
    let declared = trailer.ok_or_else(|| CodecError::Malformed("missing crc trailer".into()))?;
    let computed = hasher.finish();
    if declared != computed {
        return Err(crc_mismatch(declared, computed));
    }
    if count != n {
        return Err(CodecError::Malformed(format!(
            "declared {n} lines, got {count}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cover as it decodes: zeroed diagnostics, window 0, default
    /// pollutant, so a round trip gives it back exactly.
    fn sample_cover() -> ModelCover {
        let region = |centroid, model| CoverRegion {
            centroid,
            model,
            training_error_percent: 0.0,
            population: 0,
        };
        ModelCover {
            pollutant: Pollutant::default(),
            window_id: 0,
            valid_until: Timestamp::from_secs(7_200),
            regions: vec![
                region(Point::new(100.0, -50.0), RegionModel::Mean(421.5)),
                region(
                    Point::new(-300.25, 900.125),
                    RegionModel::Linear(LinearModel::from_coefficients(&[
                        400.0, 1.5, -2.25, 0.125, 10.0, 20.0, 30.0, 1.0, 2.0, 3.0, 350.0, 900.0,
                    ])),
                ),
            ],
        }
    }

    fn codecs() -> Vec<Box<dyn WireCodec>> {
        vec![Box::new(BinaryCodec), Box::new(TextCodec)]
    }

    #[test]
    fn request_roundtrip_all_codecs() {
        let reqs = [
            Request::Query {
                time: Timestamp::from_secs(12_345),
                pos: Point::new(1.5, -2.25),
            },
            Request::ModelRequest {
                time: Timestamp::from_secs(99),
            },
        ];
        for codec in codecs() {
            for req in &reqs {
                let bytes = codec.encode_request(req);
                let back = codec.decode_request(&bytes).unwrap();
                assert_eq!(&back, req, "{}", codec.name());
            }
        }
    }

    #[test]
    fn response_roundtrip_all_codecs() {
        let resps = [
            Response::Value { value: 456.789 },
            Response::NoData,
            Response::Cover(sample_cover()),
            Response::Error(ProtocolError::new(
                ErrorCode::BadRequest,
                "unknown tag 0xFF — resync % retry\n(σ=2)",
            )),
        ];
        for codec in codecs() {
            for resp in &resps {
                let bytes = codec.encode_response(resp);
                let back = codec.decode_response(&bytes).unwrap();
                assert_eq!(&back, resp, "{}", codec.name());
            }
        }
    }

    #[test]
    fn binary_query_is_25_bytes() {
        // tag(1) + time(8) + x(8) + y(8): the payload Figure 7(b) charges
        // per baseline query.
        let bytes = BinaryCodec.encode_request(&Request::Query {
            time: Timestamp::ZERO,
            pos: Point::origin(),
        });
        assert_eq!(bytes.len(), 25);
    }

    #[test]
    fn binary_value_is_9_bytes() {
        let bytes = BinaryCodec.encode_response(&Response::Value { value: 1.0 });
        assert_eq!(bytes.len(), 9);
    }

    #[test]
    fn binary_cover_size_formula() {
        // tag(1) + t_n(8) + count(4) + per region: centroid(16) + model tag(1)
        // + coeffs (8 or 80).
        let bytes = BinaryCodec.encode_response(&Response::Cover(sample_cover()));
        assert_eq!(
            bytes.len(),
            1 + 8 + 4 + (16 + 1 + 8) + (16 + 1 + 8 * LinearModel::COEFFICIENT_COUNT)
        );
    }

    #[test]
    fn text_codec_is_larger_than_binary() {
        let resp = Response::Cover(sample_cover());
        let bin = BinaryCodec.encode_response(&resp).len();
        let txt = TextCodec.encode_response(&resp).len();
        assert!(txt > bin, "text {txt} <= binary {bin}");
    }

    #[test]
    fn binary_rejects_truncated() {
        let bytes = BinaryCodec.encode_response(&Response::Cover(sample_cover()));
        for cut in [0, 1, 5, bytes.len() - 1] {
            assert!(
                BinaryCodec.decode_response(&bytes[..cut]).is_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn binary_rejects_bad_tag() {
        assert_eq!(
            BinaryCodec.decode_request(&[0xFF]),
            Err(CodecError::BadTag(0xFF))
        );
    }

    #[test]
    fn binary_rejects_trailing_garbage() {
        let mut bytes = BinaryCodec.encode_response(&Response::NoData);
        bytes.push(0x00);
        assert!(matches!(
            BinaryCodec.decode_response(&bytes),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn text_rejects_malformed() {
        assert!(TextCodec.decode_request(b"HELLO world\n").is_err());
        assert!(TextCodec
            .decode_response(b"RESPONSE cover valid-until=0 regions=2\n")
            .is_err());
        assert!(TextCodec.decode_response(&[0xFF, 0xFE]).is_err());
    }

    #[test]
    fn error_message_is_bounded_on_the_wire() {
        let long = "x".repeat(10 * ProtocolError::MAX_MESSAGE_BYTES);
        let err = Response::Error(ProtocolError {
            code: ErrorCode::Internal,
            message: long,
        });
        for codec in codecs() {
            let bytes = codec.encode_response(&err);
            assert!(
                bytes.len() < 2 * ProtocolError::MAX_MESSAGE_BYTES,
                "{}: {} bytes",
                codec.name(),
                bytes.len()
            );
            match codec.decode_response(&bytes).unwrap() {
                Response::Error(e) => {
                    assert_eq!(e.message.len(), ProtocolError::MAX_MESSAGE_BYTES);
                }
                other => panic!("{}: {other:?}", codec.name()),
            }
        }
    }

    #[test]
    fn binary_rejects_oversized_error_length() {
        let mut bytes = Vec::new();
        bytes.push(TAG_ERROR);
        bytes.push(1);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            BinaryCodec.decode_response(&bytes),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn binary_rejects_absurd_region_count() {
        let mut bytes = Vec::new();
        bytes.push(0x83);
        bytes.extend_from_slice(&0i64.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(BinaryCodec.decode_response(&bytes).is_err());
    }

    fn sample_batch(n: usize) -> Request {
        Request::QueryBatch {
            seq: 7,
            queries: (0..n)
                .map(|i| {
                    QueryTuple::new(
                        Timestamp::from_secs(i as i64 * 60),
                        Point::new(i as f64 * 1.5, -(i as f64) * 0.25),
                    )
                })
                .collect(),
        }
    }

    #[test]
    fn batch_roundtrip_all_codecs() {
        let values = Response::ValueBatch {
            seq: 9,
            generation: 41,
            values: vec![Some(421.125), None, Some(-3.5), Some(0.0), None],
        };
        for codec in codecs() {
            for n in [0, 1, 5, 64] {
                let req = sample_batch(n);
                let back = codec.decode_request(&codec.encode_request(&req)).unwrap();
                assert_eq!(back, req, "{} n={n}", codec.name());
            }
            let bytes = codec.encode_response(&values);
            assert_eq!(
                codec.decode_response(&bytes).unwrap(),
                values,
                "{}",
                codec.name()
            );
        }
    }

    #[test]
    fn busy_roundtrip_all_codecs() {
        let busy = Response::Busy { retry_after_ms: 25 };
        for codec in codecs() {
            let bytes = codec.encode_response(&busy);
            assert_eq!(
                codec.decode_response(&bytes).unwrap(),
                busy,
                "{}",
                codec.name()
            );
        }
    }

    #[test]
    fn binary_batch_size_formula() {
        // Request (v4): tag(1) + version(1) + seq(4) + count(4) + one
        // varint time delta per tuple (1 byte for 0 and for a 60-s step)
        // + 16 per tuple + crc(4).
        let bytes = BinaryCodec.encode_request(&sample_batch(16));
        assert_eq!(bytes.len(), 14 + 16 * (1 + 16));
        // Reply (v4): tag(1) + version(1) + seq(4) + generation(8) +
        // count(4) + bitmap(⌈n/8⌉) + 8 per present value + crc(4).
        let resp = Response::ValueBatch {
            seq: 1,
            generation: 0,
            values: vec![Some(1.0), None, Some(2.0)],
        };
        assert_eq!(BinaryCodec.encode_response(&resp).len(), 22 + 1 + 2 * 8);
    }

    #[test]
    fn varints_round_trip_at_their_length_boundaries() {
        for (v, len) in [
            (0, 1),
            (-1, 1),
            (63, 1),
            (-64, 1),
            (64, 2),
            (-65, 2),
            (60, 1),
            (2_592_000, 4),
            (i64::MAX, 10),
            (i64::MIN, 10),
        ] {
            let mut out = Vec::new();
            put_varint(v, &mut out);
            assert_eq!(out.len(), len, "{v}");
            let mut rest = out.as_slice();
            assert_eq!(take_varint(&mut rest), Ok(v));
            assert!(rest.is_empty());
        }
    }

    #[test]
    fn batched_frames_cost_fewer_wire_bytes_per_query() {
        // The acceptance criterion of the batching tentpole, at codec level.
        // With one-byte time deltas a batch of n present values costs
        // 36 + 25n + ⌈n/8⌉ bytes against 34n single-query, so it is smaller
        // from batch 5 on (golden_frames.rs pins the break-even).
        let single_req = BinaryCodec.encode_request(&Request::Query {
            time: Timestamp::ZERO,
            pos: Point::origin(),
        });
        let single_resp = BinaryCodec.encode_response(&Response::Value { value: 1.0 });
        for n in [5, 64, 256, 1024] {
            let req = BinaryCodec.encode_request(&sample_batch(n));
            let resp = BinaryCodec.encode_response(&Response::ValueBatch {
                seq: 7,
                generation: 1,
                values: vec![Some(1.0); n],
            });
            assert!(
                req.len() + resp.len() < n * (single_req.len() + single_resp.len()),
                "batch {n}: {} + {} vs {} per query",
                req.len(),
                resp.len(),
                single_req.len() + single_resp.len()
            );
        }
    }

    /// A binary batch frame: `tag`, `version`, `body`, then a CRC-32 over
    /// all of it when `with_crc`.
    fn binary_frame(tag: u8, version: u8, body: &[u8], with_crc: bool) -> Vec<u8> {
        let mut bytes = vec![tag, version];
        bytes.extend_from_slice(body);
        if with_crc {
            let crc = crc32(&bytes);
            bytes.extend_from_slice(&crc.to_le_bytes());
        }
        bytes
    }

    /// A text batch frame with its `crc=` trailer.
    fn text_frame(body: &str) -> Vec<u8> {
        format!("{body}crc={:08X}\n", crc32(body.as_bytes())).into_bytes()
    }

    #[test]
    fn batch_rejects_wrong_version() {
        let mut requests: Vec<(&str, Vec<u8>)> = Vec::new();
        let mut responses: Vec<(&str, Vec<u8>)> = Vec::new();
        // A future version: the current frame with its version bumped
        // (binary: offset 1; text: "v=4").
        for codec in codecs() {
            let mut bytes = codec.encode_request(&sample_batch(2));
            match codec.name() {
                "binary" => bytes[1] = BATCH_VERSION + 1,
                _ => {
                    let s = String::from_utf8(bytes).unwrap();
                    bytes = s.replace(&format!("v={BATCH_VERSION}"), "v=9").into_bytes();
                }
            }
            requests.push((codec.name(), bytes));
        }
        // The retired layouts: v1 (no seq, no CRC), v2 (seq + CRC, no
        // generation) and v3 (24-byte tuples, a flag byte per value).
        let mut tuple = Vec::new();
        tuple.extend_from_slice(&60i64.to_le_bytes());
        tuple.extend_from_slice(&1.5f64.to_le_bytes());
        tuple.extend_from_slice(&(-0.25f64).to_le_bytes());
        let mut v1 = Vec::new();
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&tuple);
        let mut v2 = Vec::new();
        v2.extend_from_slice(&7u32.to_le_bytes());
        v2.extend_from_slice(&v1);
        requests.push(("binary", binary_frame(0x03, 1, &v1, false)));
        requests.push(("binary", binary_frame(0x03, 2, &v2, true)));
        requests.push(("binary", binary_frame(0x03, 3, &v2, true)));
        let mut v1 = Vec::new();
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.push(0x01);
        v1.extend_from_slice(&1.5f64.to_le_bytes());
        let mut v2 = Vec::new();
        v2.extend_from_slice(&9u32.to_le_bytes());
        v2.extend_from_slice(&v1);
        let mut v3 = Vec::new();
        v3.extend_from_slice(&9u32.to_le_bytes());
        v3.extend_from_slice(&41u64.to_le_bytes());
        v3.extend_from_slice(&v1);
        responses.push(("binary", binary_frame(0x85, 1, &v1, false)));
        responses.push(("binary", binary_frame(0x85, 2, &v2, true)));
        responses.push(("binary", binary_frame(0x85, 3, &v3, true)));
        requests.push((
            "text",
            b"REQUEST query-batch v=1 n=1\nq time=60 x=1.500000 y=-0.250000\n".to_vec(),
        ));
        requests.push((
            "text",
            text_frame("REQUEST query-batch v=2 seq=7 n=1\nq time=60 x=1.500000 y=-0.250000\n"),
        ));
        responses.push((
            "text",
            b"RESPONSE value-batch v=1 n=2\nv s=1.500000000\nv s=miss\n".to_vec(),
        ));
        responses.push((
            "text",
            text_frame("RESPONSE value-batch v=2 seq=9 n=1\nv s=1.500000000\n"),
        ));
        requests.push((
            "text",
            text_frame("REQUEST query-batch v=3 seq=7 n=1\nq time=60 x=1.500000 y=-0.250000\n"),
        ));
        responses.push((
            "text",
            text_frame("RESPONSE value-batch v=3 seq=9 gen=41 n=1\nv s=1.500000000\n"),
        ));

        let codec = |name: &str| -> Box<dyn WireCodec> {
            match name {
                "binary" => Box::new(BinaryCodec),
                _ => Box::new(TextCodec),
            }
        };
        let decoded = requests
            .iter()
            .map(|(name, bytes)| (name, codec(name).decode_request(bytes).map(|_| ())))
            .chain(
                responses
                    .iter()
                    .map(|(name, bytes)| (name, codec(name).decode_response(bytes).map(|_| ()))),
            );
        for (name, result) in decoded {
            match result {
                Err(CodecError::Malformed(m)) => {
                    assert!(m.contains("version"), "{name}: {m}")
                }
                other => panic!("{name}: {other:?}"),
            }
        }
    }

    #[test]
    fn batch_rejects_corrupted_crc() {
        // Flip one payload bit: the length and structure stay plausible,
        // only the checksum can catch it.
        for codec in codecs() {
            let good = codec.encode_request(&sample_batch(3));
            // A tuple byte well past the header (binary offset 20 is inside
            // tuple 0; for text, flip a digit character mid-frame).
            let mut bad = good.clone();
            let idx = good.len() / 2;
            bad[idx] ^= 0x01;
            let decoded = codec.decode_request(&bad);
            assert!(
                decoded.is_err() || decoded.ok() != Some(sample_batch(3)),
                "{}: corruption must not decode to the original",
                codec.name()
            );
        }
        // And byte-exact CRC coverage on the binary layout: flipping any
        // single payload bit must be rejected, not mis-decoded.
        let good = BinaryCodec.encode_request(&sample_batch(2));
        for idx in 2..good.len() {
            let mut bad = good.clone();
            bad[idx] ^= 0x40;
            assert!(
                BinaryCodec.decode_request(&bad).is_err(),
                "flip at {idx} slipped through"
            );
        }
    }

    #[test]
    fn batch_rejects_oversized_count() {
        // A *valid* CRC over a hostile count: still rejected before any
        // allocation.
        let mut body = Vec::new();
        body.extend_from_slice(&0u32.to_le_bytes());
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        match BinaryCodec.decode_request(&binary_frame(0x03, BATCH_VERSION, &body, true)) {
            Err(CodecError::Malformed(m)) => assert!(m.contains("cap"), "{m}"),
            other => panic!("{other:?}"),
        }
        let text = format!(
            "REQUEST query-batch v={BATCH_VERSION} seq=0 n={}\n",
            MAX_BATCH + 1
        );
        assert!(matches!(
            TextCodec.decode_request(text.as_bytes()),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn batch_rejects_truncation_and_trailing_garbage() {
        let bytes = BinaryCodec.encode_request(&sample_batch(3));
        for cut in [bytes.len() - 1, bytes.len() - 24, 7] {
            assert!(
                BinaryCodec.decode_request(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
        let mut padded = bytes;
        padded.push(0xEE);
        assert!(BinaryCodec.decode_request(&padded).is_err());
        // Text: declared count mismatching the line count, both ways, under
        // a valid CRC.
        let header = |n: usize| format!("REQUEST query-batch v={BATCH_VERSION} seq=0 n={n}\n");
        let short = text_frame(&format!("{}q time=0 x=0 y=0\n", header(2)));
        assert!(TextCodec.decode_request(&short).is_err());
        let long = text_frame(&format!(
            "{}q time=0 x=0 y=0\nq time=1 x=0 y=0\n",
            header(1)
        ));
        assert!(TextCodec.decode_request(&long).is_err());
        // Text: dropping the crc trailer is a decode error.
        let encoded = String::from_utf8(TextCodec.encode_request(&sample_batch(2))).unwrap();
        let without_trailer =
            encoded
                .lines()
                .filter(|l| !l.starts_with("crc="))
                .fold(String::new(), |mut s, l| {
                    s.push_str(l);
                    s.push('\n');
                    s
                });
        assert!(TextCodec
            .decode_request(without_trailer.as_bytes())
            .is_err());
    }

    #[test]
    fn value_batch_rejects_bad_flag() {
        // A presence flag for a slot past the count: one value, its flag
        // set, and the flag of a second slot set in the bitmap's padding.
        let mut body = Vec::new();
        body.extend_from_slice(&1u32.to_le_bytes()); // seq
        body.extend_from_slice(&0u64.to_le_bytes()); // generation
        body.extend_from_slice(&1u32.to_le_bytes());
        body.push(0b11);
        body.extend_from_slice(&1.5f64.to_le_bytes());
        body.extend_from_slice(&2.5f64.to_le_bytes());
        match BinaryCodec.decode_response(&binary_frame(0x85, BATCH_VERSION, &body, true)) {
            Err(CodecError::Malformed(m)) => assert!(m.contains("padding"), "{m}"),
            other => panic!("{other:?}"),
        }
    }

    fn sample_ingest(n: usize) -> Request {
        Request::IngestBatch {
            source: 0xDEAD_BEEF_0042,
            seq: 11,
            tuples: (0..n)
                .map(|i| {
                    RawTuple::new(
                        Timestamp::from_secs(i as i64 * 30),
                        Point::new(i as f64 * 2.5, -(i as f64) * 0.125),
                        400.0 + i as f64,
                    )
                })
                .collect(),
        }
    }

    #[test]
    fn ingest_roundtrip_all_codecs() {
        let ack = Response::IngestAck {
            seq: 11,
            durable_upto: 123_456,
        };
        for codec in codecs() {
            for n in [0, 1, 5, 64] {
                let req = sample_ingest(n);
                let back = codec.decode_request(&codec.encode_request(&req)).unwrap();
                assert_eq!(back, req, "{} n={n}", codec.name());
            }
            let bytes = codec.encode_response(&ack);
            assert_eq!(
                codec.decode_response(&bytes).unwrap(),
                ack,
                "{}",
                codec.name()
            );
        }
    }

    #[test]
    fn binary_ingest_size_formula() {
        // tag(1) + version(1) + source(8) + seq(4) + count(4) + 32 per
        // tuple + crc(4).
        let bytes = BinaryCodec.encode_request(&sample_ingest(16));
        assert_eq!(bytes.len(), 22 + 16 * 32);
        // Ack: tag(1) + version(1) + seq(4) + durable(8) + crc(4).
        let ack = Response::IngestAck {
            seq: 1,
            durable_upto: 2,
        };
        assert_eq!(BinaryCodec.encode_response(&ack).len(), 18);
    }

    #[test]
    fn ingest_rejects_any_single_bit_flip() {
        // Same CRC guarantee the query frames carry: flipping any payload
        // byte of an ingest frame must be a decode error, never a
        // mis-decoded batch. (Offset 0 is the tag — a flip there is a
        // BadTag or a different frame, so start at the version byte.)
        let good = BinaryCodec.encode_request(&sample_ingest(2));
        for idx in 1..good.len() {
            let mut bad = good.clone();
            bad[idx] ^= 0x40;
            assert!(
                BinaryCodec.decode_request(&bad).is_err(),
                "flip at {idx} slipped through"
            );
        }
        let ack = Response::IngestAck {
            seq: 3,
            durable_upto: 99,
        };
        let good = BinaryCodec.encode_response(&ack);
        for idx in 1..good.len() {
            let mut bad = good.clone();
            bad[idx] ^= 0x40;
            assert!(
                BinaryCodec.decode_response(&bad).is_err(),
                "ack flip at {idx} slipped through"
            );
        }
    }

    #[test]
    fn ingest_rejects_truncation_and_oversize() {
        let bytes = BinaryCodec.encode_request(&sample_ingest(3));
        for cut in [1, 7, 21, bytes.len() - 1] {
            assert!(
                BinaryCodec.decode_request(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
        let mut padded = bytes;
        padded.push(0xEE);
        assert!(BinaryCodec.decode_request(&padded).is_err());
        // Hostile count with a valid CRC: rejected at the cap, before any
        // allocation.
        let mut frame = Vec::new();
        frame.push(TAG_INGEST);
        frame.push(BATCH_VERSION);
        frame.extend_from_slice(&1u64.to_le_bytes());
        frame.extend_from_slice(&0u32.to_le_bytes());
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        let crc = crc32(&frame);
        frame.extend_from_slice(&crc.to_le_bytes());
        match BinaryCodec.decode_request(&frame) {
            Err(CodecError::Malformed(m)) => assert!(m.contains("cap"), "{m}"),
            other => panic!("{other:?}"),
        }
        // Text: count/line mismatch is caught even with a valid trailer.
        let body = format!("REQUEST ingest-batch v={BATCH_VERSION} source=1 seq=0 n=2\nb time=0 x=0.000000 y=0.000000 s=1.000000000\n");
        let crc = crc32(body.as_bytes());
        let text = format!("{body}crc={crc:08X}\n");
        assert!(TextCodec.decode_request(text.as_bytes()).is_err());
    }

    #[test]
    fn ingest_rejects_non_finite_tuples() {
        // The durable write path must never ack a tuple it cannot store;
        // the codec is the first line of defence.
        for payload in ["nan", "inf", "-inf"] {
            let body = format!(
                "REQUEST ingest-batch v={BATCH_VERSION} source=1 seq=0 n=1\nb time=0 x=0.000000 y=0.000000 s={payload}\n"
            );
            let crc = crc32(body.as_bytes());
            let text = format!("{body}crc={crc:08X}\n");
            match TextCodec.decode_request(text.as_bytes()) {
                Err(CodecError::Malformed(m)) => assert!(m.contains("non-finite"), "{m}"),
                other => panic!("{payload}: {other:?}"),
            }
        }
        // Binary: patch a stored value to NaN and re-seal the CRC so only
        // the finiteness check can reject it.
        let mut bytes = BinaryCodec.encode_request(&sample_ingest(1));
        let value_at = 18; // tag+ver+source+seq+count, then time(8)+x(8)+y(8)
        bytes.truncate(bytes.len() - 4); // drop the old crc
        bytes[value_at + 24..value_at + 32].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        match BinaryCodec.decode_request(&bytes) {
            Err(CodecError::Malformed(m)) => assert!(m.contains("non-finite"), "{m}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ingest_frames_refuse_a_retired_version() {
        // v3's ingest layout is v4's; only the version byte tells them
        // apart, and v3 is retired with the rest of its frames.
        for codec in codecs() {
            let mut bytes = codec.encode_request(&sample_ingest(1));
            match codec.name() {
                "binary" => bytes[1] = 3,
                _ => {
                    let s = String::from_utf8(bytes).unwrap();
                    bytes = s.replace(&format!("v={BATCH_VERSION}"), "v=3").into_bytes();
                }
            }
            match codec.decode_request(&bytes) {
                Err(CodecError::Malformed(m)) => {
                    assert!(m.contains("version"), "{}: {m}", codec.name())
                }
                other => panic!("{}: {other:?}", codec.name()),
            }
        }
    }

    #[test]
    fn encode_into_appends_without_clearing() {
        // The scratch-buffer contract: encoders append, callers clear.
        let mut out = vec![0xAA];
        BinaryCodec.encode_request_into(
            &Request::ModelRequest {
                time: Timestamp::ZERO,
            },
            &mut out,
        );
        assert_eq!(out[0], 0xAA);
        assert_eq!(out.len(), 1 + 9);
    }
}
