//! Wire codecs with byte-exact accounting.
//!
//! Figure 7(b) counts the bytes a phone transmits and receives, so the wire
//! format is explicit rather than delegated to a serialization framework.
//! Each frame kind is declared once, in [`REQUEST_FRAMES`] and
//! [`RESPONSE_FRAMES`]: its tag byte, its text verb, its [`Envelope`] and
//! its fields in wire order, each of a field kind and with its text `key=`
//! names. Two codecs implement the same [`WireCodec`] trait, each by laying
//! out every field kind once:
//!
//! * [`BinaryCodec`] — the production format: little-endian fixed layouts,
//!   one tag byte per message (message sizes are dominated by `f64`
//!   payloads; length prefixes are `u32`). Only the batch frames shed what
//!   a trajectory repeats: a `QueryBatch` sends each time as a zig-zag
//!   LEB128 varint of its delta from the one before, and a `ValueBatch`
//!   marks misses in a presence bitmap instead of a flag byte per value.
//! * [`TextCodec`] — a verbose human-readable format standing in for the
//!   JSON-over-HTTP encodings typical of 2013 mobile backends; the
//!   `abl-codec` ablation quantifies what the binary layout saves. A frame
//!   is a header line (`REQUEST` or `RESPONSE`, the verb, then ` key=value`
//!   tokens), then a line per row of a row kind.

use crate::buffers;
use crate::protocol::{ErrorCode, ProtocolError, Request, Response, BATCH_VERSION, MAX_BATCH};
use enviro_data::{Pollutant, QueryTuple, RawTuple, Timestamp};
use enviro_geo::Point;
use enviro_meter::{CoverRegion, LinearModel, ModelCover, RegionModel};
use enviro_storage::crc::crc32;
use enviro_storage::record::{decode_record, encode_records, RECORD_SIZE};
use std::io::Write;
use std::str::{Lines, SplitWhitespace};

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

/// Every decode error but truncation and a bad tag; cold, so the checks
/// on the hot decode loops stay cheap.
#[cold]
fn malformed(message: impl Into<String>) -> CodecError {
    CodecError::Malformed(message.into())
}

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
// The frame schema
// ---------------------------------------------------------------------------

/// How a frame wraps its fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Envelope {
    /// The tag byte (binary) or the verb (text), then the fields.
    Plain,
    /// As `Plain`, with [`BATCH_VERSION`] ahead of the fields (binary: a
    /// byte; text: `v=`) and a CRC-32 of all before it after them (binary:
    /// 4 bytes; text: a `crc=` line of 8 hex digits).
    Batch,
}

/// One field of a frame kind: its kind, as the declaration names it, and
/// the text `key=` names of the tokens it puts on the header line.
#[derive(Debug)]
pub struct FieldSpec {
    /// The field kind: the type that carries it.
    pub kind: &'static str,
    /// Its text keys.
    pub keys: &'static [&'static str],
}

/// One frame kind, as [`REQUEST_FRAMES`] and [`RESPONSE_FRAMES`] declare it.
#[derive(Debug)]
pub struct FrameSpec {
    /// The `Request` or `Response` variant it carries.
    pub name: &'static str,
    /// Its binary tag byte.
    pub tag: u8,
    /// Its text verb.
    pub verb: &'static str,
    /// How its fields are wrapped.
    pub envelope: Envelope,
    /// Its fields, in wire order. A row kind comes last.
    pub fields: &'static [FieldSpec],
}

/// Declares a message type's frame kinds: the public table, and the
/// [`Message`] impl both codecs work through. A field's kind is the type
/// that implements [`Field`] for it, so the compiler checks it against the
/// variant's field.
macro_rules! frames {
    (@spec $variant:ident $tag:literal $verb:literal $env:ident
        $($kind:ty [$($key:literal),*])*) => {
        FrameSpec {
            name: stringify!($variant),
            tag: $tag,
            verb: $verb,
            envelope: Envelope::$env,
            fields: &[$(FieldSpec { kind: stringify!($kind), keys: &[$($key),*] }),*],
        }
    };
    ($(#[$doc:meta])* $frames:ident: $msg:ident $word:literal {
        $($variant:ident = $tag:literal, $verb:literal, $env:ident {
            $($field:tt: $kind:ty [$($key:literal),*]),*
        }),* $(,)?
    }) => {
        $(#[$doc])*
        pub const $frames: &[FrameSpec] = &[$(
            frames!(@spec $variant $tag $verb $env $($kind [$($key),*])*)
        ),*];

        impl Message for $msg {
            const FRAMES: &'static [FrameSpec] = $frames;
            const WORD: &'static str = $word;

            fn frame(&self) -> &'static FrameSpec {
                match self {$(
                    $msg::$variant { .. } => const {
                        &frames!(@spec $variant $tag $verb $env $($kind [$($key),*])*)
                    },
                )*}
            }

            fn put_fields(&self, out: &mut impl FieldWriter) {
                $($(if let $msg::$variant { $field: value, .. } = self {
                    out.field::<$kind>(value, &[$($key),*]);
                })*)*
            }

            fn take_fields(tag: u8, from: &mut impl FieldReader) -> Result<Self, CodecError> {
                match tag {
                    $($tag => Ok($msg::$variant {
                        $($field: from.field::<$kind>(&[$($key),*])?),*
                    }),)*
                    other => Err(CodecError::BadTag(other)),
                }
            }
        }
    };
}

frames! {
    /// The request frames, client to server.
    REQUEST_FRAMES: Request "REQUEST" {
        Query = 0x01, "query", Plain { time: Timestamp["time"], pos: Point["x", "y"] },
        ModelRequest = 0x02, "model-request", Plain { time: Timestamp["time"] },
        QueryBatch = 0x03, "query-batch", Batch { seq: u32["seq"], queries: Queries["n"] },
        IngestBatch = 0x04, "ingest-batch", Batch {
            source: u64["source"], seq: u32["seq"], tuples: Tuples["n"]
        },
    }
}

frames! {
    /// The response frames, server to client.
    RESPONSE_FRAMES: Response "RESPONSE" {
        Value = 0x81, "value", Plain { value: f64["s"] },
        NoData = 0x82, "no-data", Plain {},
        Cover = 0x83, "cover", Plain { 0: ModelCover["valid-until", "regions"] },
        Error = 0x84, "error", Plain { 0: ProtocolError["code", "message"] },
        ValueBatch = 0x85, "value-batch", Batch {
            seq: u32["seq"], generation: u64["gen"], values: Values["n"]
        },
        Busy = 0x86, "busy", Plain { retry_after_ms: u32["retry-after-ms"] },
        IngestAck = 0x87, "ingest-ack", Batch { seq: u32["seq"], durable_upto: u64["durable"] },
    }
}

/// A message type whose frame kinds `frames!` declares.
trait Message: Sized {
    const FRAMES: &'static [FrameSpec];
    /// The first token of a text frame.
    const WORD: &'static str;
    fn frame(&self) -> &'static FrameSpec;
    /// Hands each field to `out`, in wire order.
    fn put_fields(&self, out: &mut impl FieldWriter);
    /// Builds the message of frame kind `tag` from fields read off `from`.
    fn take_fields(tag: u8, from: &mut impl FieldReader) -> Result<Self, CodecError>;
}

trait FieldWriter {
    fn field<F: Field>(&mut self, value: &F, keys: &F::Keys);
}

trait FieldReader {
    fn field<F: Field>(&mut self, keys: &F::Keys) -> Result<F, CodecError>;
}

/// A field kind: how a value of it goes on the wire in each codec.
trait Field: Sized {
    /// Its text `key=` names, one per header token.
    type Keys;
    fn put(&self, out: &mut Vec<u8>);
    /// Reads the value off the front of `bytes`; a row kind may take all
    /// that is left of the frame's body.
    fn take(bytes: &mut &[u8]) -> Result<Self, CodecError>;
    /// Appends ` key=value` tokens; a row kind then appends its rows, each
    /// on a line of its own.
    fn write(&self, keys: &Self::Keys, out: &mut Vec<u8>);
    fn read(keys: &Self::Keys, text: &mut TextIn<'_>) -> Result<Self, CodecError>;
}

type Key = [&'static str; 1];
type KeyPair = [&'static str; 2];

/// Implements [`WireCodec`] on a codec's `encode` and `decode`.
macro_rules! wire_codec {
    ($codec:ident, $name:literal) => {
        impl WireCodec for $codec {
            fn name(&self) -> &'static str {
                $name
            }

            fn encode_request_into(&self, req: &Request, out: &mut Vec<u8>) {
                Self::encode(req, out);
            }

            fn decode_request(&self, bytes: &[u8]) -> Result<Request, CodecError> {
                Self::decode(bytes)
            }

            fn encode_response_into(&self, resp: &Response, out: &mut Vec<u8>) {
                Self::encode(resp, out);
            }

            fn decode_response(&self, bytes: &[u8]) -> Result<Response, CodecError> {
                Self::decode(bytes)
            }
        }
    };
}

wire_codec!(BinaryCodec, "binary");
wire_codec!(TextCodec, "text");

// ---------------------------------------------------------------------------
// Binary codec
// ---------------------------------------------------------------------------

/// The compact binary codec (production format).
#[derive(Debug, Clone, Copy, Default)]
pub struct BinaryCodec;

impl BinaryCodec {
    fn encode(msg: &impl Message, out: &mut Vec<u8>) {
        let frame = msg.frame();
        let start = out.len();
        out.push(frame.tag);
        if frame.envelope == Envelope::Batch {
            out.push(BATCH_VERSION);
            msg.put_fields(out);
            let crc = crc32(&out[start..]);
            out.extend_from_slice(&crc.to_le_bytes());
        } else {
            msg.put_fields(out);
        }
    }

    fn decode<M: Message>(frame: &[u8]) -> Result<M, CodecError> {
        let mut body = frame;
        let tag = u8::take(&mut body)?;
        let spec = M::FRAMES.iter().find(|f| f.tag == tag);
        if spec.ok_or(CodecError::BadTag(tag))?.envelope == Envelope::Batch {
            take_batch_envelope(frame, &mut body)?;
        }
        let msg = M::take_fields(tag, &mut body)?;
        ensure_empty(body)?;
        Ok(msg)
    }
}

impl FieldWriter for Vec<u8> {
    fn field<F: Field>(&mut self, value: &F, _: &F::Keys) {
        value.put(self);
    }
}

impl FieldReader for &[u8] {
    fn field<F: Field>(&mut self, _: &F::Keys) -> Result<F, CodecError> {
        F::take(self)
    }
}

/// Takes the version byte of a binary batch frame and verifies its
/// trailing CRC-32.
///
/// `frame` is the whole message; `rest` is the still-unparsed suffix past
/// the tag. On return `rest` starts after the version byte and ends before
/// the 4-byte trailer, so the caller's `ensure_empty` sees a clean
/// end-of-frame.
fn take_batch_envelope(frame: &[u8], rest: &mut &[u8]) -> Result<(), CodecError> {
    check_batch_version(i64::from(u8::take(rest)?))?;
    let (body, trailer) = rest.split_last_chunk().ok_or(CodecError::Truncated)?;
    let declared = u32::from_le_bytes(*trailer);
    let computed = crc32(&frame[..frame.len() - 4]);
    if declared != computed {
        return Err(crc_mismatch(declared, computed));
    }
    *rest = body;
    Ok(())
}

fn ensure_empty(bytes: &[u8]) -> Result<(), CodecError> {
    if !bytes.is_empty() {
        return Err(malformed(format!("{} trailing bytes", bytes.len())));
    }
    Ok(())
}

/// Builds the CRC-mismatch error shared by both codecs.
fn crc_mismatch(declared: u32, computed: u32) -> CodecError {
    malformed(format!(
        "batch CRC mismatch: frame says {declared:#010x}, computed {computed:#010x}"
    ))
}

/// Rejects every batch version but [`BATCH_VERSION`]. Checked *before*
/// the CRC so a peer speaking another layout gets a version diagnostic,
/// not a checksum mismatch.
fn check_batch_version(version: i64) -> Result<(), CodecError> {
    if version != i64::from(BATCH_VERSION) {
        return Err(malformed(format!("unsupported batch version {version}")));
    }
    Ok(())
}

/// Rejects a batch count above [`MAX_BATCH`] before anything is allocated
/// for it.
fn check_batch_count(count: usize) -> Result<usize, CodecError> {
    if count > MAX_BATCH {
        return Err(malformed(format!(
            "batch of {count} tuples exceeds the {MAX_BATCH} cap"
        )));
    }
    Ok(count)
}

// ---------------------------------------------------------------------------
// Text codec (ablation)
// ---------------------------------------------------------------------------

/// A verbose line-oriented text codec, standing in for JSON-over-HTTP.
#[derive(Debug, Clone, Copy, Default)]
pub struct TextCodec;

impl TextCodec {
    fn encode<M: Message>(msg: &M, out: &mut Vec<u8>) {
        // `write!` into a `Vec<u8>` cannot fail; the results are discarded
        // rather than unwrapped to honor the workspace panic policy.
        let frame = msg.frame();
        let start = out.len();
        let _ = write!(out, "{} {}", M::WORD, frame.verb);
        if frame.envelope == Envelope::Batch {
            let _ = write!(out, " v={BATCH_VERSION}");
            msg.put_fields(&mut Text(out));
            out.push(b'\n');
            let crc = crc32(&out[start..]);
            let _ = writeln!(out, "crc={crc:08X}");
        } else {
            msg.put_fields(&mut Text(out));
            out.push(b'\n');
        }
    }

    fn decode<M: Message>(bytes: &[u8]) -> Result<M, CodecError> {
        let mut text = std::str::from_utf8(bytes).map_err(|e| malformed(e.to_string()))?;
        let header = text
            .lines()
            .next()
            .ok_or_else(|| malformed("empty frame"))?;
        let mut parts = header.split_whitespace();
        expect_token(&mut parts, M::WORD)?;
        let verb = parts.next();
        let spec = M::FRAMES.iter().find(|f| Some(f.verb) == verb);
        let spec = spec.ok_or_else(|| malformed(format!("bad verb {verb:?}")))?;
        let batch = spec.envelope == Envelope::Batch;
        if batch {
            check_batch_version(kv(&mut parts, "v")?)?;
            text = take_text_trailer(text)?;
        }
        let mut lines = text.lines();
        lines.next();
        let mut text = TextIn { parts, lines };
        let msg = M::take_fields(spec.tag, &mut text)?;
        if batch && text.lines.next().is_some() {
            return Err(malformed("extra batch lines"));
        }
        Ok(msg)
    }
}

/// Splits the `crc=` trailer line off a text batch frame, which must hold
/// the CRC-32 of all the frame's bytes before it.
fn take_text_trailer(text: &str) -> Result<&str, CodecError> {
    let (body, hex) = text
        .strip_suffix('\n')
        .unwrap_or(text)
        .rsplit_once("\ncrc=")
        .ok_or_else(|| malformed("missing crc trailer"))?;
    let declared =
        u32::from_str_radix(hex, 16).map_err(|_| malformed(format!("bad crc {hex:?}")))?;
    let computed = crc32(&text.as_bytes()[..=body.len()]);
    if declared != computed {
        return Err(crc_mismatch(declared, computed));
    }
    Ok(body)
}

struct Text<'a>(&'a mut Vec<u8>);

impl FieldWriter for Text<'_> {
    fn field<F: Field>(&mut self, value: &F, keys: &F::Keys) {
        value.write(keys, self.0);
    }
}

/// A text frame, or one of its rows, being read: the tokens of its line
/// not read yet, and the lines after it (a batch frame's trailer already
/// checked and cut off).
struct TextIn<'a> {
    parts: SplitWhitespace<'a>,
    lines: Lines<'a>,
}

impl FieldReader for TextIn<'_> {
    fn field<F: Field>(&mut self, keys: &F::Keys) -> Result<F, CodecError> {
        F::read(keys, self)
    }
}

impl<'a> TextIn<'a> {
    /// Reads `n` row lines onto `into`, each led by the token `lead` and
    /// the rest read by `row`.
    fn rows<T>(
        &mut self,
        n: usize,
        lead: &str,
        mut into: Vec<T>,
        mut row: impl FnMut(&mut TextIn<'a>) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        into.reserve(n.min(MAX_BATCH));
        for got in 0..n {
            let line = self.lines.next();
            let line = line.ok_or_else(|| malformed(format!("declared {n} lines, got {got}")))?;
            let mut parts = line.split_whitespace();
            expect_token(&mut parts, lead)?;
            let lines = "".lines();
            into.push(row(&mut TextIn { parts, lines })?);
        }
        Ok(into)
    }
}

fn expect_token(parts: &mut SplitWhitespace<'_>, want: &str) -> Result<(), CodecError> {
    match parts.next() {
        Some(t) if t == want => Ok(()),
        other => Err(malformed(format!("expected {want:?}, got {other:?}"))),
    }
}

fn kv_str<'a>(parts: &mut SplitWhitespace<'a>, key: &str) -> Result<&'a str, CodecError> {
    let token = parts
        .next()
        .ok_or_else(|| malformed(format!("missing {key}")))?;
    token
        .strip_prefix(key)
        .and_then(|rest| rest.strip_prefix('='))
        .ok_or_else(|| malformed(format!("expected {key}=…, got {token:?}")))
}

fn kv<T: std::str::FromStr>(parts: &mut SplitWhitespace<'_>, key: &str) -> Result<T, CodecError> {
    let value = kv_str(parts, key)?;
    value
        .parse()
        .map_err(|_| malformed(format!("bad {key} {value:?}")))
}

// ---------------------------------------------------------------------------
// The field kinds
// ---------------------------------------------------------------------------

/// The fixed-width little-endian numbers. In text an `f64` prints with 9
/// decimals.
macro_rules! numbers {
    ($($ty:ty: $format:literal),*) => {$(
        impl Field for $ty {
            type Keys = Key;

            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn take(bytes: &mut &[u8]) -> Result<Self, CodecError> {
                let (head, rest) = bytes.split_first_chunk().ok_or(CodecError::Truncated)?;
                *bytes = rest;
                Ok(Self::from_le_bytes(*head))
            }

            fn write(&self, &[key]: &Key, out: &mut Vec<u8>) {
                let _ = write!(out, concat!(" {}=", $format), key, self);
            }

            fn read(&[key]: &Key, text: &mut TextIn<'_>) -> Result<Self, CodecError> {
                kv(&mut text.parts, key)
            }
        }
    )*};
}

numbers!(u8: "{}", u32: "{}", u64: "{}", i64: "{}", f64: "{:.9}");

/// A time, as its `i64` seconds.
impl Field for Timestamp {
    type Keys = Key;

    fn put(&self, out: &mut Vec<u8>) {
        self.as_secs().put(out);
    }

    fn take(bytes: &mut &[u8]) -> Result<Self, CodecError> {
        i64::take(bytes).map(Timestamp::from_secs)
    }

    fn write(&self, keys: &Key, out: &mut Vec<u8>) {
        self.as_secs().write(keys, out);
    }

    fn read(keys: &Key, text: &mut TextIn<'_>) -> Result<Self, CodecError> {
        i64::read(keys, text).map(Timestamp::from_secs)
    }
}

/// Bytes of a point.
const POINT_SIZE: usize = 16;

fn encode_point(pos: &Point) -> [u8; POINT_SIZE] {
    let mut rec = [0; POINT_SIZE];
    rec[..8].copy_from_slice(&pos.x.to_le_bytes());
    rec[8..].copy_from_slice(&pos.y.to_le_bytes());
    rec
}

/// Decodes a point, refusing a non-finite coordinate.
fn decode_point(rec: &[u8; POINT_SIZE]) -> Result<Point, CodecError> {
    let (mut x, mut y) = ([0u8; 8], [0u8; 8]);
    x.copy_from_slice(&rec[..8]);
    y.copy_from_slice(&rec[8..]);
    finite(Point::new(f64::from_le_bytes(x), f64::from_le_bytes(y)))
}

/// A point: `f64 x` then `f64 y`, in text with 6 decimals. A non-finite
/// coordinate is `Malformed`, so no query or centroid carries a NaN into an
/// answer.
impl Field for Point {
    type Keys = KeyPair;

    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&encode_point(self));
    }

    fn take(bytes: &mut &[u8]) -> Result<Self, CodecError> {
        let (rec, rest) = bytes.split_first_chunk().ok_or(CodecError::Truncated)?;
        *bytes = rest;
        decode_point(rec)
    }

    fn write(&self, &[x, y]: &KeyPair, out: &mut Vec<u8>) {
        let _ = write!(out, " {x}={:.6} {y}={:.6}", self.x, self.y);
    }

    fn read(&[x, y]: &KeyPair, text: &mut TextIn<'_>) -> Result<Self, CodecError> {
        finite(Point::new(kv(&mut text.parts, x)?, kv(&mut text.parts, y)?))
    }
}

fn finite(pos: Point) -> Result<Point, CodecError> {
    if !pos.is_finite() {
        return Err(malformed("non-finite coordinate"));
    }
    Ok(pos)
}

/// Reads a binary batch frame's `u32` row count, capped.
fn take_count(bytes: &mut &[u8]) -> Result<usize, CodecError> {
    check_batch_count(u32::take(bytes)? as usize)
}

/// Reads a text batch frame's ` n=` row count, capped.
fn read_count(&[key]: &Key, text: &mut TextIn<'_>) -> Result<usize, CodecError> {
    check_batch_count(kv(&mut text.parts, key)?)
}

/// Writes a row kind in text: its ` key=` count, then each row on a line
/// of its own, led by `lead`.
fn write_rows<T>(
    rows: &[T],
    key: &'static str,
    lead: &[u8],
    out: &mut Vec<u8>,
    row: impl Fn(&T, &mut Vec<u8>),
) {
    (rows.len() as u32).write(&[key], out);
    for r in rows {
        out.push(b'\n');
        out.extend_from_slice(lead);
        row(r, out);
    }
}

/// Splits `n` fixed-width records of `N` bytes off the front of `bytes`.
fn take_records<'a, const N: usize>(
    bytes: &mut &'a [u8],
    n: usize,
) -> Result<&'a [[u8; N]], CodecError> {
    // The cheap structural check before touching any pool or allocator.
    let (records, rest) = bytes.split_at_checked(n * N).ok_or(CodecError::Truncated)?;
    *bytes = rest;
    Ok(records.as_chunks::<N>().0)
}

/// The fewest bytes a `QueryBatch` tuple takes: a one-byte time delta and
/// its point.
const MIN_QUERY_SIZE: usize = 1 + POINT_SIZE;
/// The most bytes a LEB128 varint of a `u64` takes.
const MAX_VARINT_LEN: usize = 10;

/// The `QueryBatch` rows.
type Queries = Vec<QueryTuple>;
/// The `ValueBatch` rows.
type Values = Vec<Option<f64>>;
/// The `IngestBatch` rows.
type Tuples = Vec<RawTuple>;

/// The `QueryBatch` rows. Binary: the count, each time as a zig-zag varint
/// of its delta from the one before (from 0), then each point. Text:
/// `q time= x= y=` lines.
impl Field for Queries {
    type Keys = Key;

    fn put(&self, out: &mut Vec<u8>) {
        out.reserve(8 + self.len() * (MAX_VARINT_LEN + POINT_SIZE));
        (self.len() as u32).put(out);
        let mut prev = 0i64;
        for q in self {
            let time = q.time.as_secs();
            put_varint(time.wrapping_sub(prev), out);
            prev = time;
        }
        for q in self {
            out.extend_from_slice(&encode_point(&q.pos));
        }
    }

    fn take(bytes: &mut &[u8]) -> Result<Self, CodecError> {
        let n = take_count(bytes)?;
        // The cheap structural check before touching the pool.
        if n > bytes.len() / MIN_QUERY_SIZE {
            return Err(CodecError::Truncated);
        }
        let body = std::mem::take(bytes);
        let (mut times, points) = body.split_at(body.len() - n * POINT_SIZE);
        let mut queries = buffers::take_queries();
        queries.reserve(n);
        let mut time = 0i64;
        for rec in points.as_chunks::<POINT_SIZE>().0 {
            time = time.wrapping_add(take_varint(&mut times)?);
            queries.push(QueryTuple::new(
                Timestamp::from_secs(time),
                decode_point(rec)?,
            ));
        }
        ensure_empty(times)?;
        Ok(queries)
    }

    fn write(&self, &[key]: &Key, out: &mut Vec<u8>) {
        write_rows(self, key, b"q", out, |q, out| {
            q.time.write(&["time"], out);
            q.pos.write(&["x", "y"], out);
        });
    }

    fn read(keys: &Key, text: &mut TextIn<'_>) -> Result<Self, CodecError> {
        let n = read_count(keys, text)?;
        text.rows(n, "q", buffers::take_queries(), |row| {
            let time = Timestamp::read(&["time"], row)?;
            Ok(QueryTuple::new(time, Point::read(&["x", "y"], row)?))
        })
    }
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
        let byte = u8::take(bytes)?;
        if shift == 63 && byte > 1 {
            return Err(malformed("varint overflows 64 bits"));
        }
        z |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            if byte == 0 && shift > 0 {
                return Err(malformed("varint has a redundant zero byte"));
            }
            return Ok((z >> 1) as i64 ^ -((z & 1) as i64));
        }
        shift += 7;
    }
}

/// The `ValueBatch` rows. Binary: the count, a presence bitmap (slot `i` is
/// bit `i % 8` of byte `i / 8`; padding bits clear), then the present
/// values. Text: `v s=` lines, a miss as `s=miss`.
impl Field for Values {
    type Keys = Key;

    fn put(&self, out: &mut Vec<u8>) {
        out.reserve(8 + self.len().div_ceil(8) + self.len() * 8);
        (self.len() as u32).put(out);
        for slots in self.chunks(8) {
            let byte = slots
                .iter()
                .enumerate()
                .fold(0u8, |byte, (bit, v)| byte | u8::from(v.is_some()) << bit);
            out.push(byte);
        }
        for value in self.iter().flatten() {
            value.put(out);
        }
    }

    fn take(bytes: &mut &[u8]) -> Result<Self, CodecError> {
        let n = take_count(bytes)?;
        let (bitmap, mut rest) = std::mem::take(bytes)
            .split_at_checked(n.div_ceil(8))
            .ok_or(CodecError::Truncated)?;
        let tail_slots = n % 8;
        if tail_slots != 0 && bitmap.last().is_some_and(|&byte| byte >> tail_slots != 0) {
            return Err(malformed("bitmap padding bits set"));
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
        Ok(values)
    }

    fn write(&self, &[key]: &Key, out: &mut Vec<u8>) {
        write_rows(self, key, b"v", out, |v, out| match v {
            Some(value) => value.write(&["s"], out),
            None => out.extend_from_slice(b" s=miss"),
        });
    }

    fn read(keys: &Key, text: &mut TextIn<'_>) -> Result<Self, CodecError> {
        let n = read_count(keys, text)?;
        text.rows(n, "v", buffers::take_values(), |row| {
            match kv_str(&mut row.parts, "s")? {
                "miss" => Ok(None),
                s => s
                    .parse()
                    .map(Some)
                    .map_err(|_| malformed(format!("bad value {s:?}"))),
            }
        })
    }
}

/// The `IngestBatch` rows. Binary: the count, then
/// [`enviro_storage::record`]'s 32-byte records. Text: `b time= x= y= s=`
/// lines. A non-finite tuple is `Malformed`: the durable write path must
/// never ack a tuple it cannot store.
impl Field for Tuples {
    type Keys = Key;

    fn put(&self, out: &mut Vec<u8>) {
        out.reserve(8 + self.len() * RECORD_SIZE);
        (self.len() as u32).put(out);
        encode_records(self, out);
    }

    fn take(bytes: &mut &[u8]) -> Result<Self, CodecError> {
        let n = take_count(bytes)?;
        let mut tuples = Vec::with_capacity(n);
        for rec in take_records::<RECORD_SIZE>(bytes, n)? {
            tuples.push(finite_tuple(decode_record(rec))?);
        }
        Ok(tuples)
    }

    fn write(&self, &[key]: &Key, out: &mut Vec<u8>) {
        write_rows(self, key, b"b", out, |t, out| {
            t.time.write(&["time"], out);
            t.pos.write(&["x", "y"], out);
            t.value.write(&["s"], out);
        });
    }

    fn read(keys: &Key, text: &mut TextIn<'_>) -> Result<Self, CodecError> {
        let n = read_count(keys, text)?;
        text.rows(n, "b", Vec::new(), |row| {
            let time = Timestamp::read(&["time"], row)?;
            let pos = Point::read(&["x", "y"], row)?;
            finite_tuple(RawTuple::new(time, pos, f64::read(&["s"], row)?))
        })
    }
}

fn finite_tuple(tuple: RawTuple) -> Result<RawTuple, CodecError> {
    if !tuple.is_finite() {
        return Err(malformed("non-finite ingest tuple"));
    }
    Ok(tuple)
}

const MODEL_MEAN: u8 = 0x01;
const MODEL_LINEAR: u8 = 0x02;

/// A region's model: its tag (`model=mean` or `model=linear` in text),
/// then its coefficients (comma-separated in text).
impl Field for RegionModel {
    type Keys = KeyPair;

    fn put(&self, out: &mut Vec<u8>) {
        with_coefficients(self, |tag, coeffs| {
            out.push(tag);
            coeffs.iter().for_each(|c| c.put(out));
        });
    }

    fn take(bytes: &mut &[u8]) -> Result<Self, CodecError> {
        let tag = u8::take(bytes)?;
        let n = match tag {
            MODEL_MEAN => 1,
            MODEL_LINEAR => LinearModel::COEFFICIENT_COUNT,
            other => return Err(CodecError::BadTag(other)),
        };
        let mut coeffs = [0.0; LinearModel::COEFFICIENT_COUNT];
        for c in &mut coeffs[..n] {
            *c = f64::take(bytes)?;
        }
        model(tag, &coeffs[..n])
    }

    fn write(&self, &[model, coeffs]: &KeyPair, out: &mut Vec<u8>) {
        with_coefficients(self, |tag, values| {
            let name = if tag == MODEL_MEAN { "mean" } else { "linear" };
            let _ = write!(out, " {model}={name} {coeffs}=");
            for (i, c) in values.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                let _ = write!(out, "{sep}{c:.9}");
            }
        });
    }

    fn read(&[kind, coeffs]: &KeyPair, text: &mut TextIn<'_>) -> Result<Self, CodecError> {
        let tag = match kv_str(&mut text.parts, kind)? {
            "mean" => MODEL_MEAN,
            "linear" => MODEL_LINEAR,
            other => return Err(malformed(format!("bad model kind {other:?}"))),
        };
        let values: Result<Vec<f64>, _> = kv_str(&mut text.parts, coeffs)?
            .split(',')
            .map(str::parse)
            .collect();
        model(tag, &values.map_err(|_| malformed("bad coeffs"))?)
    }
}

/// Hands `f` the model's tag and coefficients: a mean's one value, or a
/// linear model's [`LinearModel::to_coefficients`].
fn with_coefficients(model: &RegionModel, f: impl FnOnce(u8, &[f64])) {
    match model {
        RegionModel::Mean(v) => f(MODEL_MEAN, &[*v]),
        RegionModel::Linear(m) => f(MODEL_LINEAR, &m.to_coefficients()),
    }
}

fn model(tag: u8, coeffs: &[f64]) -> Result<RegionModel, CodecError> {
    match (tag, coeffs.try_into()) {
        (MODEL_MEAN, _) if coeffs.len() == 1 => Ok(RegionModel::Mean(coeffs[0])),
        (MODEL_LINEAR, Ok(c)) => Ok(RegionModel::Linear(LinearModel::from_coefficients(c))),
        _ => Err(malformed(format!(
            "{} coeffs for model {tag}",
            coeffs.len()
        ))),
    }
}

/// Bytes of the smallest `Cover` region: a point, the model tag and a
/// mean's `f64`.
const MIN_WIRE_REGION_SIZE: usize = POINT_SIZE + 1 + 8;

/// The `Cover` payload: its `valid-until` time, then its regions, each a
/// centroid and a model. Binary: the count, then the regions. Text:
/// `region cx= cy= model= coeffs=` lines.
///
/// The window id and the pollutant are not sent, so a decoded cover reads
/// 0 and the default (the client stamps its own pollutant), and its
/// regions' training diagnostics read zero. A region that could not answer
/// a query honestly (see [`CoverRegion::check_queryable`]) is `Malformed`:
/// the frame has no CRC, and a NaN centroid or mean would otherwise reach
/// the client's answers.
impl Field for ModelCover {
    type Keys = KeyPair;

    fn put(&self, out: &mut Vec<u8>) {
        self.valid_until.put(out);
        (self.regions.len() as u32).put(out);
        for r in &self.regions {
            r.centroid.put(out);
            r.model.put(out);
        }
    }

    fn take(bytes: &mut &[u8]) -> Result<Self, CodecError> {
        let valid_until = Timestamp::take(bytes)?;
        let n = u32::take(bytes)? as usize;
        // The frame has no CRC, so bound the count by the bytes present
        // before allocating for it.
        if n > bytes.len() / MIN_WIRE_REGION_SIZE {
            return Err(CodecError::Truncated);
        }
        let mut regions = Vec::with_capacity(n);
        for _ in 0..n {
            regions.push(decoded_region(
                Point::take(bytes)?,
                RegionModel::take(bytes)?,
            )?);
        }
        Ok(decoded_cover(valid_until, regions))
    }

    fn write(&self, &[until, count]: &KeyPair, out: &mut Vec<u8>) {
        self.valid_until.write(&[until], out);
        write_rows(&self.regions, count, b"region", out, |r, out| {
            r.centroid.write(&["cx", "cy"], out);
            r.model.write(&["model", "coeffs"], out);
        });
    }

    fn read(&[until, count]: &KeyPair, text: &mut TextIn<'_>) -> Result<Self, CodecError> {
        let valid_until = Timestamp::read(&[until], text)?;
        let n = kv(&mut text.parts, count)?;
        let regions = text.rows(n, "region", Vec::new(), |row| {
            let centroid = Point::read(&["cx", "cy"], row)?;
            decoded_region(centroid, RegionModel::read(&["model", "coeffs"], row)?)
        })?;
        if text.lines.next().is_some() {
            return Err(malformed(format!("more than the declared {n} regions")));
        }
        Ok(decoded_cover(valid_until, regions))
    }
}

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

fn decoded_cover(valid_until: Timestamp, regions: Vec<CoverRegion>) -> ModelCover {
    ModelCover {
        pollutant: Pollutant::default(),
        window_id: 0,
        valid_until,
        regions,
    }
}

/// The error payload: its code ([`ErrorCode::as_u8`], or
/// [`ErrorCode::name`] in text) and its [`ProtocolError::wire_message`],
/// after a `u32` length in binary and with `%` and whitespace
/// percent-escaped in text.
impl Field for ProtocolError {
    type Keys = KeyPair;

    fn put(&self, out: &mut Vec<u8>) {
        self.code.as_u8().put(out);
        let message = self.wire_message().as_bytes();
        (message.len() as u32).put(out);
        out.extend_from_slice(message);
    }

    fn take(bytes: &mut &[u8]) -> Result<Self, CodecError> {
        let code = error_code(ErrorCode::from_u8(u8::take(bytes)?))?;
        let len = check_message_len(u32::take(bytes)? as usize)?;
        let (message, rest) = bytes.split_at_checked(len).ok_or(CodecError::Truncated)?;
        *bytes = rest;
        let message = std::str::from_utf8(message).map_err(|e| malformed(e.to_string()))?;
        Ok(ProtocolError {
            code,
            message: message.to_string(),
        })
    }

    fn write(&self, &[code, message]: &KeyPair, out: &mut Vec<u8>) {
        let _ = write!(out, " {code}={} {message}=", self.code.name());
        for c in self.wire_message().chars() {
            let _ = match c {
                '%' | ' ' | '\t' | '\n' | '\r' => write!(out, "%{:02X}", c as u32),
                _ => write!(out, "{c}"),
            };
        }
    }

    fn read(&[code, message]: &KeyPair, text: &mut TextIn<'_>) -> Result<Self, CodecError> {
        let code = error_code(ErrorCode::from_name(kv_str(&mut text.parts, code)?))?;
        let mut pieces = kv_str(&mut text.parts, message)?.split('%');
        let mut bytes = pieces.next().unwrap_or_default().as_bytes().to_vec();
        for piece in pieces {
            let escape = piece.get(..2).and_then(|h| u8::from_str_radix(h, 16).ok());
            bytes.push(escape.ok_or_else(|| malformed("bad escape"))?);
            bytes.extend_from_slice(&piece.as_bytes()[2..]);
        }
        let message = String::from_utf8(bytes).map_err(|e| malformed(e.to_string()))?;
        check_message_len(message.len())?;
        Ok(ProtocolError { code, message })
    }
}

fn error_code(code: Option<ErrorCode>) -> Result<ErrorCode, CodecError> {
    code.ok_or_else(|| malformed("bad error code"))
}

fn check_message_len(len: usize) -> Result<usize, CodecError> {
    if len > ProtocolError::MAX_MESSAGE_BYTES {
        return Err(malformed(format!("error message of {len} bytes")));
    }
    Ok(len)
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
        bytes.push(0x84); // Error
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
        frame.push(0x04); // IngestBatch
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

    #[test]
    fn a_row_kind_is_only_ever_a_frames_last_field() {
        // Text rows follow the header line, so a field after them would
        // land on the last row.
        let rows = ["Queries", "Values", "Tuples", "ModelCover"];
        for frame in REQUEST_FRAMES.iter().chain(RESPONSE_FRAMES) {
            let before_last = frame.fields.split_last().map_or(&[][..], |(_, init)| init);
            assert!(
                before_last.iter().all(|f| !rows.contains(&f.kind)),
                "{}",
                frame.name
            );
        }
    }

    #[test]
    fn design_doc_lists_every_declared_frame() {
        let design = include_str!("../../../DESIGN.md");
        for frame in REQUEST_FRAMES.iter().chain(RESPONSE_FRAMES) {
            let fields: Vec<String> = frame
                .fields
                .iter()
                .map(|f| format!("`{}[{}]`", f.kind, f.keys.join(", ")))
                .collect();
            let envelope = match frame.envelope {
                Envelope::Plain => "plain",
                Envelope::Batch => "batch",
            };
            let fields = if fields.is_empty() {
                "none".to_string()
            } else {
                fields.join(" ")
            };
            let row = format!(
                "| `{}` | `{:#04x}` | `{}` | {envelope} | {fields} |",
                frame.name, frame.tag, frame.verb
            );
            assert!(design.contains(&row), "DESIGN.md lacks the row\n{row}");
        }
    }
}
