//! Golden wire bytes: the exact frames both codecs put on the wire.
//!
//! The round-trip suites (`codec_props.rs`, the codec unit tests) are
//! self-consistent: an encoder and decoder that agree on a *wrong* CRC
//! kernel or a shuffled field would still pass them. These tests pin the
//! bytes themselves, so any change to the layout or the checksum shows up
//! as a diff against a frame a deployed peer already speaks.

// Harness code, exempt from the library panic policy: an unwrap here
// fails the run loudly, which is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use enviro_data::{Pollutant, QueryTuple, RawTuple, Timestamp};
use enviro_geo::Point;
use enviro_meter::{CoverRegion, LinearModel, ModelCover, RegionModel};
use enviro_net::codec::CodecError;
use enviro_net::{
    BinaryCodec, EnviroClient, ErrorCode, ProtocolError, Request, Response, TextCodec,
    TransportError, Wire, WireCodec,
};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect()
}

fn query_batch() -> Request {
    Request::QueryBatch {
        seq: 7,
        queries: vec![
            QueryTuple::new(Timestamp::from_secs(3_600), Point::new(1.5, -0.25)),
            QueryTuple::new(Timestamp::from_secs(3_630), Point::new(-812.125, 440.0)),
        ],
    }
}

fn value_batch() -> Response {
    Response::ValueBatch {
        seq: 9,
        generation: 41,
        values: vec![Some(421.125), None],
    }
}

fn ingest_batch() -> Request {
    Request::IngestBatch {
        source: 0xDEAD_BEEF_0042,
        seq: 11,
        tuples: vec![
            RawTuple::new(Timestamp::from_secs(60), Point::new(2.5, -0.125), 400.5),
            RawTuple::new(Timestamp::from_secs(90), Point::new(-7.75, 12.0), 1_234.25),
        ],
    }
}

/// Asserts that `frame` is `golden` and that it decodes back to `message`.
fn assert_golden<T: PartialEq + std::fmt::Debug>(
    what: &str,
    frame: &[u8],
    golden: &str,
    decoded: T,
    message: &T,
) {
    assert_eq!(hex(frame), golden, "{what}: wire bytes changed");
    assert_eq!(
        &decoded, message,
        "{what}: golden frame decodes differently"
    );
}

#[test]
fn binary_query_batch_bytes() {
    let req = query_batch();
    let frame = BinaryCodec.encode_request(&req);
    let back = BinaryCodec.decode_request(&frame).unwrap();
    assert_golden(
        "QueryBatch",
        &frame,
        concat!(
            "03",               // tag
            "04",               // version
            "07000000",         // seq
            "02000000",         // count
            "a038",             // tuple 0: time delta 3600, zig-zag 7200
            "3c",               // tuple 1: time delta 30, zig-zag 60
            "000000000000f83f", // tuple 0: x
            "000000000000d0bf", //          y
            "00000000006189c0", // tuple 1: x
            "0000000000807b40", //          y
            "39783923",         // crc32
        ),
        back,
        &req,
    );
}

#[test]
fn binary_value_batch_bytes() {
    let resp = value_batch();
    let frame = BinaryCodec.encode_response(&resp);
    let back = BinaryCodec.decode_response(&frame).unwrap();
    assert_golden(
        "ValueBatch",
        &frame,
        concat!(
            "85",               // tag
            "04",               // version
            "09000000",         // seq
            "2900000000000000", // generation
            "02000000",         // count
            "01",               // bitmap: slot 0 present, slot 1 miss
            "0000000000527a40", // slot 0: value
            "b1c366be",         // crc32
        ),
        back,
        &resp,
    );
}

#[test]
fn binary_ingest_batch_bytes() {
    let req = ingest_batch();
    let frame = BinaryCodec.encode_request(&req);
    let back = BinaryCodec.decode_request(&frame).unwrap();
    assert_golden(
        "IngestBatch",
        &frame,
        concat!(
            "04",               // tag
            "04",               // version
            "4200efbeadde0000", // source
            "0b000000",         // seq
            "02000000",         // count
            "3c00000000000000", // tuple 0: time
            "0000000000000440", //          x
            "000000000000c0bf", //          y
            "0000000000087940", //          value
            "5a00000000000000", // tuple 1: time
            "0000000000001fc0", //          x
            "0000000000002840", //          y
            "0000000000499340", //          value
            "3bef0e6f",         // crc32
        ),
        back,
        &req,
    );
}

#[test]
fn binary_ingest_ack_bytes() {
    let resp = Response::IngestAck {
        seq: 11,
        durable_upto: 123_456,
    };
    let frame = BinaryCodec.encode_response(&resp);
    let back = BinaryCodec.decode_response(&frame).unwrap();
    assert_golden(
        "IngestAck",
        &frame,
        concat!(
            "87",               // tag
            "04",               // version
            "0b000000",         // seq
            "40e2010000000000", // durable_upto
            "0b54d0f0",         // crc32
        ),
        back,
        &resp,
    );
}

#[test]
fn text_value_batch_bytes() {
    let resp = value_batch();
    let frame = TextCodec.encode_response(&resp);
    let golden = concat!(
        "RESPONSE value-batch v=4 seq=9 gen=41 n=2\n",
        "v s=421.125000000\n",
        "v s=miss\n",
        "crc=E411BE50\n",
    );
    assert_eq!(
        std::str::from_utf8(&frame).unwrap(),
        golden,
        "text ValueBatch changed"
    );
    assert_eq!(TextCodec.decode_response(&frame).unwrap(), resp);
}

/// The golden binary `Cover` frame: one mean region, then one linear
/// region whose y scale is the `INFINITY` degenerate-dimension sentinel.
const BINARY_COVER: &str = concat!(
    "83",               // tag
    "201c000000000000", // valid_until
    "02000000",         // region count
    "000000000000f83f", // region 0: centroid x
    "000000000000d0bf", //           centroid y
    "01",               //           model: mean
    "0000000000587a40", //           mean
    "00000000006189c0", // region 1: centroid x
    "0000000000807b40", //           centroid y
    "02",               //           model: linear
    "0000000000007940", //           beta 0
    "0000000000000440", //           beta 1
    "000000000000f4bf", //           beta 2
    "000000000000e03f", //           beta 3
    "00000000000089c0", //           center x
    "0000000000e07a40", //           center y
    "000000000020ac40", //           center t
    "0000000000406f40", //           scale x
    "000000000000f07f", //           scale y: INFINITY
    "0000000000209c40", //           scale t
    "0000000000c07740", //           value range low
    "0000000000c07c40", //           value range high
);

/// The same cover in the text codec.
const TEXT_COVER: &str = concat!(
    "RESPONSE cover valid-until=7200 regions=2\n",
    "region cx=1.500000 cy=-0.250000 model=mean coeffs=421.500000000\n",
    "region cx=-812.125000 cy=440.000000 model=linear coeffs=",
    "400.000000000,2.500000000,-1.250000000,0.500000000,",
    "-800.000000000,430.000000000,3600.000000000,",
    "250.000000000,inf,1800.000000000,",
    "380.000000000,460.000000000\n",
);

/// The cover both golden frames carry, as a client holds it: a cover
/// frame carries no training diagnostics and no window id.
fn golden_cover() -> ModelCover {
    let region = |x, y, model| CoverRegion {
        centroid: Point::new(x, y),
        model,
        training_error_percent: 0.0,
        population: 0,
    };
    ModelCover {
        pollutant: Pollutant::Co2,
        window_id: 0,
        valid_until: Timestamp::from_secs(7_200),
        regions: vec![
            region(1.5, -0.25, RegionModel::Mean(421.5)),
            region(
                -812.125,
                440.0,
                RegionModel::Linear(LinearModel::from_coefficients(&[
                    400.0,
                    2.5,
                    -1.25,
                    0.5,
                    -800.0,
                    430.0,
                    3_600.0,
                    250.0,
                    f64::INFINITY,
                    1_800.0,
                    380.0,
                    460.0,
                ])),
            ),
        ],
    }
}

/// A wire that answers every request with one fixed reply.
struct Canned(Vec<u8>);

impl Wire for Canned {
    fn exchange(&mut self, _request: &[u8]) -> Result<&[u8], TransportError> {
        Ok(&self.0)
    }
}

/// Asserts that a model-cache client fed `frame` caches [`golden_cover`]
/// and that the decoded reply encodes back to `frame` exactly.
fn assert_cover_golden<C: WireCodec + Copy>(codec: C, frame: &[u8]) {
    let reply = codec.decode_response(frame).unwrap();
    assert!(matches!(reply, Response::Cover(_)), "{reply:?}");
    assert_eq!(
        codec.encode_response(&reply),
        frame,
        "{}: Cover wire bytes changed",
        codec.name()
    );
    let mut client = EnviroClient::new(codec, Pollutant::Co2).with_model_cache(true);
    let q = QueryTuple::new(Timestamp::from_secs(3_600), Point::new(2.0, 0.0));
    let mut values = Vec::new();
    client
        .query_batch(&mut Canned(frame.to_vec()), &[q], &mut values)
        .unwrap();
    let want = golden_cover();
    assert_eq!(client.cached_cover(), Some(&want), "{}", codec.name());
    assert_eq!(values, vec![want.interpolate(q.time, &q.pos)]);
}

#[test]
fn binary_cover_bytes() {
    assert_cover_golden(BinaryCodec, &unhex(BINARY_COVER));
}

#[test]
fn text_cover_bytes() {
    assert_cover_golden(TextCodec, TEXT_COVER.as_bytes());
}

/// Asserts that `frame` decodes as `Malformed`: a `Cover` frame has no
/// CRC, so a region no cover could hold must be refused at the decoder,
/// not answer `interpolate` with NaN.
fn assert_malformed(codec: &dyn WireCodec, what: &str, frame: &[u8]) {
    let decoded = codec.decode_response(frame);
    assert!(
        matches!(decoded, Err(CodecError::Malformed(_))),
        "{} {what}: {decoded:?}",
        codec.name()
    );
}

#[test]
fn binary_cover_with_a_bad_region_is_malformed() {
    let golden = unhex(BINARY_COVER);
    // Byte offsets of the patched fields in `BINARY_COVER`.
    for (what, at, value) in [
        ("NaN centroid", 13, f64::NAN),
        ("NaN mean", 30, f64::NAN),
        ("NaN beta", 55, f64::NAN),
        ("negative scale", 111, -250.0),
        ("NaN scale", 119, f64::NAN),
    ] {
        let mut frame = golden.clone();
        frame[at..at + 8].copy_from_slice(&value.to_le_bytes());
        assert_malformed(&BinaryCodec, what, &frame);
    }
}

#[test]
fn text_cover_with_a_bad_region_is_malformed() {
    for (what, from, to) in [
        ("NaN centroid", "cx=1.500000", "cx=NaN"),
        ("NaN mean", "coeffs=421.500000000", "coeffs=NaN"),
        ("NaN beta", "coeffs=400.000000000", "coeffs=NaN"),
        ("negative scale", ",250.000000000,", ",-250.000000000,"),
        ("NaN scale", ",inf,", ",NaN,"),
    ] {
        let frame = TEXT_COVER.replacen(from, to, 1);
        assert_ne!(frame, TEXT_COVER, "{what}: pattern not found");
        assert_malformed(&TextCodec, what, frame.as_bytes());
    }
}

/// `n` tuples one minute apart, from time 0: a trajectory's query stream.
fn trajectory(n: i64) -> Vec<QueryTuple> {
    (0..n)
        .map(|i| QueryTuple::new(Timestamp::from_secs(60 * i), Point::new(i as f64, 0.5)))
        .collect()
}

/// Wire bytes of a `QueryBatch` of `tuples` and its all-present
/// `ValueBatch` reply.
fn batch_exchange_bytes(tuples: Vec<QueryTuple>) -> (usize, usize) {
    let n = tuples.len();
    let request = BinaryCodec
        .encode_request(&Request::QueryBatch {
            seq: 1,
            queries: tuples,
        })
        .len();
    let reply = BinaryCodec
        .encode_response(&Response::ValueBatch {
            seq: 1,
            generation: 3,
            values: vec![Some(421.125); n],
        })
        .len();
    (request, reply)
}

/// Wire bytes of one `Query` frame and its `Value` reply: 25 + 9 B.
fn single_exchange_bytes() -> usize {
    let request = BinaryCodec
        .encode_request(&Request::Query {
            time: Timestamp::from_secs(60),
            pos: Point::new(1.0, 0.5),
        })
        .len();
    let reply = BinaryCodec
        .encode_response(&Response::Value { value: 421.125 })
        .len();
    assert_eq!((request, reply), (25, 9));
    request + reply
}

/// What batching buys on the wire: 64 tuples a minute apart asked as one
/// `QueryBatch` and answered by one `ValueBatch` cost 1 102 + 542 B, against
/// 64 × (25 + 9) B as single `Query`/`Value` frames — 25.6875 B per tuple
/// instead of 34. The request sends each time as a one-byte delta and 16 B
/// of coordinates; the reply sends one bitmap byte per 8 values and each
/// value's 8 B.
#[test]
fn a_batch_of_64_costs_fewer_bytes_per_tuple_than_single_frames() {
    let (request, reply) = batch_exchange_bytes(trajectory(64));
    assert_eq!((request, reply), (1_102, 542));
    assert_eq!(request, 14 + 64 * (1 + 16));
    assert_eq!(reply, 22 + 64 / 8 + 64 * 8);
    assert!(request + reply < 64 * single_exchange_bytes());
}

/// The smallest batch that costs fewer bytes than single frames: a batch of
/// B such tuples costs 36 + 25B + ⌈B/8⌉ B against 34B, so it is smaller from
/// B = 5 on. (With 24-byte tuples and a flag byte per value it cost
/// 36 + 33B, and tied with single frames at B = 36.)
#[test]
fn batches_cost_fewer_bytes_than_single_frames_from_five_tuples() {
    let single = single_exchange_bytes();
    let cheaper: Vec<i64> = (1..=64)
        .filter(|&n| {
            let (request, reply) = batch_exchange_bytes(trajectory(n));
            request + reply < n as usize * single
        })
        .collect();
    assert_eq!(cheaper, (5..=64).collect::<Vec<_>>());
    assert_eq!(
        batch_exchange_bytes(trajectory(4)),
        (14 + 4 * 17, 22 + 1 + 4 * 8)
    );
}

/// A `QueryBatch` of 64 tuples a minute apart: each codec's frame is well
/// past 287 B, so its CRC runs through the kernel's four-lane blocks, not
/// only the single-chain tail the small goldens above reach.
fn query_batch_64() -> Request {
    Request::QueryBatch {
        seq: 1,
        queries: trajectory(64),
    }
}

/// The binary `QueryBatch`-64 frame: its length and its trailing CRC.
#[test]
fn binary_query_batch_of_64_crc_bytes() {
    let req = query_batch_64();
    let frame = BinaryCodec.encode_request(&req);
    assert_eq!(frame.len(), 1_102);
    assert_eq!(hex(&frame[frame.len() - 4..]), "2dcb677e", "crc32");
    assert_eq!(BinaryCodec.decode_request(&frame).unwrap(), req);
}

/// The text `QueryBatch`-64 frame: its length and its trailing CRC line.
#[test]
fn text_query_batch_of_64_crc_bytes() {
    let req = query_batch_64();
    let frame = TextCodec.encode_request(&req);
    let text = std::str::from_utf8(&frame).unwrap();
    assert_eq!(frame.len(), 2_258);
    assert!(text.ends_with("\ncrc=56F3244E\n"), "crc line: {text}");
    assert_eq!(TextCodec.decode_request(&frame).unwrap(), req);
}

// ------------------------------------------------ every other (kind, codec)
//
// The frames above are the batch frames and the cover; these pin the rest,
// so every frame kind is pinned byte for byte in both codecs.

fn query() -> Request {
    Request::Query {
        time: Timestamp::from_secs(3_600),
        pos: Point::new(1.5, -0.25),
    }
}

fn model_request() -> Request {
    Request::ModelRequest {
        time: Timestamp::from_secs(7_200),
    }
}

fn value() -> Response {
    Response::Value { value: 421.125 }
}

fn busy() -> Response {
    Response::Busy {
        retry_after_ms: 250,
    }
}

fn ingest_ack() -> Response {
    Response::IngestAck {
        seq: 11,
        durable_upto: 123_456,
    }
}

/// An error whose message holds the characters the text codec escapes.
fn error() -> Response {
    Response::Error(ProtocolError::new(
        ErrorCode::BadRequest,
        "bad frame: 5% lost",
    ))
}

/// Asserts that the text `frame` is `golden` and decodes back to `message`.
fn assert_text_golden<T: PartialEq + std::fmt::Debug>(
    what: &str,
    frame: &[u8],
    golden: &str,
    decoded: T,
    message: &T,
) {
    assert_eq!(
        std::str::from_utf8(frame).unwrap(),
        golden,
        "text {what}: wire bytes changed"
    );
    assert_eq!(
        &decoded, message,
        "text {what}: golden frame decodes differently"
    );
}

#[test]
fn binary_query_bytes() {
    let req = query();
    let frame = BinaryCodec.encode_request(&req);
    let back = BinaryCodec.decode_request(&frame).unwrap();
    assert_golden(
        "Query",
        &frame,
        concat!(
            "01",               // tag
            "100e000000000000", // time
            "000000000000f83f", // x
            "000000000000d0bf", // y
        ),
        back,
        &req,
    );
}

#[test]
fn binary_model_request_bytes() {
    let req = model_request();
    let frame = BinaryCodec.encode_request(&req);
    let back = BinaryCodec.decode_request(&frame).unwrap();
    assert_golden(
        "ModelRequest",
        &frame,
        concat!(
            "02",               // tag
            "201c000000000000", // time
        ),
        back,
        &req,
    );
}

#[test]
fn binary_value_bytes() {
    let resp = value();
    let frame = BinaryCodec.encode_response(&resp);
    let back = BinaryCodec.decode_response(&frame).unwrap();
    assert_golden(
        "Value",
        &frame,
        concat!(
            "81",               // tag
            "0000000000527a40", // value
        ),
        back,
        &resp,
    );
}

#[test]
fn binary_no_data_bytes() {
    let frame = BinaryCodec.encode_response(&Response::NoData);
    let back = BinaryCodec.decode_response(&frame).unwrap();
    assert_golden("NoData", &frame, "82", back, &Response::NoData);
}

#[test]
fn binary_busy_bytes() {
    let resp = busy();
    let frame = BinaryCodec.encode_response(&resp);
    let back = BinaryCodec.decode_response(&frame).unwrap();
    assert_golden(
        "Busy",
        &frame,
        concat!(
            "86",       // tag
            "fa000000", // retry_after_ms
        ),
        back,
        &resp,
    );
}

#[test]
fn binary_error_bytes() {
    let resp = error();
    let frame = BinaryCodec.encode_response(&resp);
    let back = BinaryCodec.decode_response(&frame).unwrap();
    assert_golden(
        "Error",
        &frame,
        concat!(
            "84",                                   // tag
            "01",                                   // code: bad request
            "12000000",                             // message length
            "626164206672616d653a203525206c6f7374", // message
        ),
        back,
        &resp,
    );
}

#[test]
fn text_query_bytes() {
    let req = query();
    let frame = TextCodec.encode_request(&req);
    let back = TextCodec.decode_request(&frame).unwrap();
    assert_text_golden(
        "Query",
        &frame,
        "REQUEST query time=3600 x=1.500000 y=-0.250000\n",
        back,
        &req,
    );
}

#[test]
fn text_model_request_bytes() {
    let req = model_request();
    let frame = TextCodec.encode_request(&req);
    let back = TextCodec.decode_request(&frame).unwrap();
    assert_text_golden(
        "ModelRequest",
        &frame,
        "REQUEST model-request time=7200\n",
        back,
        &req,
    );
}

#[test]
fn text_query_batch_bytes() {
    let req = query_batch();
    let frame = TextCodec.encode_request(&req);
    let back = TextCodec.decode_request(&frame).unwrap();
    assert_text_golden(
        "QueryBatch",
        &frame,
        concat!(
            "REQUEST query-batch v=4 seq=7 n=2\n",
            "q time=3600 x=1.500000 y=-0.250000\n",
            "q time=3630 x=-812.125000 y=440.000000\n",
            "crc=74A23DE5\n",
        ),
        back,
        &req,
    );
}

#[test]
fn text_ingest_batch_bytes() {
    let req = ingest_batch();
    let frame = TextCodec.encode_request(&req);
    let back = TextCodec.decode_request(&frame).unwrap();
    assert_text_golden(
        "IngestBatch",
        &frame,
        concat!(
            "REQUEST ingest-batch v=4 source=244837814042690 seq=11 n=2\n",
            "b time=60 x=2.500000 y=-0.125000 s=400.500000000\n",
            "b time=90 x=-7.750000 y=12.000000 s=1234.250000000\n",
            "crc=05342A8A\n",
        ),
        back,
        &req,
    );
}

#[test]
fn text_ingest_ack_bytes() {
    let resp = ingest_ack();
    let frame = TextCodec.encode_response(&resp);
    let back = TextCodec.decode_response(&frame).unwrap();
    assert_text_golden(
        "IngestAck",
        &frame,
        concat!(
            "RESPONSE ingest-ack v=4 seq=11 durable=123456\n",
            "crc=681A2038\n",
        ),
        back,
        &resp,
    );
}

#[test]
fn text_value_bytes() {
    let resp = value();
    let frame = TextCodec.encode_response(&resp);
    let back = TextCodec.decode_response(&frame).unwrap();
    assert_text_golden(
        "Value",
        &frame,
        "RESPONSE value s=421.125000000\n",
        back,
        &resp,
    );
}

#[test]
fn text_no_data_bytes() {
    let frame = TextCodec.encode_response(&Response::NoData);
    let back = TextCodec.decode_response(&frame).unwrap();
    assert_text_golden(
        "NoData",
        &frame,
        "RESPONSE no-data\n",
        back,
        &Response::NoData,
    );
}

#[test]
fn text_busy_bytes() {
    let resp = busy();
    let frame = TextCodec.encode_response(&resp);
    let back = TextCodec.decode_response(&frame).unwrap();
    assert_text_golden(
        "Busy",
        &frame,
        "RESPONSE busy retry-after-ms=250\n",
        back,
        &resp,
    );
}

#[test]
fn text_error_bytes() {
    let resp = error();
    let frame = TextCodec.encode_response(&resp);
    let back = TextCodec.decode_response(&frame).unwrap();
    assert_text_golden(
        "Error",
        &frame,
        "RESPONSE error code=bad-request message=bad%20frame:%205%25%20lost\n",
        back,
        &resp,
    );
}
