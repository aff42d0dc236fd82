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

use enviro_data::{QueryTuple, RawTuple, Timestamp};
use enviro_geo::Point;
use enviro_net::{BinaryCodec, Request, Response, TextCodec, WireCodec};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
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
            "03",               // version
            "07000000",         // seq
            "02000000",         // count
            "100e000000000000", // tuple 0: time
            "000000000000f83f", //          x
            "000000000000d0bf", //          y
            "2e0e000000000000", // tuple 1: time
            "00000000006189c0", //          x
            "0000000000807b40", //          y
            "47a520a1",         // crc32
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
            "03",               // version
            "09000000",         // seq
            "2900000000000000", // generation
            "02000000",         // count
            "01",               // slot 0: present
            "0000000000527a40", //         value
            "00",               // slot 1: miss
            "d24c0fbc",         // crc32
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
            "03",               // version
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
            "23a13ab5",         // crc32
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
            "03",               // version
            "0b000000",         // seq
            "40e2010000000000", // durable_upto
            "5352a38d",         // crc32
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
        "RESPONSE value-batch v=3 seq=9 gen=41 n=2\n",
        "v s=421.125000000\n",
        "v s=miss\n",
        "crc=401C7AE8\n",
    );
    assert_eq!(
        std::str::from_utf8(&frame).unwrap(),
        golden,
        "text ValueBatch changed"
    );
    assert_eq!(TextCodec.decode_response(&frame).unwrap(), resp);
}

/// What batching buys on the wire: 64 tuples asked as one `QueryBatch` and
/// answered by one `ValueBatch` cost 1 550 + 598 B, against 64 × (25 + 9) B
/// as single `Query`/`Value` frames — 33.5625 B per tuple instead of 34.
#[test]
fn a_batch_of_64_costs_fewer_bytes_per_tuple_than_single_frames() {
    let tuples: Vec<QueryTuple> = (0..64)
        .map(|i| QueryTuple::new(Timestamp::from_secs(60 * i), Point::new(i as f64, 0.5)))
        .collect();
    let single_request = BinaryCodec
        .encode_request(&Request::Query {
            time: tuples[0].time,
            pos: tuples[0].pos,
        })
        .len();
    let single_reply = BinaryCodec
        .encode_response(&Response::Value { value: 421.125 })
        .len();
    assert_eq!((single_request, single_reply), (25, 9));

    let batch_request = BinaryCodec
        .encode_request(&Request::QueryBatch {
            seq: 1,
            queries: tuples,
        })
        .len();
    let batch_reply = BinaryCodec
        .encode_response(&Response::ValueBatch {
            seq: 1,
            generation: 3,
            values: vec![Some(421.125); 64],
        })
        .len();
    assert_eq!((batch_request, batch_reply), (1_550, 598));
    assert!(batch_request + batch_reply < 64 * (single_request + single_reply));
}
