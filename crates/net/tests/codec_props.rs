//! Property tests for both codecs, driven by a hand-rolled seeded
//! generator (no external property-testing dependency).
//!
//! This suite subsumes the earlier proptest-based `codec_fuzz` tests —
//! round-trips, truncation/garbage robustness, bit-flip safety — and adds
//! the v2 framing guarantees (sequence numbers, CRC detection of every
//! single-bit flip), `Busy` replies, and the `MAX_BATCH`/empty-batch
//! boundaries. Every failure prints the case seed; re-run a single case
//! with `CODEC_PROP_SEED=<suite seed>`.

// Harness code, exempt from the library panic policy: an unwrap here
// fails the run loudly, which is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::ops::Range;
use std::panic::AssertUnwindSafe;

use enviro_data::{Pollutant, QueryTuple, RawTuple, Timestamp};
use enviro_geo::Point;
use enviro_meter::{CoverRegion, LinearModel, ModelCover, RegionModel};
use enviro_net::codec::{CodecError, REQUEST_FRAMES, RESPONSE_FRAMES};
use enviro_net::{
    BinaryCodec, ErrorCode, ProtocolError, Request, Response, TextCodec, WireCodec, XorShiftRng,
    MAX_BATCH,
};
use enviro_storage::crc::crc32;

/// Cases per property. Each case derives its own seed from the suite
/// seed, so any failure is reproducible in isolation.
const CASES: u64 = 128;

/// Default suite seed; override with `CODEC_PROP_SEED=<u64>`.
const SUITE_SEED: u64 = 0xC0DE_C0DE_0000_0001;

fn suite_seed() -> u64 {
    std::env::var("CODEC_PROP_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(SUITE_SEED)
}

/// Runs `f` for [`CASES`] independently seeded RNGs, reporting the exact
/// case seed on failure.
fn for_each_case(property: &str, f: impl Fn(&mut XorShiftRng)) {
    let suite = suite_seed();
    for case in 0..CASES {
        let case_seed = suite ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = XorShiftRng::new(case_seed);
        if let Err(panic) = std::panic::catch_unwind(AssertUnwindSafe(|| f(&mut rng))) {
            eprintln!(
                "property '{property}' failed at case {case} \
                 (case seed {case_seed:#x}); rerun with CODEC_PROP_SEED={suite}"
            );
            std::panic::resume_unwind(panic);
        }
    }
}

// ---------------------------------------------------------------- generators

/// A finite f64 in roughly `[-1e12, 1e12]` — large enough to stress the
/// formatting paths, small enough to stay finite through them.
fn finite(rng: &mut XorShiftRng) -> f64 {
    (rng.next_f64() - 0.5) * 2.0e12
}

fn tuple(rng: &mut XorShiftRng) -> QueryTuple {
    QueryTuple::new(
        Timestamp::from_secs(rng.next_u64() as i64),
        Point::new(finite(rng), finite(rng)),
    )
}

fn batch_request(rng: &mut XorShiftRng, max_tuples: u64) -> Request {
    let n = rng.next_in_range(0, max_tuples) as usize;
    Request::QueryBatch {
        seq: rng.next_u64() as u32,
        queries: (0..n).map(|_| tuple(rng)).collect(),
    }
}

/// A random request of the frame kind the codec declares as `name`.
fn request_of(name: &str, rng: &mut XorShiftRng) -> Request {
    match name {
        "Query" => Request::Query {
            time: Timestamp::from_secs(rng.next_u64() as i64),
            pos: Point::new(finite(rng), finite(rng)),
        },
        "ModelRequest" => Request::ModelRequest {
            time: Timestamp::from_secs(rng.next_u64() as i64),
        },
        "QueryBatch" => batch_request(rng, 40),
        "IngestBatch" => Request::IngestBatch {
            source: rng.next_u64(),
            seq: rng.next_u64() as u32,
            tuples: (0..rng.next_in_range(0, 40))
                .map(|_| {
                    let time = Timestamp::from_secs(rng.next_u64() as i64);
                    RawTuple::new(time, Point::new(finite(rng), finite(rng)), finite(rng))
                })
                .collect(),
        },
        other => panic!("no generator for the request frame {other}"),
    }
}

/// A query, a model request or a query batch: the requests the round-trip
/// properties below compare field by field.
fn request(rng: &mut XorShiftRng) -> Request {
    let name = ["Query", "ModelRequest", "QueryBatch"][rng.next_in_range(0, 2) as usize];
    request_of(name, rng)
}

fn value_batch(rng: &mut XorShiftRng) -> Response {
    let n = rng.next_in_range(0, 40) as usize;
    value_batch_of(rng, n)
}

/// A `ValueBatch` of `n` random slots, about half of them misses.
fn value_batch_of(rng: &mut XorShiftRng, n: usize) -> Response {
    Response::ValueBatch {
        seq: rng.next_u64() as u32,
        generation: rng.next_u64(),
        values: (0..n)
            .map(|_| (rng.next_u64() & 1 == 1).then(|| finite(rng)))
            .collect(),
    }
}

/// A model that passes `RegionModel::check_invariants`, so the decoders
/// accept it: finite coefficients, positive scales (one in four the
/// `INFINITY` sentinel) and an ordered value range.
fn model(rng: &mut XorShiftRng) -> RegionModel {
    if rng.next_u64() & 1 == 0 {
        return RegionModel::Mean(finite(rng));
    }
    let mut c = [0.0; LinearModel::COEFFICIENT_COUNT];
    for v in &mut c[..7] {
        *v = finite(rng);
    }
    for v in &mut c[7..10] {
        *v = if rng.next_u64().is_multiple_of(4) {
            f64::INFINITY
        } else {
            finite(rng).abs() + 1.0
        };
    }
    let (a, b) = (finite(rng), finite(rng));
    c[10] = a.min(b);
    c[11] = a.max(b);
    RegionModel::Linear(LinearModel::from_coefficients(&c))
}

/// Diagnostic alphabet: letters, digits, codec-hostile specials
/// (whitespace, `%`, `=`), and multi-byte UTF-8.
const MESSAGE_CHARS: &[char] = &[
    'a', 'b', 'z', 'A', 'Z', '0', '9', '%', ' ', '\t', '\n', '\r', '=', '-', '_', ':', '.', 'µ',
    'σ', '€', '💧',
];

fn protocol_error(rng: &mut XorShiftRng) -> ProtocolError {
    let code = match rng.next_in_range(0, 2) {
        0 => ErrorCode::BadRequest,
        1 => ErrorCode::Unsupported,
        _ => ErrorCode::Internal,
    };
    let len = rng.next_in_range(0, 80) as usize;
    let message: String = (0..len)
        .map(|_| MESSAGE_CHARS[rng.next_in_range(0, MESSAGE_CHARS.len() as u64 - 1) as usize])
        .collect();
    ProtocolError::new(code, message)
}

/// A cover as it decodes: the wire carries no training diagnostics, window
/// id or pollutant, so they are zeroed here and the round trip stays exact.
fn cover(rng: &mut XorShiftRng) -> Response {
    let n = rng.next_in_range(0, 12) as usize;
    Response::Cover(ModelCover {
        pollutant: Pollutant::default(),
        window_id: 0,
        valid_until: Timestamp::from_secs(rng.next_u64() as i64),
        regions: (0..n)
            .map(|_| CoverRegion {
                centroid: Point::new(finite(rng), finite(rng)),
                model: model(rng),
                training_error_percent: 0.0,
                population: 0,
            })
            .collect(),
    })
}

/// A random response of the frame kind the codec declares as `name`.
fn response_of(name: &str, rng: &mut XorShiftRng) -> Response {
    match name {
        "Value" => Response::Value { value: finite(rng) },
        "NoData" => Response::NoData,
        "Error" => Response::Error(protocol_error(rng)),
        "ValueBatch" => value_batch(rng),
        "Busy" => Response::Busy {
            retry_after_ms: rng.next_u64() as u32,
        },
        "Cover" => cover(rng),
        "IngestAck" => Response::IngestAck {
            seq: rng.next_u64() as u32,
            durable_upto: rng.next_u64(),
        },
        other => panic!("no generator for the response frame {other}"),
    }
}

/// Every response but an ingest ack.
fn response(rng: &mut XorShiftRng) -> Response {
    let names = ["Value", "NoData", "Error", "ValueBatch", "Busy", "Cover"];
    response_of(names[rng.next_in_range(0, 5) as usize], rng)
}

fn garbage(rng: &mut XorShiftRng, max_len: u64) -> Vec<u8> {
    let n = rng.next_in_range(0, max_len) as usize;
    (0..n).map(|_| rng.next_u64() as u8).collect()
}

fn approx(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * (1.0 + b.abs())
}

// ---------------------------------------------------------------- roundtrips

#[test]
fn binary_request_roundtrip() {
    for_each_case("binary_request_roundtrip", |rng| {
        let req = request(rng);
        let bytes = BinaryCodec.encode_request(&req);
        assert_eq!(BinaryCodec.decode_request(&bytes).unwrap(), req);
    });
}

#[test]
fn binary_response_roundtrip() {
    for_each_case("binary_response_roundtrip", |rng| {
        let resp = response(rng);
        let bytes = BinaryCodec.encode_response(&resp);
        assert_eq!(BinaryCodec.decode_response(&bytes).unwrap(), resp);
    });
}

#[test]
fn text_request_roundtrip_up_to_coordinate_precision() {
    for_each_case("text_request_roundtrip", |rng| {
        let req = request(rng);
        let bytes = TextCodec.encode_request(&req);
        // Positions print with 6 decimals; compare fields accordingly.
        match (TextCodec.decode_request(&bytes).unwrap(), req) {
            (Request::Query { time: t1, pos: p1 }, Request::Query { time: t2, pos: p2 }) => {
                assert_eq!(t1, t2);
                assert!(approx(p1.x, p2.x, 1e-6));
                assert!(approx(p1.y, p2.y, 1e-6));
            }
            (Request::ModelRequest { time: t1 }, Request::ModelRequest { time: t2 }) => {
                assert_eq!(t1, t2)
            }
            (
                Request::QueryBatch {
                    seq: s1,
                    queries: q1,
                },
                Request::QueryBatch {
                    seq: s2,
                    queries: q2,
                },
            ) => {
                assert_eq!(s1, s2, "sequence numbers must survive the text codec");
                assert_eq!(q1.len(), q2.len());
                for (a, b) in q1.iter().zip(&q2) {
                    assert_eq!(a.time, b.time);
                    assert!(approx(a.pos.x, b.pos.x, 1e-6));
                    assert!(approx(a.pos.y, b.pos.y, 1e-6));
                }
            }
            other => panic!("variant mismatch: {other:?}"),
        }
    });
}

#[test]
fn text_value_batch_roundtrip_up_to_value_precision() {
    for_each_case("text_value_batch_roundtrip", |rng| {
        let resp = value_batch(rng);
        let bytes = TextCodec.encode_response(&resp);
        let (
            Response::ValueBatch {
                seq: s1,
                generation: g1,
                values: v1,
            },
            Response::ValueBatch {
                seq: s2,
                generation: g2,
                values: v2,
            },
        ) = (TextCodec.decode_response(&bytes).unwrap(), resp)
        else {
            panic!("value batch decoded to a different variant");
        };
        assert_eq!(s1, s2);
        assert_eq!(g1, g2);
        assert_eq!(v1.len(), v2.len());
        for (a, b) in v1.iter().zip(&v2) {
            match (a, b) {
                // Values print with 9 decimals.
                (Some(a), Some(b)) => assert!(approx(*a, *b, 1e-9), "{a} vs {b}"),
                (None, None) => {}
                other => panic!("hit/miss flag flipped: {other:?}"),
            }
        }
    });
}

#[test]
fn text_error_roundtrip_is_exact() {
    for_each_case("text_error_roundtrip", |rng| {
        // Error diagnostics carry whitespace and `%`, the characters the
        // text codec's escaping exists for — they must survive exactly.
        let resp = Response::Error(protocol_error(rng));
        let bytes = TextCodec.encode_response(&resp);
        assert_eq!(TextCodec.decode_response(&bytes).unwrap(), resp);
    });
}

#[test]
fn busy_roundtrip_both_codecs() {
    for_each_case("busy_roundtrip", |rng| {
        let resp = Response::Busy {
            retry_after_ms: rng.next_u64() as u32,
        };
        let bin = BinaryCodec.encode_response(&resp);
        assert_eq!(BinaryCodec.decode_response(&bin).unwrap(), resp);
        let text = TextCodec.encode_response(&resp);
        assert_eq!(TextCodec.decode_response(&text).unwrap(), resp);
    });
}

/// Every frame kind the codec declares has a generator above and round
/// trips through both codecs: exactly in binary, under its declared tag,
/// and in text under its declared verb, to a message of the same kind.
#[test]
fn every_declared_frame_kind_round_trips() {
    fn same_kind<T>(a: &T, b: &T) -> bool {
        std::mem::discriminant(a) == std::mem::discriminant(b)
    }
    for_each_case("declared_frames", |rng| {
        for frame in REQUEST_FRAMES {
            let req = request_of(frame.name, rng);
            let bytes = BinaryCodec.encode_request(&req);
            assert_eq!(bytes[0], frame.tag, "{}", frame.name);
            assert_eq!(BinaryCodec.decode_request(&bytes).unwrap(), req);
            let text = TextCodec.encode_request(&req);
            assert!(text.starts_with(format!("REQUEST {} ", frame.verb).as_bytes()));
            assert!(same_kind(&TextCodec.decode_request(&text).unwrap(), &req));
        }
        for frame in RESPONSE_FRAMES {
            let resp = response_of(frame.name, rng);
            let bytes = BinaryCodec.encode_response(&resp);
            assert_eq!(bytes[0], frame.tag, "{}", frame.name);
            assert_eq!(BinaryCodec.decode_response(&bytes).unwrap(), resp);
            let text = TextCodec.encode_response(&resp);
            let header = format!("RESPONSE {}", frame.verb);
            assert!(text.starts_with(header.as_bytes()), "{}", frame.name);
            assert!(same_kind(&TextCodec.decode_response(&text).unwrap(), &resp));
        }
    });
}

// ------------------------------------------------------------- adversarial

#[test]
fn binary_decoders_survive_truncation() {
    for_each_case("binary_truncation", |rng| {
        let req = request(rng);
        let bytes = BinaryCodec.encode_request(&req);
        let cut = rng.next_in_range(0, bytes.len() as u64) as usize;
        // Either decodes to the original (only possible when nothing was
        // cut) or errors — never panics, never fabricates.
        match BinaryCodec.decode_request(&bytes[..cut]) {
            Ok(decoded) => {
                assert_eq!(cut, bytes.len());
                assert_eq!(decoded, req);
            }
            Err(_) => assert!(cut < bytes.len()),
        }

        let resp = response(rng);
        let bytes = BinaryCodec.encode_response(&resp);
        let cut = rng.next_in_range(0, bytes.len() as u64) as usize;
        match BinaryCodec.decode_response(&bytes[..cut]) {
            Ok(decoded) => {
                assert_eq!(cut, bytes.len());
                assert_eq!(decoded, resp);
            }
            Err(_) => assert!(cut < bytes.len()),
        }
    });
}

#[test]
fn decoders_never_panic_on_garbage() {
    for_each_case("garbage", |rng| {
        let bytes = garbage(rng, 512);
        let _ = BinaryCodec.decode_request(&bytes);
        let _ = BinaryCodec.decode_response(&bytes);
        let _ = TextCodec.decode_request(&bytes);
        let _ = TextCodec.decode_response(&bytes);
    });
}

#[test]
fn bit_flips_never_panic_either_codec() {
    for_each_case("bit_flips_never_panic", |rng| {
        let req = request(rng);
        let resp = response(rng);
        for bytes in [
            BinaryCodec.encode_request(&req),
            BinaryCodec.encode_response(&resp),
            TextCodec.encode_request(&req),
            TextCodec.encode_response(&resp),
        ] {
            let mut bytes = bytes;
            if bytes.is_empty() {
                continue;
            }
            let at = rng.next_in_range(0, bytes.len() as u64 - 1) as usize;
            let bit = (rng.next_u64() % 8) as u8;
            bytes[at] ^= 1 << bit;
            let _ = BinaryCodec.decode_request(&bytes);
            let _ = BinaryCodec.decode_response(&bytes);
            let _ = TextCodec.decode_request(&bytes);
            let _ = TextCodec.decode_response(&bytes);
        }
    });
}

/// The CRC guarantee the chaos suite leans on: a v2 batch frame with any
/// single bit flipped must be *rejected*, never silently mis-decoded. A
/// CRC-32 detects every 1-bit error, and the frame layout leaves no byte
/// outside the checksum's reach (a flipped tag or version byte fails the
/// layout checks instead).
#[test]
fn any_single_bit_flip_in_a_batch_frame_is_rejected() {
    for_each_case("batch_bit_flip_rejected", |rng| {
        let req = batch_request(rng, 12);
        let mut bytes = BinaryCodec.encode_request(&req);
        let at = rng.next_in_range(0, bytes.len() as u64 - 1) as usize;
        let bit = (rng.next_u64() % 8) as u8;
        bytes[at] ^= 1 << bit;
        assert!(
            BinaryCodec.decode_request(&bytes).is_err(),
            "flip at byte {at} bit {bit} slipped past the CRC"
        );

        let resp = value_batch(rng);
        let mut bytes = BinaryCodec.encode_response(&resp);
        let at = rng.next_in_range(0, bytes.len() as u64 - 1) as usize;
        let bit = (rng.next_u64() % 8) as u8;
        bytes[at] ^= 1 << bit;
        assert!(
            BinaryCodec.decode_response(&bytes).is_err(),
            "flip at byte {at} bit {bit} slipped past the CRC"
        );
    });
}

// ----------------------------------------------------------- malformed v4
//
// Frames a CRC cannot catch: a peer that stamps a valid checksum on a
// layout no encoder writes. Each must be refused as `Malformed` or
// `Truncated`, never decoded and never a panic.

/// Offset of a binary `QueryBatch`'s times block: tag, version, seq, count.
const TIMES_AT: usize = 10;

/// Offset of a binary `ValueBatch`'s bitmap: tag, version, seq,
/// generation, count.
const BITMAP_AT: usize = 18;

/// Re-stamps the trailing CRC-32 of an edited binary batch frame, so only
/// the layout checks stand between it and the decoder's output.
fn resealed(mut frame: Vec<u8>) -> Vec<u8> {
    let body = frame.len() - 4;
    let crc = crc32(&frame[..body]);
    frame[body..].copy_from_slice(&crc.to_le_bytes());
    frame
}

fn assert_refused<T: std::fmt::Debug>(what: &str, decoded: Result<T, CodecError>) {
    assert!(
        matches!(
            decoded,
            Err(CodecError::Malformed(_) | CodecError::Truncated)
        ),
        "{what}: {decoded:?}"
    );
}

/// A binary `QueryBatch` of 1 to 12 random tuples, and the byte range of
/// one tuple's time delta in it.
fn batch_with_a_varint(rng: &mut XorShiftRng) -> (Vec<u8>, Range<usize>) {
    let n = rng.next_in_range(1, 12) as usize;
    let frame = BinaryCodec.encode_request(&Request::QueryBatch {
        seq: rng.next_u64() as u32,
        queries: (0..n).map(|_| tuple(rng)).collect(),
    });
    let varint_len = |at: usize| frame[at..].iter().position(|b| b & 0x80 == 0).unwrap() + 1;
    let mut at = TIMES_AT;
    for _ in 0..rng.next_in_range(0, n as u64 - 1) {
        at += varint_len(at);
    }
    let end = at + varint_len(at);
    (frame, at..end)
}

#[test]
fn an_overlong_varint_is_refused() {
    for_each_case("overlong_varint", |rng| {
        let (mut frame, at) = batch_with_a_varint(rng);
        // Eleven bytes, or ten whose last is above 1: longer than a u64.
        let overlong = if rng.next_u64() & 1 == 0 {
            [[0x80; 10].as_slice(), &[0x01]].concat()
        } else {
            [[0xFF; 9].as_slice(), &[rng.next_in_range(2, 0x7F) as u8]].concat()
        };
        let _ = frame.splice(at, overlong);
        assert_refused(
            "overlong varint",
            BinaryCodec.decode_request(&resealed(frame)),
        );
    });
}

#[test]
fn a_varint_with_a_redundant_zero_byte_is_refused() {
    for_each_case("redundant_zero_varint", |rng| {
        let (mut frame, at) = batch_with_a_varint(rng);
        // The same value with one more, all-zero, group: decodable by a
        // lax reader, but not the one encoding the encoder writes.
        frame[at.end - 1] |= 0x80;
        frame.insert(at.end, 0x00);
        assert_refused(
            "redundant zero byte",
            BinaryCodec.decode_request(&resealed(frame)),
        );
    });
}

#[test]
fn a_times_block_with_a_spare_varint_is_refused() {
    for_each_case("spare_varint", |rng| {
        let n = rng.next_in_range(0, 12) as usize;
        let mut frame = BinaryCodec.encode_request(&Request::QueryBatch {
            seq: rng.next_u64() as u32,
            queries: (0..n).map(|_| tuple(rng)).collect(),
        });
        // One more delta than the count: the times block must be read to
        // its end, not only as far as the count goes.
        let coords_at = frame.len() - 4 - 16 * n;
        frame.insert(coords_at, rng.next_in_range(0, 0x7F) as u8);
        assert_refused("spare varint", BinaryCodec.decode_request(&resealed(frame)));
    });
}

#[test]
fn a_set_bitmap_padding_bit_is_refused() {
    for_each_case("bitmap_padding", |rng| {
        // A count that leaves padding bits in the bitmap's last byte.
        let n = rng.next_in_range(1, 40) as usize | 1;
        let mut frame = BinaryCodec.encode_response(&value_batch_of(rng, n));
        let last = BITMAP_AT + n.div_ceil(8) - 1;
        frame[last] |= 1 << rng.next_in_range((n % 8) as u64, 7);
        // The phantom slot gets its value, so the bytes agree with the
        // bitmap's count and only the padding check can refuse the frame.
        let crc_at = frame.len() - 4;
        let _ = frame.splice(crc_at..crc_at, finite(rng).to_le_bytes());
        assert_refused(
            "bitmap padding bit",
            BinaryCodec.decode_response(&resealed(frame)),
        );
    });
}

#[test]
fn a_bitmap_that_disagrees_with_the_values_is_refused() {
    for_each_case("bitmap_count", |rng| {
        let n = rng.next_in_range(1, 40) as usize;
        let mut frame = BinaryCodec.encode_response(&value_batch_of(rng, n));
        // Flipping one slot's flag moves the present count by one, so the
        // values left are 8 bytes too few or too many.
        let slot = rng.next_in_range(0, n as u64 - 1) as usize;
        frame[BITMAP_AT + slot / 8] ^= 1 << (slot % 8);
        assert_refused(
            "bitmap count",
            BinaryCodec.decode_response(&resealed(frame)),
        );
    });
}

// -------------------------------------------------------------- boundaries

#[test]
fn empty_batches_roundtrip_in_both_codecs() {
    let req = Request::QueryBatch {
        seq: 1,
        queries: Vec::new(),
    };
    let resp = Response::ValueBatch {
        seq: 1,
        generation: 0,
        values: Vec::new(),
    };
    for codec in [&BinaryCodec as &dyn WireCodec, &TextCodec] {
        let bytes = codec.encode_request(&req);
        assert_eq!(codec.decode_request(&bytes).unwrap(), req);
        let bytes = codec.encode_response(&resp);
        assert_eq!(codec.decode_response(&bytes).unwrap(), resp);
    }
}

#[test]
fn max_batch_roundtrips_and_one_over_is_rejected() {
    let mut rng = XorShiftRng::new(suite_seed());
    let tuples: Vec<QueryTuple> = (0..MAX_BATCH + 1).map(|_| tuple(&mut rng)).collect();

    let at_cap = Request::QueryBatch {
        seq: 7,
        queries: tuples[..MAX_BATCH].to_vec(),
    };
    for codec in [&BinaryCodec as &dyn WireCodec, &TextCodec] {
        let bytes = codec.encode_request(&at_cap);
        match codec.decode_request(&bytes).unwrap() {
            Request::QueryBatch { seq, queries } => {
                assert_eq!(seq, 7);
                assert_eq!(queries.len(), MAX_BATCH);
            }
            other => panic!("decoded {other:?}"),
        }

        // One past the cap: the encoder is the caller's problem, but the
        // decoder must refuse before allocating for a hostile count.
        let over = Request::QueryBatch {
            seq: 8,
            queries: tuples.clone(),
        };
        let bytes = codec.encode_request(&over);
        let err = codec.decode_request(&bytes).unwrap_err();
        assert!(err.to_string().contains("cap"), "{err}");
    }
}
