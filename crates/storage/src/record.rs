//! Fixed-size on-disk record encoding.
//!
//! This is the one owner of the 32-byte tuple layout: segment batches on
//! disk and the wire codec's `IngestBatch` tuples are both runs of these
//! records.

use enviro_data::{RawTuple, Timestamp};
use enviro_geo::Point;

/// Bytes per record: `i64 time + f64 x + f64 y + f64 value`.
pub const RECORD_SIZE: usize = 32;

/// Appends a tuple's 32-byte record to `out`.
pub fn encode_record(t: &RawTuple, out: &mut Vec<u8>) {
    let mut rec = [0u8; RECORD_SIZE];
    rec[..8].copy_from_slice(&t.time.as_secs().to_le_bytes());
    rec[8..16].copy_from_slice(&t.pos.x.to_le_bytes());
    rec[16..24].copy_from_slice(&t.pos.y.to_le_bytes());
    rec[24..].copy_from_slice(&t.value.to_le_bytes());
    out.extend_from_slice(&rec);
}

/// Decodes one record.
pub fn decode_record(rec: &[u8; RECORD_SIZE]) -> RawTuple {
    let word = |i: usize| {
        let mut w = [0u8; 8];
        w.copy_from_slice(&rec[i * 8..i * 8 + 8]);
        w
    };
    RawTuple::new(
        Timestamp::from_secs(i64::from_le_bytes(word(0))),
        Point::new(f64::from_le_bytes(word(1)), f64::from_le_bytes(word(2))),
        f64::from_le_bytes(word(3)),
    )
}

/// Appends the concatenated records of `tuples` to `out`, reserving once.
pub fn encode_records(tuples: &[RawTuple], out: &mut Vec<u8>) {
    out.reserve(tuples.len() * RECORD_SIZE);
    for t in tuples {
        encode_record(t, out);
    }
}

/// Decodes a batch payload back into tuples.
///
/// Returns `None` when the payload length is not a multiple of the record
/// size (framing corruption that slipped past the CRC is still rejected).
pub fn decode_batch(payload: &[u8]) -> Option<Vec<RawTuple>> {
    let (records, rest) = payload.as_chunks::<RECORD_SIZE>();
    if !rest.is_empty() {
        return None;
    }
    Some(records.iter().map(decode_record).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuple(secs: i64) -> RawTuple {
        RawTuple::new(
            Timestamp::from_secs(secs),
            Point::new(secs as f64 * 1.5, -secs as f64),
            400.0 + secs as f64,
        )
    }

    #[test]
    fn record_roundtrip() {
        let t = tuple(123);
        let mut buf = Vec::new();
        encode_record(&t, &mut buf);
        assert_eq!(buf.len(), RECORD_SIZE);
        assert_eq!(decode_record(buf.as_slice().try_into().unwrap()), t);
    }

    #[test]
    fn record_roundtrip_extreme_values() {
        let t = RawTuple::new(
            Timestamp::from_secs(i64::MIN / 2),
            Point::new(f64::MAX / 2.0, f64::MIN_POSITIVE),
            -0.0,
        );
        let mut buf = Vec::new();
        encode_record(&t, &mut buf);
        assert_eq!(decode_record(buf.as_slice().try_into().unwrap()), t);
    }

    fn encode_batch(tuples: &[RawTuple]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_records(tuples, &mut out);
        out
    }

    #[test]
    fn batch_roundtrip() {
        let tuples: Vec<RawTuple> = (0..17).map(tuple).collect();
        let payload = encode_batch(&tuples);
        assert_eq!(payload.len(), 17 * RECORD_SIZE);
        assert_eq!(decode_batch(&payload).unwrap(), tuples);
    }

    #[test]
    fn empty_batch() {
        assert_eq!(decode_batch(&encode_batch(&[])).unwrap(), Vec::new());
    }

    #[test]
    fn misaligned_payload_rejected() {
        let payload = encode_batch(&[tuple(1)]);
        assert!(decode_batch(&payload[..RECORD_SIZE - 1]).is_none());
    }
}
