//! Golden disk bytes: the exact segment file a batch append writes.
//!
//! The recovery suites check that what is written reads back, which a
//! writer and reader sharing a wrong CRC kernel or record layout would also
//! pass. This test pins the bytes, so stores written by earlier builds keep
//! reopening with every tuple.

// Harness code, exempt from the library panic policy: an unwrap here
// fails the run loudly, which is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use enviro_data::{RawTuple, Timestamp};
use enviro_geo::Point;
use enviro_storage::segment::{read_segment, segment_file_name, SegmentWriter};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn segment_batch_frame_bytes() {
    let dir = std::env::temp_dir().join(format!("enviro-golden-seg-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let tuples = [
        RawTuple::new(Timestamp::from_secs(60), Point::new(2.5, -0.125), 400.5),
        RawTuple::new(Timestamp::from_secs(90), Point::new(-7.75, 12.0), 1_234.25),
    ];
    let mut w = SegmentWriter::create(&dir, 3).unwrap();
    w.append_batch(&tuples).unwrap();
    w.sync().unwrap();
    let path = dir.join(segment_file_name(3));
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(
        hex(&bytes),
        concat!(
            "454e5649524f5331", // magic
            "01000000",         // format version
            "03000000",         // segment seq
            "40000000",         // batch payload length
            "364621b0",         // crc32(payload)
            "3c00000000000000", // record 0: time
            "0000000000000440", //           x
            "000000000000c0bf", //           y
            "0000000000087940", //           value
            "5a00000000000000", // record 1: time
            "0000000000001fc0", //           x
            "0000000000002840", //           y
            "0000000000499340", //           value
        ),
        "segment bytes changed"
    );
    let contents = read_segment(&path).unwrap();
    assert_eq!(contents.tuples, tuples);
    assert!(!contents.truncated_tail);
    std::fs::remove_dir_all(&dir).unwrap();
}
