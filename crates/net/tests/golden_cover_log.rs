//! Golden cover-log bytes: the exact record a sealed window's final cover
//! is logged as, and the fingerprint that guards it.
//!
//! A restart serves the covers its log recorded, so the record layout and
//! the fingerprint are a contract with every log already on disk. If this
//! test has to change, bump `COVER_LOG_VERSION`: records of the old layout
//! are then rebuilt instead of misread.

// Harness code, exempt from the library panic policy: an unwrap here
// fails the run loudly, which is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use enviro_data::{Pollutant, RawTuple, Timestamp};
use enviro_geo::Point;
use enviro_meter::{
    AdKmnConfig, CoverRegion, LinearModel, ModelCover, PublishedCover, RegionModel,
};
use enviro_net::cover_log::{
    decode_record, encode_record, fingerprint, log_path, COVER_LOG_VERSION,
};
use enviro_net::{IngestConfig, IngestState};
use enviro_schedule::sync::Arc;
use enviro_storage::segment::{encode_frame, read_frames, SegmentWriter, HEADER_SIZE};
use enviro_storage::WalConfig;
use std::path::{Path, PathBuf};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("enviro-golden-log-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A cover with both model variants.
fn sample_cover() -> PublishedCover {
    let linear = LinearModel::from_coefficients(&[
        400.0,
        2.0,
        -0.5,
        0.25,
        100.0,
        200.0,
        3_600.0,
        10.0,
        f64::INFINITY,
        60.0,
        380.0,
        420.0,
    ]);
    let cover = ModelCover {
        pollutant: Pollutant::No2,
        window_id: 5,
        valid_until: Timestamp::from_secs(600),
        regions: vec![
            CoverRegion {
                centroid: Point::new(1.5, -2.0),
                model: RegionModel::Mean(412.5),
                training_error_percent: 0.5,
                population: 3,
            },
            CoverRegion {
                centroid: Point::new(100.0, 200.0),
                model: RegionModel::Linear(linear),
                training_error_percent: 1.25,
                population: 40,
            },
        ],
    };
    PublishedCover {
        window_id: 5,
        first_time: Timestamp::from_secs(512),
        cover: Arc::new(cover),
    }
}

#[test]
fn cover_record_bytes() {
    let published = sample_cover();
    let mut payload = Vec::new();
    encode_record(0xA1B2_C3D4, 43, &published, &mut payload);
    assert_eq!(
        hex(&payload),
        concat!(
            "d4c3b2a1",         // fingerprint
            "2b00000000000000", // sealed tuple count
            "0002000000000000", // first_time
            "02",               // cover: pollutant (index 2: No2)
            "0500000000000000", //        window id
            "5802000000000000", //        valid_until
            "02000000",         //        regions
            "000000000000f83f", // region 0: centroid x
            "00000000000000c0", //           centroid y
            "00",               //           mean model
            "0000000000c87940", //           mean
            "000000000000e03f", //           training error %
            "0300000000000000", //           population
            "0000000000005940", // region 1: centroid x
            "0000000000006940", //           centroid y
            "01",               //           linear model: beta
            "0000000000007940",
            "0000000000000040",
            "000000000000e0bf",
            "000000000000d03f",
            "0000000000005940", //           center x, y, t
            "0000000000006940",
            "000000000020ac40",
            "0000000000002440", //           scale x, y, t
            "000000000000f07f",
            "0000000000004e40",
            "0000000000c07740", //           value range
            "0000000000407a40",
            "000000000000f43f", //           training error %
            "2800000000000000", //           population
        ),
        "cover record bytes changed"
    );
    let record = decode_record(&payload).expect("decodes");
    assert_eq!(record.fingerprint, 0xA1B2_C3D4);
    assert_eq!(record.sealed_len, 43);
    assert_eq!(record.cover.window_id, published.window_id);
    assert_eq!(record.cover.first_time, published.first_time);
    assert_eq!(*record.cover.cover, *published.cover);
}

#[test]
fn fingerprint_of_the_default_configuration() {
    // The CRC of the `Debug` text of (version, store id, pollutant,
    // window length, Ad-KMN configuration). A change here (a new Ad-KMN
    // field, say) makes every logged cover rebuild once.
    let got = fingerprint(1, 0xFF, Pollutant::Co2, 3_600, &AdKmnConfig::default());
    assert_eq!(got, 0xb39e_8266, "fingerprint changed: {got:#010x}");
}

fn wal_config() -> WalConfig {
    WalConfig {
        window_secs: 100,
        ..WalConfig::default()
    }
}

/// A store with a known identity whose window 0 is sealed and logged.
fn logged_store(dir: &Path) {
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(dir.join("STORE_ID"), "00000000000000ff\n").unwrap();
    let state = IngestState::open(dir, wal_config(), IngestConfig::default()).unwrap();
    let tuples: Vec<RawTuple> = [(10, 0.0, 400.0), (20, 30.0, 410.0), (250, 0.0, 500.0)]
        .iter()
        .map(|&(t, x, v)| RawTuple::new(Timestamp::from_secs(t), Point::new(x, 0.0), v))
        .collect();
    state.ingest(1, 1, &tuples).unwrap();
    assert_eq!(state.rebuild_dirty_now().unwrap(), 2);
}

#[test]
fn a_pass_logs_one_framed_record_per_released_window() {
    let dir = tempdir("framed");
    logged_store(&dir);
    let bytes = std::fs::read(log_path(&dir)).unwrap();
    assert_eq!(
        hex(&bytes[..HEADER_SIZE]),
        "454e5649524f53310100000000000000"
    );
    let mut payloads = Vec::new();
    read_frames(&log_path(&dir), |p| {
        payloads.push(p.to_vec());
        true
    })
    .unwrap();
    assert_eq!(payloads.len(), 1, "window 0 is the one sealed window");
    let record = decode_record(&payloads[0]).unwrap();
    let fp = fingerprint(
        COVER_LOG_VERSION,
        0xFF,
        Pollutant::Co2,
        100,
        &AdKmnConfig::default(),
    );
    assert_eq!(record.fingerprint, fp);
    assert_eq!(record.sealed_len, 2);
    assert_eq!(record.cover.window_id, 0);
    assert_eq!(record.cover.first_time, Timestamp::from_secs(10));
    let mut framed = bytes[..HEADER_SIZE].to_vec();
    encode_frame(&mut framed, |out| {
        encode_record(fp, 2, &record.cover, out);
    });
    assert_eq!(framed, bytes);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rewrites every record of the log under `dir` with fingerprint `fp`.
fn restamp(dir: &Path, fp: u32) {
    let mut records = Vec::new();
    read_frames(&log_path(dir), |p| {
        records.push(decode_record(p).unwrap());
        true
    })
    .unwrap();
    std::fs::remove_file(log_path(dir)).unwrap();
    let mut w = SegmentWriter::create(log_path(dir).parent().unwrap(), 0).unwrap();
    let mut frames = Vec::new();
    for r in &records {
        encode_frame(&mut frames, |out| {
            encode_record(fp, r.sealed_len, &r.cover, out);
        });
    }
    w.append_frames(&frames).unwrap();
}

#[test]
fn a_version_or_fingerprint_mismatch_forces_a_rebuild() {
    let dir = tempdir("mismatch");
    logged_store(&dir);
    let adkmn = AdKmnConfig::default();
    let current = fingerprint(COVER_LOG_VERSION, 0xFF, Pollutant::Co2, 100, &adkmn);
    let reopen = || IngestState::open(&dir, wal_config(), IngestConfig::default()).unwrap();
    for (fp, what) in [
        (
            fingerprint(COVER_LOG_VERSION + 1, 0xFF, Pollutant::Co2, 100, &adkmn),
            "another version",
        ),
        (current ^ 1, "another fingerprint"),
    ] {
        restamp(&dir, fp);
        let state = reopen();
        assert_eq!(state.generation(), 0, "{what}: nothing published at open");
        assert_eq!(
            state.rebuild_dirty_now().unwrap(),
            2,
            "{what}: window 0 rebuilt"
        );
        drop(state);
        // The rebuild logged window 0 again, after the stale record and
        // under the current fingerprint.
        let state = reopen();
        assert_eq!(
            state.generation(),
            1,
            "{what}: the current version is served"
        );
        assert_eq!(
            state.rebuild_dirty_now().unwrap(),
            1,
            "{what}: open window only"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
