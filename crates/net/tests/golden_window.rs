//! Golden window-file bytes: the exact file a maintenance pass seals a
//! window into, its tuples and then its final cover, and the fingerprint
//! that guards the cover.
//!
//! A restart serves the covers its window files hold, so the cover frame's
//! layout and the fingerprint are a contract with every store already on
//! disk. If this test has to change, bump `COVER_FRAME_VERSION`: frames of
//! the old layout are then rebuilt instead of misread.

// Harness code, exempt from the library panic policy: an unwrap here
// fails the run loudly, which is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use enviro_data::{Pollutant, RawTuple, Timestamp};
use enviro_geo::Point;
use enviro_meter::{CoverRegion, LinearModel, ModelCover, RegionModel};
use enviro_net::{IngestConfig, IngestState};
use enviro_storage::{WalConfig, WalStore};
use std::path::PathBuf;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "enviro-golden-window-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn fingerprint_of_the_default_configuration() {
    // The CRC of the `Debug` text of (version, pollutant, Ad-KMN
    // configuration). A change here (a new Ad-KMN field, say) makes every
    // stored cover rebuild once.
    let got = IngestConfig::default().cover_fingerprint();
    assert_eq!(got, 0xf711_f11f, "fingerprint changed: {got:#010x}");
}

#[test]
fn a_sealed_window_file_holds_its_tuples_then_its_cover() {
    let dir = tempdir("sealed");
    let wal = WalConfig {
        window_secs: 100,
        ..WalConfig::default()
    };
    let state = IngestState::open(&dir, wal, IngestConfig::default()).unwrap();
    let tuples: Vec<RawTuple> = [(20, 30.0, 410.0), (10, 0.0, 400.0), (250, 0.0, 500.0)]
        .iter()
        .map(|&(t, x, v)| RawTuple::new(Timestamp::from_secs(t), Point::new(x, 0.0), v))
        .collect();
    state.ingest(1, 1, &tuples).unwrap();
    assert_eq!(state.rebuild_dirty_now().unwrap(), 2);
    assert_eq!(
        state.stats().sealed_windows,
        1,
        "window 0 is the one sealed"
    );
    let bytes = std::fs::read(dir.join("windows").join("seg-00000000.log")).unwrap();
    assert_eq!(
        hex(&bytes),
        concat!(
            "454e5649524f5331", // magic
            "01000000",         // format version
            "00000000",         // segment seq: window 0
            "40000000",         // tuple frame: payload length
            "418e3ebf",         //              crc32(payload)
            "1400000000000000", // record 0: time (arrival order)
            "0000000000003e40", //           x
            "0000000000000000", //           y
            "0000000000a07940", //           value
            "0a00000000000000", // record 1: time
            "0000000000000000", //           x
            "0000000000000000", //           y
            "0000000000007940", //           value
            "7b000000",         // cover frame: payload length
            "59d595d8",         //              crc32(payload)
            "1ff111f7",         // fingerprint of the default configuration
            "0200000000000000", // tuple count
            "0a00000000000000", // first_time
            "00",               // cover: pollutant (index 0: Co2)
            "0000000000000000", //        window id
            "6400000000000000", //        valid_until
            "02000000",         //        regions
            "0000000000000000", // region 0: centroid x
            "0000000000000000", //           centroid y
            "00",               //           mean model
            "0000000000007940", //           mean
            "0000000000000000", //           training error %
            "0100000000000000", //           population
            "0000000000003e40", // region 1: centroid x
            "0000000000000000", //           centroid y
            "00",               //           mean model
            "0000000000a07940", //           mean
            "0000000000000000", //           training error %
            "0100000000000000", //           population
        ),
        "window file bytes changed"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cover with both model variants, as window 5 of a 100-second store.
fn sample_cover() -> ModelCover {
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
    ModelCover {
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
    }
}

/// The cover frame of [`sample_cover`] after its fingerprint: the window's
/// tuple count, its first time and the cover.
const SAMPLE_FRAME: &str = concat!(
    "0100000000000000", // tuple count
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
);

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).unwrap())
        .collect()
}

#[test]
fn a_stored_cover_frame_with_both_model_variants_is_served_as_written() {
    let dir = tempdir("both-models");
    let wal = WalConfig {
        window_secs: 100,
        ..WalConfig::default()
    };
    let config = IngestConfig {
        pollutant: Pollutant::No2,
        ..IngestConfig::default()
    };
    let mut frame = config.cover_fingerprint().to_le_bytes().to_vec();
    frame.extend(unhex(SAMPLE_FRAME));
    {
        let mut store = WalStore::open(&dir, wal).unwrap();
        let reading = RawTuple::new(Timestamp::from_secs(512), Point::new(1.5, -2.0), 412.5);
        store.append_batch(&[reading]).unwrap();
        assert_eq!(store.seal_with_covers(vec![(5, frame)]).unwrap(), [5]);
    }
    let state = IngestState::open(&dir, wal, config).unwrap();
    let snapshot = state.registry().snapshot();
    let served = snapshot.cover_for_window(5).expect("window 5 served");
    let cover = snapshot
        .with_cover(served, Clone::clone)
        .expect("window 5 reads back from its file");
    assert_eq!(cover, sample_cover(), "decoded cover changed");
    assert_eq!(served.first_time, Timestamp::from_secs(512));
    let mut encoded = Vec::new();
    cover.encode_into(&mut encoded);
    assert_eq!(hex(&encoded), SAMPLE_FRAME[32..], "cover bytes changed");
    let _ = std::fs::remove_dir_all(&dir);
}
