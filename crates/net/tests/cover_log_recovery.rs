//! Restart from the cover log: whatever state the log is in, recovery
//! publishes only covers it can trust and rebuilds exactly the windows
//! left without an accepted record.
//!
//! Each case damages the log of a seeded store, reopens it and checks
//!
//! * which covers are published at open: the sealed windows with an
//!   accepted record, each bit-equal to the cover Ad-KMN builds from the
//!   window's tuples (never a wrong cover);
//! * how many windows the first pass rebuilds: the open windows plus the
//!   sealed windows without an accepted record;
//! * that the registry after that pass is bit-equal to a [`CoverBuilder`]
//!   run over `tuples()`.
//!
//! Replay a failure with `WAL_SEED=<decimal or 0x-hex> cargo test -q -p
//! enviro-net --test cover_log_recovery`. CI pins two seeds.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use enviro_data::{Pollutant, RawTuple, Timestamp, Window};
use enviro_geo::Point;
use enviro_meter::{AdKmnConfig, CoverBuilder};
use enviro_net::cover_log::{self, decode_record, encode_record, log_path, CoverRecord};
use enviro_net::{IngestConfig, IngestState};
use enviro_storage::segment::{encode_frame, read_frames, SegmentWriter};
use enviro_storage::{WalConfig, WalStore};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Window length used by the harness (seconds).
const H: i64 = 100;

/// Default pinned seed; CI runs a second one via `WAL_SEED`.
const DEFAULT_WAL_SEED: u64 = 0x5EED_BA7C_0001;

/// Seed override, the same knob as the WAL crash-recovery suite.
fn wal_seed() -> u64 {
    match std::env::var("WAL_SEED") {
        Ok(s) => {
            let s = s.trim();
            let parsed = if let Some(hex) = s.strip_prefix("0x") {
                u64::from_str_radix(hex, 16).ok()
            } else {
                s.parse().ok()
            };
            parsed.unwrap_or(DEFAULT_WAL_SEED)
        }
        Err(_) => DEFAULT_WAL_SEED,
    }
}

/// xorshift64*, as in the WAL crash-recovery suite.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(if seed == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            seed
        })
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "enviro-coverlog-{name}-{}-{:x}",
        std::process::id(),
        wal_seed()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), &target).unwrap();
        }
    }
}

fn wal_config() -> WalConfig {
    WalConfig {
        window_secs: H,
        ..WalConfig::default()
    }
}

fn open(dir: &Path, config: &IngestConfig) -> IngestState {
    IngestState::open(dir, wal_config(), config.clone()).unwrap()
}

/// Per-window tuple counts of a store: `counts[w]` readings in window `w`.
fn window_counts(rng: &mut Rng) -> Vec<u64> {
    let windows = 6 + rng.below(4);
    (0..windows).map(|_| 12 + rng.below(30)).collect()
}

/// Seeded readings, `counts[w]` of them in window `w`, in a shuffled
/// arrival order within each window.
fn readings(rng: &mut Rng, counts: &[u64]) -> Vec<RawTuple> {
    let mut out = Vec::new();
    for (w, &n) in counts.iter().enumerate() {
        let mut window: Vec<RawTuple> = (0..n)
            .map(|_| {
                RawTuple::new(
                    Timestamp::from_secs(w as i64 * H + rng.below(H as u64) as i64),
                    Point::new(rng.below(2_000) as f64, rng.below(2_000) as f64),
                    380.0 + rng.below(2_400) as f64 / 10.0,
                )
            })
            .collect();
        for i in (1..window.len()).rev() {
            window.swap(i, rng.below(i as u64 + 1) as usize);
        }
        out.extend(window);
    }
    out
}

/// Writes a store under `dir` from `tuples` in two passes, so its log holds
/// records from both. Every window but the newest two ends sealed and
/// logged.
fn write_store(dir: &Path, tuples: &[RawTuple], config: &IngestConfig) {
    let state = open(dir, config);
    let half = tuples.len() / 2;
    for (seq, part) in (1..).zip([&tuples[..half], &tuples[half..]]) {
        for (i, chunk) in part.chunks(16).enumerate() {
            state.ingest(9, seq * 1_000 + i as u32, chunk).unwrap();
        }
        state.rebuild_dirty_now().unwrap();
    }
    assert_eq!(state.check_invariants(), Ok(()));
}

/// A published cover as its routing key and exact binary form.
type CoverBits = (u64, Timestamp, Vec<u8>);

fn bits(id: u64, first_time: Timestamp, cover: &enviro_meter::ModelCover) -> CoverBits {
    let mut bytes = Vec::new();
    cover.encode_into(&mut bytes);
    (id, first_time, bytes)
}

/// The registry as bits, oldest window first.
fn registry_bits(state: &IngestState) -> Vec<CoverBits> {
    let snapshot = state.registry().snapshot();
    snapshot
        .entries()
        .iter()
        .map(|e| bits(e.window_id, e.first_time, &e.cover))
        .collect()
}

/// What a restart must publish: `CoverBuilder` over `tuples()`, window by
/// window.
fn reference(state: &IngestState, config: &IngestConfig) -> Vec<CoverBits> {
    let mut windows: BTreeMap<u64, Vec<RawTuple>> = BTreeMap::new();
    for t in state.tuples().unwrap() {
        windows
            .entry(t.time.as_secs().div_euclid(H) as u64)
            .or_default()
            .push(t);
    }
    let builder = CoverBuilder::new(config.adkmn.clone());
    windows
        .iter()
        .map(|(&id, tuples)| {
            let window = Window {
                id,
                tuples,
                valid_until: Timestamp::from_secs((id as i64 + 1) * H),
            };
            let first = tuples.iter().map(|t| t.time).min().unwrap();
            bits(id, first, &builder.build(&window, config.pollutant))
        })
        .collect()
}

/// Sealed window ids and counts, read from a quiescent store.
fn sealed_windows(dir: &Path) -> BTreeMap<u64, usize> {
    let wal = WalStore::open(dir, wal_config()).unwrap();
    wal.sealed_window_ids()
        .into_iter()
        .map(|id| (id, wal.sealed_len(id).unwrap()))
        .collect()
}

/// The log's decodable records, in order, with each frame's end offset.
fn log_records(dir: &Path) -> Vec<(CoverRecord, u64)> {
    let mut payloads = Vec::new();
    read_frames(&log_path(dir), |p| {
        payloads.push(p.to_vec());
        true
    })
    .unwrap();
    let mut end = enviro_storage::segment::HEADER_SIZE as u64;
    payloads
        .iter()
        .map(|p| {
            end += (enviro_storage::segment::FRAME_HEADER_SIZE + p.len()) as u64;
            (decode_record(p).expect("record decodes"), end)
        })
        .collect()
}

/// Rewrites the log, one frame per payload `rewrite` returns.
fn rewrite_log(dir: &Path, mut rewrite: impl FnMut(&CoverRecord) -> Vec<u8>) {
    let records = log_records(dir);
    let path = log_path(dir);
    std::fs::remove_file(&path).unwrap();
    let mut w = SegmentWriter::create(path.parent().unwrap(), 0).unwrap();
    let mut frames = Vec::new();
    for (record, _) in &records {
        let payload = rewrite(record);
        encode_frame(&mut frames, |out| out.extend_from_slice(&payload));
    }
    w.append_frames(&frames).unwrap();
}

/// A seeded store: its directory (never modified by a case), readings,
/// sealed windows and the registry a correct restart ends with.
struct Fixture {
    base: PathBuf,
    config: IngestConfig,
    sealed: BTreeMap<u64, usize>,
    windows: usize,
    expected: Vec<CoverBits>,
}

impl Fixture {
    fn new(tag: &str) -> Self {
        let mut rng = Rng::new(wal_seed());
        let counts = window_counts(&mut rng);
        let tuples = readings(&mut rng, &counts);
        let base = tempdir(tag);
        let config = IngestConfig::default();
        write_store(&base, &tuples, &config);
        let sealed = sealed_windows(&base);
        assert_eq!(
            sealed.len(),
            counts.len() - 2,
            "all but the newest two sealed"
        );
        let expected = reference(&open(&base, &config), &config);
        assert_eq!(expected.len(), counts.len());
        Fixture {
            base,
            config,
            sealed,
            windows: counts.len(),
            expected,
        }
    }

    /// A fresh copy of the store to damage.
    fn copy(&self, tag: &str) -> PathBuf {
        let dir = tempdir(tag);
        copy_dir(&self.base, &dir);
        dir
    }

    /// Reopens `dir` and checks the restart against `accepted`, the sealed
    /// windows whose record must be accepted. Returns the state after its
    /// first pass.
    fn recover(&self, dir: &Path, accepted: &BTreeSet<u64>, ctx: &str) -> IngestState {
        self.recover_with(dir, &self.config, &self.expected, accepted, ctx)
    }

    fn recover_with(
        &self,
        dir: &Path,
        config: &IngestConfig,
        expected: &[CoverBits],
        accepted: &BTreeSet<u64>,
        ctx: &str,
    ) -> IngestState {
        let state = open(dir, config);
        let at_open = registry_bits(&state);
        let want: Vec<CoverBits> = expected
            .iter()
            .filter(|(id, _, _)| accepted.contains(id))
            .cloned()
            .collect();
        assert_eq!(at_open, want, "{ctx}: covers published at open");
        assert_eq!(state.generation(), u64::from(!accepted.is_empty()), "{ctx}");
        assert_eq!(state.check_invariants(), Ok(()), "{ctx}");
        let rebuilt = state.rebuild_dirty_now().unwrap();
        assert_eq!(
            rebuilt,
            self.windows - accepted.len(),
            "{ctx}: the first pass rebuilds the open windows and the sealed ones without a record"
        );
        assert_eq!(
            registry_bits(&state),
            expected,
            "{ctx}: registry after the first pass"
        );
        assert_eq!(state.check_invariants(), Ok(()), "{ctx}");
        state
    }

    fn all_sealed(&self) -> BTreeSet<u64> {
        self.sealed.keys().copied().collect()
    }
}

/// After a restart's first pass, every sealed window is logged again: the
/// next restart rebuilds only the open windows.
fn assert_log_healed(fixture: &Fixture, dir: &Path, ctx: &str) {
    let healed = format!("{ctx}, healed");
    drop(fixture.recover(dir, &fixture.all_sealed(), &healed));
}

#[test]
fn intact_log_restarts_without_rebuilding_sealed_windows() {
    let fixture = Fixture::new("intact");
    let dir = fixture.copy("intact-run");
    // Each sealed window was logged once, across both passes.
    let logged: Vec<u64> = log_records(&dir)
        .iter()
        .map(|(r, _)| r.cover.window_id)
        .collect();
    assert_eq!(logged, fixture.all_sealed().into_iter().collect::<Vec<_>>());
    drop(fixture.recover(&dir, &fixture.all_sealed(), "intact"));
    // Reopening again appends nothing: no window was released twice.
    assert_eq!(log_records(&dir).len(), fixture.sealed.len());
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&fixture.base);
}

#[test]
fn kill_at_every_byte_of_the_last_record() {
    let fixture = Fixture::new("kill");
    let records = log_records(&fixture.base);
    let (last, end) = records.last().unwrap();
    let start = records
        .len()
        .checked_sub(2)
        .map_or(enviro_storage::segment::HEADER_SIZE as u64, |i| {
            records[i].1
        });
    let last_id = last.cover.window_id;
    let mut without_last = fixture.all_sealed();
    without_last.remove(&last_id);
    let dir = tempdir("kill-run");
    for kill_at in start..=*end {
        let _ = std::fs::remove_dir_all(&dir);
        copy_dir(&fixture.base, &dir);
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(log_path(&dir))
            .unwrap();
        f.set_len(kill_at).unwrap();
        drop(f);
        let ctx = format!("seed {:#x}, kill_at={kill_at}", wal_seed());
        let accepted = if kill_at == *end {
            &fixture.all_sealed()
        } else {
            &without_last
        };
        let state = fixture.recover(&dir, accepted, &ctx);
        drop(state);
        // The torn tail was cut, so the rebuilt window's new record reads.
        if kill_at == start || kill_at + 1 == *end {
            assert_log_healed(&fixture, &dir, &ctx);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&fixture.base);
}

#[test]
fn a_flipped_byte_mid_log_rebuilds_from_that_record_on() {
    let fixture = Fixture::new("flip");
    let mut rng = Rng::new(wal_seed() ^ 0xF11B);
    let records = log_records(&fixture.base);
    let victim = 1 + rng.below(records.len() as u64 - 1) as usize;
    let frame_start = records[victim - 1].1;
    let at = frame_start + rng.below(records[victim].1 - frame_start);
    let dir = fixture.copy("flip-run");
    let mut bytes = std::fs::read(log_path(&dir)).unwrap();
    bytes[at as usize] ^= 1 << rng.below(8);
    std::fs::write(log_path(&dir), &bytes).unwrap();
    // The scan stops at the corrupt frame: every record from it on is
    // lost, and its window rebuilt.
    let accepted: BTreeSet<u64> = records[..victim]
        .iter()
        .map(|(r, _)| r.cover.window_id)
        .collect();
    let ctx = format!("seed {:#x}: record {victim}, byte {at}", wal_seed());
    drop(fixture.recover(&dir, &accepted, &ctx));
    assert_log_healed(&fixture, &dir, &ctx);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&fixture.base);
}

#[test]
fn a_log_written_under_another_tau_or_pollutant_is_rebuilt() {
    let fixture = Fixture::new("config");
    let others = [
        IngestConfig {
            adkmn: AdKmnConfig {
                tau_percent: 3.5,
                ..AdKmnConfig::default()
            },
            ..IngestConfig::default()
        },
        IngestConfig {
            pollutant: Pollutant::No2,
            ..IngestConfig::default()
        },
    ];
    for (i, other) in others.iter().enumerate() {
        let dir = fixture.copy(&format!("config-run-{i}"));
        let expected = reference(&open(&fixture.base, &fixture.config), other);
        let ctx = format!("config {i}");
        drop(fixture.recover_with(&dir, other, &expected, &BTreeSet::new(), &ctx));
        // The log now holds records under both fingerprints; each
        // configuration accepts only its own.
        drop(fixture.recover_with(&dir, other, &expected, &fixture.all_sealed(), &ctx));
        drop(fixture.recover(&dir, &fixture.all_sealed(), &ctx));
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&fixture.base);
}

#[test]
fn a_record_with_a_wrong_tuple_count_is_rebuilt() {
    let fixture = Fixture::new("count");
    let mut rng = Rng::new(wal_seed() ^ 0xC0);
    let ids: Vec<u64> = fixture.sealed.keys().copied().collect();
    let victim = ids[rng.below(ids.len() as u64) as usize];
    let dir = fixture.copy("count-run");
    for delta in [1i64, -1] {
        rewrite_log(&dir, |r| {
            let mut payload = Vec::new();
            let len = if r.cover.window_id == victim {
                (fixture.sealed[&victim] as i64 + delta) as u64
            } else {
                r.sealed_len
            };
            encode_record(r.fingerprint, len, &r.cover, &mut payload);
            payload
        });
        let mut accepted = fixture.all_sealed();
        accepted.remove(&victim);
        let ctx = format!("seed {:#x}: window {victim}, count {delta:+}", wal_seed());
        drop(fixture.recover(&dir, &accepted, &ctx));
        // The rebuilt window's new record comes after the bad one and wins.
        assert_log_healed(&fixture, &dir, &ctx);
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&fixture.base);
}

#[test]
fn a_log_copied_from_another_store_is_rebuilt() {
    let fixture = Fixture::new("copied");
    // Another store with the same windows and the same tuple counts, but
    // other readings: its records pass every check but the store's own
    // fingerprint.
    let mut rng = Rng::new(wal_seed());
    let counts = window_counts(&mut rng);
    let mut other_rng = Rng::new(wal_seed() ^ 0x07E4);
    let other = tempdir("copied-other");
    write_store(&other, &readings(&mut other_rng, &counts), &fixture.config);
    assert_eq!(sealed_windows(&other), fixture.sealed);
    let dir = fixture.copy("copied-run");
    std::fs::copy(log_path(&other), log_path(&dir)).unwrap();
    drop(fixture.recover(&dir, &BTreeSet::new(), "copied log"));
    assert_log_healed(&fixture, &dir, "copied log");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&other);
    let _ = std::fs::remove_dir_all(&fixture.base);
}

#[test]
fn no_log_at_all_rebuilds_every_window() {
    let fixture = Fixture::new("nolog");
    let dir = fixture.copy("nolog-run");
    std::fs::remove_dir_all(log_path(&dir).parent().unwrap()).unwrap();
    drop(fixture.recover(&dir, &BTreeSet::new(), "no log"));
    assert_log_healed(&fixture, &dir, "no log");
    // A log file that is not a segment at all is replaced the same way.
    std::fs::write(log_path(&dir), b"not a cover log").unwrap();
    drop(fixture.recover(&dir, &BTreeSet::new(), "garbage log"));
    assert_log_healed(&fixture, &dir, "garbage log");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&fixture.base);
}

#[test]
fn fingerprints_name_version_store_and_configuration() {
    let adkmn = AdKmnConfig::default();
    let base = cover_log::fingerprint(1, 7, Pollutant::Co2, H, &adkmn);
    assert_eq!(
        base,
        cover_log::fingerprint(1, 7, Pollutant::Co2, H, &adkmn)
    );
    let tau = AdKmnConfig {
        tau_percent: 2.5,
        ..AdKmnConfig::default()
    };
    for other in [
        cover_log::fingerprint(2, 7, Pollutant::Co2, H, &adkmn),
        cover_log::fingerprint(1, 8, Pollutant::Co2, H, &adkmn),
        cover_log::fingerprint(1, 7, Pollutant::Co, H, &adkmn),
        cover_log::fingerprint(1, 7, Pollutant::Co2, 2 * H, &adkmn),
        cover_log::fingerprint(1, 7, Pollutant::Co2, H, &tau),
    ] {
        assert_ne!(other, base);
    }
}
