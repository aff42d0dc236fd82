//! Restart from the window files: whatever state a sealed window's cover
//! frame is in, recovery publishes only covers it can trust, rebuilds at
//! open exactly the sealed windows whose frame it cannot, and writes each
//! rebuilt cover back into its window's file.
//!
//! Each case damages the window files of a seeded store, reopens it and
//! checks
//!
//! * which windows are rebuilt at open. A rebuilt window's cover is written
//!   back, and that write replaces the window's file, so a window is
//!   rebuilt exactly when its file has a new inode afterwards;
//! * that every sealed window is published at open, bit-equal to the cover
//!   Ad-KMN builds from its tuples, and that the first pass rebuilds only
//!   the open windows;
//! * that the registry after that pass is bit-equal to a [`CoverBuilder`]
//!   run over `tuples()`.
//!
//! Replay a failure with `WAL_SEED=<decimal or 0x-hex> cargo test -q -p
//! enviro-net --test window_recovery`. CI pins two seeds.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use enviro_data::{Pollutant, RawTuple, Timestamp, Window};
use enviro_geo::Point;
use enviro_meter::{AdKmnConfig, CoverBuilder};
use enviro_net::{IngestConfig, IngestState};
use enviro_storage::crc::crc32;
use enviro_storage::record::RECORD_SIZE;
use enviro_storage::segment::{segment_file_name, FRAME_HEADER_SIZE, HEADER_SIZE};
use enviro_storage::{StorageError, WalConfig, WalStore};
use std::collections::{BTreeMap, BTreeSet};
use std::os::unix::fs::MetadataExt;
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
        "enviro-winrec-{name}-{}-{:x}",
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

/// Writes a store under `dir` from `tuples` in two passes, so its windows
/// are sealed by both. Every window but the newest two ends sealed, with
/// its cover in its file.
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
        .map(|e| {
            let read = snapshot.with_cover(e, |c| bits(e.window_id, e.first_time, c));
            read.expect("cover reads back")
        })
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

/// Sealed window `id`'s file under `dir`.
fn window_file(dir: &Path, id: u64) -> PathBuf {
    dir.join("windows")
        .join(segment_file_name(u32::try_from(id).unwrap()))
}

/// Where window `id`'s cover frame starts: after the header and the tuple
/// frame of its `len` tuples.
fn cover_frame_at(len: usize) -> usize {
    HEADER_SIZE + FRAME_HEADER_SIZE + len * RECORD_SIZE
}

/// Each sealed window's file inode, by window id.
fn inodes(dir: &Path, sealed: &BTreeMap<u64, usize>) -> BTreeMap<u64, u64> {
    sealed
        .keys()
        .map(|&id| (id, std::fs::metadata(window_file(dir, id)).unwrap().ino()))
        .collect()
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

    /// Reopens `dir` and checks the restart: exactly the sealed windows in
    /// `rebuilt` are rebuilt at open. Returns the state after its first
    /// pass.
    fn recover(&self, dir: &Path, rebuilt: &BTreeSet<u64>, ctx: &str) -> IngestState {
        self.recover_with(dir, &self.config, &self.expected, rebuilt, ctx)
    }

    fn recover_with(
        &self,
        dir: &Path,
        config: &IngestConfig,
        expected: &[CoverBits],
        rebuilt: &BTreeSet<u64>,
        ctx: &str,
    ) -> IngestState {
        let before = inodes(dir, &self.sealed);
        let state = open(dir, config);
        let after = inodes(dir, &self.sealed);
        let replaced: BTreeSet<u64> = self
            .sealed
            .keys()
            .copied()
            .filter(|id| before[id] != after[id])
            .collect();
        assert_eq!(&replaced, rebuilt, "{ctx}: windows rebuilt at open");
        let want: Vec<CoverBits> = expected
            .iter()
            .filter(|(id, _, _)| self.sealed.contains_key(id))
            .cloned()
            .collect();
        assert_eq!(
            registry_bits(&state),
            want,
            "{ctx}: covers published at open"
        );
        assert_eq!(state.generation(), 1, "{ctx}");
        assert_eq!(state.check_invariants(), Ok(()), "{ctx}");
        assert_eq!(
            state.rebuild_dirty_now().unwrap(),
            self.windows - self.sealed.len(),
            "{ctx}: the first pass rebuilds the open windows only"
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

    /// Asserts every sealed window's file under `dir` is byte-equal to the
    /// fixture's: a rebuilt cover is written back exactly as the pass
    /// that sealed the window wrote it.
    fn assert_files_healed(&self, dir: &Path, ctx: &str) {
        for &id in self.sealed.keys() {
            assert_eq!(
                std::fs::read(window_file(dir, id)).unwrap(),
                std::fs::read(window_file(&self.base, id)).unwrap(),
                "{ctx}: window {id}'s file"
            );
        }
    }

    /// A seeded victim among the sealed windows.
    fn victim(&self, rng: &mut Rng) -> u64 {
        let ids: Vec<u64> = self.sealed.keys().copied().collect();
        ids[rng.below(ids.len() as u64) as usize]
    }
}

/// After a restart, every sealed window holds its cover again: the next
/// restart rebuilds none.
fn assert_healed(fixture: &Fixture, dir: &Path, ctx: &str) {
    fixture.assert_files_healed(dir, ctx);
    drop(fixture.recover(dir, &BTreeSet::new(), &format!("{ctx}, healed")));
}

#[test]
fn an_intact_store_reopens_without_rebuilding_sealed_windows() {
    let fixture = Fixture::new("intact");
    let dir = fixture.copy("intact-run");
    drop(fixture.recover(&dir, &BTreeSet::new(), "intact"));
    assert_healed(&fixture, &dir, "intact");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&fixture.base);
}

#[test]
fn a_flipped_byte_in_a_cover_frame_rebuilds_that_window_alone() {
    let fixture = Fixture::new("flip-cover");
    let mut rng = Rng::new(wal_seed() ^ 0xF11B);
    let dir = fixture.copy("flip-cover-run");
    for round in 0..4 {
        let victim = fixture.victim(&mut rng);
        let path = window_file(&dir, victim);
        let mut bytes = std::fs::read(&path).unwrap();
        let start = cover_frame_at(fixture.sealed[&victim]);
        let at = start + rng.below((bytes.len() - start) as u64) as usize;
        bytes[at] ^= 1 << rng.below(8);
        std::fs::write(&path, &bytes).unwrap();
        let ctx = format!("seed {:#x}: window {victim}, byte {at}", wal_seed());
        drop(fixture.recover(&dir, &BTreeSet::from([victim]), &ctx));
        assert_healed(&fixture, &dir, &format!("{ctx}, round {round}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&fixture.base);
}

#[test]
fn a_flipped_byte_in_a_tuple_frame_is_an_invalid_segment() {
    let fixture = Fixture::new("flip-tuples");
    let mut rng = Rng::new(wal_seed() ^ 0x7F1B);
    let dir = fixture.copy("flip-tuples-run");
    let victim = fixture.victim(&mut rng);
    let path = window_file(&dir, victim);
    let mut bytes = std::fs::read(&path).unwrap();
    let end = cover_frame_at(fixture.sealed[&victim]);
    let at = HEADER_SIZE + rng.below((end - HEADER_SIZE) as u64) as usize;
    bytes[at] ^= 1 << rng.below(8);
    std::fs::write(&path, &bytes).unwrap();
    let ctx = format!("seed {:#x}: window {victim}, byte {at}", wal_seed());
    match IngestState::open(&dir, wal_config(), fixture.config.clone()) {
        Err(StorageError::InvalidSegment { path: bad, .. }) => assert_eq!(bad, path, "{ctx}"),
        Err(e) => panic!("{ctx}: expected InvalidSegment, got {e}"),
        Ok(_) => panic!("{ctx}: a corrupt tuple frame opened"),
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&fixture.base);
}

#[test]
fn another_tau_or_pollutant_rebuilds_every_window_once() {
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
        let all = fixture.all_sealed();
        drop(fixture.recover_with(&dir, other, &expected, &all, &ctx));
        // Written back under the other fingerprint: a second reopen under
        // it rebuilds none, and the first configuration rebuilds every
        // window again, to the covers it started with.
        drop(fixture.recover_with(&dir, other, &expected, &BTreeSet::new(), &ctx));
        drop(fixture.recover(&dir, &all, &ctx));
        assert_healed(&fixture, &dir, &ctx);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&fixture.base);
}

#[test]
fn a_cover_frame_with_a_wrong_tuple_count_is_rebuilt() {
    let fixture = Fixture::new("count");
    let mut rng = Rng::new(wal_seed() ^ 0xC0);
    let victim = fixture.victim(&mut rng);
    let len = fixture.sealed[&victim];
    let dir = fixture.copy("count-run");
    for delta in [1i64, -1] {
        // The frame stays intact, its CRC recomputed: only the count, the
        // payload's bytes 4..12, is wrong.
        let path = window_file(&dir, victim);
        let mut bytes = std::fs::read(&path).unwrap();
        let payload = cover_frame_at(len) + FRAME_HEADER_SIZE;
        let count = (len as i64 + delta) as u64;
        bytes[payload + 4..payload + 12].copy_from_slice(&count.to_le_bytes());
        let crc = crc32(&bytes[payload..]);
        bytes[payload - 4..payload].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let ctx = format!("seed {:#x}: window {victim}, count {delta:+}", wal_seed());
        drop(fixture.recover(&dir, &BTreeSet::from([victim]), &ctx));
        assert_healed(&fixture, &dir, &ctx);
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&fixture.base);
}

#[test]
fn a_tuples_only_file_is_rebuilt_and_written_back() {
    let fixture = Fixture::new("tuples-only");
    let dir = fixture.copy("tuples-only-run");
    // Cut every sealed window back to its tuple frame, as `enviro store
    // compact` or a build before cover frames leaves it.
    for (&id, &len) in &fixture.sealed {
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(window_file(&dir, id))
            .unwrap();
        f.set_len(cover_frame_at(len) as u64).unwrap();
    }
    drop(fixture.recover(&dir, &fixture.all_sealed(), "tuples only"));
    assert_healed(&fixture, &dir, "tuples only");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&fixture.base);
}

#[test]
fn cover_fingerprints_name_version_pollutant_and_configuration() {
    let base = IngestConfig::default();
    assert_eq!(
        base.cover_fingerprint(),
        IngestConfig::default().cover_fingerprint()
    );
    let others = [
        IngestConfig {
            pollutant: Pollutant::Co,
            ..IngestConfig::default()
        },
        IngestConfig {
            adkmn: AdKmnConfig {
                tau_percent: 2.5,
                ..AdKmnConfig::default()
            },
            ..IngestConfig::default()
        },
    ];
    for other in others {
        assert_ne!(other.cover_fingerprint(), base.cover_fingerprint());
    }
    // The seal lag decides when a window seals, not what its cover is.
    let lag = IngestConfig {
        seal_lag: 5,
        ..IngestConfig::default()
    };
    assert_eq!(lag.cover_fingerprint(), base.cover_fingerprint());
}
