//! Property tests: the store must never lose acknowledged data and never
//! panic on arbitrary tail damage.

// Harness code, exempt from the library panic policy: an unwrap here
// fails the run loudly, which is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use enviro_data::{RawTuple, Timestamp};
use enviro_geo::Point;
use enviro_storage::segment::{parse_segment_file_name, read_segment, segment_file_name};
use enviro_storage::{WalConfig, WalStore};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn unique_dir(tag: &str) -> PathBuf {
    let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "enviro-store-prop-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One-hour windows over the generated 0–100 000 s span, and a WAL that
/// rotates every few batches.
fn config() -> WalConfig {
    WalConfig {
        window_secs: 3_600,
        max_wal_segment_bytes: 256,
    }
}

/// The single WAL segment of a store that never rotated or sealed.
fn first_wal_segment(dir: &std::path::Path) -> PathBuf {
    dir.join("wal").join("seg-00000000.log")
}

fn arb_batches() -> impl Strategy<Value = Vec<Vec<RawTuple>>> {
    prop::collection::vec(
        prop::collection::vec(
            (0i64..100_000, -1e4..1e4f64, -1e4..1e4f64, 0.0..2_000.0f64),
            0..20,
        ),
        0..12,
    )
    .prop_map(|batches| {
        batches
            .into_iter()
            .map(|batch| {
                batch
                    .into_iter()
                    .map(|(t, x, y, v)| RawTuple::new(Timestamp::from_secs(t), Point::new(x, y), v))
                    .collect()
            })
            .collect()
    })
}

/// One step in the life of a store.
#[derive(Debug, Clone)]
enum Op {
    Append(Vec<RawTuple>),
    /// Seal every window below this id.
    Seal(u64),
    Reopen,
}

/// Appends over eleven one-hour windows (a few tuples before the epoch,
/// which the store refuses), seals at any watermark, and reopens.
fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let tuple = (-100i64..40_000, -1e4..1e4f64, 0.0..2_000.0f64)
        .prop_map(|(t, x, v)| RawTuple::new(Timestamp::from_secs(t), Point::new(x, -x), v));
    let append = prop::collection::vec(tuple, 1..6).prop_map(Op::Append);
    // Four appends to each seal and each reopen.
    let op = prop_oneof![
        append.clone(),
        append.clone(),
        append.clone(),
        append,
        (0u64..12).prop_map(Op::Seal),
        Just(Op::Reopen),
    ];
    prop::collection::vec(op, 1..40)
}

/// What the store must hold: every accepted tuple, by window.
#[derive(Default)]
struct Model {
    open: BTreeMap<u64, Vec<RawTuple>>,
    sealed: BTreeMap<u64, Vec<RawTuple>>,
}

impl Model {
    fn append(&mut self, batch: &[RawTuple]) {
        for t in batch.iter().filter(|t| t.time.as_secs() >= 0) {
            let id = (t.time.as_secs() / 3_600) as u64;
            if !self.sealed.contains_key(&id) {
                self.open.entry(id).or_default().push(*t);
            }
        }
    }

    fn seal(&mut self, watermark: u64) -> Vec<u64> {
        let ids: Vec<u64> = self.open.range(..watermark).map(|(&id, _)| id).collect();
        for id in &ids {
            if let Some(tuples) = self.open.remove(id) {
                self.sealed.insert(*id, tuples);
            }
        }
        ids
    }

    /// `WalStore::tuples` order: window by window, each in arrival order.
    fn tuples(&self) -> Vec<RawTuple> {
        let windows: BTreeMap<&u64, &Vec<RawTuple>> =
            self.open.iter().chain(&self.sealed).collect();
        windows.into_values().flatten().copied().collect()
    }
}

/// Every WAL segment on disk but the last (the active one) must span an
/// open window: one whose windows are all sealed should have retired.
fn wal_holds_only_open_windows(dir: &Path, model: &Model) -> Result<(), TestCaseError> {
    let wal = dir.join("wal");
    let mut seqs: Vec<u32> = std::fs::read_dir(&wal)
        .unwrap()
        .filter_map(|e| parse_segment_file_name(e.unwrap().file_name().to_str()?))
        .collect();
    seqs.sort_unstable();
    seqs.pop();
    for seq in seqs {
        let path = wal.join(segment_file_name(seq));
        let ids: Vec<u64> = read_segment(&path)
            .unwrap()
            .tuples
            .iter()
            .map(|t| (t.time.as_secs() / 3_600) as u64)
            .collect();
        let (lo, hi) = (ids.iter().min(), ids.iter().max());
        let spans_open = lo
            .zip(hi)
            .is_some_and(|(&lo, &hi)| model.open.range(lo..=hi).next().is_some());
        prop_assert!(spans_open, "{} spans no open window", path.display());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn appends_seals_and_reopens_keep_every_accepted_tuple(ops in arb_ops()) {
        let dir = unique_dir("lifecycle");
        let mut store = WalStore::open(&dir, config()).unwrap();
        let mut model = Model::default();
        for op in &ops {
            match op {
                Op::Append(batch) => {
                    model.append(batch);
                    store.append_batch(batch).unwrap();
                }
                Op::Seal(watermark) => {
                    prop_assert_eq!(store.seal_windows_before(*watermark).unwrap(), model.seal(*watermark));
                }
                Op::Reopen => {
                    drop(store);
                    store = WalStore::open(&dir, config()).unwrap();
                }
            }
            prop_assert_eq!(store.tuples().unwrap(), model.tuples(), "after {:?}", op);
            prop_assert_eq!(store.durable_upto(), model.tuples().len() as u64);
            wal_holds_only_open_windows(&dir, &model)?;
        }
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn appended_batches_survive_reopen(batches in arb_batches()) {
        let dir = unique_dir("reopen");
        let mut expected: Vec<RawTuple> = Vec::new();
        {
            // Small segments force rotation mid-run.
            let mut store = WalStore::open(&dir, config()).unwrap();
            for batch in &batches {
                store.append_batch(batch).unwrap();
                expected.extend_from_slice(batch);
            }
        }
        let store = WalStore::open(&dir, config()).unwrap();
        let mut got = store.tuples().unwrap();
        expected.sort_by_key(|t| t.time);
        got.sort_by_key(|t| t.time);
        prop_assert_eq!(got.len(), expected.len());
        // Same multiset: compare after sorting by all fields via debug repr.
        let fmt = |v: &[RawTuple]| {
            let mut s: Vec<String> = v.iter().map(|t| format!("{t:?}")).collect();
            s.sort();
            s
        };
        prop_assert_eq!(fmt(&got), fmt(&expected));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn arbitrary_tail_truncation_yields_clean_prefix(
        batches in arb_batches(),
        chop in 1usize..200,
    ) {
        let dir = unique_dir("chop");
        let total: usize = batches.iter().map(Vec::len).sum();
        let unrotated = WalConfig::default();
        {
            let mut store = WalStore::open(&dir, unrotated).unwrap();
            for batch in &batches {
                store.append_batch(batch).unwrap();
            }
        }
        // Damage the (single) WAL segment by chopping `chop` bytes off the
        // end, but never into the header.
        let seg = first_wal_segment(&dir);
        let len = std::fs::metadata(&seg).unwrap().len();
        let new_len = len.saturating_sub(chop as u64).max(16);
        std::fs::OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(new_len)
            .unwrap();
        // Recovery must not panic and must return a prefix of the appended
        // tuples (batch-granular).
        let store = WalStore::open(&dir, unrotated).unwrap();
        prop_assert!(store.tuples().unwrap().len() <= total);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn random_byte_flip_never_panics(
        batch in prop::collection::vec((0i64..1000, 0.0..100.0f64), 1..30),
        flip_at in 16usize..500,
        flip_bit in 0u8..8,
    ) {
        let dir = unique_dir("flip");
        let tuples: Vec<RawTuple> = batch
            .iter()
            .map(|&(t, v)| RawTuple::new(Timestamp::from_secs(t), Point::new(v, v), v))
            .collect();
        let unrotated = WalConfig::default();
        {
            let mut store = WalStore::open(&dir, unrotated).unwrap();
            store.append_batch(&tuples).unwrap();
        }
        let seg = first_wal_segment(&dir);
        let mut data = std::fs::read(&seg).unwrap();
        if flip_at < data.len() {
            data[flip_at] ^= 1 << flip_bit;
            std::fs::write(&seg, &data).unwrap();
        }
        // Flips inside the header are hard errors; flips in the body are
        // recovered as truncation. Either way: no panic, no garbage tuples
        // beyond the original count.
        if let Ok(store) = WalStore::open(&dir, unrotated) {
            prop_assert!(store.tuples().unwrap().len() <= tuples.len());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
