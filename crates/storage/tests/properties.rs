//! Property tests: the store must never lose acknowledged data and never
//! panic on arbitrary tail damage.

// Harness code, exempt from the library panic policy: an unwrap here
// fails the run loudly, which is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use enviro_data::{RawTuple, Timestamp};
use enviro_geo::Point;
use enviro_storage::{WalConfig, WalStore};
use proptest::prelude::*;
use std::path::PathBuf;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

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
