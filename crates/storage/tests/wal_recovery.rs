//! Crash-recovery property harness for [`enviro_storage::WalStore`]:
//! write a seeded batch sequence, then simulate a kill at **every byte
//! offset** of the WAL and prove that replay
//!
//! * never yields a corrupt tuple (every recovered tuple is bit-identical
//!   to one that was appended, in arrival order), and
//! * recovers exactly the fully-synced batch prefix — every batch whose
//!   frame survived the crash point comes back whole, and no partial batch
//!   ever leaks through.
//!
//! Replay a failure with `WAL_SEED=<decimal or 0x-hex> cargo test -q -p
//! enviro-storage --test wal_recovery`. CI pins two seeds.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use enviro_data::{RawTuple, Timestamp};
use enviro_geo::Point;
use enviro_storage::{WalConfig, WalStore};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Window length used by the harness (seconds).
const H: i64 = 100;

/// Default pinned seed; CI runs a second one via `WAL_SEED`.
const DEFAULT_WAL_SEED: u64 = 0x5EED_BA7C_0001;

/// Seed override, mirroring the chaos suite's `CHAOS_SEED` knob.
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

/// xorshift64* — the same generator family as the chaos wire, so a seed
/// printed by one harness means the same thing in the other.
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
        "enviro-walrec-{name}-{}-{:x}",
        std::process::id(),
        wal_seed()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Recursively copies a store directory (wal/ + windows/ + records).
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

/// One seeded batch of finite tuples across a handful of windows.
fn random_batch(rng: &mut Rng, windows: u64) -> Vec<RawTuple> {
    let n = 1 + rng.below(5) as usize;
    (0..n)
        .map(|_| {
            let t = rng.below(windows * H as u64) as i64;
            let x = rng.below(10_000) as f64 / 10.0;
            let y = rng.below(10_000) as f64 / 10.0;
            let v = rng.below(5_000) as f64 / 10.0;
            RawTuple::new(Timestamp::from_secs(t), Point::new(x, y), v)
        })
        .collect()
}

/// Groups a batch prefix by window id, preserving arrival order.
fn expected_by_window(batches: &[Vec<RawTuple>], upto: usize) -> BTreeMap<u64, Vec<RawTuple>> {
    let mut exp: BTreeMap<u64, Vec<RawTuple>> = BTreeMap::new();
    for batch in &batches[..upto] {
        for t in batch {
            let id = t.time.as_secs().div_euclid(H) as u64;
            exp.entry(id).or_default().push(*t);
        }
    }
    exp
}

/// Asserts a recovered store holds exactly `exp` (plus nothing else).
fn assert_recovered(store: &WalStore, exp: &BTreeMap<u64, Vec<RawTuple>>, ctx: &str) {
    let total: usize = exp.values().map(Vec::len).sum();
    assert_eq!(
        store.durable_upto(),
        total as u64,
        "{ctx}: durable_upto mismatch"
    );
    for (&id, tuples) in exp {
        let got = store
            .window_tuples(id)
            .unwrap_or_else(|| panic!("{ctx}: window {id} lost"));
        assert_eq!(got, tuples.as_slice(), "{ctx}: window {id} tuples differ");
    }
    let stats = store.stats();
    assert_eq!(
        stats.memtable_tuples + stats.sealed_tuples,
        total,
        "{ctx}: extra tuples materialized from nowhere"
    );
    assert_eq!(store.check_invariants(), Ok(()), "{ctx}");
}

#[test]
fn kill_at_every_byte_recovers_exact_acked_prefix() {
    let seed = wal_seed();
    let mut rng = Rng::new(seed);
    let base = tempdir("prefix");
    let cfg = WalConfig {
        window_secs: H,
        max_wal_segment_bytes: u64::MAX, // keep one WAL segment: every byte of it gets a kill
    };

    // Write a seeded batch sequence, recording the synced WAL length after
    // each acknowledged batch.
    let mut store = WalStore::open(&base, cfg).unwrap();
    let mut batches: Vec<Vec<RawTuple>> = Vec::new();
    let mut synced_len: Vec<u64> = Vec::new(); // WAL bytes once batch i is acked
    for _ in 0..24 {
        let batch = random_batch(&mut rng, 4);
        store.append_batch(&batch).unwrap();
        batches.push(batch);
        synced_len.push(store.stats().wal_bytes);
    }
    drop(store);

    let wal_file = base.join("wal").join("seg-00000000.log");
    let full_len = std::fs::metadata(&wal_file).unwrap().len();
    assert_eq!(full_len, *synced_len.last().unwrap());

    let scratch = tempdir("prefix-scratch");
    for kill_at in 0..=full_len {
        let _ = std::fs::remove_dir_all(&scratch);
        copy_dir(&base, &scratch);
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(scratch.join("wal").join("seg-00000000.log"))
            .unwrap();
        f.set_len(kill_at).unwrap();
        drop(f);

        let store = WalStore::open(&scratch, cfg)
            .unwrap_or_else(|e| panic!("seed {seed:#x}: open failed at kill_at={kill_at}: {e}"));
        // Every batch whose frame is fully inside the surviving bytes must
        // come back; nothing else may.
        let acked = synced_len.partition_point(|&end| end <= kill_at);
        let exp = expected_by_window(&batches, acked);
        assert_recovered(&store, &exp, &format!("seed {seed:#x}, kill_at={kill_at}"));
        if kill_at < full_len {
            // Some suffix was lost; the store must have noticed unless the
            // cut landed exactly on a frame boundary (or right after the
            // header), where the file is indistinguishable from a clean
            // shutdown.
            let on_boundary = kill_at == 16 || synced_len.contains(&kill_at);
            assert_eq!(
                store.stats().recovered_torn_tail,
                !on_boundary,
                "seed {seed:#x}, kill_at={kill_at}: torn-tail flag"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&base);
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn kill_at_every_byte_with_sealed_windows() {
    let seed = wal_seed() ^ 0xD15C;
    let mut rng = Rng::new(seed);
    let base = tempdir("sealed");
    let cfg = WalConfig {
        window_secs: H,
        max_wal_segment_bytes: u64::MAX,
    };

    // Phase 1: ingest, then seal everything below window 2 (rolling the
    // WAL). Sealed windows live in windows/ segments from here on.
    let mut store = WalStore::open(&base, cfg).unwrap();
    let mut phase1_batches: Vec<Vec<RawTuple>> = Vec::new();
    for _ in 0..12 {
        let batch = random_batch(&mut rng, 4);
        store.append_batch(&batch).unwrap();
        phase1_batches.push(batch);
    }
    let sealed_ids = store.seal_windows_before(2).unwrap();
    assert!(!sealed_ids.is_empty(), "seed {seed:#x}: nothing sealed");

    // Phase 2: more batches after the seal; late tuples for the
    // sealed windows are dropped on arrival, so the expected survivors of
    // phase 2 are only the fresh-window tuples.
    let mut tail_batches: Vec<Vec<RawTuple>> = Vec::new();
    let mut synced_len: Vec<u64> = Vec::new();
    for _ in 0..12 {
        let batch = random_batch(&mut rng, 4);
        let kept: Vec<RawTuple> = batch
            .iter()
            .filter(|t| !sealed_ids.contains(&(t.time.as_secs().div_euclid(H) as u64)))
            .copied()
            .collect();
        store.append_batch(&batch).unwrap();
        tail_batches.push(kept);
        synced_len.push(store.stats().wal_bytes);
    }
    let sealed_exp: BTreeMap<u64, Vec<RawTuple>> = sealed_ids
        .iter()
        .map(|&id| (id, store.read_sealed(id).unwrap()))
        .collect();
    drop(store);

    // The seal rolled the WAL: seg-00000000.log holds phase 1 (it also
    // holds the open windows, so it did not retire), and the active
    // segment is seg-00000001.log; kill at every byte of it.
    let wal_file = base.join("wal").join("seg-00000001.log");
    let full_len = std::fs::metadata(&wal_file).unwrap().len();
    let prefix_wal_bytes: u64 = std::fs::metadata(base.join("wal").join("seg-00000000.log"))
        .unwrap()
        .len();

    let scratch = tempdir("sealed-scratch");
    for kill_at in 0..=full_len {
        let _ = std::fs::remove_dir_all(&scratch);
        copy_dir(&base, &scratch);
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(scratch.join("wal").join("seg-00000001.log"))
            .unwrap();
        f.set_len(kill_at).unwrap();
        drop(f);

        let store = WalStore::open(&scratch, cfg)
            .unwrap_or_else(|e| panic!("seed {seed:#x}: open failed at kill_at={kill_at}: {e}"));
        // Sealed windows are untouched by a WAL kill. They stay on disk
        // and read back from their files.
        for (&id, tuples) in &sealed_exp {
            assert!(store.is_sealed(id), "seed {seed:#x}: window {id} unsealed");
            assert!(store.window_tuples(id).is_none(), "window {id} resident");
            assert_eq!(
                store.read_sealed(id).unwrap(),
                tuples.as_slice(),
                "seed {seed:#x}, kill_at={kill_at}: sealed window {id} changed"
            );
        }
        // Memtables: the prefix segment (always whole — it was synced
        // before the roll) plus the surviving tail batches.
        let acked =
            synced_len.partition_point(|&end| end.saturating_sub(prefix_wal_bytes) <= kill_at);
        let mut exp: BTreeMap<u64, Vec<RawTuple>> = BTreeMap::new();
        for batch in &phase1_batches {
            for t in batch {
                let id = t.time.as_secs().div_euclid(H) as u64;
                if !sealed_exp.contains_key(&id) {
                    exp.entry(id).or_default().push(*t);
                }
            }
        }
        for batch in &tail_batches[..acked] {
            for t in batch {
                let id = t.time.as_secs().div_euclid(H) as u64;
                exp.entry(id).or_default().push(*t);
            }
        }
        exp.retain(|_, v| !v.is_empty());
        let total: u64 = sealed_exp.values().map(|v| v.len() as u64).sum::<u64>()
            + exp.values().map(|v| v.len() as u64).sum::<u64>();
        assert_eq!(
            store.durable_upto(),
            total,
            "seed {seed:#x}, kill_at={kill_at}: durable_upto"
        );
        for (&id, tuples) in &exp {
            assert_eq!(
                store.window_tuples(id).unwrap_or(&[]),
                tuples.as_slice(),
                "seed {seed:#x}, kill_at={kill_at}: window {id} memtable"
            );
        }
        assert_eq!(store.check_invariants(), Ok(()));
    }
    let _ = std::fs::remove_dir_all(&base);
    let _ = std::fs::remove_dir_all(&scratch);
}

/// Lists the `.log` files of `dir`, sorted.
fn log_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.ends_with(".log"))
        .collect();
    names.sort();
    names
}

/// A seal cut short at each of its steps reopens to the same tuples and
/// `durable_upto`, and each window that reopens sealed hands back its
/// cover frame. One seal writes and fsyncs every window's file under a
/// `.tmp` name, renames them all into `windows/`, syncs the directory
/// once, and only then deletes the WAL segments left holding sealed
/// windows only, without a sync. So a crash leaves one of:
///
/// * `.tmp` files, the last of any length, with every WAL segment still
///   there: every window reopens open, from the WAL;
/// * after any of the renames and before the directory sync: any subset
///   of them on disk (a rename is durable only once its directory is
///   synced, in no set order). A renamed window reopens sealed; every
///   other one reopens open, its whole `.tmp` beside it;
/// * every rename durable, but an unlink lost: the retired segment
///   replays into sealed windows only, and nothing counts twice.
#[test]
fn kill_at_every_step_of_a_seal() {
    /// Windows the seal commits.
    const SEALED: usize = 3;
    let seed = wal_seed() ^ 0x5EA1;
    let mut rng = Rng::new(seed);
    let base = tempdir("seal-steps");
    let cfg = WalConfig {
        window_secs: H,
        max_wal_segment_bytes: 256,
    };
    // Windows 0-2 first, then 3-4: the 256-byte rotation leaves the older
    // segments holding windows 0-2 only, so the seal retires them.
    let mut store = WalStore::open(&base, cfg).unwrap();
    for (windows, shift) in [(SEALED as u64, 0), (2, SEALED as i64 * H)] {
        for _ in 0..10 {
            let batch: Vec<RawTuple> = random_batch(&mut rng, windows)
                .into_iter()
                .map(|t| RawTuple::new(t.time + shift, t.pos, t.value))
                .collect();
            store.append_batch(&batch).unwrap();
        }
    }
    let tuples = store.tuples().unwrap();
    let durable = store.durable_upto();
    let pre_seal = tempdir("seal-steps-pre");
    copy_dir(&base, &pre_seal);
    let cover = |id: usize| format!("cover of window {id}").into_bytes();
    let covers = || (0..SEALED).map(|id| (id as u64, cover(id))).collect();
    let all: Vec<u64> = (0..SEALED as u64).collect();
    assert_eq!(
        store.seal_with_covers(covers()).unwrap(),
        all,
        "seed {seed:#x}"
    );
    drop(store);
    let retired: Vec<String> = log_files(&pre_seal.join("wal"))
        .into_iter()
        .filter(|name| !base.join("wal").join(name).exists())
        .collect();
    assert!(
        !retired.is_empty(),
        "seed {seed:#x}: no WAL segment retired"
    );
    let file = |dir: &Path, id: usize, ext: &str| {
        dir.join("windows").join(format!("seg-{id:08}.log{ext}"))
    };
    let sealed: Vec<Vec<u8>> = (0..SEALED)
        .map(|id| std::fs::read(file(&base, id, "")).unwrap())
        .collect();

    let scratch = tempdir("seal-steps-scratch");
    // The sealed store with its retired WAL segments back, and only the
    // windows in `renamed` committed: every other one is its whole `.tmp`.
    let crash_state = |renamed: &[usize]| {
        let _ = std::fs::remove_dir_all(&scratch);
        copy_dir(&base, &scratch);
        for name in &retired {
            std::fs::copy(
                pre_seal.join("wal").join(name),
                scratch.join("wal").join(name),
            )
            .unwrap();
        }
        for id in (0..SEALED).filter(|id| !renamed.contains(id)) {
            std::fs::rename(file(&scratch, id, ""), file(&scratch, id, ".tmp")).unwrap();
        }
    };
    let check = |renamed: &[usize], ctx: &str| {
        let mut store = WalStore::open(&scratch, cfg)
            .unwrap_or_else(|e| panic!("seed {seed:#x}, {ctx}: open failed: {e}"));
        for id in 0..SEALED {
            assert_eq!(
                store.is_sealed(id as u64),
                renamed.contains(&id),
                "seed {seed:#x}, {ctx}: window {id}"
            );
        }
        let want: BTreeMap<u64, Vec<u8>> =
            renamed.iter().map(|&id| (id as u64, cover(id))).collect();
        assert_eq!(store.take_covers(), want, "seed {seed:#x}, {ctx}: covers");
        assert_eq!(
            store.durable_upto(),
            durable,
            "seed {seed:#x}, {ctx}: durable_upto"
        );
        assert_eq!(
            store.tuples().unwrap(),
            tuples,
            "seed {seed:#x}, {ctx}: tuples"
        );
        let stats = store.stats();
        assert_eq!(
            (stats.memtable_tuples + stats.sealed_tuples) as u64,
            durable,
            "seed {seed:#x}, {ctx}: double count"
        );
        assert_eq!(store.check_invariants(), Ok(()), "seed {seed:#x}, {ctx}");
        store
    };

    // A crash while the `.tmp` files were written: the ones before window
    // `k` whole, window `k`'s any prefix. Resealing overwrites the
    // leftovers.
    for (k, bytes) in sealed.iter().enumerate() {
        for len in 0..=bytes.len() {
            crash_state(&[]);
            for id in k..SEALED {
                std::fs::remove_file(file(&scratch, id, ".tmp")).unwrap();
            }
            std::fs::write(file(&scratch, k, ".tmp"), &bytes[..len]).unwrap();
            let mut store = check(&[], &format!("tmp {k} of {len} bytes"));
            if k + 1 == SEALED && len == bytes.len() / 2 {
                store.seal_with_covers(covers()).unwrap();
                assert!((0..SEALED).all(|id| !file(&scratch, id, ".tmp").exists()));
                drop(store);
                check(
                    &(0..SEALED).collect::<Vec<_>>(),
                    "resealed after a torn tmp",
                );
            }
        }
    }
    // A crash after the renames and before the directory sync: any subset
    // of them reached the disk. The full set is also the crash after the
    // sync with every unlink lost.
    for mask in 0..1usize << SEALED {
        let renamed: Vec<usize> = (0..SEALED).filter(|id| mask >> id & 1 == 1).collect();
        crash_state(&renamed);
        check(&renamed, &format!("renames {renamed:?} durable"));
    }
    // The seal as it completed.
    let _ = std::fs::remove_dir_all(&scratch);
    copy_dir(&base, &scratch);
    check(&(0..SEALED).collect::<Vec<_>>(), "seal complete");

    let _ = std::fs::remove_dir_all(&base);
    let _ = std::fs::remove_dir_all(&pre_seal);
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn recovery_is_deterministic() {
    let seed = wal_seed();
    let mut rng = Rng::new(seed);
    let base = tempdir("determinism");
    let cfg = WalConfig {
        window_secs: H,
        max_wal_segment_bytes: 512,
    };
    let mut store = WalStore::open(&base, cfg).unwrap();
    for _ in 0..20 {
        let batch = random_batch(&mut rng, 3);
        store.append_batch(&batch).unwrap();
    }
    store.seal_windows_before(1).unwrap();
    drop(store);

    let snapshot = |s: &WalStore| -> Vec<(u64, Vec<RawTuple>)> {
        let mut all: Vec<(u64, Vec<RawTuple>)> =
            s.memtables().map(|(id, m)| (id, m.to_vec())).collect();
        for id in s.sealed_window_ids() {
            all.push((id, s.read_sealed(id).unwrap()));
        }
        all.sort_by_key(|&(id, _)| id);
        all
    };
    let a = WalStore::open(&base, cfg).unwrap();
    let first = (a.durable_upto(), snapshot(&a));
    drop(a);
    let b = WalStore::open(&base, cfg).unwrap();
    let second = (b.durable_upto(), snapshot(&b));
    assert_eq!(first, second, "seed {seed:#x}: recovery not deterministic");
    let _ = std::fs::remove_dir_all(&base);
}
