//! Deterministic-schedule model checks for the cover-publication path.
//!
//! Compiled only under `RUSTFLAGS="--cfg enviro_schedules"` (the CI
//! `concurrency-check` job); an ordinary `cargo test` sees an empty file.
//! Each harness hands a closure to [`enviro_schedule::explore`], which
//! re-executes it under every thread interleaving within the preemption
//! bound and panics with a replayable `SCHED_REPLAY=` path on the first
//! schedule that violates an assertion.
#![cfg(enviro_schedules)]

use enviro_data::{Pollutant, RawTuple, Timestamp, Window};
use enviro_geo::Point;
use enviro_meter::{AdKmnConfig, CoverBuilder, CoverRegistry, ModelCover, PublishedCover};
use enviro_schedule::sync::Arc;

/// Builds one real cover outside the model (Ad-KMN is deterministic and
/// single-threaded; rebuilding it per schedule would only slow the search).
fn built_cover(window_id: u64) -> Arc<ModelCover> {
    let tuples: Vec<RawTuple> = (0..12)
        .map(|i| {
            RawTuple::new(
                Timestamp::from_secs(i * 60),
                Point::new(i as f64 * 40.0, -(i as f64) * 15.0),
                420.0 + i as f64,
            )
        })
        .collect();
    let window = Window {
        id: window_id,
        tuples: &tuples,
        valid_until: Timestamp::from_secs((window_id as i64 + 1) * 3_600),
    };
    Arc::new(CoverBuilder::new(AdKmnConfig::default()).build(&window, Pollutant::Co2))
}

/// The registry's core promise: a reader that observes generation `g`
/// through the atomic also finds at least `g` publications' worth of
/// content in a *subsequent* snapshot — the generation bump never becomes
/// visible before the swapped set does.
#[test]
fn generation_never_leads_cover_contents() {
    let cover = built_cover(0);
    let report = enviro_schedule::explore("cover-registry-publish", move || {
        let registry = CoverRegistry::new();
        let reader = registry.reader().clone();
        let writer = {
            let cover = Arc::clone(&cover);
            enviro_schedule::thread::spawn(move || {
                registry.publish(vec![PublishedCover {
                    window_id: 0,
                    first_time: Timestamp::from_secs(0),
                    cover: cover.into(),
                }])
            })
        };
        // The racing reader: generation first, snapshot second. Any
        // schedule where the bump lands before the swap is visible fails.
        let gen = reader.generation();
        let snap = reader.snapshot();
        assert!(
            gen as usize <= snap.len(),
            "generation {gen} observed but snapshot holds {} covers",
            snap.len()
        );
        snap.check_invariants().expect("snapshot is never torn");
        let published_gen = writer.join().expect("writer ran");
        assert_eq!(published_gen, 1);
        assert_eq!(reader.generation(), 1);
        assert_eq!(reader.snapshot().len(), 1);
    });
    println!("{report}");
    assert!(report.schedules > 1, "the race must actually be explored");
}

/// Two concurrent publishers of different windows: both publications must
/// survive, generations stay monotone, and no interleaving tears the set.
#[test]
fn concurrent_publishers_never_lose_an_update() {
    let cover_a = built_cover(0);
    let cover_b = built_cover(1);
    let report = enviro_schedule::explore("cover-registry-two-writers", move || {
        let registry = Arc::new(CoverRegistry::new());
        let spawn_publish = |window_id: u64, cover: &Arc<ModelCover>| {
            let registry = Arc::clone(&registry);
            let cover = Arc::clone(cover);
            enviro_schedule::thread::spawn(move || {
                registry.publish(vec![PublishedCover {
                    window_id,
                    first_time: Timestamp::from_secs(window_id as i64 * 3_600),
                    cover: cover.into(),
                }])
            })
        };
        let a = spawn_publish(0, &cover_a);
        let b = spawn_publish(1, &cover_b);
        let gen_a = a.join().expect("publisher a");
        let gen_b = b.join().expect("publisher b");
        // Generations are handed out under the write lock: distinct, dense.
        assert_ne!(gen_a, gen_b);
        assert_eq!(gen_a.max(gen_b), 2);
        let snap = registry.snapshot();
        assert_eq!(snap.len(), 2, "a publication was lost");
        snap.check_invariants().expect("final set is consistent");
    });
    println!("{report}");
    assert!(report.schedules > 1);
}
