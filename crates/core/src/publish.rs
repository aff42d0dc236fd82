//! Online cover publication: epoch-versioned, atomically swapped cover sets.
//!
//! The durable write path rebuilds model covers on a background thread
//! while queries keep flowing. The two sides meet here: the maintenance
//! worker assembles a fresh [`CoverSet`] off the hot path and
//! [`CoverRegistry::publish`]es it with a single `Arc` swap, so a reader
//! either sees the complete old set or the complete new one — never a
//! half-updated mixture, and never a lock held across a model rebuild.
//!
//! A server owns one registry and answers every cover query from it. Its
//! static history is published first, as one generation
//! ([`CoverRegistry::publish_missing`]); ingest then republishes the
//! windows it writes into over those covers.
//!
//! Each publication bumps a monotone **generation** number, stored in the
//! set it labels. The server answers a request from one snapshot and
//! stamps that snapshot's generation into the `ValueBatch` reply, so each
//! batch of answers names the one publication it came from. (A fetched
//! cover carries no generation yet: ROADMAP.md item 1.)
//!
//! Query routing is the batch engine's: a query at time `t` is answered by
//! the newest window whose **first tuple** is at or before `t` (not the
//! window's epoch boundary — an empty leading stretch of a window belongs
//! to its predecessor until data actually arrives). [`CoverSet`] and
//! [`crate::QueryEngine`] both route through one helper (the crate's
//! `routing` module), one window search per run of same-window queries;
//! sharing that rule is what makes streamed answers bit-equal to batch
//! answers.

use crate::cover::ModelCover;
use crate::routing;
use enviro_data::{QueryTuple, Timestamp};
use enviro_memsize::DeepSize;
use enviro_schedule::sync::{Arc, RwLock};

/// One published cover: a window's models plus the routing key.
#[derive(Debug, Clone)]
pub struct PublishedCover {
    /// The window this cover was learned from.
    pub window_id: u64,
    /// Arrival time of the window's first tuple — the routing key that
    /// keeps streamed routing bit-identical to the batch engine's.
    pub first_time: Timestamp,
    /// The cover itself, shared with in-flight readers.
    pub cover: Arc<ModelCover>,
}

/// An immutable, atomically-published set of covers, sorted by window id,
/// labelled with the generation that published it.
#[derive(Debug, Clone, Default)]
pub struct CoverSet {
    entries: Vec<PublishedCover>,
    generation: u64,
}

impl CoverSet {
    /// An empty set (what a registry holds before the first publication).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of published windows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing has been published.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The publication that produced this set (0 = none yet): every
    /// answer read from the set belongs to this generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The published covers, oldest window first.
    pub fn entries(&self) -> &[PublishedCover] {
        &self.entries
    }

    /// The cover published for window `id`, if any.
    pub fn cover_for_window(&self, id: u64) -> Option<&PublishedCover> {
        self.entries
            .binary_search_by_key(&id, |e| e.window_id)
            .ok()
            .map(|i| &self.entries[i])
    }

    /// The cover responsible for a query at `t`: the newest window whose
    /// first tuple is at or before `t`, falling back to the oldest window
    /// for queries that predate all data — exactly the batch
    /// [`crate::QueryEngine`]'s routing rule.
    pub fn cover_for_time(&self, t: Timestamp) -> Option<&PublishedCover> {
        routing::window_index(&self.entries, |e| e.first_time, t).map(|i| &self.entries[i])
    }

    /// Answers `q` from the cover responsible for its time, or `None` when
    /// the set is empty (nothing is published).
    pub fn query(&self, q: &QueryTuple) -> Option<Option<f64>> {
        self.cover_for_time(q.time)
            .map(|e| e.cover.interpolate(q.time, &q.pos))
    }

    /// Answers a batch of queries, appending one answer per query to `out`
    /// (which is cleared first): `out[i]` is `query(&queries[i]).flatten()`,
    /// so an empty set answers every query `None`.
    ///
    /// Routed like [`crate::QueryEngine::query_batch_into`]: one window
    /// search per run of consecutive queries in the same window, not one
    /// per query. Appends into the caller's buffer, so a warmed-up server
    /// serves streamed batches without allocating.
    pub fn query_batch_into(&self, queries: &[QueryTuple], out: &mut Vec<Option<f64>>) {
        out.clear();
        out.reserve(queries.len());
        if self.entries.is_empty() {
            out.resize(queries.len(), None);
            return;
        }
        routing::for_each_window_run(
            &self.entries,
            |e| e.first_time,
            queries,
            |idx, run| {
                let cover = &self.entries[idx].cover;
                out.extend(run.iter().map(|q| cover.interpolate(q.time, &q.pos)));
            },
        );
    }

    /// Verifies the set's ordering invariants.
    pub fn check_invariants(&self) -> Result<(), String> {
        for pair in self.entries.windows(2) {
            if pair[0].window_id >= pair[1].window_id {
                return Err(format!(
                    "window ids not strictly increasing: {} then {}",
                    pair[0].window_id, pair[1].window_id
                ));
            }
            if pair[0].first_time > pair[1].first_time {
                return Err(format!(
                    "first times not monotone: window {} starts at {} but window {} at {}",
                    pair[0].window_id,
                    pair[0].first_time.as_secs(),
                    pair[1].window_id,
                    pair[1].first_time.as_secs()
                ));
            }
        }
        for e in &self.entries {
            if e.cover.window_id != e.window_id {
                return Err(format!(
                    "entry for window {} holds a cover built from window {}",
                    e.window_id, e.cover.window_id
                ));
            }
            e.cover
                .check_invariants()
                .map_err(|err| format!("window {}: {err}", e.window_id))?;
        }
        Ok(())
    }
}

impl DeepSize for PublishedCover {
    fn heap_size(&self) -> usize {
        // The Arc'd cover is attributed to the set that publishes it; a
        // second snapshot sharing the Arc double-counts, which is the
        // conservative direction for a memory budget.
        self.cover.deep_size_of()
    }
}

impl DeepSize for CoverSet {
    fn heap_size(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<PublishedCover>()
            + self.entries.iter().map(|e| e.heap_size()).sum::<usize>()
    }
}

/// The registry queries read from and the maintenance worker publishes to.
///
/// Readers call [`CoverRegistry::snapshot`] (one `RwLock` read + `Arc`
/// clone, never blocked by a rebuild) and keep using the snapshot, and its
/// generation, for the whole request; writers assemble the next
/// [`CoverSet`] and swap it in with [`CoverRegistry::publish`].
#[derive(Debug, Default)]
pub struct CoverRegistry {
    current: RwLock<Arc<CoverSet>>,
}

impl CoverRegistry {
    /// An empty registry at generation 0 (generation 0 is reserved for
    /// "nothing ever published").
    pub fn new() -> Self {
        Self::default()
    }

    /// The current cover set. Cheap; the returned `Arc` stays valid (and
    /// internally consistent) however many publications happen after.
    pub fn snapshot(&self) -> Arc<CoverSet> {
        Arc::clone(&self.current.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// The generation of the latest publication (0 = none yet). Monotone.
    pub fn generation(&self) -> u64 {
        self.snapshot().generation
    }

    /// Publishes `updates`: each entry replaces the current cover for its
    /// window (or inserts a new window), the rest of the set carries over.
    /// Returns the new generation. Entries with an empty cover are
    /// published too — an all-outlier window legitimately models nothing.
    pub fn publish(&self, updates: Vec<PublishedCover>) -> u64 {
        self.merge(updates, true)
    }

    /// Publishes the entries of `covers` whose window the registry does not
    /// hold yet; a window already published keeps its cover. Returns the
    /// new generation, or the current one when nothing was missing (no
    /// publication happens then).
    ///
    /// The check and the insert are one step under the write lock, so a
    /// cover that [`CoverRegistry::publish`] put in place first is never
    /// overwritten, whichever of the two runs first.
    pub fn publish_missing(&self, covers: Vec<PublishedCover>) -> u64 {
        self.merge(covers, false)
    }

    /// Merges `updates` into the current set and swaps the result in;
    /// `replace` says whether an update overwrites a window already held.
    fn merge(&self, updates: Vec<PublishedCover>, replace: bool) -> u64 {
        let mut guard = self.current.write().unwrap_or_else(|e| e.into_inner());
        let mut entries = guard.entries.clone();
        for update in updates {
            match entries.binary_search_by_key(&update.window_id, |e| e.window_id) {
                Ok(i) if replace => entries[i] = update,
                Ok(_) => {}
                Err(i) => entries.insert(i, update),
            }
        }
        if !replace && entries.len() == guard.entries.len() {
            return guard.generation;
        }
        // Numbered under the write lock: generations are dense, and a set
        // and its number are published in one swap.
        let generation = guard.generation + 1;
        *guard = Arc::new(CoverSet {
            entries,
            generation,
        });
        generation
    }

    /// Verifies the registry and its current set.
    pub fn check_invariants(&self) -> Result<(), String> {
        let snap = self.snapshot();
        if snap.generation == 0 && !snap.is_empty() {
            return Err("covers present at generation 0".into());
        }
        snap.check_invariants()
    }
}

impl DeepSize for CoverRegistry {
    fn heap_size(&self) -> usize {
        self.snapshot().deep_size_of()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::AdKmnConfig;
    use crate::cover::CoverBuilder;
    use enviro_data::{Pollutant, RawTuple, Window};
    use enviro_geo::Point;

    fn built_cover(window_id: u64, base_secs: i64) -> Arc<ModelCover> {
        let tuples: Vec<RawTuple> = (0..12)
            .map(|i| {
                RawTuple::new(
                    Timestamp::from_secs(base_secs + i * 60),
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

    fn entry(window_id: u64, first_secs: i64) -> PublishedCover {
        PublishedCover {
            window_id,
            first_time: Timestamp::from_secs(first_secs),
            cover: built_cover(window_id, first_secs),
        }
    }

    #[test]
    fn empty_registry_answers_nothing_at_generation_zero() {
        let reg = CoverRegistry::new();
        assert_eq!(reg.generation(), 0);
        assert!(reg.snapshot().cover_for_time(Timestamp::ZERO).is_none());
        assert_eq!(reg.check_invariants(), Ok(()));
    }

    #[test]
    fn publish_bumps_generation_and_replaces_windows() {
        let reg = CoverRegistry::new();
        assert_eq!(reg.publish(vec![entry(0, 10), entry(1, 3_700)]), 1);
        assert_eq!(reg.generation(), 1);
        let before = reg.snapshot();
        assert_eq!(before.len(), 2);
        // Re-publishing window 1 replaces it without touching window 0.
        let replacement = entry(1, 3_650);
        assert_eq!(reg.publish(vec![replacement]), 2);
        let after = reg.snapshot();
        assert_eq!(after.len(), 2);
        assert_eq!(
            after.cover_for_window(1).map(|e| e.first_time.as_secs()),
            Some(3_650)
        );
        // The old snapshot is untouched — in-flight readers are safe.
        assert_eq!(
            before.cover_for_window(1).map(|e| e.first_time.as_secs()),
            Some(3_700)
        );
        assert_eq!(reg.check_invariants(), Ok(()));
    }

    #[test]
    fn publish_missing_keeps_published_windows() {
        let reg = CoverRegistry::new();
        assert_eq!(reg.publish(vec![entry(1, 3_650)]), 1);
        // Window 1 is held: only window 0 is inserted, in one generation.
        assert_eq!(reg.publish_missing(vec![entry(0, 10), entry(1, 3_700)]), 2);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(
            snap.cover_for_window(1).map(|e| e.first_time.as_secs()),
            Some(3_650)
        );
        // Nothing missing: no publication, the generation stays.
        assert_eq!(reg.publish_missing(vec![entry(0, 20)]), 2);
        assert_eq!(reg.publish_missing(Vec::new()), 2);
        assert_eq!(reg.generation(), 2);
        assert!(Arc::ptr_eq(&snap, &reg.snapshot()));
        assert_eq!(reg.check_invariants(), Ok(()));
    }

    #[test]
    fn time_routing_uses_first_tuple_time() {
        let reg = CoverRegistry::new();
        // Window 1's first tuple lands 100 s into its epoch span.
        reg.publish(vec![entry(0, 10), entry(1, 3_700)]);
        let snap = reg.snapshot();
        let at = |secs| {
            snap.cover_for_time(Timestamp::from_secs(secs))
                .map(|e| e.window_id)
        };
        // Before any data: the oldest window answers (batch-engine rule).
        assert_eq!(at(0), Some(0));
        assert_eq!(at(10), Some(0));
        // Inside window 1's epoch but before its first tuple: still window 0.
        assert_eq!(at(3_650), Some(0));
        assert_eq!(at(3_700), Some(1));
        assert_eq!(at(1_000_000), Some(1));
    }

    #[test]
    fn invariants_catch_mislabelled_covers() {
        let reg = CoverRegistry::new();
        reg.publish(vec![PublishedCover {
            window_id: 5,
            first_time: Timestamp::from_secs(0),
            cover: built_cover(4, 0),
        }]);
        assert!(reg.check_invariants().is_err());
    }

    #[test]
    fn deep_size_counts_published_covers() {
        let reg = CoverRegistry::new();
        let empty = reg.deep_size_of();
        reg.publish(vec![entry(0, 10)]);
        assert!(reg.deep_size_of() > empty);
    }

    #[test]
    fn snapshots_stay_consistent_under_concurrent_publication() {
        let reg = Arc::new(CoverRegistry::new());
        let writer = {
            let reg = Arc::clone(&reg);
            std::thread::spawn(move || {
                for round in 0..50u64 {
                    reg.publish(vec![entry(round % 4, (round % 4) as i64 * 3_600 + 10)]);
                }
            })
        };
        for _ in 0..200 {
            let snap = reg.snapshot();
            assert_eq!(snap.check_invariants(), Ok(()), "torn snapshot");
        }
        writer.join().expect("writer panicked");
        assert_eq!(reg.generation(), 50);
    }
}
