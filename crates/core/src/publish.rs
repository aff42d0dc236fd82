//! Online cover publication: epoch-versioned, atomically swapped cover sets.
//!
//! The durable write path rebuilds model covers on a background thread
//! while queries keep flowing. The two sides meet here: the maintenance
//! worker assembles a fresh [`CoverSet`] off the hot path and
//! [`CoverRegistry::publish`]es it with a single `Arc` swap, so a reader
//! either sees the complete old set or the complete new one — never a
//! half-updated mixture, and never a lock held across a model rebuild.
//!
//! A registry's one writer, the [`CoverRegistry`], is held by the owner of
//! its windows; servers read through a [`CoverReader`]. A static server
//! publishes its platform's covers as generation 1 and keeps the reader.
//! An ingesting server reads its store's: restart publishes the sealed
//! windows, and maintenance each window the stream writes into.
//!
//! Each publication bumps a monotone **generation** number, stored in the
//! set it labels. The server answers a request from one snapshot and
//! stamps that snapshot's generation into the `ValueBatch` reply, so each
//! batch of answers names the one publication it came from. (A fetched
//! cover carries no generation yet: ROADMAP.md item 1.)
//!
//! A sealed window's cover is final and kept in its window's file, so its
//! entry need not hold it: [`CoverRegistry::page_out`] leaves such an
//! entry [`StoredCover::Paged`] — its window id, first tuple time and
//! region count — and a read fetches the cover through the registry's one
//! cover cache, which holds at most [`COVER_CACHE_CAPACITY`] covers and
//! asks the registry's [`CoverLoader`] on a miss. Paging out changes no
//! answer, so it keeps the generation. Static covers and the covers of
//! open windows stay [`StoredCover::Resident`].
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
use enviro_schedule::sync::atomic::{AtomicU64, Ordering};
use enviro_schedule::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};
use std::fmt;

/// How many paged-out covers a registry's cover cache holds: at about
/// 660 B a cover, some 41 KB, more than two days of hourly windows.
pub const COVER_CACHE_CAPACITY: usize = 64;

/// Where a published cover's models are held.
#[derive(Debug, Clone)]
pub enum StoredCover {
    /// In memory, shared with in-flight readers: static covers and the
    /// covers of windows still open to writes.
    Resident(Arc<ModelCover>),
    /// A sealed window's final cover, read back through the registry's
    /// cover cache; the entry keeps only its region count.
    Paged {
        /// The cover's region count.
        regions: usize,
    },
}

impl StoredCover {
    /// The cover's region count, read without paging the cover in.
    pub fn len(&self) -> usize {
        match self {
            StoredCover::Resident(cover) => cover.len(),
            StoredCover::Paged { regions } => *regions,
        }
    }

    /// `true` when the cover models nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cover, when it is resident.
    pub fn resident(&self) -> Option<&Arc<ModelCover>> {
        match self {
            StoredCover::Resident(cover) => Some(cover),
            StoredCover::Paged { .. } => None,
        }
    }
}

impl From<Arc<ModelCover>> for StoredCover {
    fn from(cover: Arc<ModelCover>) -> Self {
        StoredCover::Resident(cover)
    }
}

/// One published cover: a window's models plus the routing key.
#[derive(Debug, Clone)]
pub struct PublishedCover {
    /// The window this cover was learned from.
    pub window_id: u64,
    /// Arrival time of the window's first tuple — the routing key that
    /// keeps streamed routing bit-identical to the batch engine's.
    pub first_time: Timestamp,
    /// The cover itself, or where to read it from.
    pub cover: StoredCover,
}

/// Reads a paged-out cover back from where its window keeps it.
pub trait CoverLoader: fmt::Debug + Send + Sync {
    /// Window `window_id`'s cover, or why it cannot be read.
    fn load(&self, window_id: u64) -> Result<ModelCover, String>;
}

/// A paged-out cover that could not be read back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverReadError {
    /// The window whose cover is unreadable.
    pub window_id: u64,
    /// Why.
    pub reason: String,
}

impl fmt::Display for CoverReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "the cover of window {} could not be read: {}",
            self.window_id, self.reason
        )
    }
}

impl std::error::Error for CoverReadError {}

/// Cover-cache counters of a registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoverCacheStats {
    /// Paged reads the cache did not hold, each read from the loader.
    pub misses: u64,
    /// Misses whose read failed.
    pub read_errors: u64,
}

/// The loader of a registry built by [`CoverRegistry::new`]: such a
/// registry is for resident covers only, so a paged entry published into
/// it reads as an error, as an unreadable file does.
#[derive(Debug)]
struct NoLoader;

impl CoverLoader for NoLoader {
    fn load(&self, _window_id: u64) -> Result<ModelCover, String> {
        Err("the registry has no cover loader".to_string())
    }
}

/// The paged covers most recently read, at most [`COVER_CACHE_CAPACITY`],
/// and the loader that fills it. Its lock is a leaf: never held with the
/// registry's, nor across a load.
#[derive(Debug)]
struct CoverCache {
    loader: Box<dyn CoverLoader>,
    slots: Mutex<CacheSlots>,
    misses: AtomicU64,
    read_errors: AtomicU64,
}

#[derive(Debug, Default)]
struct CacheSlots {
    /// `(window id, last use, cover)`, in no order.
    covers: Vec<(u64, u64, Arc<ModelCover>)>,
    /// Ticks once per use; the slot used longest ago is evicted first.
    clock: u64,
}

impl CoverCache {
    fn new(loader: Box<dyn CoverLoader>) -> Self {
        Self {
            loader,
            slots: Mutex::new(CacheSlots::default()),
            misses: AtomicU64::new(0),
            read_errors: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, CacheSlots> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Window `id`'s cover: from the cache when it holds it (no allocation),
    /// else from the loader, with the cache lock released while it reads.
    /// Two racing misses may both read; a sealed window's file never
    /// changes, so they read the same cover.
    fn get(&self, id: u64) -> Result<Arc<ModelCover>, CoverReadError> {
        if let Some(cover) = self.lookup(id) {
            return Ok(cover);
        }
        // ordering: Relaxed — statistics counters; they order nothing.
        self.misses.fetch_add(1, Ordering::Relaxed);
        match self.loader.load(id) {
            Ok(cover) => {
                let cover = Arc::new(cover);
                self.insert(id, Arc::clone(&cover));
                Ok(cover)
            }
            Err(reason) => {
                // ordering: Relaxed — see `misses` above.
                self.read_errors.fetch_add(1, Ordering::Relaxed);
                Err(CoverReadError {
                    window_id: id,
                    reason,
                })
            }
        }
    }

    fn lookup(&self, id: u64) -> Option<Arc<ModelCover>> {
        let mut slots = self.lock();
        slots.clock += 1;
        let now = slots.clock;
        let slot = slots.covers.iter_mut().find(|slot| slot.0 == id)?;
        slot.1 = now;
        Some(Arc::clone(&slot.2))
    }

    /// Caches `cover` as window `id`'s, evicting the least recently used
    /// cover when the cache is full.
    fn insert(&self, id: u64, cover: Arc<ModelCover>) {
        let mut slots = self.lock();
        slots.clock += 1;
        let slot = (id, slots.clock, cover);
        let covers = &mut slots.covers;
        if let Some(i) = covers.iter().position(|s| s.0 == id) {
            covers[i] = slot;
        } else if covers.len() < COVER_CACHE_CAPACITY {
            covers.push(slot);
        } else if let Some(oldest) = covers.iter_mut().min_by_key(|s| s.1) {
            *oldest = slot;
        }
    }

    fn stats(&self) -> CoverCacheStats {
        CoverCacheStats {
            // ordering: Relaxed — see `get`.
            misses: self.misses.load(Ordering::Relaxed),
            // ordering: Relaxed — see `get`.
            read_errors: self.read_errors.load(Ordering::Relaxed),
        }
    }
}

impl DeepSize for CoverCache {
    fn heap_size(&self) -> usize {
        // The loader is configuration (a store path), not counted.
        let slots = self.lock();
        slots.covers.capacity() * std::mem::size_of::<(u64, u64, Arc<ModelCover>)>()
            + slots
                .covers
                .iter()
                .map(|s| s.2.deep_size_of())
                .sum::<usize>()
    }
}

/// An immutable, atomically-published set of covers, sorted by window id,
/// labelled with the generation that published it.
#[derive(Debug, Clone)]
pub struct CoverSet {
    entries: Vec<PublishedCover>,
    generation: u64,
    /// The publishing registry's cover cache, which paged entries are read
    /// through.
    cache: Arc<CoverCache>,
}

impl CoverSet {
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

    /// Runs `f` on `entry`'s cover: a resident one in place, a paged one
    /// from the cover cache, which reads it from the registry's loader on
    /// a miss. Errs when a paged cover cannot be read.
    pub fn with_cover<R>(
        &self,
        entry: &PublishedCover,
        f: impl FnOnce(&ModelCover) -> R,
    ) -> Result<R, CoverReadError> {
        match &entry.cover {
            StoredCover::Resident(cover) => Ok(f(cover)),
            StoredCover::Paged { .. } => Ok(f(&*self.cache.get(entry.window_id)?)),
        }
    }

    /// Answers `q` from the cover responsible for its time: `Ok(None)` when
    /// the set is empty (nothing is published), an error when that cover
    /// is paged out and cannot be read.
    pub fn query(&self, q: &QueryTuple) -> Result<Option<Option<f64>>, CoverReadError> {
        self.cover_for_time(q.time)
            .map(|e| self.with_cover(e, |cover| cover.interpolate(q.time, &q.pos)))
            .transpose()
    }

    /// Answers a batch of queries, appending one answer per query to `out`
    /// (which is cleared first): `out[i]` is `query(&queries[i])`'s answer,
    /// flattened, so an empty set answers every query `None`. Errs, with
    /// `out` left partial, when a paged cover the batch needs cannot be
    /// read.
    ///
    /// Routed like [`crate::QueryEngine::query_batch_into`]: one window
    /// search per run of consecutive queries in the same window, not one
    /// per query. Appends into the caller's buffer, so a warmed-up server
    /// serves streamed batches without allocating, from resident covers
    /// and cached paged ones alike.
    pub fn query_batch_into(
        &self,
        queries: &[QueryTuple],
        out: &mut Vec<Option<f64>>,
    ) -> Result<(), CoverReadError> {
        out.clear();
        out.reserve(queries.len());
        if self.entries.is_empty() {
            out.resize(queries.len(), None);
            return Ok(());
        }
        let mut read = Ok(());
        routing::for_each_window_run(
            &self.entries,
            |e| e.first_time,
            queries,
            |idx, run| {
                if read.is_ok() {
                    read = self.with_cover(&self.entries[idx], |cover| {
                        out.extend(run.iter().map(|q| cover.interpolate(q.time, &q.pos)));
                    });
                }
            },
        );
        read
    }

    /// Verifies the set's ordering invariants, and the labels of its
    /// resident covers (a paged one is checked where it is read from).
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.generation == 0 && !self.is_empty() {
            return Err("covers present at generation 0".into());
        }
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
            let Some(cover) = e.cover.resident() else {
                continue;
            };
            if cover.window_id != e.window_id {
                return Err(format!(
                    "entry for window {} holds a cover built from window {}",
                    e.window_id, cover.window_id
                ));
            }
            cover
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
        // conservative direction for a memory budget. A paged cover is
        // counted by the cache that holds it, if any.
        self.cover
            .resident()
            .map_or(0, |cover| cover.deep_size_of())
    }
}

impl DeepSize for CoverSet {
    fn heap_size(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<PublishedCover>()
            + self.entries.iter().map(|e| e.heap_size()).sum::<usize>()
    }
}

/// A read handle on a registry's covers: it can snapshot them, never
/// publish. A snapshot is one `RwLock` read and one `Arc` clone, never
/// blocked by a rebuild; a reader keeps it, and its generation, for the
/// whole request.
#[derive(Debug, Clone)]
pub struct CoverReader {
    current: Arc<RwLock<Arc<CoverSet>>>,
}

impl CoverReader {
    /// The current set: valid and consistent however many publications follow.
    pub fn snapshot(&self) -> Arc<CoverSet> {
        Arc::clone(&self.current.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// The generation of the latest publication (0 = none yet). Monotone.
    pub fn generation(&self) -> u64 {
        self.snapshot().generation
    }

    /// The counters of the registry's cover cache.
    pub fn cache_stats(&self) -> CoverCacheStats {
        self.snapshot().cache.stats()
    }
}

impl DeepSize for CoverReader {
    fn heap_size(&self) -> usize {
        let snap = self.snapshot();
        snap.deep_size_of() + snap.cache.deep_size_of()
    }
}

/// The one writer of a cover set, held by the owner of its windows; every
/// other party reads through its [`CoverReader`]. Not `Clone`.
#[derive(Debug)]
pub struct CoverRegistry {
    reader: CoverReader,
}

impl Default for CoverRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl CoverRegistry {
    /// An empty registry at generation 0 (generation 0 is reserved for
    /// "nothing ever published"), with no loader: it is for resident covers
    /// only, and a read of a paged entry published into it errs.
    pub fn new() -> Self {
        Self::with_loader(NoLoader)
    }

    /// An empty registry whose paged entries are read through `loader`.
    pub fn with_loader(loader: impl CoverLoader + 'static) -> Self {
        let empty = CoverSet {
            entries: Vec::new(),
            generation: 0,
            cache: Arc::new(CoverCache::new(Box::new(loader))),
        };
        Self {
            reader: CoverReader {
                current: Arc::new(RwLock::new(Arc::new(empty))),
            },
        }
    }

    /// The read handle on this registry's covers.
    pub fn reader(&self) -> &CoverReader {
        &self.reader
    }

    /// The current cover set: [`CoverReader::snapshot`].
    pub fn snapshot(&self) -> Arc<CoverSet> {
        self.reader.snapshot()
    }

    /// Publishes `updates`: each entry replaces the current cover for its
    /// window (or inserts a new window), the rest of the set carries over.
    /// Returns the new generation. Entries with an empty cover are
    /// published too — an all-outlier window legitimately models nothing.
    pub fn publish(&self, updates: Vec<PublishedCover>) -> u64 {
        let current = &self.reader.current;
        let mut guard = current.write().unwrap_or_else(PoisonError::into_inner);
        let mut entries = guard.entries.clone();
        for update in updates {
            match entries.binary_search_by_key(&update.window_id, |e| e.window_id) {
                Ok(i) => entries[i] = update,
                Err(i) => entries.insert(i, update),
            }
        }
        // Numbered under the write lock: generations are dense, and a set
        // and its number are published in one swap.
        let generation = guard.generation + 1;
        *guard = Arc::new(CoverSet {
            entries,
            generation,
            cache: Arc::clone(&guard.cache),
        });
        generation
    }

    /// Pages out sealed windows' covers, given as `(window id, the resident
    /// cover its file holds)`: each entry still holding that cover keeps
    /// only its region count, and the cover leaves memory once in-flight
    /// readers drop it; the cache fills only from reads. Answers do not
    /// change, so the generation does not either. Call it only once each
    /// window's file holds its cover: a read of a paged entry goes to the
    /// loader on a miss.
    pub fn page_out(&self, sealed: Vec<(u64, Arc<ModelCover>)>) {
        let current = &self.reader.current;
        let mut guard = current.write().unwrap_or_else(PoisonError::into_inner);
        let mut entries = guard.entries.clone();
        let mut paged = false;
        for (id, cover) in sealed {
            let Ok(i) = entries.binary_search_by_key(&id, |e| e.window_id) else {
                continue;
            };
            if entries[i]
                .cover
                .resident()
                .is_some_and(|held| Arc::ptr_eq(held, &cover))
            {
                entries[i].cover = StoredCover::Paged {
                    regions: cover.len(),
                };
                paged = true;
            }
        }
        if paged {
            *guard = Arc::new(CoverSet {
                entries,
                generation: guard.generation,
                cache: Arc::clone(&guard.cache),
            });
        }
    }

    /// Verifies the current set.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.snapshot().check_invariants()
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
            cover: built_cover(window_id, first_secs).into(),
        }
    }

    /// Window `id`'s cover as [`entry`] builds it for window `id` starting
    /// at `id · 100 + 10` s.
    fn paged_source(id: u64) -> PublishedCover {
        entry(id, id as i64 * 100 + 10)
    }

    /// Loads [`paged_source`]'s covers, counting the loads; window `fail`
    /// cannot be read.
    #[derive(Debug)]
    struct TestLoader {
        loads: Arc<std::sync::atomic::AtomicUsize>,
        fail: u64,
    }

    impl CoverLoader for TestLoader {
        fn load(&self, window_id: u64) -> Result<ModelCover, String> {
            self.loads
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if window_id == self.fail {
                return Err("its file is gone".into());
            }
            let source = paged_source(window_id);
            Ok(ModelCover::clone(
                source.cover.resident().expect("built resident"),
            ))
        }
    }

    /// A registry over `TestLoader` holding windows `0..n` resident, and
    /// its load counter.
    fn paging_registry(n: u64, fail: u64) -> (CoverRegistry, Arc<std::sync::atomic::AtomicUsize>) {
        let loads = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let reg = CoverRegistry::with_loader(TestLoader {
            loads: Arc::clone(&loads),
            fail,
        });
        reg.publish((0..n).map(paged_source).collect());
        (reg, loads)
    }

    fn resident_covers(reg: &CoverRegistry) -> Vec<(u64, Arc<ModelCover>)> {
        reg.snapshot()
            .entries()
            .iter()
            .filter_map(|e| Some((e.window_id, Arc::clone(e.cover.resident()?))))
            .collect()
    }

    fn answer_bits(
        set: &CoverSet,
        queries: &[QueryTuple],
    ) -> Result<Vec<Option<u64>>, CoverReadError> {
        let mut out = Vec::new();
        set.query_batch_into(queries, &mut out)?;
        Ok(out.iter().map(|v| v.map(f64::to_bits)).collect())
    }

    fn probes(windows: u64) -> Vec<QueryTuple> {
        (0..windows as i64 * 10)
            .map(|i| {
                QueryTuple::new(
                    Timestamp::from_secs(i * 10 + 5),
                    Point::new(i as f64 * 7.0, -20.0),
                )
            })
            .collect()
    }

    #[test]
    fn paging_out_keeps_every_answer_and_the_generation() {
        let (reg, loads) = paging_registry(4, u64::MAX);
        let queries = probes(4);
        let before = answer_bits(&reg.snapshot(), &queries).unwrap();
        let covers = resident_covers(&reg);
        reg.page_out(covers[..3].to_vec());
        let snap = reg.snapshot();
        assert_eq!(snap.generation(), 1, "a page-out is no publication");
        let paged: Vec<bool> = snap
            .entries()
            .iter()
            .map(|e| e.cover.resident().is_none())
            .collect();
        assert_eq!(paged, [true, true, true, false]);
        // A paged entry still knows its region count.
        for (e, (_, cover)) in snap.entries().iter().zip(&covers) {
            assert_eq!(e.cover.len(), cover.len());
        }
        // The page-out left the cache empty: the first reads load each
        // paged cover once, and the warm reads after them load nothing.
        assert_eq!(reg.reader().cache_stats(), CoverCacheStats::default());
        assert_eq!(answer_bits(&snap, &queries).unwrap(), before);
        assert_eq!(loads.load(std::sync::atomic::Ordering::Relaxed), 3);
        assert_eq!(answer_bits(&snap, &queries).unwrap(), before);
        assert_eq!(loads.load(std::sync::atomic::Ordering::Relaxed), 3);
        let warm = CoverCacheStats {
            misses: 3,
            read_errors: 0,
        };
        assert_eq!(reg.reader().cache_stats(), warm);
        // Paging out again, or a cover the entry no longer holds, is a no-op.
        reg.page_out(covers[..3].to_vec());
        reg.page_out(vec![(3, built_cover(3, 310))]);
        assert!(Arc::ptr_eq(&snap, &reg.snapshot()));
        assert_eq!(reg.reader().generation(), 1);
        assert_eq!(reg.check_invariants(), Ok(()));
    }

    #[test]
    fn a_cold_read_loads_once_and_the_cache_stays_bounded() {
        let n = COVER_CACHE_CAPACITY as u64 + 8;
        let (reg, loads) = paging_registry(n, u64::MAX);
        let queries = probes(n);
        let want = answer_bits(&reg.snapshot(), &queries).unwrap();
        // Page out into a fresh registry over the same loader: its cache
        // starts cold.
        let cold = CoverRegistry::with_loader(TestLoader {
            loads: Arc::clone(&loads),
            fail: u64::MAX,
        });
        cold.publish(
            reg.snapshot()
                .entries()
                .iter()
                .map(|e| PublishedCover {
                    cover: StoredCover::Paged {
                        regions: e.cover.len(),
                    },
                    ..e.clone()
                })
                .collect(),
        );
        let snap = cold.snapshot();
        let one = &queries[..1];
        assert_eq!(answer_bits(&snap, one).unwrap(), want[..1]);
        assert_eq!(answer_bits(&snap, one).unwrap(), want[..1]);
        assert_eq!(
            loads.load(std::sync::atomic::Ordering::Relaxed),
            1,
            "one miss, then a hit"
        );
        assert_eq!(answer_bits(&snap, &queries).unwrap(), want);
        assert_eq!(cold.reader().cache_stats().misses, n);
        assert_eq!(
            cold.snapshot().cache.lock().covers.len(),
            COVER_CACHE_CAPACITY
        );
        // Window 0 was evicted long ago; reading it again loads it again.
        assert_eq!(answer_bits(&snap, one).unwrap(), want[..1]);
        assert_eq!(cold.reader().cache_stats().misses, n + 1);
        assert_eq!(cold.reader().cache_stats().read_errors, 0);
    }

    #[test]
    fn an_unreadable_cover_errs_naming_its_window() {
        let (reg, _) = paging_registry(3, 1);
        let queries = probes(3);
        reg.page_out(resident_covers(&reg));
        // A fresh registry over the same entries starts with a cold cache.
        let cold = CoverRegistry::with_loader(TestLoader {
            loads: Arc::new(std::sync::atomic::AtomicUsize::new(0)),
            fail: 1,
        });
        cold.publish(reg.snapshot().entries().to_vec());
        let snap = cold.snapshot();
        let err = answer_bits(&snap, &queries).unwrap_err();
        assert_eq!(err.window_id, 1);
        assert!(err.to_string().contains("window 1"), "{err}");
        let in_window =
            |id: u64| QueryTuple::new(Timestamp::from_secs(id as i64 * 100 + 50), Point::origin());
        assert!(snap.query(&in_window(1)).is_err());
        assert!(snap.query(&in_window(0)).unwrap().is_some());
        assert!(snap.query(&in_window(2)).unwrap().is_some());
        assert_eq!(cold.reader().cache_stats().read_errors, 2);
        // Nor can the set of a registry with no loader.
        assert!(CoverRegistry::new()
            .snapshot()
            .with_cover(&snap.entries()[0], |_| ())
            .is_err());
    }

    #[test]
    fn deep_size_counts_the_cached_covers() {
        let (reg, _) = paging_registry(5, u64::MAX);
        let covers = resident_covers(&reg);
        // What the loader reads back: a copy of each cover, which may hold
        // less spare capacity than the cover built in memory.
        let held: usize = covers
            .iter()
            .map(|(_, c)| ModelCover::clone(c).deep_size_of())
            .sum();
        let all_resident = reg.reader().deep_size_of();
        // Paged out, then read back: the covers moved from the set to the
        // cache.
        reg.page_out(covers.clone());
        answer_bits(&reg.snapshot(), &probes(5)).unwrap();
        assert_eq!(reg.snapshot().cache.lock().covers.len(), covers.len());
        let cached = reg.reader().deep_size_of();
        let cold = CoverRegistry::new();
        cold.publish(reg.snapshot().entries().to_vec());
        let empty_cache = cold.reader().deep_size_of();
        assert!(
            cached >= empty_cache + held,
            "{cached} B with {} cached covers vs {empty_cache} B",
            covers.len()
        );
        assert!(all_resident >= empty_cache + held);
    }

    #[test]
    fn empty_registry_answers_nothing_at_generation_zero() {
        let reg = CoverRegistry::new();
        assert_eq!(reg.reader().generation(), 0);
        assert!(reg.snapshot().cover_for_time(Timestamp::ZERO).is_none());
        assert_eq!(reg.check_invariants(), Ok(()));
    }

    #[test]
    fn publish_bumps_generation_and_replaces_windows() {
        let reg = CoverRegistry::new();
        assert_eq!(reg.publish(vec![entry(0, 10), entry(1, 3_700)]), 1);
        assert_eq!(reg.reader().generation(), 1);
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
            cover: built_cover(4, 0).into(),
        }]);
        assert!(reg.check_invariants().is_err());
    }

    #[test]
    fn deep_size_counts_published_covers() {
        let reg = CoverRegistry::new();
        let empty = reg.reader().deep_size_of();
        reg.publish(vec![entry(0, 10)]);
        assert!(reg.reader().deep_size_of() > empty);
    }

    #[test]
    fn snapshots_stay_consistent_under_concurrent_publication() {
        let reg = CoverRegistry::new();
        let reader = reg.reader().clone();
        let writer = std::thread::spawn(move || {
            for round in 0..50u64 {
                reg.publish(vec![entry(round % 4, (round % 4) as i64 * 3_600 + 10)]);
            }
        });
        for _ in 0..200 {
            let snap = reader.snapshot();
            assert_eq!(snap.check_invariants(), Ok(()), "torn snapshot");
        }
        writer.join().expect("writer panicked");
        assert_eq!(reader.generation(), 50);
    }
}
