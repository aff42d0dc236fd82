//! The durable write path: WAL-backed ingestion with online model
//! maintenance.
//!
//! [`IngestState`] is what an ingesting [`crate::EnviroServer`] holds. The
//! hot path is deliberately small: an `IngestBatch` locks the state, runs
//! the per-source idempotency check, appends to the
//! [`enviro_storage::WalStore`] (which fsyncs before returning), marks the
//! affected windows dirty, and acks. Everything expensive — Ad-KMN
//! rebuilds, window sealing, WAL segment retirement — happens on the
//! [`ModelMaintenance`] worker thread, which drains the dirty set, builds
//! fresh covers **without holding any lock**, and publishes them through an
//! [`enviro_meter::CoverRegistry`] `Arc` swap. Queries only ever read a
//! registry snapshot, so an in-flight rebuild can never block them.
//!
//! A sealed window's cover is final once the pass releases the window's raw
//! tuples; the pass then records it in the [`crate::cover_log`], and a
//! restart publishes the recorded covers instead of rebuilding them.
//!
//! Exactly-once acks under retransmission: the client resends a chunk until
//! it sees a matching ack, and each source tags chunks with a sequence
//! number. The state remembers each source's last applied `(seq,
//! durable_upto)` and re-acks a retransmitted chunk idempotently instead of
//! appending it twice. (A client is stop-and-wait per chunk, so one
//! remembered sequence number per source suffices.)

use crate::cover_log::{self, COVER_LOG_VERSION};
use enviro_data::{Pollutant, QueryTuple, RawTuple, Timestamp, Window};
use enviro_memsize::DeepSize;
use enviro_meter::{AdKmnConfig, CoverBuilder, CoverRegistry, ModelCover, PublishedCover};
use enviro_schedule::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use enviro_schedule::thread::JoinHandle;
use enviro_storage::segment::SegmentWriter;
use enviro_storage::wal::ReleasedWindow;
use enviro_storage::{StorageError, WalConfig, WalStore};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::Path;

/// Model-maintenance knobs for an ingesting server.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// The pollutant the ingested values measure.
    pub pollutant: Pollutant,
    /// Ad-KMN configuration for the background cover rebuilds.
    pub adkmn: AdKmnConfig,
    /// Windows within `seal_lag` of the newest stay open (late tuples are
    /// still accepted); older ones are sealed to segment files on the next
    /// maintenance pass, which also deletes the WAL segments left holding
    /// sealed windows only.
    pub seal_lag: u64,
}

impl Default for IngestConfig {
    fn default() -> Self {
        Self {
            pollutant: Pollutant::Co2,
            adkmn: AdKmnConfig::default(),
            seal_lag: 1,
        }
    }
}

/// Counters describing the write path. Snapshot via
/// [`IngestState::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Batches appended and acked (excluding duplicates).
    pub acked_batches: u64,
    /// Retransmitted batches re-acked without a second append.
    pub duplicate_batches: u64,
    /// Tuples acked as durable (the WAL watermark).
    pub durable_tuples: u64,
    /// Tuples acked but dropped because their window was already sealed.
    pub late_tuples: u64,
    /// Maintenance passes that published at least one cover.
    pub rebuilds: u64,
    /// Covers published across all passes (one per dirty window).
    pub published_windows: u64,
    /// Windows sealed to segment files.
    pub sealed_windows: u64,
    /// Maintenance passes that failed: a storage error while sealing,
    /// while reading a released window back, or while appending to the
    /// cover log. The pass has already taken its dirty windows and
    /// published the covers it could build. The worker keeps running and
    /// retries the seal on its next pass, which only new data triggers; a
    /// failed cover-log append closes the log until the next restart.
    pub maintenance_errors: u64,
}

/// What one [`IngestState::ingest`] call produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestOutcome {
    /// The durability watermark to ack with.
    pub durable_upto: u64,
    /// `true` when the batch was a retransmission and nothing was appended.
    pub duplicate: bool,
}

/// Everything guarded by the ingest lock (the ack path's only lock).
///
/// The maintenance worker's wait predicate reads `dirty` and `shutdown`,
/// so both are written only under this lock: a write outside it could land
/// between the worker's check and its park on `IngestState::work`, and the
/// notify that follows would be lost.
#[derive(Debug)]
struct Inner {
    wal: WalStore,
    /// Per-source `(last_seq, durable_upto_at_ack)` for idempotent re-acks.
    dedup: HashMap<u64, (u32, u64)>,
    /// Windows with data not yet reflected in the published covers.
    dirty: BTreeSet<u64>,
    stats: IngestStats,
    /// Set once when the owning [`ModelMaintenance`] is dropped.
    shutdown: bool,
    /// The cover log's writer. A pass takes it out to append after it
    /// drops this lock, and puts it back; `None` meanwhile, and for good
    /// once an append failed.
    cover_log: Option<SegmentWriter>,
}

/// A dirty window's tuples as a pass snapshots them.
enum Snapshot {
    /// Copied from memory under the lock.
    Resident(Vec<RawTuple>),
    /// Released: read back from disk after the lock is dropped.
    Released(ReleasedWindow),
}

/// Shared state of an ingesting server: WAL + dedup on the hot path, cover
/// registry on the query path, a dirty set in between.
#[derive(Debug)]
pub struct IngestState {
    inner: Mutex<Inner>,
    /// Signalled when the dirty set grows or shutdown is requested.
    work: Condvar,
    /// Shared with the server that attaches this state.
    registry: Arc<CoverRegistry>,
    config: IngestConfig,
    builder: CoverBuilder,
    /// The [`cover_log::fingerprint`] of this store and configuration.
    fingerprint: u32,
}

impl IngestState {
    /// Opens (or recovers) the durable state under `dir`.
    ///
    /// Recovery publishes, as one generation, the cover-log record of every
    /// sealed window that has an accepted one: its CRC holds, it was
    /// written under this store's fingerprint, and it names the tuple
    /// count the window was sealed with (the last such record of a window
    /// wins). Only the sealed windows left without one are read back into
    /// memory; they and the open windows are marked dirty, so the first
    /// maintenance pass rebuilds exactly those.
    pub fn open(
        dir: &Path,
        wal_config: WalConfig,
        config: IngestConfig,
    ) -> Result<Self, StorageError> {
        let mut wal = WalStore::open(dir, wal_config)?;
        let fingerprint = cover_log::fingerprint(
            COVER_LOG_VERSION,
            wal.store_id(),
            config.pollutant,
            wal.config().window_secs,
            &config.adkmn,
        );
        let (log, records) = cover_log::open(dir, fingerprint)?;
        let mut recovered: BTreeMap<u64, PublishedCover> = BTreeMap::new();
        for record in records {
            let id = record.cover.window_id;
            if wal.sealed_len(id).map(|len| len as u64) == Some(record.sealed_len) {
                recovered.insert(id, record.cover);
            }
        }
        let mut dirty: BTreeSet<u64> = wal.memtables().map(|(id, _)| id).collect();
        for id in wal.sealed_window_ids() {
            if !recovered.contains_key(&id) {
                wal.reload_sealed(id)?;
                dirty.insert(id);
            }
        }
        let registry = CoverRegistry::new();
        if !recovered.is_empty() {
            registry.publish(recovered.into_values().collect());
        }
        let wal_stats = wal.stats();
        let stats = IngestStats {
            durable_tuples: wal_stats.durable_tuples,
            ..IngestStats::default()
        };
        let builder = CoverBuilder::new(config.adkmn.clone());
        Ok(Self {
            inner: Mutex::new(Inner {
                wal,
                dedup: HashMap::new(),
                dirty,
                stats,
                shutdown: false,
                cover_log: Some(log),
            }),
            work: Condvar::new(),
            registry: Arc::new(registry),
            config,
            builder,
            fingerprint,
        })
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // A poisoned lock means some thread panicked mid-operation; the
        // WAL on disk is still consistent (every mutation syncs before
        // acking), so serving beats tearing the whole server down.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The maintenance configuration.
    pub fn config(&self) -> &IngestConfig {
        &self.config
    }

    /// The published-cover registry queries read from.
    pub fn registry(&self) -> &CoverRegistry {
        &self.registry
    }

    /// The registry itself, for a server to read from and seed.
    pub(crate) fn shared_registry(&self) -> Arc<CoverRegistry> {
        Arc::clone(&self.registry)
    }

    /// The store's window length in seconds.
    pub(crate) fn window_secs(&self) -> i64 {
        self.lock().wal.config().window_secs
    }

    /// The current cover generation (0 until the first publication).
    pub fn generation(&self) -> u64 {
        self.registry.generation()
    }

    /// Current counters.
    pub fn stats(&self) -> IngestStats {
        let inner = self.lock();
        let wal_stats = inner.wal.stats();
        IngestStats {
            durable_tuples: wal_stats.durable_tuples,
            late_tuples: wal_stats.late_tuples,
            ..inner.stats
        }
    }

    /// Every retained tuple, as [`WalStore::tuples`] returns them: windows
    /// whose raw tuples were released are read back from disk. The read
    /// holds the ingest lock, so acks wait for it.
    pub fn tuples(&self) -> Result<Vec<RawTuple>, StorageError> {
        self.lock().wal.tuples()
    }

    /// The ack path: dedup, durable append, dirty marking.
    ///
    /// Returns only after the WAL has fsynced the batch (or recognized a
    /// retransmission), so acking the returned watermark never promises
    /// more than the disk holds.
    pub fn ingest(
        &self,
        source: u64,
        seq: u32,
        tuples: &[RawTuple],
    ) -> Result<IngestOutcome, StorageError> {
        let mut inner = self.lock();
        if let Some(&(last_seq, durable)) = inner.dedup.get(&source) {
            if last_seq == seq {
                inner.stats.duplicate_batches += 1;
                return Ok(IngestOutcome {
                    durable_upto: durable,
                    duplicate: true,
                });
            }
        }
        // lock-scope: allow(durability) — the fsync'd append *must* happen
        // under the ingest lock: the dedup entry and the WAL watermark it
        // acks are one atomic step, and the paper's exactly-once ack
        // contract hangs on them never being observed apart.
        let durable_upto = inner.wal.append_batch(tuples)?;
        // Only windows that received an accepted tuple turn dirty: a
        // rejected (non-finite) or late tuple changes no window. An append
        // seals nothing, so `accepts` still answers as the append did.
        let Inner { wal, dirty, .. } = &mut *inner;
        for t in tuples.iter().filter(|t| wal.accepts(t)) {
            dirty.insert(wal.window_id_of(t.time));
        }
        inner.dedup.insert(source, (seq, durable_upto));
        inner.stats.acked_batches += 1;
        drop(inner);
        self.work.notify_all();
        Ok(IngestOutcome {
            durable_upto,
            duplicate: false,
        })
    }

    /// One synchronous maintenance pass: drain the dirty set, rebuild those
    /// windows' covers off-lock, publish them, then seal windows older than
    /// the [`IngestConfig::seal_lag`] horizon, release the sealed windows
    /// whose final cover is published, and record those covers in the cover
    /// log. Returns the number of covers published.
    ///
    /// This is what the [`ModelMaintenance`] worker runs; tests call it
    /// directly for deterministic publication points. It must not run
    /// beside a live worker over the same state: two passes can publish
    /// one window's covers out of order, leaving the older one in place
    /// with nothing left dirty to replace it.
    pub fn rebuild_dirty_now(&self) -> Result<usize, StorageError> {
        // Snapshot the dirty windows' tuples under the lock…
        let (snapshots, window_secs): (Vec<(u64, Snapshot)>, i64) = {
            let mut inner = self.lock();
            let dirty = std::mem::take(&mut inner.dirty);
            let window_secs = inner.wal.config().window_secs;
            let wal = &inner.wal;
            // A dirty window whose tuples were released is read back, not
            // dropped. No pass leaves one (it releases clean windows only),
            // and recovery reloads every sealed window it marks dirty.
            let snapshots = dirty
                .into_iter()
                .filter_map(|id| match wal.window_tuples(id) {
                    Some(tuples) => Some((id, Snapshot::Resident(tuples.to_vec()))),
                    None => wal
                        .released_window(id)
                        .map(|released| (id, Snapshot::Released(released))),
                })
                .collect();
            (snapshots, window_secs)
        };
        // …then run Ad-KMN with no lock held: ingest acks and (lock-free)
        // queries proceed while models rebuild.
        let mut read_error = None;
        let covers: Vec<PublishedCover> = snapshots
            .into_iter()
            .filter_map(|(id, snapshot)| {
                let tuples = match snapshot {
                    Snapshot::Resident(tuples) => tuples,
                    Snapshot::Released(released) => match released.read() {
                        Ok(tuples) => tuples,
                        Err(e) => {
                            read_error.get_or_insert(e);
                            return None;
                        }
                    },
                };
                Some(self.build_cover(id, window_secs, &tuples))
            })
            .collect();
        let published = covers.len();
        if !covers.is_empty() {
            self.registry.publish(covers);
            let mut inner = self.lock();
            inner.stats.rebuilds += 1;
            inner.stats.published_windows += published as u64;
        }
        // Seal + retire WAL segments last: I/O that shares the ingest lock,
        // but never the query path.
        let mut inner = self.lock();
        let watermark = inner
            .wal
            .max_window_id()
            .map(|max| max.saturating_sub(self.config.seal_lag));
        let sealed = match watermark {
            // lock-scope: allow(maintenance) — sealing shares the ingest
            // lock by design: it only ever runs on the single maintenance
            // worker, and the query path never takes this lock (covers are
            // read through the registry snapshot).
            Some(w) => inner.wal.seal_windows_before(w),
            None => Ok(Vec::new()),
        };
        // A sealed window that is not dirty has its final cover published:
        // this pass published before it sealed, a sealed window never turns
        // dirty again (`ingest` drops its late tuples), and one sealed while
        // still dirty stays resident until the next pass publishes it. Its
        // segment becomes its only copy, and its cover goes to the log.
        let Inner {
            wal,
            dirty,
            cover_log,
            ..
        } = &mut *inner;
        let released: Vec<(u64, usize)> = wal
            .release_sealed(|id| dirty.contains(&id))
            .into_iter()
            .filter_map(|id| Some((id, wal.sealed_len(id)?)))
            .collect();
        let log = if released.is_empty() {
            None
        } else {
            cover_log.take()
        };
        if let Ok(ids) = &sealed {
            inner.stats.sealed_windows += ids.len() as u64;
        }
        let mut result = match (sealed, read_error) {
            (Ok(_), None) => Ok(published),
            (Err(e), _) | (Ok(_), Some(e)) => Err(e),
        };
        if result.is_err() {
            inner.stats.maintenance_errors += 1;
        }
        drop(inner);
        // The log append is file I/O, so it runs off the lock. Only the
        // maintenance pass writes the log: the writer goes back for the
        // next pass, unless the append failed. A torn record is truncated
        // at the next restart, and until then nothing is appended after it.
        if let Some(mut log) = log {
            let snapshot = self.registry.snapshot();
            let covers = released
                .iter()
                .filter_map(|&(id, len)| Some((len, snapshot.cover_for_window(id)?)));
            let appended = cover_log::append(&mut log, self.fingerprint, covers);
            let mut inner = self.lock();
            match appended {
                Ok(()) => inner.cover_log = Some(log),
                Err(e) if result.is_ok() => {
                    inner.stats.maintenance_errors += 1;
                    result = Err(e.into());
                }
                Err(_) => {}
            }
        }
        result
    }

    /// Builds one window's cover exactly the way the batch engine would:
    /// cold Ad-KMN over the window's tuples, epoch-aligned validity, the
    /// window's earliest tuple time as the routing key.
    fn build_cover(&self, id: u64, window_secs: i64, tuples: &[RawTuple]) -> PublishedCover {
        let window = Window {
            id,
            tuples,
            valid_until: Timestamp::from_secs((id as i64 + 1) * window_secs),
        };
        let cover: ModelCover = self.builder.build(&window, self.config.pollutant);
        let first_time = tuples
            .iter()
            .map(|t| t.time)
            .min()
            .unwrap_or(Timestamp::ZERO);
        PublishedCover {
            window_id: id,
            first_time,
            cover: Arc::new(cover),
        }
    }

    /// Answers one query from the published covers, or `None` when nothing
    /// has been published yet.
    pub fn query(&self, q: &QueryTuple) -> Option<Option<f64>> {
        self.registry.snapshot().query(q)
    }

    /// `true` while there are dirty windows awaiting a maintenance pass.
    pub fn has_dirty_windows(&self) -> bool {
        !self.lock().dirty.is_empty()
    }

    /// Verifies the cross-structure invariants (WAL, registry, dedup,
    /// dirty set): every dirty window is resident, and every released
    /// window is clean and has a published cover.
    pub fn check_invariants(&self) -> Result<(), String> {
        let inner = self.lock();
        inner.wal.check_invariants()?;
        let durable = inner.wal.durable_upto();
        for (source, &(seq, acked)) in &inner.dedup {
            if acked > durable {
                return Err(format!(
                    "source {source} acked watermark {acked} (seq {seq}) beyond durable {durable}"
                ));
            }
        }
        let released: Vec<u64> = inner
            .wal
            .sealed_window_ids()
            .into_iter()
            .filter(|&id| inner.wal.window_tuples(id).is_none())
            .collect();
        if let Some(id) = released.iter().find(|id| inner.dirty.contains(id)) {
            return Err(format!("released window {id} is dirty"));
        }
        for &id in &inner.dirty {
            if inner.wal.window_tuples(id).is_none() {
                return Err(format!("dirty window {id} holds no tuples"));
            }
        }
        drop(inner);
        // Read after the lock: a window is released only after its cover
        // is published, and a published window never leaves the registry.
        let snapshot = self.registry.snapshot();
        if let Some(id) = released
            .iter()
            .find(|&&id| snapshot.cover_for_window(id).is_none())
        {
            return Err(format!("released window {id} has no published cover"));
        }
        self.registry.check_invariants()
    }

    /// Wakes the worker and tells it to exit. Idempotent.
    fn request_shutdown(&self) {
        self.lock().shutdown = true;
        self.work.notify_all();
    }

    /// Worker body: wait for dirty windows, rebuild, repeat until shutdown.
    fn maintenance_loop(&self) {
        loop {
            {
                let mut inner = self.lock();
                while !inner.shutdown && inner.dirty.is_empty() {
                    inner = self
                        .work
                        .wait(inner)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                if inner.shutdown {
                    return;
                }
            }
            if self.rebuild_dirty_now().is_err() {
                // Counted in stats; the windows stay dirty only if new data
                // arrives, so don't spin — wait for the next signal.
            }
        }
    }
}

impl DeepSize for IngestState {
    fn heap_size(&self) -> usize {
        let inner = self.lock();
        inner.wal.heap_size()
            + inner.dedup.capacity()
                * (std::mem::size_of::<u64>() + std::mem::size_of::<(u32, u64)>())
            + inner.dirty.len() * std::mem::size_of::<u64>()
            + self.registry.heap_size()
    }
}

/// Owns the background maintenance thread. Dropping it shuts the worker
/// down and joins it.
#[derive(Debug)]
pub struct ModelMaintenance {
    state: Arc<IngestState>,
    handle: Option<JoinHandle<()>>,
}

impl ModelMaintenance {
    /// Spawns the worker over `state`.
    pub fn spawn(state: Arc<IngestState>) -> std::io::Result<Self> {
        let worker_state = Arc::clone(&state);
        let handle = enviro_schedule::thread::Builder::new()
            .name("enviro-maintenance".into())
            .spawn(move || worker_state.maintenance_loop())?;
        Ok(Self {
            state,
            handle: Some(handle),
        })
    }
}

impl Drop for ModelMaintenance {
    fn drop(&mut self) {
        self.state.request_shutdown();
        if let Some(handle) = self.handle.take() {
            // A worker that panicked has already detached from the state;
            // there is nothing useful to do with the error here.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use enviro_geo::Point;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("enviro-ingest-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tuple(secs: i64, x: f64, v: f64) -> RawTuple {
        RawTuple::new(Timestamp::from_secs(secs), Point::new(x, 0.0), v)
    }

    fn window_tuples(window: i64, n: i64) -> Vec<RawTuple> {
        (0..n)
            .map(|i| tuple(window * 100 + i, i as f64 * 25.0, 400.0 + i as f64))
            .collect()
    }

    fn open_state(dir: &Path) -> IngestState {
        IngestState::open(
            dir,
            WalConfig {
                window_secs: 100,
                ..WalConfig::default()
            },
            IngestConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn ingest_acks_durable_watermark() {
        let dir = temp_dir("ack");
        let state = open_state(&dir);
        let batch = window_tuples(0, 8);
        let out = state.ingest(1, 1, &batch).unwrap();
        assert_eq!(out.durable_upto, 8);
        assert!(!out.duplicate);
        assert!(state.has_dirty_windows());
        assert_eq!(state.check_invariants(), Ok(()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retransmission_is_acked_without_a_second_append() {
        let dir = temp_dir("dedup");
        let state = open_state(&dir);
        let batch = window_tuples(0, 5);
        let first = state.ingest(7, 3, &batch).unwrap();
        let replay = state.ingest(7, 3, &batch).unwrap();
        assert!(replay.duplicate);
        assert_eq!(replay.durable_upto, first.durable_upto);
        assert_eq!(state.stats().durable_tuples, 5, "no double append");
        assert_eq!(state.stats().duplicate_batches, 1);
        // A different source reusing the same seq is not a duplicate.
        let other = state.ingest(8, 3, &window_tuples(0, 2)).unwrap();
        assert!(!other.duplicate);
        assert_eq!(other.durable_upto, 7);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rebuild_publishes_covers_and_bumps_generation() {
        let dir = temp_dir("publish");
        let state = open_state(&dir);
        assert_eq!(state.generation(), 0);
        state.ingest(1, 1, &window_tuples(0, 10)).unwrap();
        let published = state.rebuild_dirty_now().unwrap();
        assert_eq!(published, 1);
        assert_eq!(state.generation(), 1);
        assert!(!state.registry().snapshot().is_empty());
        let q = QueryTuple::new(Timestamp::from_secs(10), Point::new(50.0, 0.0));
        let answer = state.query(&q).expect("registry answers");
        assert!(answer.is_some());
        // Nothing dirty: a second pass publishes nothing and keeps the
        // generation stable.
        assert_eq!(state.rebuild_dirty_now().unwrap(), 0);
        assert_eq!(state.generation(), 1);
        assert_eq!(state.check_invariants(), Ok(()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn nothing_published_answers_nothing() {
        let dir = temp_dir("empty");
        let state = open_state(&dir);
        let q = QueryTuple::new(Timestamp::from_secs(50), Point::origin());
        assert_eq!(state.query(&q), None);
        assert!(state
            .registry()
            .snapshot()
            .cover_for_time(Timestamp::ZERO)
            .is_none());
        // Acked but not yet published: still nothing to answer from.
        state.ingest(1, 1, &window_tuples(0, 10)).unwrap();
        assert_eq!(state.query(&q), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ingest_and_query_current_window() {
        let dir = temp_dir("current");
        let state = open_state(&dir);
        let batch: Vec<RawTuple> = (0..20)
            .map(|i| tuple(i, i as f64 * 10.0, 400.0 + i as f64))
            .collect();
        state.ingest(1, 1, &batch).unwrap();
        state.rebuild_dirty_now().unwrap();
        let q = QueryTuple::new(Timestamp::from_secs(10), Point::new(100.0, 0.0));
        let v = state.query(&q).flatten().expect("published cover answers");
        assert!((350.0..500.0).contains(&v), "{v}");
        assert_eq!(state.registry().snapshot().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Publishes window 0 at level 100 and window 1 at level 900.
    fn two_level_state(dir: &Path) -> IngestState {
        let state = open_state(dir);
        let w0: Vec<RawTuple> = (0..30).map(|i| tuple(i, i as f64, 100.0)).collect();
        let w1: Vec<RawTuple> = (100..130)
            .map(|i| tuple(i, (i - 100) as f64, 900.0))
            .collect();
        state.ingest(1, 1, &w0).unwrap();
        state.ingest(1, 2, &w1).unwrap();
        state.rebuild_dirty_now().unwrap();
        state
    }

    fn value_at(state: &IngestState, secs: i64) -> f64 {
        let q = QueryTuple::new(Timestamp::from_secs(secs), Point::origin());
        state.query(&q).flatten().expect("published covers answer")
    }

    #[test]
    fn multiple_windows_routed_correctly() {
        let dir = temp_dir("route");
        let state = two_level_state(&dir);
        let (v0, v1) = (value_at(&state, 50), value_at(&state, 150));
        assert!(v0 < 300.0, "{v0}");
        assert!(v1 > 700.0, "{v1}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn queries_after_last_window_use_freshest() {
        let dir = temp_dir("freshest");
        let state = two_level_state(&dir);
        let v = value_at(&state, 10_000);
        assert!(v > 700.0, "{v}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn late_arrivals_republish_their_window() {
        let dir = temp_dir("late");
        let state = open_state(&dir);
        let early: Vec<RawTuple> = (0..10).map(|i| tuple(i, 0.0, 100.0)).collect();
        state.ingest(1, 1, &early).unwrap();
        state.rebuild_dirty_now().unwrap();
        let q = QueryTuple::new(Timestamp::from_secs(5), Point::origin());
        let before = state.query(&q).flatten().unwrap();
        assert!((before - 100.0).abs() < 5.0, "{before}");
        // A burst of late tuples with a very different level lands in the
        // same, still open, window.
        let late: Vec<RawTuple> = (10..40).map(|i| tuple(i, 0.0, 900.0)).collect();
        state.ingest(1, 2, &late).unwrap();
        state.rebuild_dirty_now().unwrap();
        let after = state.query(&q).flatten().unwrap();
        assert!(after > before + 100.0, "{after} vs {before}");
        assert_eq!(state.generation(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn maintenance_seals_windows_behind_the_lag() {
        let dir = temp_dir("seal");
        let state = open_state(&dir);
        for w in 0..4i64 {
            state.ingest(1, w as u32 + 1, &window_tuples(w, 6)).unwrap();
        }
        state.rebuild_dirty_now().unwrap();
        // seal_lag 1 and max window 3: windows 0 and 1 seal, 2 and 3 open.
        let stats = state.stats();
        assert_eq!(stats.sealed_windows, 2);
        // Their covers are published, so their raw tuples left memory; the
        // open windows stay resident, and everything reads back from disk.
        {
            let inner = state.lock();
            assert!(inner.wal.window_tuples(0).is_none());
            assert!(inner.wal.window_tuples(1).is_none());
            assert_eq!(inner.wal.window_tuples(2).map(<[_]>::len), Some(6));
        }
        let all: Vec<RawTuple> = (0..4).flat_map(|w| window_tuples(w, 6)).collect();
        assert_eq!(state.tuples().unwrap(), all);
        // Sealed windows still answer queries from their published covers.
        let q = QueryTuple::new(Timestamp::from_secs(10), Point::new(50.0, 0.0));
        assert!(state.query(&q).expect("covers exist").is_some());
        assert_eq!(state.check_invariants(), Ok(()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejected_tuples_mark_no_window_dirty() {
        let dir = temp_dir("rejected");
        let state = open_state(&dir);
        let out = state.ingest(1, 1, &[tuple(550, 0.0, f64::NAN)]).unwrap();
        assert_eq!(out.durable_upto, 0);
        assert!(
            !state.has_dirty_windows(),
            "a rejected tuple changes no window"
        );
        assert_eq!(state.check_invariants(), Ok(()));
        // Only the window of the accepted tuple turns dirty.
        state
            .ingest(1, 2, &[tuple(650, 0.0, f64::INFINITY), tuple(10, 0.0, 1.0)])
            .unwrap();
        assert_eq!(state.lock().dirty.iter().copied().collect::<Vec<_>>(), [0]);
        assert_eq!(state.check_invariants(), Ok(()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_window_sealed_while_dirty_stays_resident_until_published() {
        let dir = temp_dir("sealed-dirty");
        let state = open_state(&dir);
        state.ingest(1, 1, &window_tuples(0, 6)).unwrap();
        state.ingest(1, 2, &window_tuples(2, 6)).unwrap();
        // Window 0 is sealed while still dirty, as when a write lands
        // between a pass's snapshot and its seal: it stays resident.
        {
            let mut inner = state.lock();
            // lock-scope: allow(test) — stages that pass's seal.
            inner.wal.seal_windows_before(1).unwrap();
            let Inner { wal, dirty, .. } = &mut *inner;
            assert!(wal.release_sealed(|id| dirty.contains(&id)).is_empty());
            assert_eq!(wal.window_tuples(0).map(<[_]>::len), Some(6));
        }
        assert_eq!(state.rebuild_dirty_now().unwrap(), 2);
        assert!(state.lock().wal.window_tuples(0).is_none());
        assert_eq!(state.check_invariants(), Ok(()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Resident state besides the covers, after a history of `days` of
    /// hourly windows with `per_window` readings each has been ingested
    /// and published, and again right after a restart, before any pass.
    fn state_without_covers(tag: &str, days: i64, per_window: i64) -> (usize, usize) {
        let dir = temp_dir(tag);
        let open = || {
            let wal = WalConfig {
                window_secs: 3_600,
                ..WalConfig::default()
            };
            IngestState::open(&dir, wal, IngestConfig::default()).unwrap()
        };
        let without_covers = |state: &IngestState| {
            assert_eq!(state.check_invariants(), Ok(()));
            state.deep_size_of() - state.registry().deep_size_of()
        };
        let state = open();
        let history: Vec<RawTuple> = (0..days * 24)
            .flat_map(|w| {
                (0..per_window).map(move |i| {
                    let x = (i * 37 % per_window) as f64 * 40.0;
                    tuple(w * 3_600 + i * 60, x, 400.0 + (w % 7) as f64 + i as f64)
                })
            })
            .collect();
        // Equal-sized batches: the append buffer grows to the largest one.
        for (seq, chunk) in (1..).zip(history.chunks(128)) {
            state.ingest(1, seq, chunk).unwrap();
        }
        state.rebuild_dirty_now().unwrap();
        let published = without_covers(&state);
        drop(state);
        let reopened = without_covers(&open());
        let _ = std::fs::remove_dir_all(&dir);
        (published, reopened)
    }

    #[test]
    fn resident_state_grows_per_window_not_per_tuple() {
        const PER_WINDOW: i64 = 16;
        let short = state_without_covers("budget-short", 2, PER_WINDOW);
        let long = state_without_covers("budget-long", 8, PER_WINDOW);
        let extra_windows = (8 - 2) * 24;
        for (when, long, short) in [
            ("published", long.0, short.0),
            ("reopened", long.1, short.1),
        ] {
            assert!(
                long <= short + 64 * extra_windows,
                "{when}: {long} B after 8 days vs {short} B after 2: more than 64 B per \
                 extra sealed window ({} B per extra tuple)",
                (long.saturating_sub(short)) as f64 / (extra_windows * PER_WINDOW as usize) as f64
            );
        }
    }

    /// A published cover's routing key and exact binary form.
    fn cover_bits(cover: &PublishedCover) -> (u64, Timestamp, Vec<u8>) {
        let mut bytes = Vec::new();
        cover.cover.encode_into(&mut bytes);
        (cover.window_id, cover.first_time, bytes)
    }

    fn published_bits(state: &IngestState, id: u64) -> (u64, Timestamp, Vec<u8>) {
        let snapshot = state.registry().snapshot();
        cover_bits(snapshot.cover_for_window(id).expect("window published"))
    }

    #[test]
    fn recovery_publishes_logged_covers_and_marks_open_windows_dirty() {
        let dir = temp_dir("recover");
        let (before, cover0) = {
            let state = open_state(&dir);
            for w in 0..3i64 {
                state
                    .ingest(1, w as u32 + 1, &window_tuples(w, 10))
                    .unwrap();
            }
            state.rebuild_dirty_now().unwrap();
            // Window 0 sealed, its tuples released to disk.
            assert!(state.lock().wal.window_tuples(0).is_none());
            (state.tuples().unwrap(), published_bits(&state, 0))
        };
        let state = open_state(&dir);
        // Only the open windows are dirty. Window 0's logged cover is
        // published, bit for bit, as generation 1 before any pass, and its
        // tuples stay on disk.
        assert_eq!(
            state.lock().dirty.iter().copied().collect::<Vec<_>>(),
            [1, 2]
        );
        assert_eq!(state.generation(), 1);
        assert_eq!(published_bits(&state, 0), cover0);
        assert!(state.lock().wal.window_tuples(0).is_none());
        assert_eq!(state.check_invariants(), Ok(()));
        let published = state.rebuild_dirty_now().unwrap();
        assert_eq!(published, 2);
        assert_eq!(state.generation(), 2);
        assert_eq!(published_bits(&state, 0), cover0);
        assert_eq!(state.tuples().unwrap(), before);
        assert_eq!(state.check_invariants(), Ok(()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_released_window_marked_dirty_is_read_back_and_rebuilt() {
        let dir = temp_dir("released-dirty");
        let state = open_state(&dir);
        for w in 0..3i64 {
            state
                .ingest(1, w as u32 + 1, &window_tuples(w, 10))
                .unwrap();
        }
        state.rebuild_dirty_now().unwrap();
        let cover0 = published_bits(&state, 0);
        let generation = state.generation();
        // No pass marks a released window dirty; force it.
        {
            let mut inner = state.lock();
            assert!(inner.wal.window_tuples(0).is_none());
            inner.dirty.insert(0);
        }
        assert_eq!(state.rebuild_dirty_now().unwrap(), 1);
        assert!(!state.has_dirty_windows());
        assert_eq!(state.generation(), generation + 1);
        assert_eq!(published_bits(&state, 0), cover0);
        assert!(
            state.lock().wal.window_tuples(0).is_none(),
            "still released"
        );
        assert_eq!(state.check_invariants(), Ok(()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_drains_dirty_windows_in_the_background() {
        let dir = temp_dir("worker");
        let state = Arc::new(open_state(&dir));
        let maintenance = ModelMaintenance::spawn(Arc::clone(&state)).unwrap();
        state.ingest(1, 1, &window_tuples(0, 10)).unwrap();
        // Bounded wait: the worker owns the rebuild, we just observe it.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while state.generation() == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "worker never published"
            );
            std::thread::yield_now();
        }
        assert!(!state.registry().snapshot().is_empty());
        drop(maintenance); // shuts down and joins
        assert_eq!(state.check_invariants(), Ok(()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deep_size_grows_with_ingested_data() {
        let dir = temp_dir("memsize");
        let state = open_state(&dir);
        let empty = state.deep_size_of();
        state.ingest(1, 1, &window_tuples(0, 64)).unwrap();
        state.rebuild_dirty_now().unwrap();
        assert!(state.deep_size_of() > empty);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
