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
//! A window is sealed only once its published cover is final: the pass
//! seals the clean windows behind the watermark, and writes each one's
//! cover into the window's own file, after its tuples. Once the file is
//! committed the cover leaves memory: the registry pages it out and reads
//! it back from the file through its bounded cover cache. A restart
//! publishes those covers paged out instead of rebuilding them.
//!
//! Exactly-once acks under retransmission: the client resends a chunk until
//! it sees a matching ack, and each source tags chunks with a sequence
//! number. The state remembers each source's last applied `(seq,
//! durable_upto)` and re-acks a retransmitted chunk idempotently instead of
//! appending it twice. (A client is stop-and-wait per chunk, so one
//! remembered sequence number per source suffices.)

use enviro_data::{Pollutant, QueryTuple, RawTuple, Timestamp, WindowSpec};
use enviro_memsize::DeepSize;
use enviro_meter::{
    AdKmnConfig, CoverBuilder, CoverLoader, CoverRegistry, ModelCover, PublishedCover, StoredCover,
};
use enviro_schedule::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use enviro_schedule::thread::JoinHandle;
use enviro_storage::crc::crc32;
use enviro_storage::{StorageError, WalConfig, WalStore};
use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};

/// The cover frame's format version. Bump it whenever the frame layout or
/// the covers the builder fits change (`core/tests/golden_cover.rs` pins
/// the latter): frames written under another version are rebuilt, never
/// served.
const COVER_FRAME_VERSION: u32 = 1;

/// Model-maintenance knobs for an ingesting server.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// The pollutant the ingested values measure.
    pub pollutant: Pollutant,
    /// Ad-KMN configuration for the background cover rebuilds.
    pub adkmn: AdKmnConfig,
    /// Windows within `seal_lag` of the newest stay open (late tuples are
    /// still accepted); older ones are sealed to segment files on the next
    /// maintenance pass that finds them clean, which also deletes the WAL
    /// segments left holding sealed windows only.
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

impl IngestConfig {
    /// The fingerprint a sealed window's cover frame carries: a CRC of the
    /// `Debug` text of (the frame format's version, pollutant, Ad-KMN
    /// configuration). A frame is served only under the fingerprint it was
    /// written with, so a cover fitted under another τ, pollutant or format
    /// is rebuilt.
    pub fn cover_fingerprint(&self) -> u32 {
        let text = format!("{:?}", (COVER_FRAME_VERSION, self.pollutant, &self.adkmn));
        crc32(text.as_bytes())
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
    /// Maintenance passes whose seal failed with a storage error. The pass
    /// has already taken its dirty windows and published their covers. The
    /// worker keeps running and retries the seal on its next pass, which
    /// only new data triggers.
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
    /// In memory only: it starts empty at [`IngestState::open`].
    dedup: HashMap<u64, (u32, u64)>,
    /// Windows with data not yet reflected in the published covers.
    dirty: BTreeSet<u64>,
    stats: IngestStats,
    /// Set once when the owning [`ModelMaintenance`] is dropped.
    shutdown: bool,
}

/// Shared state of an ingesting server: WAL + dedup on the hot path, cover
/// registry on the query path, a dirty set in between.
#[derive(Debug)]
pub struct IngestState {
    inner: Mutex<Inner>,
    /// Signalled when the dirty set grows or shutdown is requested.
    work: Condvar,
    /// The covers' one writer; a server reads them through its reader.
    registry: CoverRegistry,
    config: IngestConfig,
    builder: CoverBuilder,
    /// [`IngestConfig::cover_fingerprint`] of `config`.
    fingerprint: u32,
}

impl IngestState {
    /// Opens (or recovers) the durable state under `dir`.
    ///
    /// Recovery checks the cover of every sealed window: the one its file
    /// holds must be intact, carry this configuration's fingerprint and
    /// name the window's tuple count. Any other sealed window — its frame
    /// missing (a file from an earlier build or from `enviro store
    /// compact`), torn, or stale — is read back and rebuilt here, and its
    /// cover written back into its file. Every sealed window is then
    /// published, as one generation, paged out: its cover stays in its
    /// file. The open windows are marked dirty, so the first maintenance
    /// pass rebuilds exactly those.
    pub fn open(
        dir: &Path,
        wal_config: WalConfig,
        config: IngestConfig,
    ) -> Result<Self, StorageError> {
        let mut wal = WalStore::open(dir, wal_config)?;
        let fingerprint = config.cover_fingerprint();
        let builder = CoverBuilder::new(config.adkmn.clone());
        let window_secs = wal.config().window_secs;
        let mut frames = wal.take_covers();
        let mut covers = Vec::new();
        let mut written_back = Vec::new();
        for id in wal.sealed_window_ids() {
            let len = wal.sealed_len(id).unwrap_or_default();
            let frame = frames.remove(&id);
            let (first_time, cover) =
                match frame.and_then(|f| decode_cover_frame(&f, fingerprint, id, len)) {
                    Some(found) => found,
                    None => {
                        let tuples = wal.read_sealed(id)?;
                        let (first_time, cover) =
                            build_cover(&builder, &config, id, window_secs, &tuples);
                        let frame = encode_cover_frame(fingerprint, len, first_time, &cover);
                        written_back.push((id, frame));
                        (first_time, cover)
                    }
                };
            covers.push(PublishedCover {
                window_id: id,
                first_time,
                cover: StoredCover::Paged {
                    regions: cover.len(),
                },
            });
        }
        wal.seal_with_covers(written_back)?;
        let registry = CoverRegistry::with_loader(WindowFileCovers {
            dir: dir.to_path_buf(),
            fingerprint,
        });
        if !covers.is_empty() {
            registry.publish(covers);
        }
        let dirty = wal.memtables().map(|(id, _)| id).collect();
        Ok(Self {
            inner: Mutex::new(Inner {
                wal,
                dedup: HashMap::new(),
                dirty,
                stats: IngestStats::default(),
                shutdown: false,
            }),
            work: Condvar::new(),
            registry,
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

    /// A read handle on the published covers and their cache's counters.
    /// The state is their one writer: a holder can read, not publish.
    ///
    /// ```compile_fail
    /// fn publish(state: &enviro_net::IngestState) { state.registry().publish(vec![]); }
    /// ```
    /// ```compile_fail
    /// fn page_out(state: &enviro_net::IngestState) { state.registry().page_out(vec![]); }
    /// ```
    /// ```no_run
    /// fn snapshot(state: &enviro_net::IngestState) { state.registry().snapshot(); }
    /// ```
    pub fn registry(&self) -> &enviro_meter::CoverReader {
        self.registry.reader()
    }

    /// The current cover generation (0 until the first publication).
    pub fn generation(&self) -> u64 {
        self.registry.reader().generation()
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

    /// Every retained tuple, as [`WalStore::tuples`] returns them: sealed
    /// windows are read back from disk. The read holds the ingest lock, so
    /// acks wait for it.
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
        // rejected (non-finite, pre-epoch) or late tuple changes no window.
        // An append seals nothing, so `window_for` still answers as the
        // append did.
        let Inner { wal, dirty, .. } = &mut *inner;
        dirty.extend(tuples.iter().filter_map(|t| wal.window_for(t)));
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
    /// windows' covers off-lock, publish them, then seal the clean windows
    /// older than the [`IngestConfig::seal_lag`] horizon, each with its
    /// published cover in its file. Returns the number of covers published.
    ///
    /// This is what the [`ModelMaintenance`] worker runs; tests call it
    /// directly for deterministic publication points. It must not run
    /// beside a live worker over the same state: two passes can publish
    /// one window's covers out of order, leaving the older one in place
    /// with nothing left dirty to replace it.
    pub fn rebuild_dirty_now(&self) -> Result<usize, StorageError> {
        // Snapshot the dirty windows' tuples under the lock: every dirty
        // window is open, since a sealed one never turns dirty again
        // (`ingest` drops its late tuples)…
        let (snapshots, window_secs): (Vec<(u64, Vec<RawTuple>)>, i64) = {
            let mut inner = self.lock();
            let dirty = std::mem::take(&mut inner.dirty);
            let wal = &inner.wal;
            let snapshots = dirty
                .into_iter()
                .filter_map(|id| Some((id, wal.window_tuples(id)?.to_vec())))
                .collect();
            (snapshots, wal.config().window_secs)
        };
        // …then run Ad-KMN with no lock held: ingest acks and (lock-free)
        // queries proceed while models rebuild.
        let covers: Vec<PublishedCover> = snapshots
            .iter()
            .map(|(id, tuples)| {
                let (first_time, cover) =
                    build_cover(&self.builder, &self.config, *id, window_secs, tuples);
                PublishedCover {
                    window_id: *id,
                    first_time,
                    cover: Arc::new(cover).into(),
                }
            })
            .collect();
        let published = covers.len();
        if !covers.is_empty() {
            self.registry.publish(covers);
            let mut inner = self.lock();
            inner.stats.rebuilds += 1;
            inner.stats.published_windows += published as u64;
        }
        self.seal_clean_windows()?;
        Ok(published)
    }

    /// The pass's last step: seals the clean windows older than the
    /// [`IngestConfig::seal_lag`] horizon, retires the WAL segments left
    /// holding sealed windows only, then pages the sealed covers out of
    /// the registry. I/O that shares the ingest lock, but never the query
    /// path.
    ///
    /// Only a clean window seals: its published cover was built over
    /// exactly the tuples it holds (a write since would have marked it
    /// dirty), so that cover is final and goes into its file. A dirty one
    /// waits for the next pass, which its dirty mark already schedules.
    fn seal_clean_windows(&self) -> Result<(), StorageError> {
        // Read before the ingest lock is taken: the covers as the pass
        // left them, which hold the cover of every window it may seal.
        let snapshot = self.registry.snapshot();
        let mut inner = self.lock();
        let Inner { wal, dirty, .. } = &mut *inner;
        let watermark = wal
            .max_window_id()
            .map_or(0, |max| max.saturating_sub(self.config.seal_lag));
        let mut covers = Vec::new();
        let seal: Vec<(u64, Vec<u8>)> = wal
            .memtables()
            .take_while(|&(id, _)| id < watermark)
            .filter(|(id, _)| !dirty.contains(id))
            .filter_map(|(id, tuples)| {
                let entry = snapshot.cover_for_window(id)?;
                let cover = entry.cover.resident()?;
                covers.push((id, Arc::clone(cover)));
                let frame =
                    encode_cover_frame(self.fingerprint, tuples.len(), entry.first_time, cover);
                Some((id, frame))
            })
            .collect();
        // lock-scope: allow(maintenance) — sealing shares the ingest lock
        // by design: it only ever runs on the single maintenance worker,
        // and the query path never takes this lock (covers are read
        // through the registry snapshot).
        let sealed = wal.seal_with_covers(seal);
        // The windows the seal committed: all of them, or, when a step
        // after the renames failed, those renamed into place before it.
        // Each one's file now holds its cover, so the cover may leave
        // memory; a later pass seals only what is still open, so these
        // would never be paged out otherwise.
        covers.retain(|&(id, _)| wal.is_sealed(id));
        inner.stats.sealed_windows += covers.len() as u64;
        if sealed.is_err() {
            inner.stats.maintenance_errors += 1;
        }
        drop(inner);
        self.registry.page_out(covers);
        sealed.map(drop)
    }

    /// Answers one query from the published covers, or `None` when nothing
    /// has been published yet, or when the cover that would answer is paged
    /// out and cannot be read (counted in the registry's `cache_stats()`;
    /// a server replies with an error).
    pub fn query(&self, q: &QueryTuple) -> Option<Option<f64>> {
        self.registry.snapshot().query(q).ok().flatten()
    }

    /// `true` while there are dirty windows awaiting a maintenance pass.
    pub fn has_dirty_windows(&self) -> bool {
        !self.lock().dirty.is_empty()
    }

    /// Verifies the cross-structure invariants (WAL, registry, dedup,
    /// dirty set): every dirty window is open, every sealed window has a
    /// published cover, from [`Self::open`] on, every published cover
    /// names a window the store holds, open or sealed (the store is the
    /// one owner of every window), and only a sealed window's cover is
    /// paged out.
    pub fn check_invariants(&self) -> Result<(), String> {
        // Read before the lock: a window is published only once the store
        // holds it and never leaves the store, and a cover is paged out
        // only after its window is sealed, which it stays.
        let before = self.registry.snapshot();
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
        if let Some(id) = inner
            .dirty
            .iter()
            .find(|&&id| inner.wal.window_tuples(id).is_none())
        {
            return Err(format!("dirty window {id} is not open"));
        }
        if let Some(e) = before.entries().iter().find(|e| {
            inner.wal.window_tuples(e.window_id).is_none() && !inner.wal.is_sealed(e.window_id)
        }) {
            return Err(format!(
                "window {} is published but the store does not hold it",
                e.window_id
            ));
        }
        let sealed = inner.wal.sealed_window_ids();
        drop(inner);
        // Read after the lock: a window is sealed only after its cover is
        // published, and a published window never leaves the registry.
        let snapshot = self.registry.snapshot();
        if let Some(id) = sealed
            .iter()
            .find(|&&id| snapshot.cover_for_window(id).is_none())
        {
            return Err(format!("sealed window {id} has no published cover"));
        }
        if let Some(e) = before
            .entries()
            .iter()
            .find(|e| e.cover.resident().is_none() && sealed.binary_search(&e.window_id).is_err())
        {
            return Err(format!(
                "window {} is paged out but not sealed",
                e.window_id
            ));
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
        let own = {
            let inner = self.lock();
            inner.wal.heap_size()
                + inner.dedup.capacity()
                    * (std::mem::size_of::<u64>() + std::mem::size_of::<(u32, u64)>())
                + inner.dirty.len() * std::mem::size_of::<u64>()
        };
        own + self.registry.reader().heap_size()
    }
}

/// Reads a sealed window's cover back from its file for the registry's
/// cover cache, checked as [`IngestState::open`] checks it. It takes
/// neither the ingest lock nor the store.
#[derive(Debug)]
struct WindowFileCovers {
    /// The store's directory.
    dir: PathBuf,
    /// [`IngestConfig::cover_fingerprint`] of the state's configuration.
    fingerprint: u32,
}

impl CoverLoader for WindowFileCovers {
    fn load(&self, window_id: u64) -> Result<ModelCover, String> {
        let (len, frame) =
            WalStore::read_cover_frame(&self.dir, window_id).map_err(|e| e.to_string())?;
        decode_cover_frame(&frame, self.fingerprint, window_id, len)
            .map(|(_, cover)| cover)
            .ok_or_else(|| "its cover frame is stale or malformed".to_string())
    }
}

/// Builds one window's cover exactly the way the batch engine would: cold
/// Ad-KMN over the window's tuples, epoch-aligned validity, the window's
/// earliest tuple time as the routing key. Returns the key and the cover.
fn build_cover(
    builder: &CoverBuilder,
    config: &IngestConfig,
    id: u64,
    window_secs: i64,
    tuples: &[RawTuple],
) -> (Timestamp, ModelCover) {
    let window = WindowSpec::ByDuration(window_secs).window(id, tuples);
    let first_time = tuples
        .iter()
        .map(|t| t.time)
        .min()
        .unwrap_or(Timestamp::ZERO);
    (first_time, builder.build(&window, config.pollutant))
}

/// A sealed window's cover frame payload, little-endian: `u32 fingerprint
/// ++ u64 tuple count ++ i64 first_time ++ cover`, the cover in
/// [`ModelCover::encode_into`]'s exact binary form.
fn encode_cover_frame(
    fingerprint: u32,
    len: usize,
    first_time: Timestamp,
    cover: &ModelCover,
) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&(len as u64).to_le_bytes());
    out.extend_from_slice(&first_time.as_secs().to_le_bytes());
    cover.encode_into(&mut out);
    out
}

/// Decodes window `id`'s cover frame into its first tuple time and cover;
/// `None` unless it is one well-formed cover of that window, under
/// `fingerprint`, built over `len` tuples.
fn decode_cover_frame(
    payload: &[u8],
    fingerprint: u32,
    id: u64,
    len: usize,
) -> Option<(Timestamp, ModelCover)> {
    let (stamp, rest) = payload.split_first_chunk::<4>()?;
    let (count, rest) = rest.split_first_chunk::<8>()?;
    let (first_time, rest) = rest.split_first_chunk::<8>()?;
    if u32::from_le_bytes(*stamp) != fingerprint || u64::from_le_bytes(*count) != len as u64 {
        return None;
    }
    let cover = ModelCover::decode(rest).filter(|c| c.window_id == id)?;
    Some((Timestamp::from_secs(i64::from_le_bytes(*first_time)), cover))
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

    /// The store owns every window: a cover the state's own writer
    /// publishes for a window the store never held breaks the invariants.
    /// (Only the state holds that writer; this test reaches it through the
    /// private field.)
    #[test]
    fn a_published_window_the_store_does_not_hold_fails_the_check() {
        let dir = temp_dir("foreign");
        let state = open_state(&dir);
        state.ingest(1, 1, &window_tuples(0, 10)).unwrap();
        state.rebuild_dirty_now().unwrap();
        assert_eq!(state.check_invariants(), Ok(()));
        let tuples = window_tuples(5, 10);
        let (first_time, cover) = build_cover(&state.builder, &state.config, 5, 100, &tuples);
        state.registry.publish(vec![PublishedCover {
            window_id: 5,
            first_time,
            cover: Arc::new(cover).into(),
        }]);
        let err = state.check_invariants().unwrap_err();
        assert!(err.contains("window 5 is published"), "{err}");
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
    fn a_seal_that_fails_after_its_renames_still_pages_out_what_it_sealed() {
        let dir = temp_dir("seal-fails-late");
        // Every batch rotates the WAL first, so each window's tuples sit in
        // a segment of their own, which the seal retires.
        let wal = WalConfig {
            window_secs: 100,
            max_wal_segment_bytes: 1,
        };
        let state = IngestState::open(&dir, wal, IngestConfig::default()).unwrap();
        for w in 0..2i64 {
            state.ingest(1, w as u32 + 1, &window_tuples(w, 6)).unwrap();
        }
        state.rebuild_dirty_now().unwrap();
        let probes: Vec<QueryTuple> = (0..2)
            .map(|w| QueryTuple::new(Timestamp::from_secs(w * 100 + 3), Point::new(60.0, 0.0)))
            .collect();
        let answers = |state: &IngestState| -> Vec<Option<u64>> {
            probes
                .iter()
                .map(|q| state.query(q).flatten().map(f64::to_bits))
                .collect()
        };
        let before = answers(&state);
        for w in 2..4i64 {
            state.ingest(1, w as u32 + 1, &window_tuples(w, 6)).unwrap();
        }
        // Every WAL segment but the active one goes missing, so the seal of
        // windows 0 and 1 fails where it retires them, after their files
        // were renamed into place.
        let wal_dir = dir.join("wal");
        let mut segments: Vec<_> = std::fs::read_dir(&wal_dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        segments.sort();
        segments.pop();
        for path in segments {
            std::fs::remove_file(path).unwrap();
        }
        assert!(state.rebuild_dirty_now().is_err());
        let stats = state.stats();
        assert_eq!((stats.maintenance_errors, stats.sealed_windows), (1, 2));
        assert!(state.lock().wal.is_sealed(1));
        let snapshot = state.registry().snapshot();
        let paged: Vec<u64> = snapshot
            .entries()
            .iter()
            .filter(|e| e.cover.resident().is_none())
            .map(|e| e.window_id)
            .collect();
        assert_eq!(paged, [0, 1], "the committed windows left memory");
        assert_eq!(answers(&state), before);
        assert_eq!(state.registry().cache_stats().read_errors, 0);
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
    fn a_dirty_window_behind_the_watermark_waits_for_the_next_pass() {
        let dir = temp_dir("sealed-dirty");
        let state = open_state(&dir);
        state.ingest(1, 1, &window_tuples(0, 6)).unwrap();
        assert_eq!(state.rebuild_dirty_now().unwrap(), 1);
        // A write into window 0 lands after its cover was published, and
        // window 2 moves the watermark past it: the seal finds it dirty.
        state.ingest(1, 2, &window_tuples(2, 6)).unwrap();
        let late: Vec<RawTuple> = (0..6).map(|i| tuple(50 + i, 0.0, 900.0)).collect();
        state.ingest(1, 3, &late).unwrap();
        state.seal_clean_windows().unwrap();
        assert_eq!(state.stats().sealed_windows, 0);
        assert_eq!(state.lock().wal.window_tuples(0).map(<[_]>::len), Some(12));
        assert_eq!(state.check_invariants(), Ok(()));
        // The next pass publishes its cover over all 12 tuples, then seals
        // it with that cover.
        assert_eq!(state.rebuild_dirty_now().unwrap(), 2);
        assert_eq!(state.stats().sealed_windows, 1);
        let tuples: Vec<RawTuple> = window_tuples(0, 6).into_iter().chain(late).collect();
        assert_eq!(published_bits(&state, 0), built_bits(0, &tuples));
        assert_eq!(state.lock().wal.read_sealed(0).unwrap(), tuples);
        assert_eq!(state.check_invariants(), Ok(()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Resident state, covers and cover cache included, and the store's
    /// share of it, after a history of `windows` ten-second windows with
    /// `per_window` readings each has been ingested and published, and
    /// again right after a restart, before any pass; then the largest
    /// cover's size.
    fn resident_state(tag: &str, windows: i64, per_window: i64) -> ([(usize, usize); 2], usize) {
        let dir = temp_dir(tag);
        let open = || {
            let wal = WalConfig {
                window_secs: 10,
                ..WalConfig::default()
            };
            IngestState::open(&dir, wal, IngestConfig::default()).unwrap()
        };
        let measure = |state: &IngestState| {
            assert_eq!(state.check_invariants(), Ok(()));
            let snapshot = state.registry().snapshot();
            let resident = snapshot
                .entries()
                .iter()
                .filter(|e| e.cover.resident().is_some());
            assert!(
                resident.count() <= 2,
                "only the open windows' covers are resident"
            );
            let store = state.lock().wal.deep_size_of();
            (state.deep_size_of(), store)
        };
        let state = open();
        let history: Vec<RawTuple> = (0..windows)
            .flat_map(|w| {
                (0..per_window).map(move |i| {
                    let x = (i * 37 % per_window) as f64 * 40.0;
                    tuple(w * 10 + i * 2, x, 400.0 + (w % 7) as f64 + i as f64)
                })
            })
            .collect();
        // Equal-sized batches: the append buffer grows to the largest one.
        for (seq, chunk) in (1..).zip(history.chunks(128)) {
            state.ingest(1, seq, chunk).unwrap();
        }
        state.rebuild_dirty_now().unwrap();
        assert_eq!(state.stats().sealed_windows, windows as u64 - 2);
        let published = measure(&state);
        drop(state);
        let state = open();
        let reopened = measure(&state);
        // Every cover, paged in after the measurement.
        let snapshot = state.registry().snapshot();
        let largest = snapshot
            .entries()
            .iter()
            .map(|e| snapshot.with_cover(e, |c| c.deep_size_of()).unwrap())
            .max()
            .unwrap_or(0);
        drop(state);
        let _ = std::fs::remove_dir_all(&dir);
        ([published, reopened], largest)
    }

    #[test]
    fn resident_state_grows_per_window_not_per_tuple() {
        const PER_WINDOW: i64 = 4;
        const SHORT: i64 = 48;
        const EXTRA: usize = 720;
        let (short, _) = resident_state("budget-short", SHORT, PER_WINDOW);
        let (long, largest) = resident_state("budget-long", SHORT + EXTRA as i64, PER_WINDOW);
        let entry = std::mem::size_of::<(u64, usize)>();
        // The cover cache may hold up to its capacity of covers more.
        let cache = enviro_meter::COVER_CACHE_CAPACITY * largest;
        for (when, (long, long_store), (short, short_store)) in [
            ("published", long[0], short[0]),
            ("reopened", long[1], short[1]),
        ] {
            assert!(
                long <= short + 64 * EXTRA + cache,
                "{when}: {long} B after {} windows vs {short} B after {SHORT}: more than 64 B \
                 per extra sealed window plus a full cover cache ({cache} B); {} B per extra \
                 tuple",
                SHORT + EXTRA as i64,
                (long.saturating_sub(short)) as f64 / (EXTRA * PER_WINDOW as usize) as f64
            );
            // The store keeps a sealed window's tuple count and nothing else.
            assert!(
                long_store <= short_store + entry * EXTRA,
                "{when}: the store holds {long_store} B vs {short_store} B: more than \
                 {entry} B per extra sealed window"
            );
        }
    }

    /// A cover's window, routing key and exact binary form.
    fn cover_bits(id: u64, first_time: Timestamp, cover: &ModelCover) -> (u64, Timestamp, Vec<u8>) {
        let mut bytes = Vec::new();
        cover.encode_into(&mut bytes);
        (id, first_time, bytes)
    }

    /// Window `id`'s published cover, paged in if it is paged out.
    fn published_bits(state: &IngestState, id: u64) -> (u64, Timestamp, Vec<u8>) {
        let snapshot = state.registry().snapshot();
        let entry = snapshot.cover_for_window(id).expect("window published");
        snapshot
            .with_cover(entry, |c| cover_bits(id, entry.first_time, c))
            .expect("cover reads back")
    }

    /// What a pass publishes for window `id` holding `tuples`.
    fn built_bits(id: u64, tuples: &[RawTuple]) -> (u64, Timestamp, Vec<u8>) {
        let builder = CoverBuilder::new(AdKmnConfig::default());
        let (first_time, cover) = build_cover(&builder, &IngestConfig::default(), id, 100, tuples);
        cover_bits(id, first_time, &cover)
    }

    #[test]
    fn recovery_publishes_stored_covers_and_marks_open_windows_dirty() {
        let dir = temp_dir("recover");
        let (before, cover0) = {
            let state = open_state(&dir);
            for w in 0..3i64 {
                state
                    .ingest(1, w as u32 + 1, &window_tuples(w, 10))
                    .unwrap();
            }
            state.rebuild_dirty_now().unwrap();
            // Window 0 sealed, its tuples on disk only.
            assert!(state.lock().wal.window_tuples(0).is_none());
            (state.tuples().unwrap(), published_bits(&state, 0))
        };
        let state = open_state(&dir);
        // Only the open windows are dirty. The cover in window 0's file is
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
    fn a_sealed_window_without_a_cover_is_rebuilt_at_open() {
        let dir = temp_dir("coverless");
        let wal_config = WalConfig {
            window_secs: 100,
            ..WalConfig::default()
        };
        // Windows 0 and 1 sealed with their tuples only, as `enviro store
        // compact` or an earlier build leaves them.
        {
            let mut wal = WalStore::open(&dir, wal_config).unwrap();
            for w in 0..3 {
                wal.append_batch(&window_tuples(w, 10)).unwrap();
            }
            assert_eq!(wal.seal_windows_before(2).unwrap(), [0, 1]);
        }
        let state = open_state(&dir);
        // Both are rebuilt at open and published as generation 1; only the
        // open window is left for the first pass.
        assert_eq!(state.generation(), 1);
        assert_eq!(state.lock().dirty.iter().copied().collect::<Vec<_>>(), [2]);
        for id in 0..2 {
            let tuples = window_tuples(id as i64, 10);
            assert_eq!(published_bits(&state, id), built_bits(id, &tuples));
        }
        assert_eq!(state.check_invariants(), Ok(()));
        assert_eq!(state.rebuild_dirty_now().unwrap(), 1);
        drop(state);
        // The covers were written back: the next open finds them.
        let mut wal = WalStore::open(&dir, wal_config).unwrap();
        assert_eq!(wal.take_covers().into_keys().collect::<Vec<_>>(), [0, 1]);
        assert_eq!(wal.durable_upto(), 30);
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
