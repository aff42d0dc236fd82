//! The raw-tuple store, shaped like the write path of an LSM-style
//! ingestion node. There is one store: the durable ingest store and the
//! offline raw-tuple database are the same [`WalStore`], the offline one
//! simply having no open windows.
//!
//! * every accepted batch is appended to a **write-ahead log** (the
//!   CRC-framed segment format of [`crate::segment`]) and fsynced *before*
//!   it is acknowledged — the ack carries `durable_upto`, the count of
//!   tuples that survive any crash;
//! * accepted tuples also land in an in-memory **memtable per epoch-aligned
//!   window** `W_c` (the paper's model-building unit), in arrival order;
//! * once a window falls behind the ingest watermark it is **sealed**: its
//!   memtable is written whole to the window's own file under `windows/`,
//!   `header ++ tuple frame ++ cover frame`, committed by an atomic rename,
//!   and every WAL segment left holding only sealed windows is **retired**
//!   (deleted), so the log holds what is still open and nothing is
//!   rewritten. The cover frame is the owner's, opaque to the store (the
//!   ingest path puts the window's final model cover there); a window
//!   sealed without one has a tuple frame only;
//! * a sealed window leaves memory at the seal: only its tuple count stays,
//!   the file is the one copy, and [`WalStore::tuples`] reads it back on
//!   demand with the checks recovery applies. Its cover leaves too: the
//!   owner reads it back with [`WalStore::read_cover_frame`], which reads
//!   the header, the tuple frame's length and the cover frame only, and
//!   needs no store, so a reader never waits on the one that writes;
//! * **recovery** reads each window file once, keeping its tuple count and
//!   handing the owner its cover frame ([`WalStore::take_covers`]). It
//!   then replays every WAL segment in order, truncating a torn tail on
//!   the final segment only (the expected crash shape) and skipping tuples
//!   whose window is already sealed.
//!
//! Tuples that arrive for an already-sealed window are *late* under the
//! watermark semantics: they are acknowledged, counted, and dropped, so a
//! sealed window's tuples, and the cover built over them, never change.
//!
//! The window length is fixed when the store is created and recorded in
//! `WINDOW_SECS`: replaying the WAL under another length would file tuples
//! under the wrong windows, so reopening with a different one is a
//! [`StorageError::WindowMismatch`]. [`WalStore::recorded_window_secs`]
//! reads the record without opening or creating anything, so a caller can
//! open an existing store with the window it was created with.
//!
//! Directory layout:
//!
//! ```text
//! <dir>/WINDOW_SECS               window length, written on creation
//! <dir>/wal/seg-00000000.log      append-only log segments, oldest first
//! <dir>/windows/seg-00000007.log  sealed window 7: tuples, then its cover
//! ```
//!
//! The live files are the ones that are there; no list sits beside them.
//! A store of the earlier format that listed its live segments in a
//! `wal/MANIFEST` or `windows/MANIFEST` is refused by [`WalStore::open`],
//! which changes nothing in it: its unlisted segments may be the residue of
//! a crash mid-compaction, and replaying them would count tuples twice.

use crate::crc::crc32;
use crate::record::{decode_batch, encode_records, RECORD_SIZE};
use crate::segment::{
    encode_frame, encode_header, parse_segment_file_name, read_frames, read_segment,
    segment_file_name, sync_dir, SegmentWriter, FRAME_HEADER_SIZE, HEADER_SIZE,
};
use enviro_data::{RawTuple, WindowSpec};
use enviro_memsize::DeepSize;
use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

/// Default WAL segment rotation threshold: ~1 MiB of records.
pub const DEFAULT_MAX_SEGMENT_BYTES: u64 = 1 << 20;

/// Storage failures.
#[derive(Debug)]
pub enum StorageError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// A file in the store directory is not a valid segment.
    InvalidSegment {
        /// The offending path.
        path: PathBuf,
        /// Why it was rejected.
        reason: String,
    },
    /// The store was created with another window length than the one it
    /// is being opened with.
    WindowMismatch {
        /// The window length the store was created with.
        stored: i64,
        /// The window length asked for on open.
        requested: i64,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "I/O error: {e}"),
            StorageError::InvalidSegment { path, reason } => {
                write!(f, "invalid segment {}: {reason}", path.display())
            }
            StorageError::WindowMismatch { stored, requested } => write!(
                f,
                "store was created with window_secs {stored}, opened with {requested}"
            ),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            StorageError::InvalidSegment { .. } | StorageError::WindowMismatch { .. } => None,
        }
    }
}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Configuration of a [`WalStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalConfig {
    /// Epoch-aligned window length `H` in seconds; window `c` holds tuples
    /// with `c·H ≤ t < (c+1)·H`, as the epoch-window rule
    /// [`WindowSpec::window_id_at`] files them.
    pub window_secs: i64,
    /// WAL segment rotation threshold in bytes.
    pub max_wal_segment_bytes: u64,
}

impl Default for WalConfig {
    fn default() -> Self {
        Self {
            window_secs: 7_200,
            max_wal_segment_bytes: DEFAULT_MAX_SEGMENT_BYTES,
        }
    }
}

/// Summary statistics of a [`WalStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalStats {
    /// Tuples durably accepted (fsynced and retained): the ingest ack
    /// watermark.
    pub durable_tuples: u64,
    /// Open windows still buffered in memtables.
    pub memtable_windows: usize,
    /// Tuples across all memtables.
    pub memtable_tuples: usize,
    /// Windows sealed to `windows/` segments.
    pub sealed_windows: usize,
    /// Tuples across all sealed windows.
    pub sealed_tuples: usize,
    /// WAL segment files (including the active one).
    pub wal_segments: usize,
    /// WAL bytes on disk (headers + frames).
    pub wal_bytes: u64,
    /// Acknowledged-then-dropped tuples that arrived for a sealed window.
    pub late_tuples: u64,
    /// Dropped tuples: non-finite, before the epoch, or past the last window.
    pub rejected_tuples: u64,
    /// `true` if recovery truncated a torn WAL tail on open.
    pub recovered_torn_tail: bool,
}

/// One live WAL segment.
#[derive(Debug, Clone, Copy)]
struct WalSegment {
    seq: u32,
    /// Clean bytes on disk, header included.
    bytes: u64,
    /// The lowest and highest window id filed into a memtable from this
    /// segment; `None` while it has filed none. Once no window in the range
    /// is open, every tuple in the segment is sealed and it can retire.
    windows: Option<(u64, u64)>,
}

impl WalSegment {
    fn new(seq: u32, bytes: u64) -> Self {
        Self {
            seq,
            bytes,
            windows: None,
        }
    }

    /// Records that a tuple of window `id` was filed from this segment.
    fn file(&mut self, id: u64) {
        let (lo, hi) = self.windows.unwrap_or((id, id));
        self.windows = Some((lo.min(id), hi.max(id)));
    }
}

/// A durable, crash-recoverable raw-tuple store: WAL + per-window memtables
/// + sealed window files. See the module docs for the protocol.
#[derive(Debug)]
pub struct WalStore {
    dir: PathBuf,
    config: WalConfig,
    writer: SegmentWriter,
    /// Every live WAL segment, active one last.
    wal_segments: Vec<WalSegment>,
    /// Open windows: id → tuples in arrival order.
    memtables: BTreeMap<u64, Vec<RawTuple>>,
    /// Sealed windows: id → tuple count (the tuples live under `windows/`).
    sealed: BTreeMap<u64, usize>,
    /// The intact cover frames read at open, until [`Self::take_covers`].
    covers: BTreeMap<u64, Vec<u8>>,
    durable_tuples: u64,
    late_tuples: u64,
    rejected_tuples: u64,
    recovered_torn_tail: bool,
    /// Reusable filter buffer for [`WalStore::append_batch`].
    scratch: Vec<RawTuple>,
}

impl WalStore {
    /// The window length the store in `dir` was created with, read from its
    /// `WINDOW_SECS` record without opening or creating anything; `None`
    /// when `dir` holds no record (no store, or one written before the
    /// record existed).
    pub fn recorded_window_secs(dir: impl AsRef<Path>) -> Result<Option<i64>, StorageError> {
        let path = dir.as_ref().join(WINDOW_RECORD);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        match text.trim().parse() {
            Ok(stored) => Ok(Some(stored)),
            Err(_) => Err(invalid(&path, format!("bad window record {text:?}"))),
        }
    }

    /// Opens (or creates) a WAL store in `dir`, running recovery.
    ///
    /// Each sealed window's file is read once: its tuple frame must be
    /// intact (the file was synced before the rename that committed it, so
    /// a torn one is real corruption) and only its tuple count stays in
    /// memory; its cover frame, when intact, waits for
    /// [`Self::take_covers`]. A torn tail is tolerated — and truncated — on
    /// the *final* WAL segment only.
    /// A store created with another `window_secs` is refused with
    /// [`StorageError::WindowMismatch`], and a store of the earlier
    /// `MANIFEST` format with [`StorageError::InvalidSegment`] naming the
    /// manifest, before anything in it is touched.
    pub fn open(dir: impl AsRef<Path>, config: WalConfig) -> Result<Self, StorageError> {
        if config.window_secs <= 0 {
            return Err(StorageError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("window_secs must be positive, got {}", config.window_secs),
            )));
        }
        let dir = dir.as_ref().to_path_buf();
        let wal_dir = dir.join(WAL_DIR);
        let windows_dir = dir.join(WINDOWS_DIR);
        for manifest in [wal_dir.join("MANIFEST"), windows_dir.join("MANIFEST")] {
            if manifest.try_exists()? {
                let reason = "a store of the earlier MANIFEST format is not opened: \
                              its unlisted segments could replay twice";
                return Err(invalid(&manifest, reason));
            }
        }
        // The subdirectories come first: a new store's window record is
        // renamed into `dir` and `dir` synced, which makes their names
        // durable too.
        std::fs::create_dir_all(&wal_dir)?;
        std::fs::create_dir_all(&windows_dir)?;
        check_window_record(&dir, config.window_secs)?;

        // 1. Sealed windows: every segment under windows/. A seal cut short
        //    leaves `seg-N.log.tmp`, no segment name: window N is still open.
        let (mut sealed, mut covers) = (BTreeMap::new(), BTreeMap::new());
        for seq in discover_segments(&windows_dir)? {
            let path = windows_dir.join(segment_file_name(seq));
            let count = |payload: &[u8]| {
                payload
                    .len()
                    .is_multiple_of(RECORD_SIZE)
                    .then_some(payload.len() / RECORD_SIZE)
            };
            let (len, cover) = read_window(&path, count)?;
            sealed.insert(u64::from(seq), len);
            if let Some(cover) = cover {
                covers.insert(u64::from(seq), cover);
            }
        }

        // 2. WAL replay, every segment in seq order.
        let spec = WindowSpec::ByDuration(config.window_secs);
        let wal_seqs = discover_segments(&wal_dir)?;
        let mut wal_segments = Vec::with_capacity(wal_seqs.len());
        let mut memtables: BTreeMap<u64, Vec<RawTuple>> = BTreeMap::new();
        let mut recovered_torn_tail = false;
        let last_idx = wal_seqs.len().checked_sub(1);
        for (i, &seq) in wal_seqs.iter().enumerate() {
            let path = wal_dir.join(segment_file_name(seq));
            // A final segment shorter than its own header is a torn
            // creation: the crash hit between `create` and the first sync,
            // so nothing in it was ever acknowledged. Recreate it empty.
            if Some(i) == last_idx && std::fs::metadata(&path)?.len() < HEADER_SIZE as u64 {
                std::fs::remove_file(&path)?;
                SegmentWriter::create(&wal_dir, seq)?;
                recovered_torn_tail = true;
                wal_segments.push(WalSegment::new(seq, HEADER_SIZE as u64));
                continue;
            }
            let contents = read_segment(&path).map_err(|e| invalid(&path, e.to_string()))?;
            if contents.truncated_tail {
                if Some(i) != last_idx {
                    return Err(invalid(&path, "corrupt batch in a non-final WAL segment"));
                }
                recovered_torn_tail = true;
            }
            let mut segment = WalSegment::new(seq, contents.clean_len);
            for t in contents.tuples {
                let Some(id) = spec.window_id_at(t.time) else {
                    continue;
                };
                // Tuples of a window sealed before the crash were already
                // persisted under windows/; replaying them would double
                // count.
                if !sealed.contains_key(&id) {
                    segment.file(id);
                    memtables.entry(id).or_default().push(t);
                }
            }
            wal_segments.push(segment);
        }

        // 3. Active writer: reopen the last WAL segment at its clean length
        //    (truncating any torn tail) or create segment 0.
        let writer = match wal_segments.last() {
            Some(last) => SegmentWriter::reopen(&wal_dir, last.seq, last.bytes)?,
            None => {
                let w = SegmentWriter::create(&wal_dir, 0)?;
                wal_segments.push(WalSegment::new(0, HEADER_SIZE as u64));
                w
            }
        };

        let mut store = Self {
            dir,
            config,
            writer,
            wal_segments,
            memtables,
            sealed,
            covers,
            durable_tuples: 0,
            late_tuples: 0,
            rejected_tuples: 0,
            recovered_torn_tail,
            scratch: Vec::new(),
        };
        store.durable_tuples = store.retained_tuples();
        debug_assert_eq!(store.check_invariants(), Ok(()));
        Ok(store)
    }

    /// The store's configuration.
    pub fn config(&self) -> WalConfig {
        self.config
    }

    /// The ingest ack watermark: tuples durably accepted so far.
    pub fn durable_upto(&self) -> u64 {
        self.durable_tuples
    }

    /// The open window [`Self::append_batch`] files `t` under; `None` when
    /// it would not retain `t`: one the store cannot hold, or a late one.
    pub fn window_for(&self, t: &RawTuple) -> Option<u64> {
        self.storable_window(t).filter(|&id| !self.is_sealed(id))
    }

    /// Appends a batch of tuples: WAL write + fsync, then memtable insert.
    ///
    /// Returns the new `durable_upto` watermark. Tuples the store cannot
    /// hold (non-finite, before the epoch, or past the last window id) are
    /// dropped and counted; tuples for an already-sealed window are *late*
    /// — acknowledged, counted, and dropped (watermark semantics).
    pub fn append_batch(&mut self, tuples: &[RawTuple]) -> Result<u64, StorageError> {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        for t in tuples {
            match self.storable_window(t) {
                None => self.rejected_tuples += 1,
                Some(id) if self.is_sealed(id) => self.late_tuples += 1,
                Some(_) => scratch.push(*t),
            }
        }
        if scratch.is_empty() {
            self.scratch = scratch;
            return Ok(self.durable_tuples);
        }
        if self.writer.len() >= self.config.max_wal_segment_bytes {
            self.rotate_wal()?;
        }
        // Visible to the deterministic scheduler (no-op outside a model
        // run): the durability point interleaves with concurrent readers.
        enviro_schedule::point("wal-append");
        if let Err(e) = self
            .writer
            .append_batch(&scratch)
            .and_then(|()| self.writer.sync())
        {
            self.scratch = scratch;
            return Err(e.into());
        }
        if let Some(active) = self.wal_segments.last_mut() {
            active.bytes = self.writer.len();
        }
        for &t in &scratch {
            let Some(id) = self.storable_window(&t) else {
                continue;
            };
            if let Some(active) = self.wal_segments.last_mut() {
                active.file(id);
            }
            self.memtables.entry(id).or_default().push(t);
        }
        self.durable_tuples += scratch.len() as u64;
        self.scratch = scratch;
        debug_assert_eq!(self.check_invariants(), Ok(()));
        Ok(self.durable_tuples)
    }

    /// The open windows, lowest id first, each in arrival order.
    pub fn memtables(&self) -> impl Iterator<Item = (u64, &[RawTuple])> {
        self.memtables.iter().map(|(&id, m)| (id, m.as_slice()))
    }

    /// Every retained tuple, window by window in id order (open and sealed
    /// windows alike), each window in arrival order — the whole raw-tuple
    /// database in one read. `Dataset::from_tuples` sorts it stably by
    /// time, so equal timestamps keep their arrival order.
    ///
    /// Sealed windows are read back with [`Self::read_sealed`].
    pub fn tuples(&self) -> Result<Vec<RawTuple>, StorageError> {
        let mut ids: Vec<u64> = self
            .memtables
            .keys()
            .chain(self.sealed.keys())
            .copied()
            .collect();
        ids.sort_unstable();
        let mut out = Vec::with_capacity(self.retained_tuples() as usize);
        for id in ids {
            match self.memtables.get(&id) {
                Some(tuples) => out.extend_from_slice(tuples),
                None => out.extend(self.read_sealed(id)?),
            }
        }
        Ok(out)
    }

    /// Reads sealed window `id`'s tuples back from its file, in arrival
    /// order, with the checks [`Self::open`] applies: a file that fails
    /// them, or holds another tuple count than was sealed, is a
    /// [`StorageError::InvalidSegment`]. A window that is not sealed reads
    /// empty.
    pub fn read_sealed(&self, id: u64) -> Result<Vec<RawTuple>, StorageError> {
        let (Some(&len), Ok(seq)) = (self.sealed.get(&id), u32::try_from(id)) else {
            return Ok(Vec::new());
        };
        let path = self.dir.join(WINDOWS_DIR).join(segment_file_name(seq));
        let (tuples, _) = read_window(&path, decode_batch)?;
        if tuples.len() != len {
            let reason = format!("holds {} tuples, {len} were sealed", tuples.len());
            return Err(invalid(&path, reason));
        }
        Ok(tuples)
    }

    /// Reads sealed window `id`'s cover frame from its file in the store
    /// under `dir`, without opening the store: the header, the tuple
    /// frame's length, then the cover frame, which must pass its CRC and
    /// end the file. Returns the tuple count that the tuple frame's length
    /// names, and the cover frame's payload. It takes no [`WalStore`], so a
    /// reader can page a sealed window's cover in while the store is busy:
    /// a sealed window's file never changes while its store is open.
    pub fn read_cover_frame(
        dir: impl AsRef<Path>,
        id: u64,
    ) -> Result<(usize, Vec<u8>), StorageError> {
        let windows_dir = dir.as_ref().join(WINDOWS_DIR);
        let seq = u32::try_from(id)
            .map_err(|_| invalid(&windows_dir, format!("window id {id} names no segment")))?;
        let path = windows_dir.join(segment_file_name(seq));
        let mut file = std::fs::File::open(&path)?;
        let file_len = file.metadata()?.len();
        let mut header = [0; HEADER_SIZE];
        file.read_exact(&mut header)?;
        if header[..] != encode_header(seq)[..] {
            return Err(invalid(&path, "not the segment header of its window"));
        }
        let (tuple_len, _) = read_frame_header(&mut file)?;
        if !tuple_len.is_multiple_of(RECORD_SIZE as u64) {
            return Err(invalid(&path, "the tuple frame holds no whole records"));
        }
        let cover_at = (HEADER_SIZE + FRAME_HEADER_SIZE) as u64 + tuple_len;
        if file_len < cover_at + FRAME_HEADER_SIZE as u64 {
            return Err(invalid(&path, "sealed without a cover frame"));
        }
        file.seek(SeekFrom::Start(cover_at))?;
        let (cover_len, crc) = read_frame_header(&mut file)?;
        if cover_at + FRAME_HEADER_SIZE as u64 + cover_len != file_len {
            return Err(invalid(&path, "the cover frame does not end the file"));
        }
        let mut payload = vec![0; cover_len as usize];
        file.read_exact(&mut payload)?;
        if crc32(&payload) != crc {
            return Err(invalid(&path, "the cover frame fails its CRC"));
        }
        Ok(((tuple_len / RECORD_SIZE as u64) as usize, payload))
    }

    /// Hands over the cover frame of each sealed window whose file held an
    /// intact one at [`Self::open`], by window id. The frames are the
    /// owner's bytes, as [`Self::seal_with_covers`] wrote them; a window
    /// missing here has none (sealed by [`Self::seal_windows_before`], or
    /// its cover frame is torn). Later calls return nothing.
    pub fn take_covers(&mut self) -> BTreeMap<u64, Vec<u8>> {
        std::mem::take(&mut self.covers)
    }

    /// Ids of sealed windows, lowest first.
    pub fn sealed_window_ids(&self) -> Vec<u64> {
        self.sealed.keys().copied().collect()
    }

    /// `true` once `id` has been sealed.
    pub fn is_sealed(&self, id: u64) -> bool {
        self.sealed.contains_key(&id)
    }

    /// The tuple count sealed window `id` was sealed with; `None` for a
    /// window that is not sealed.
    pub fn sealed_len(&self, id: u64) -> Option<usize> {
        self.sealed.get(&id).copied()
    }

    /// The tuples of open window `id`, in arrival order; `None` for a
    /// sealed window (read it back with [`Self::read_sealed`]) and for a
    /// window with no data.
    pub fn window_tuples(&self, id: u64) -> Option<&[RawTuple]> {
        self.memtables.get(&id).map(Vec::as_slice)
    }

    /// The highest window id with any data, open or sealed.
    pub fn max_window_id(&self) -> Option<u64> {
        let open = self.memtables.keys().next_back().copied();
        let sealed = self.sealed.keys().next_back().copied();
        open.max(sealed)
    }

    /// Seals every open window with `id < watermark`, each with a tuple
    /// frame only, then retires every WAL segment left holding only sealed
    /// windows. Returns the sealed ids. See [`Self::seal_with_covers`] for
    /// the steps.
    pub fn seal_windows_before(&mut self, watermark: u64) -> Result<Vec<u64>, StorageError> {
        let windows = self.memtables.range(..watermark);
        let windows = windows.map(|(&id, _)| (id, None)).collect();
        self.write_windows(windows)
    }

    /// Writes each listed window's file as `header ++ tuple frame ++ cover
    /// frame`, the cover frame holding the given bytes. An open window is
    /// sealed by this; a sealed one has its file rewritten with the tuples
    /// it holds, as an owner does once it has rebuilt a cover the file
    /// lacked. Ids that name no window are skipped. Returns the ids sealed.
    ///
    /// The steps, each finished before the next begins: roll the active
    /// WAL segment (when a window is sealed), so the frames written so far
    /// can retire; write and fsync every file under a `.tmp` name; rename
    /// them all into place, each rename committing its window; fsync
    /// `windows/` once; retire the WAL segments left holding sealed
    /// windows only. A crash anywhere leaves each window either open, with
    /// its tuples in the WAL, or sealed.
    pub fn seal_with_covers(
        &mut self,
        covers: Vec<(u64, Vec<u8>)>,
    ) -> Result<Vec<u64>, StorageError> {
        let windows = covers.into_iter().map(|(id, c)| (id, Some(c))).collect();
        self.write_windows(windows)
    }

    /// Store statistics.
    pub fn stats(&self) -> WalStats {
        WalStats {
            durable_tuples: self.durable_tuples,
            memtable_windows: self.memtables.len(),
            memtable_tuples: self.memtables.values().map(Vec::len).sum(),
            sealed_windows: self.sealed.len(),
            sealed_tuples: self.sealed.values().sum(),
            wal_segments: self.wal_segments.len(),
            wal_bytes: self.wal_segments.iter().map(|s| s.bytes).sum(),
            late_tuples: self.late_tuples,
            rejected_tuples: self.rejected_tuples,
            recovered_torn_tail: self.recovered_torn_tail,
        }
    }

    /// Verifies the store's structural invariants, returning the first
    /// violation found. Checked (in debug builds) after recovery and after
    /// every mutation:
    ///
    /// * WAL segment seqs are strictly increasing and the writer sits on
    ///   the last one, at its recorded length;
    /// * no window is both open and sealed;
    /// * every memtable tuple is storable and maps back to its window id;
    /// * only sealed windows have a cover frame waiting;
    /// * `durable_upto` equals the open tuples plus the sealed counts.
    pub fn check_invariants(&self) -> Result<(), String> {
        let Some(last) = self.wal_segments.last() else {
            return Err("no active WAL segment".into());
        };
        for pair in self.wal_segments.windows(2) {
            if pair[0].seq >= pair[1].seq {
                return Err(format!(
                    "WAL seqs not strictly increasing: {} then {}",
                    pair[0].seq, pair[1].seq
                ));
            }
        }
        let writer = (self.writer.seq(), self.writer.len());
        if writer != (last.seq, last.bytes) {
            let (seq, bytes) = (last.seq, last.bytes);
            return Err(format!(
                "writer at (segment, bytes) {writer:?}, last segment ({seq}, {bytes})"
            ));
        }
        for (&id, tuples) in &self.memtables {
            if self.sealed.contains_key(&id) {
                return Err(format!("window {id} is both open and sealed"));
            }
            if let Some(t) = tuples.iter().find(|t| self.storable_window(t) != Some(id)) {
                let t = t.time.as_secs();
                return Err(format!("tuple at t={t} filed under window {id}"));
            }
        }
        if let Some(id) = self.covers.keys().find(|id| !self.sealed.contains_key(id)) {
            return Err(format!(
                "cover frame waiting for window {id}, which is not sealed"
            ));
        }
        let retained = self.retained_tuples();
        if retained != self.durable_tuples {
            return Err(format!(
                "durable_upto {} but {retained} tuples retained",
                self.durable_tuples
            ));
        }
        Ok(())
    }

    /// Open tuples plus the sealed windows' counts.
    fn retained_tuples(&self) -> u64 {
        let open: usize = self.memtables.values().map(Vec::len).sum();
        let sealed: usize = self.sealed.values().sum();
        (open + sealed) as u64
    }

    /// The window `t` files under when the store can hold it: it is
    /// finite, the epoch-window rule files it (it is not before the epoch),
    /// and the window's id fits the `u32` that names its segment.
    #[inline]
    fn storable_window(&self, t: &RawTuple) -> Option<u64> {
        let id = WindowSpec::ByDuration(self.config.window_secs).window_id_at(t.time)?;
        (t.is_finite() && id <= u64::from(u32::MAX)).then_some(id)
    }

    /// Writes each window's file with its cover frame, if it has one, in
    /// the steps [`Self::seal_with_covers`] lists. Each window's bytes are
    /// built and written one at a time, so the pass holds one file in
    /// memory however many windows it seals.
    fn write_windows(
        &mut self,
        windows: Vec<(u64, Option<Vec<u8>>)>,
    ) -> Result<Vec<u64>, StorageError> {
        if windows.is_empty() {
            return Ok(Vec::new());
        }
        // Model-checker schedule point: sealing + retirement is the other
        // mutating I/O boundary the maintenance pass crosses.
        enviro_schedule::point("wal-seal");
        // A fresh active segment leaves every frame written so far in a
        // segment that retires once its windows are sealed.
        let seals = windows
            .iter()
            .any(|(id, _)| self.memtables.contains_key(id));
        if seals && !self.writer.is_empty() {
            self.rotate_wal()?;
        }
        let windows_dir = self.dir.join(WINDOWS_DIR);
        let mut staged = Vec::with_capacity(windows.len());
        for (id, cover) in windows {
            let read_back;
            let tuples = match self.memtables.get(&id) {
                Some(mem) => mem.as_slice(),
                None if self.is_sealed(id) => {
                    read_back = self.read_sealed(id)?;
                    &read_back
                }
                None => continue,
            };
            let reason = || format!("window id {id} exceeds the segment naming range");
            let seq = u32::try_from(id).map_err(|_| invalid(&windows_dir, reason()))?;
            let mut bytes = encode_header(seq);
            encode_frame(&mut bytes, |payload| encode_records(tuples, payload));
            if let Some(cover) = &cover {
                encode_frame(&mut bytes, |payload| payload.extend_from_slice(cover));
            }
            write_synced(&windows_dir.join(tmp_file_name(seq)), &bytes)?;
            staged.push((id, seq));
        }
        let mut sealed = Vec::new();
        for (id, seq) in staged {
            let name = segment_file_name(seq);
            std::fs::rename(windows_dir.join(tmp_file_name(seq)), windows_dir.join(name))?;
            if let Some(mem) = self.memtables.remove(&id) {
                self.sealed.insert(id, mem.len());
                sealed.push(id);
            }
        }
        // One directory sync makes every rename above durable; only then
        // may the WAL copies of the sealed tuples go.
        sync_dir(&windows_dir)?;
        self.retire_wal_segments()?;
        debug_assert_eq!(self.check_invariants(), Ok(()));
        Ok(sealed)
    }

    /// Deletes every WAL segment but the active one whose window range
    /// holds no open window: each of its tuples is in a sealed window's
    /// file, committed before this runs. The unlinks need no fsync: a
    /// retired segment that survives a crash replays into sealed windows
    /// only, and replay skips those.
    fn retire_wal_segments(&mut self) -> Result<(), StorageError> {
        let (wal_dir, active) = (self.dir.join(WAL_DIR), self.writer.seq());
        let memtables = &self.memtables;
        let mut removed = Ok(());
        self.wal_segments.retain(|s| {
            let open = |(lo, hi)| memtables.range(lo..=hi).next().is_some();
            if s.seq == active || s.windows.is_some_and(open) || removed.is_err() {
                return true;
            }
            removed = std::fs::remove_file(wal_dir.join(segment_file_name(s.seq)));
            removed.is_err()
        });
        Ok(removed?)
    }

    /// Starts a fresh active WAL segment: on size rotation, and before a
    /// seal so that the frames written so far can retire.
    fn rotate_wal(&mut self) -> Result<(), StorageError> {
        self.writer.sync()?;
        let next_seq = self.writer.seq() + 1;
        self.writer = SegmentWriter::create(&self.dir.join(WAL_DIR), next_seq)?;
        self.wal_segments
            .push(WalSegment::new(next_seq, HEADER_SIZE as u64));
        Ok(())
    }
}

impl DeepSize for WalStore {
    fn heap_size(&self) -> usize {
        // BTreeMap node overhead is approximated by the entry payloads;
        // what matters for capacity planning is the tuple buffers. The
        // store's path is not counted: it is deployment configuration, and
        // counting it would make the figure depend on where the store lives.
        let open: usize = self
            .memtables
            .values()
            .map(|w| std::mem::size_of::<(u64, Vec<RawTuple>)>() + w.heap_size())
            .sum();
        let sealed = self.sealed.len() * std::mem::size_of::<(u64, usize)>();
        let covers: usize = self
            .covers
            .values()
            .map(|c| std::mem::size_of::<(u64, Vec<u8>)>() + c.heap_size())
            .sum();
        open + sealed
            + covers
            + self.scratch.heap_size()
            + self.wal_segments.capacity() * std::mem::size_of::<WalSegment>()
    }
}

/// Reads a sealed window's file, `header ++ tuple frame ++ cover frame?`,
/// returning the tuple frame's payload as `tuples` decodes it and the
/// cover frame's payload if it is intact. The tuple frame must be intact:
/// the file was synced before the rename that committed it, so a torn one
/// is real corruption. A torn or extra frame after it only costs the
/// cover, which its owner rebuilds.
fn read_window<T>(
    path: &Path,
    mut tuples: impl FnMut(&[u8]) -> Option<T>,
) -> Result<(T, Option<Vec<u8>>), StorageError> {
    let (mut decoded, mut cover) = (None, None);
    let scan = read_frames(path, |payload| {
        if decoded.is_none() {
            decoded = tuples(payload);
            decoded.is_some()
        } else if cover.is_none() {
            cover = Some(payload.to_vec());
            true
        } else {
            false
        }
    })
    .map_err(|e| invalid(path, e.to_string()))?;
    let decoded =
        decoded.ok_or_else(|| invalid(path, "sealed window has no intact tuple frame"))?;
    Ok((decoded, cover.filter(|_| !scan.truncated_tail)))
}

/// Reads a frame header at the file's position: `(payload length, CRC)`.
fn read_frame_header(file: &mut std::fs::File) -> io::Result<(u64, u32)> {
    let mut header = [0; FRAME_HEADER_SIZE];
    file.read_exact(&mut header)?;
    let [l0, l1, l2, l3, c0, c1, c2, c3] = header;
    let len = u32::from_le_bytes([l0, l1, l2, l3]);
    Ok((u64::from(len), u32::from_le_bytes([c0, c1, c2, c3])))
}

/// Lists the segment seqs present in `dir`, sorted.
fn discover_segments(dir: &Path) -> Result<Vec<u32>, StorageError> {
    let mut seqs: Vec<u32> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().to_str().and_then(parse_segment_file_name))
        .collect();
    seqs.sort_unstable();
    Ok(seqs)
}

/// A [`StorageError::InvalidSegment`] naming `path`.
fn invalid(path: &Path, reason: impl Into<String>) -> StorageError {
    StorageError::InvalidSegment {
        path: path.to_path_buf(),
        reason: reason.into(),
    }
}

/// The WAL segments' subdirectory of a store.
const WAL_DIR: &str = "wal";

/// The sealed window segments' subdirectory of a store.
const WINDOWS_DIR: &str = "windows";

/// Window-length record file name (in the store's root directory).
const WINDOW_RECORD: &str = "WINDOW_SECS";

/// The name a window's file is written under before its rename commits it.
fn tmp_file_name(seq: u32) -> String {
    format!("{}.tmp", segment_file_name(seq))
}

/// Writes `bytes` to a new `path` (replacing any file there) and fsyncs it.
fn write_synced(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(bytes)?;
    f.sync_data()
}

/// Writes `dir/name` atomically (temp file + fsync + rename + directory
/// fsync).
fn write_atomic(dir: &Path, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
    let tmp = dir.join(format!("{name}.tmp"));
    write_synced(&tmp, bytes)?;
    std::fs::rename(&tmp, dir.join(name))?;
    sync_dir(dir)?;
    Ok(())
}

/// Records `window_secs` in a new store, or checks it against the length
/// an existing store was created with. A store written before the record
/// existed adopts the length it is first opened with.
fn check_window_record(dir: &Path, window_secs: i64) -> Result<(), StorageError> {
    match WalStore::recorded_window_secs(dir)? {
        None => write_atomic(dir, WINDOW_RECORD, format!("{window_secs}\n").as_bytes()),
        Some(stored) if stored != window_secs => Err(StorageError::WindowMismatch {
            stored,
            requested: window_secs,
        }),
        Some(_) => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use enviro_data::Timestamp;
    use enviro_geo::Point;

    const H: i64 = 100;

    fn cfg() -> WalConfig {
        WalConfig {
            window_secs: H,
            max_wal_segment_bytes: 1 << 20,
        }
    }

    fn tuple(secs: i64, v: f64) -> RawTuple {
        RawTuple::new(Timestamp::from_secs(secs), Point::new(1.0, 2.0), v)
    }

    fn tempdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("enviro-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A config rotating the WAL after `bytes`: 80 holds two one-tuple
    /// frames, 60 one.
    fn small(bytes: u64) -> WalConfig {
        WalConfig {
            max_wal_segment_bytes: bytes,
            ..cfg()
        }
    }

    fn wal_segment(dir: &Path, seq: u32) -> PathBuf {
        dir.join("wal").join(segment_file_name(seq))
    }

    /// Cuts `path` down to `len` bytes, as a crash mid-write would.
    fn truncate(path: &Path, len: u64) {
        let f = std::fs::OpenOptions::new().write(true).open(path).unwrap();
        f.set_len(len).unwrap();
    }

    fn times(w: &WalStore) -> Vec<i64> {
        w.tuples()
            .unwrap()
            .iter()
            .map(|t| t.time.as_secs())
            .collect()
    }

    fn invalid_segment_reason(result: Result<WalStore, StorageError>) -> String {
        match result {
            Err(StorageError::InvalidSegment { reason, .. }) => reason,
            other => panic!("expected InvalidSegment, got {other:?}"),
        }
    }

    #[test]
    fn append_recover_roundtrip() {
        let dir = tempdir("roundtrip");
        let mut w = WalStore::open(&dir, cfg()).unwrap();
        assert_eq!(w.durable_upto(), 0);
        assert_eq!(
            w.append_batch(&[tuple(10, 1.0), tuple(150, 2.0)]).unwrap(),
            2
        );
        assert_eq!(w.append_batch(&[tuple(20, 3.0)]).unwrap(), 3);
        drop(w);
        let w = WalStore::open(&dir, cfg()).unwrap();
        assert_eq!(w.durable_upto(), 3);
        assert_eq!(
            w.window_tuples(0).unwrap(),
            &[tuple(10, 1.0), tuple(20, 3.0)]
        );
        assert_eq!(w.window_tuples(1).unwrap(), &[tuple(150, 2.0)]);
        assert!(!w.stats().recovered_torn_tail);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memtables_keep_arrival_order() {
        let dir = tempdir("order");
        let mut w = WalStore::open(&dir, cfg()).unwrap();
        // Out-of-time-order arrivals inside one window stay in arrival
        // order (the model build consumes them as the stream delivered
        // them).
        w.append_batch(&[tuple(50, 1.0), tuple(10, 2.0), tuple(30, 3.0)])
            .unwrap();
        assert_eq!(
            w.window_tuples(0).unwrap(),
            &[tuple(50, 1.0), tuple(10, 2.0), tuple(30, 3.0)]
        );
        drop(w);
        let w = WalStore::open(&dir, cfg()).unwrap();
        assert_eq!(
            w.window_tuples(0).unwrap(),
            &[tuple(50, 1.0), tuple(10, 2.0), tuple(30, 3.0)]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seal_moves_window_and_compacts_wal() {
        let dir = tempdir("seal");
        let mut w = WalStore::open(&dir, cfg()).unwrap();
        for i in 0..50 {
            w.append_batch(&[tuple(i, 1.0), tuple(H + i, 2.0)]).unwrap();
        }
        let wal_before = w.stats().wal_bytes;
        let sealed = w.seal_windows_before(1).unwrap();
        assert_eq!(sealed, vec![0]);
        assert!(w.is_sealed(0));
        let s = w.stats();
        assert_eq!(s.sealed_windows, 1);
        assert_eq!(s.sealed_tuples, 50);
        assert_eq!(s.memtable_windows, 1);
        assert_eq!(s.durable_tuples, 100);
        // Sealed data survives a reopen; WAL replay must not double count.
        // The sealed window stays on disk, and reads back whole.
        drop(w);
        let mut w = WalStore::open(&dir, cfg()).unwrap();
        assert_eq!(w.durable_upto(), 100);
        assert!(w.window_tuples(0).is_none());
        assert_eq!(w.sealed_len(0), Some(50));
        assert_eq!(w.read_sealed(0).unwrap().len(), 50);
        assert_eq!(w.window_tuples(1).unwrap().len(), 50);
        assert!(w.is_sealed(0));
        // The segment that holds window 0 also holds open window 1, so it
        // retires only once window 1 is sealed too.
        assert_eq!(w.seal_windows_before(2).unwrap(), vec![1]);
        let s = w.stats();
        assert_eq!(s.durable_tuples, 100);
        assert!(
            s.wal_bytes < wal_before,
            "retirement should shrink the WAL: {} vs {wal_before}",
            s.wal_bytes
        );
        // A new store keeps no list of its live files.
        assert!(!dir.join("wal").join("MANIFEST").exists());
        assert!(!dir.join("windows").join("MANIFEST").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_seal_keeps_every_answer_but_the_resident_tuples() {
        let dir = tempdir("seal-memory");
        let mut w = WalStore::open(&dir, cfg()).unwrap();
        w.append_batch(&[tuple(50, 1.0), tuple(10, 2.0), tuple(H + 5, 3.0)])
            .unwrap();
        w.append_batch(&[tuple(2 * H + 1, 4.0), tuple(H + 9, 5.0)])
            .unwrap();
        let tuples = w.tuples().unwrap();
        let resident = w.deep_size_of();
        assert_eq!(w.seal_windows_before(2).unwrap(), [0, 1]);
        // The sealed tuples left memory; every answer stays.
        assert!(w.window_tuples(0).is_none() && w.window_tuples(1).is_none());
        assert_eq!(
            w.read_sealed(1).unwrap(),
            [tuple(H + 5, 3.0), tuple(H + 9, 5.0)]
        );
        assert_eq!(w.tuples().unwrap(), tuples);
        assert_eq!(w.durable_upto(), 5);
        assert_eq!(w.stats().sealed_tuples, 4);
        assert!(w.is_sealed(0) && w.is_sealed(1) && !w.is_sealed(2));
        assert_eq!(w.sealed_window_ids(), [0, 1]);
        assert_eq!(w.max_window_id(), Some(2));
        assert!(w.deep_size_of() <= resident - 4 * std::mem::size_of::<RawTuple>());
        assert_eq!(w.check_invariants(), Ok(()));
        // A sealed window's late tuples are dropped.
        assert_eq!(w.append_batch(&[tuple(20, 9.0)]).unwrap(), 5);
        assert_eq!(w.stats().late_tuples, 1);
        // An open window, or one with no data, has nothing to read back.
        assert!(w.read_sealed(2).unwrap().is_empty());
        drop(w);
        let w = WalStore::open(&dir, cfg()).unwrap();
        assert_eq!(w.tuples().unwrap(), tuples);
        assert_eq!(w.durable_upto(), 5);
        assert_eq!(w.sealed_len(0), Some(2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The offset of a sealed window file's cover frame: after the header
    /// and the tuple frame of `len` tuples.
    fn cover_frame_at(len: usize) -> usize {
        HEADER_SIZE + 8 + len * RECORD_SIZE
    }

    #[test]
    fn a_window_file_carries_its_cover_frame_across_a_restart() {
        let dir = tempdir("cover-frame");
        let mut w = WalStore::open(&dir, cfg()).unwrap();
        w.append_batch(&[tuple(10, 1.0), tuple(H + 5, 2.0), tuple(2 * H + 1, 3.0)])
            .unwrap();
        assert!(w.take_covers().is_empty(), "a new store has no covers");
        assert_eq!(w.seal_windows_before(1).unwrap(), [0]);
        let covers = vec![(1, b"cover 1".to_vec()), (7, b"no window".to_vec())];
        assert_eq!(w.seal_with_covers(covers).unwrap(), [1]);
        let tuples = w.tuples().unwrap();
        drop(w);
        let seg = |id: u32| dir.join("windows").join(segment_file_name(id));
        assert_eq!(
            std::fs::read(seg(1)).unwrap().len(),
            cover_frame_at(1) + 8 + 7
        );
        let mut w = WalStore::open(&dir, cfg()).unwrap();
        // Window 0 was sealed without a cover frame.
        let got = w.take_covers();
        assert_eq!(
            got.into_iter().collect::<Vec<_>>(),
            [(1, b"cover 1".to_vec())]
        );
        assert!(w.take_covers().is_empty(), "handed over once");
        // Writing a cover back rewrites a sealed window's file around the
        // same tuples, and seals nothing.
        assert!(w
            .seal_with_covers(vec![(0, b"cover 0".to_vec())])
            .unwrap()
            .is_empty());
        assert_eq!(w.tuples().unwrap(), tuples);
        assert!(!dir.join("windows").join(tmp_file_name(0)).exists());
        drop(w);
        let mut w = WalStore::open(&dir, cfg()).unwrap();
        assert_eq!(w.take_covers().len(), 2);
        drop(w);
        // A torn cover frame costs the cover only; a torn tuple frame
        // fails the open.
        let clean = std::fs::read(seg(1)).unwrap();
        let mut torn = clean.clone();
        let last = torn.len() - 1;
        torn[last] ^= 0x10;
        std::fs::write(seg(1), &torn).unwrap();
        let mut w = WalStore::open(&dir, cfg()).unwrap();
        assert_eq!(w.take_covers().keys().copied().collect::<Vec<_>>(), [0]);
        assert_eq!(w.tuples().unwrap(), tuples);
        drop(w);
        let mut torn = clean;
        torn[cover_frame_at(1) - 1] ^= 0x10;
        std::fs::write(seg(1), &torn).unwrap();
        let reason = invalid_segment_reason(WalStore::open(&dir, cfg()));
        assert!(reason.contains("no intact tuple frame"), "{reason}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_cover_frame_is_read_back_without_the_store() {
        let dir = tempdir("cover-read");
        let mut w = WalStore::open(&dir, cfg()).unwrap();
        w.append_batch(&[tuple(10, 1.0), tuple(H + 5, 2.0), tuple(H + 6, 2.5)])
            .unwrap();
        w.append_batch(&[tuple(3 * H, 3.0)]).unwrap();
        assert_eq!(w.seal_windows_before(1).unwrap(), [0]);
        assert_eq!(
            w.seal_with_covers(vec![(1, b"cover 1".to_vec())]).unwrap(),
            [1]
        );
        // Read while the store is open and holds its WAL.
        let read = |id| WalStore::read_cover_frame(&dir, id);
        assert_eq!(read(1).unwrap(), (2, b"cover 1".to_vec()));
        let reason = |id| match read(id) {
            Err(StorageError::InvalidSegment { reason, .. }) => reason,
            other => panic!("expected an invalid segment, got {other:?}"),
        };
        assert!(reason(0).contains("without a cover frame"));
        assert!(matches!(read(3), Err(StorageError::Io(e)) if e.kind() == io::ErrorKind::NotFound));
        assert!(read(u64::from(u32::MAX) + 1).is_err());
        let seg = dir.join("windows").join(segment_file_name(1));
        let clean = std::fs::read(&seg).unwrap();
        let mut flipped = clean.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        std::fs::write(&seg, &flipped).unwrap();
        assert!(reason(1).contains("CRC"));
        let mut longer = clean.clone();
        longer.push(0);
        std::fs::write(&seg, &longer).unwrap();
        assert!(reason(1).contains("does not end the file"));
        std::fs::write(&seg, &clean[..clean.len() - 1]).unwrap();
        assert!(reason(1).contains("does not end the file"));
        std::fs::write(dir.join("windows").join(segment_file_name(0)), &clean).unwrap();
        assert!(reason(0).contains("segment header"));
        drop(w);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_sealed_window_fails_the_read_back() {
        let dir = tempdir("sealed-corrupt");
        let mut w = WalStore::open(&dir, cfg()).unwrap();
        w.append_batch(&[tuple(10, 1.0), tuple(20, 2.0), tuple(H + 1, 3.0)])
            .unwrap();
        w.seal_windows_before(1).unwrap();
        let seg = dir.join("windows").join(segment_file_name(0));
        let clean = std::fs::read(&seg).unwrap();
        // A flipped payload byte fails the batch CRC.
        let mut flipped = clean.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        std::fs::write(&seg, &flipped).unwrap();
        let reason = |r: Result<Vec<RawTuple>, StorageError>| match r {
            Err(StorageError::InvalidSegment { reason, .. }) => reason,
            other => panic!("expected InvalidSegment, got {other:?}"),
        };
        assert!(reason(w.tuples()).contains("no intact tuple frame"));
        // A tuple frame that reads cleanly but holds another count than
        // was sealed has lost tuples.
        let mut short = encode_header(0);
        encode_frame(&mut short, |out| encode_records(&[tuple(10, 1.0)], out));
        std::fs::write(&seg, &short).unwrap();
        assert!(reason(w.tuples()).contains("2 were sealed"));
        // A missing one is an error too, never a silently shorter history.
        std::fs::remove_file(&seg).unwrap();
        reason(w.tuples());
        std::fs::write(&seg, &clean).unwrap();
        assert_eq!(w.tuples().unwrap().len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn late_tuples_are_acked_and_dropped() {
        let dir = tempdir("late");
        let mut w = WalStore::open(&dir, cfg()).unwrap();
        w.append_batch(&[tuple(10, 1.0)]).unwrap();
        w.seal_windows_before(1).unwrap();
        let durable = w
            .append_batch(&[tuple(20, 2.0), tuple(H + 5, 3.0)])
            .unwrap();
        // The late tuple for sealed window 0 is dropped but the batch still
        // advances the watermark by the retained tuple.
        assert_eq!(durable, 2);
        assert_eq!(w.stats().late_tuples, 1);
        assert_eq!(w.read_sealed(0).unwrap(), [tuple(10, 1.0)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pre_epoch_tuple_is_rejected_and_seals_nothing() {
        let dir = tempdir("pre-epoch");
        let mut w = WalStore::open(&dir, cfg()).unwrap();
        w.append_batch(&[tuple(10, 1.0), tuple(5 * H + 1, 2.0)])
            .unwrap();
        // t = -1 s would file into window u64::MAX, and a seal watermark
        // under it would seal the live window 5.
        assert_eq!(w.append_batch(&[tuple(-1, 3.0)]).unwrap(), 2);
        assert_eq!(w.stats().rejected_tuples, 1);
        let max = w.max_window_id().unwrap();
        assert_eq!(max, 5);
        assert_eq!(w.seal_windows_before(max - 1).unwrap(), vec![0]);
        assert_eq!(w.append_batch(&[tuple(5 * H + 2, 4.0)]).unwrap(), 3);
        assert_eq!(w.stats().late_tuples, 0);
        // A window id past the segment naming range is refused the same way.
        let far = tuple((i64::from(u32::MAX) + 1) * H, 5.0);
        assert_eq!(w.window_for(&far), None);
        assert_eq!(w.append_batch(&[far]).unwrap(), 3);
        assert_eq!(w.stats().rejected_tuples, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_finite_tuples_are_rejected() {
        let dir = tempdir("nonfinite");
        let mut w = WalStore::open(&dir, cfg()).unwrap();
        let durable = w
            .append_batch(&[tuple(10, f64::NAN), tuple(20, 1.0)])
            .unwrap();
        assert_eq!(durable, 1);
        assert_eq!(w.stats().rejected_tuples, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Makes `w`'s next WAL write fail as a short write does: five bytes
    /// of a frame reach the file, the handle sits past them, and the disk
    /// refuses the rest (a read-only handle refuses every write).
    fn fail_next_write(w: &mut WalStore, path: &Path) {
        let mut partial = std::fs::OpenOptions::new().append(true).open(path).unwrap();
        partial.write_all(&[0xAB; 5]).unwrap();
        let mut refusing = std::fs::File::open(path).unwrap();
        refusing.seek(SeekFrom::End(0)).unwrap();
        w.writer.replace_file(refusing);
    }

    #[test]
    fn a_failed_append_leaves_no_frame_behind() {
        let dir = tempdir("failed-append");
        let mut w = WalStore::open(&dir, cfg()).unwrap();
        w.append_batch(&[tuple(10, 1.0)]).unwrap();
        let (durable, wal_bytes) = (w.durable_upto(), w.stats().wal_bytes);
        let path = wal_segment(&dir, 0);
        fail_next_write(&mut w, &path);
        assert!(w.append_batch(&[tuple(20, 2.0)]).is_err());
        assert_eq!(w.durable_upto(), durable);
        assert_eq!(w.stats().wal_bytes, wal_bytes);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), wal_bytes);
        // The next acked frame lands where replay expects it.
        assert_eq!(w.append_batch(&[tuple(30, 3.0)]).unwrap(), 2);
        assert_eq!(w.check_invariants(), Ok(()));
        drop(w);
        let w = WalStore::open(&dir, cfg()).unwrap();
        assert_eq!(times(&w), [10, 30]);
        assert!(!w.stats().recovered_torn_tail);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failure_that_cannot_be_cut_back_refuses_later_appends() {
        let dir = tempdir("broken-append");
        let mut w = WalStore::open(&dir, cfg()).unwrap();
        w.append_batch(&[tuple(10, 1.0)]).unwrap();
        let path = wal_segment(&dir, 0);
        fail_next_write(&mut w, &path);
        // With the segment gone, the cut back fails too.
        std::fs::remove_file(&path).unwrap();
        assert!(w.append_batch(&[tuple(20, 2.0)]).is_err());
        assert_eq!(w.durable_upto(), 1);
        let err = w.append_batch(&[tuple(30, 3.0)]).unwrap_err();
        assert!(err.to_string().contains("reopen the store"), "{err}");
        // A seal would roll the segment over; it is refused the same way.
        assert!(w.seal_windows_before(1).is_err());
        assert_eq!(w.durable_upto(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_wal_tail_is_truncated_on_recovery() {
        let dir = tempdir("torn");
        let mut w = WalStore::open(&dir, cfg()).unwrap();
        w.append_batch(&[tuple(10, 1.0)]).unwrap();
        w.append_batch(&[tuple(20, 2.0)]).unwrap();
        drop(w);
        // Chop into the last batch.
        let path = dir.join("wal").join(segment_file_name(0));
        truncate(&path, std::fs::metadata(&path).unwrap().len() - 3);
        let w = WalStore::open(&dir, cfg()).unwrap();
        assert!(w.stats().recovered_torn_tail);
        assert_eq!(w.durable_upto(), 1);
        assert_eq!(w.window_tuples(0).unwrap(), &[tuple(10, 1.0)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_rotates_at_size_threshold() {
        let dir = tempdir("rotate");
        let mut w = WalStore::open(&dir, small(256)).unwrap();
        for i in 0..40 {
            w.append_batch(&[tuple(i, i as f64)]).unwrap();
        }
        assert!(w.stats().wal_segments > 1);
        drop(w);
        let w = WalStore::open(&dir, small(256)).unwrap();
        assert_eq!(w.durable_upto(), 40);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let dir = tempdir("emptybatch");
        let mut w = WalStore::open(&dir, cfg()).unwrap();
        assert_eq!(w.append_batch(&[]).unwrap(), 0);
        assert_eq!(w.stats().memtable_windows, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_non_positive_window() {
        let dir = tempdir("badwin");
        let bad = WalConfig {
            window_secs: 0,
            ..cfg()
        };
        assert!(WalStore::open(&dir, bad).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deep_size_counts_buffers() {
        let dir = tempdir("deepsize");
        let mut w = WalStore::open(&dir, cfg()).unwrap();
        let before = w.deep_size_of();
        let batch: Vec<RawTuple> = (0..100).map(|i| tuple(i, i as f64)).collect();
        w.append_batch(&batch).unwrap();
        let after = w.deep_size_of();
        assert!(
            after >= before + 100 * std::mem::size_of::<RawTuple>(),
            "{after} vs {before}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn deep_size_does_not_depend_on_the_store_path() {
        let dirs = [tempdir("path"), tempdir("path-with-a-much-longer-name")];
        let sizes: Vec<usize> = dirs
            .iter()
            .map(|dir| {
                let mut w = WalStore::open(dir, small(80)).unwrap();
                for i in 0..4 {
                    w.append_batch(&[tuple(i * 60, 1.0)]).unwrap();
                }
                w.seal_windows_before(1).unwrap();
                let size = w.deep_size_of();
                std::fs::remove_dir_all(dir).unwrap();
                size
            })
            .collect();
        assert_eq!(sizes[0], sizes[1]);
    }

    #[test]
    fn invariants_hold_through_the_lifecycle() {
        let dir = tempdir("invariants");
        let mut w = WalStore::open(&dir, cfg()).unwrap();
        for i in 0..30 {
            w.append_batch(&[tuple(i * 10, 1.0)]).unwrap();
            assert_eq!(w.check_invariants(), Ok(()));
        }
        w.seal_windows_before(2).unwrap();
        assert_eq!(w.check_invariants(), Ok(()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn max_window_id_spans_open_and_sealed() {
        let dir = tempdir("maxid");
        let mut w = WalStore::open(&dir, cfg()).unwrap();
        assert_eq!(w.max_window_id(), None);
        w.append_batch(&[tuple(10, 1.0), tuple(3 * H + 1, 2.0)])
            .unwrap();
        assert_eq!(w.max_window_id(), Some(3));
        w.seal_windows_before(4).unwrap();
        assert_eq!(w.max_window_id(), Some(3));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopening_with_another_window_length_is_refused() {
        let dir = tempdir("window-mismatch");
        let mut w = WalStore::open(&dir, cfg()).unwrap();
        w.append_batch(&[tuple(10, 1.0), tuple(2 * H + 50, 2.0)])
            .unwrap();
        w.seal_windows_before(1).unwrap();
        assert_eq!(w.durable_upto(), 2);
        drop(w);
        // Under H' = 3H the open tuple at t=250 would replay into window 0,
        // which is sealed, and be skipped: an acked tuple silently gone.
        let other = WalConfig {
            window_secs: 3 * H,
            ..cfg()
        };
        match WalStore::open(&dir, other) {
            Err(e @ StorageError::WindowMismatch { .. }) => {
                let msg = e.to_string();
                assert!(msg.contains("100") && msg.contains("300"), "{msg}");
            }
            Err(e) => panic!("expected WindowMismatch, got {e}"),
            Ok(w) => panic!("reopened with durable_upto {} of 2", w.durable_upto()),
        }
        assert_eq!(WalStore::open(&dir, cfg()).unwrap().durable_upto(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_window_record_is_read_without_creating_a_store() {
        let dir = tempdir("window-record");
        assert_eq!(WalStore::recorded_window_secs(&dir).unwrap(), None);
        assert!(
            !dir.exists(),
            "reading the record created {}",
            dir.display()
        );
        drop(WalStore::open(&dir, cfg()).unwrap());
        assert_eq!(WalStore::recorded_window_secs(&dir).unwrap(), Some(H));
        std::fs::write(dir.join(WINDOW_RECORD), "an hour\n").unwrap();
        match WalStore::recorded_window_secs(&dir) {
            Err(e @ StorageError::InvalidSegment { .. }) => {
                assert!(e.to_string().contains("an hour"), "{e}")
            }
            other => panic!("expected a bad record, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_append_reopen_scan() {
        let dir = tempdir("basic");
        let mut w = WalStore::open(&dir, cfg()).unwrap();
        w.append_batch(&[tuple(10, 1.0), tuple(20, 1.0)]).unwrap();
        w.append_batch(&[tuple(30, 1.0)]).unwrap();
        drop(w);
        let w = WalStore::open(&dir, cfg()).unwrap();
        assert_eq!(times(&w), vec![10, 20, 30]);
        assert!(!w.stats().recovered_torn_tail);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_by_size() {
        let dir = tempdir("size");
        let mut w = WalStore::open(&dir, small(80)).unwrap();
        for i in 0..10 {
            w.append_batch(&[tuple(i, 1.0)]).unwrap();
        }
        let stats = w.stats();
        assert!(stats.wal_segments >= 3, "expected rotation, got {stats:?}");
        assert_eq!(stats.durable_tuples, 10);
        drop(w);
        assert_eq!(WalStore::open(&dir, small(80)).unwrap().durable_upto(), 10);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_truncates_torn_tail_and_keeps_appending() {
        let dir = tempdir("recover");
        let mut w = WalStore::open(&dir, cfg()).unwrap();
        w.append_batch(&[tuple(1, 1.0)]).unwrap();
        w.append_batch(&[tuple(2, 1.0)]).unwrap();
        drop(w);
        let seg = wal_segment(&dir, 0);
        truncate(&seg, std::fs::metadata(&seg).unwrap().len() - 5);
        // Recovery drops the torn batch, keeps the clean one, and appends
        // continue from the truncation point.
        let mut w = WalStore::open(&dir, cfg()).unwrap();
        assert_eq!(w.durable_upto(), 1);
        assert!(w.stats().recovered_torn_tail);
        w.append_batch(&[tuple(3, 1.0)]).unwrap();
        drop(w);
        assert_eq!(times(&WalStore::open(&dir, cfg()).unwrap()), vec![1, 3]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_middle_segment_is_an_error() {
        let dir = tempdir("midcorrupt");
        let mut w = WalStore::open(&dir, small(60)).unwrap();
        for i in 0..6 {
            w.append_batch(&[tuple(i, 1.0)]).unwrap();
        }
        assert!(w.stats().wal_segments >= 2);
        drop(w);
        // Corrupt the FIRST segment (acknowledged data).
        let seg = wal_segment(&dir, 0);
        let mut data = std::fs::read(&seg).unwrap();
        let idx = data.len() - 3;
        data[idx] ^= 0xFF;
        std::fs::write(&seg, &data).unwrap();
        let reason = invalid_segment_reason(WalStore::open(&dir, small(60)));
        assert!(reason.contains("non-final"), "{reason}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_magic_segment_fails_open_with_typed_error() {
        let dir = tempdir("badmagic");
        std::fs::create_dir_all(dir.join("wal")).unwrap();
        std::fs::write(
            wal_segment(&dir, 0),
            b"NOTASEGM\x01\x00\x00\x00\x00\x00\x00\x00",
        )
        .unwrap();
        match WalStore::open(&dir, cfg()) {
            Err(StorageError::InvalidSegment { path, reason }) => {
                assert!(path.ends_with(segment_file_name(0)));
                assert!(reason.contains("not a segment"), "{reason}");
            }
            other => panic!("expected InvalidSegment, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unsupported_version_fails_open_with_typed_error() {
        let dir = tempdir("badversion");
        let mut w = WalStore::open(&dir, cfg()).unwrap();
        w.append_batch(&[tuple(1, 1.0)]).unwrap();
        drop(w);
        let seg = wal_segment(&dir, 0);
        let mut data = std::fs::read(&seg).unwrap();
        data[8] = 0xEE; // version field
        std::fs::write(&seg, &data).unwrap();
        let reason = invalid_segment_reason(WalStore::open(&dir, cfg()));
        assert!(reason.contains("version"), "{reason}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn header_only_truncation_fails_open_with_typed_error() {
        let dir = tempdir("shortheader");
        let mut w = WalStore::open(&dir, cfg()).unwrap();
        w.append_batch(&[tuple(1, 1.0)]).unwrap();
        w.seal_windows_before(1).unwrap();
        drop(w);
        // Chop into a sealed window's 16-byte header: a sealed segment was
        // synced before its rename committed it, so this is corruption, not
        // a torn tail.
        truncate(&dir.join("windows").join(segment_file_name(0)), 9);
        invalid_segment_reason(WalStore::open(&dir, cfg()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn invariants_hold_through_append_rotate_compact_recover() {
        let dir = tempdir("invariants-rotate");
        let mut w = WalStore::open(&dir, small(80)).unwrap();
        assert_eq!(w.check_invariants(), Ok(()));
        for i in 0..10 {
            w.append_batch(&[tuple(i * 20, 1.0)]).unwrap();
            assert_eq!(w.check_invariants(), Ok(()));
        }
        w.seal_windows_before(1).unwrap();
        assert_eq!(w.check_invariants(), Ok(()));
        drop(w);
        let w = WalStore::open(&dir, small(80)).unwrap();
        assert_eq!(w.check_invariants(), Ok(()));
        assert_eq!(w.durable_upto(), 10);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_dataset_sorted_for_engine() {
        use enviro_data::{Dataset, Pollutant};
        let dir = tempdir("dataset");
        let mut w = WalStore::open(&dir, cfg()).unwrap();
        w.append_batch(&[
            tuple(150, 1.0),
            tuple(50, 2.0),
            tuple(10, 3.0),
            tuple(30, 4.0),
        ])
        .unwrap();
        w.seal_windows_before(1).unwrap();
        let ds = Dataset::from_tuples(Pollutant::Co2, w.tuples().unwrap()).unwrap();
        assert_eq!(ds.len(), 4);
        assert!(ds.tuples().windows(2).all(|p| p[0].time <= p[1].time));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_store_behaviour() {
        let dir = tempdir("empty");
        let w = WalStore::open(&dir, cfg()).unwrap();
        let stats = w.stats();
        assert_eq!(stats.durable_tuples, 0);
        assert_eq!(stats.wal_segments, 1); // the active segment
        assert_eq!(stats.memtable_windows + stats.sealed_windows, 0);
        assert!(w.tuples().unwrap().is_empty());
        assert_eq!(w.max_window_id(), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_files_are_ignored() {
        let dir = tempdir("foreign");
        for sub in ["wal", "windows"] {
            std::fs::create_dir_all(dir.join(sub)).unwrap();
            std::fs::write(dir.join(sub).join("README.txt"), b"not a segment").unwrap();
        }
        let mut w = WalStore::open(&dir, cfg()).unwrap();
        w.append_batch(&[tuple(1, 1.0)]).unwrap();
        drop(w);
        assert_eq!(WalStore::open(&dir, cfg()).unwrap().durable_upto(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_merges_segments_and_preserves_data() {
        let dir = tempdir("compact");
        let mut w = WalStore::open(&dir, small(80)).unwrap();
        for i in 0..12 {
            w.append_batch(&[tuple((11 - i) * 30, 1.0)]).unwrap(); // reverse time order
        }
        assert!(w.stats().wal_segments >= 3);
        let max = w.max_window_id().unwrap();
        assert_eq!(w.seal_windows_before(max + 1).unwrap(), vec![0, 1, 2, 3]);
        let stats = w.stats();
        assert_eq!(stats.wal_segments, 1); // the fresh active one
        assert_eq!(stats.memtable_windows, 0);
        assert_eq!(stats.sealed_tuples, 12);
        // Appends keep working after retirement, and survive reopen.
        w.append_batch(&[tuple(1_000, 1.0)]).unwrap();
        drop(w);
        let w = WalStore::open(&dir, small(80)).unwrap();
        assert_eq!(w.durable_upto(), 13);
        let tuples = w.tuples().unwrap();
        assert!(tuples
            .windows(2)
            .all(|p| p[0].time.as_secs() / H <= p[1].time.as_secs() / H));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every file under `dir`, by path, with its bytes.
    fn files_under(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
        let (mut files, mut dirs) = (BTreeMap::new(), vec![dir.to_path_buf()]);
        while let Some(d) = dirs.pop() {
            for entry in std::fs::read_dir(&d).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    dirs.push(path);
                } else {
                    files.insert(path.clone(), std::fs::read(&path).unwrap());
                }
            }
        }
        files
    }

    #[test]
    fn manifest_store_is_refused_untouched() {
        let dir = tempdir("manifest");
        let mut w = WalStore::open(&dir, small(80)).unwrap();
        for i in 0..8 {
            w.append_batch(&[tuple(i * 20, 1.0)]).unwrap();
        }
        w.seal_windows_before(1).unwrap();
        w.append_batch(&[tuple(150, 1.0)]).unwrap();
        drop(w);
        // A store of the earlier format, from before the window record,
        // with the residue of a crash mid-compaction: a WAL segment its
        // manifest does not name, whose tuples would replay twice.
        std::fs::remove_file(dir.join(WINDOW_RECORD)).unwrap();
        let mut orphan = SegmentWriter::create(&dir.join("wal"), 999).unwrap();
        orphan.append_batch(&[tuple(170, 99.0)]).unwrap();
        orphan.sync().unwrap();
        drop(orphan);
        for sub in ["wal", "windows"] {
            let manifest = dir.join(sub).join("MANIFEST");
            std::fs::write(&manifest, "0\n").unwrap();
            let before = files_under(&dir);
            match WalStore::open(&dir, small(80)) {
                Err(StorageError::InvalidSegment { path, .. }) => assert_eq!(path, manifest),
                other => panic!("{sub}/MANIFEST: expected a refusal, got {other:?}"),
            }
            assert_eq!(files_under(&dir), before, "{sub}/MANIFEST: open wrote");
            std::fs::remove_file(&manifest).unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_after_a_seal_keeps_every_segment_live() {
        let dir = tempdir("compact-rotate");
        let mut w = WalStore::open(&dir, small(80)).unwrap();
        for i in 0..6 {
            w.append_batch(&[tuple(i, 1.0)]).unwrap();
        }
        w.seal_windows_before(1).unwrap();
        // Force several rotations after the seal.
        for i in 6..14 {
            w.append_batch(&[tuple(H + i, 1.0)]).unwrap();
        }
        assert!(w.stats().wal_segments > 2);
        drop(w);
        assert_eq!(WalStore::open(&dir, small(80)).unwrap().durable_upto(), 14);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_empty_batch_is_noop() {
        let dir = tempdir("noop");
        let mut w = WalStore::open(&dir, cfg()).unwrap();
        w.append_batch(&[tuple(1, 1.0)]).unwrap();
        let before = w.stats();
        assert_eq!(w.append_batch(&[]).unwrap(), 1);
        assert_eq!(w.stats(), before);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
