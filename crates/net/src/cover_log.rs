//! The cover log: every sealed window's final cover, recorded once, so a
//! restart publishes it instead of re-running Ad-KMN over the window.
//!
//! A sealed window's cover never changes once the maintenance pass has
//! published it and released the window's raw tuples (see
//! [`crate::IngestState`]). That pass appends the cover to the log; the
//! next [`crate::IngestState::open`] publishes every record it accepts and
//! rebuilds only the windows left without one.
//!
//! The log is one segment file, `<dir>/covers/seg-00000000.log`, framed
//! like the WAL ([`enviro_storage::segment::encode_frame`]), one record per
//! frame. A record's payload, little-endian:
//!
//! ```text
//! u32 fingerprint ++ u64 sealed tuple count ++ i64 first_time ++ cover
//! ```
//!
//! where the cover is [`ModelCover::encode_into`]'s exact binary form and
//! the fingerprint ([`fingerprint`]) names the format version, the store
//! and the configuration the cover was built under.
//!
//! The log is derived data. It is appended without fsync: a lost, torn or
//! corrupt record, or one written under another fingerprint, only means
//! that its window is rebuilt at the next restart.

use enviro_data::{Pollutant, Timestamp};
use enviro_meter::{AdKmnConfig, ModelCover, PublishedCover};
use enviro_schedule::sync::Arc;
use enviro_storage::crc::crc32;
use enviro_storage::segment::{encode_frame, read_frames, segment_file_name, SegmentWriter};
use enviro_storage::StorageError;
use std::io;
use std::path::{Path, PathBuf};

/// The record format's version. Bump it whenever the record layout or the
/// covers the builder fits change (`core/tests/golden_cover.rs` pins the
/// latter): records written under another version are rebuilt, never
/// served.
pub const COVER_LOG_VERSION: u32 = 1;

/// The cover log's subdirectory of a store.
const COVERS_DIR: &str = "covers";

/// The fingerprint a record carries: a CRC of the `Debug` text of the
/// format version, the store's identity
/// ([`enviro_storage::WalStore::store_id`]), the pollutant, the window
/// length and the Ad-KMN configuration. A record is accepted only under the
/// fingerprint it was written with, so a log copied from another store, or
/// written under another τ, pollutant or format, is rebuilt.
pub fn fingerprint(
    version: u32,
    store_id: u64,
    pollutant: Pollutant,
    window_secs: i64,
    adkmn: &AdKmnConfig,
) -> u32 {
    let text = format!("{:?}", (version, store_id, pollutant, window_secs, adkmn));
    crc32(text.as_bytes())
}

/// The cover log of the store in `dir`.
pub fn log_path(dir: &Path) -> PathBuf {
    dir.join(COVERS_DIR).join(segment_file_name(0))
}

/// One decoded record.
#[derive(Debug, Clone)]
pub struct CoverRecord {
    /// The configuration fingerprint the record was written under.
    pub fingerprint: u32,
    /// The window's tuple count when it was sealed.
    pub sealed_len: u64,
    /// The window's final cover and routing key.
    pub cover: PublishedCover,
}

/// Appends one record's payload to `out`.
pub fn encode_record(fingerprint: u32, sealed_len: u64, cover: &PublishedCover, out: &mut Vec<u8>) {
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&sealed_len.to_le_bytes());
    out.extend_from_slice(&cover.first_time.as_secs().to_le_bytes());
    cover.cover.encode_into(out);
}

/// Decodes one record's payload; `None` unless it is exactly one
/// well-formed record.
pub fn decode_record(payload: &[u8]) -> Option<CoverRecord> {
    let (fingerprint, rest) = payload.split_first_chunk::<4>()?;
    let (sealed_len, rest) = rest.split_first_chunk::<8>()?;
    let (first_time, rest) = rest.split_first_chunk::<8>()?;
    let cover = ModelCover::decode(rest)?;
    Some(CoverRecord {
        fingerprint: u32::from_le_bytes(*fingerprint),
        sealed_len: u64::from_le_bytes(*sealed_len),
        cover: PublishedCover {
            window_id: cover.window_id,
            first_time: Timestamp::from_secs(i64::from_le_bytes(*first_time)),
            cover: Arc::new(cover),
        },
    })
}

/// Opens the cover log of the store in `dir`, creating it if it is missing
/// or is not a segment file. Returns the writer, placed after the last
/// good record (a torn or corrupt tail is truncated, so later appends stay
/// readable), and every record written under `fingerprint`, in log order.
///
/// A record under another fingerprint is skipped unread. One under this
/// fingerprint that does not decode ends the scan like a torn frame.
pub(crate) fn open(
    dir: &Path,
    fingerprint: u32,
) -> Result<(SegmentWriter, Vec<CoverRecord>), StorageError> {
    let covers_dir = dir.join(COVERS_DIR);
    std::fs::create_dir_all(&covers_dir)?;
    let path = log_path(dir);
    let mut records = Vec::new();
    let scan = read_frames(&path, |payload| {
        if payload.get(..4) != Some(&fingerprint.to_le_bytes()[..]) {
            return true;
        }
        decode_record(payload).map(|r| records.push(r)).is_some()
    });
    let writer = match scan {
        Ok(scan) => SegmentWriter::reopen(&covers_dir, 0, scan.clean_len)?,
        Err(e) if e.kind() == io::ErrorKind::NotFound => SegmentWriter::create(&covers_dir, 0)?,
        // A bad header: a torn creation, or not a log at all.
        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
            std::fs::remove_file(&path)?;
            SegmentWriter::create(&covers_dir, 0)?
        }
        Err(e) => return Err(e.into()),
    };
    Ok((writer, records))
}

/// Appends one record per `(sealed tuple count, cover)` to the log, in one
/// write and without fsync.
pub(crate) fn append<'a>(
    writer: &mut SegmentWriter,
    fingerprint: u32,
    covers: impl IntoIterator<Item = (usize, &'a PublishedCover)>,
) -> io::Result<()> {
    let mut frames = Vec::new();
    for (sealed_len, cover) in covers {
        encode_frame(&mut frames, |out| {
            encode_record(fingerprint, sealed_len as u64, cover, out);
        });
    }
    if frames.is_empty() {
        return Ok(());
    }
    writer.append_frames(&frames)
}
