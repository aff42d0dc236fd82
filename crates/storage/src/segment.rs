//! Segment files: CRC-framed batch logs.
//!
//! A segment is `HEADER ++ frame*` where `HEADER = MAGIC(8) ++ version(u32)
//! ++ seq(u32)` and each frame is `[u32 len][u32 crc32(payload)][payload]`.
//! Readers stop at the first incomplete or corrupt frame and report how
//! many clean bytes precede it, letting the store truncate torn tails on
//! recovery.
//!
//! The framing is payload-agnostic (`encode_frame`, `read_frames`): the
//! WAL frames batches of tuple records ([`SegmentWriter::append_batch`],
//! [`read_segment`]), and a sealed window's file frames its tuples, then
//! the cover its owner stored beside them.

use crate::crc::crc32;
use crate::record::{decode_batch, encode_records, RECORD_SIZE};
use enviro_data::RawTuple;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every segment file.
pub const MAGIC: [u8; 8] = *b"ENVIROS1";
/// Current format version.
pub const VERSION: u32 = 1;
/// Header length in bytes.
pub const HEADER_SIZE: usize = MAGIC.len() + 4 + 4;
/// Frame header length in bytes: `u32 len ++ u32 crc32(payload)`.
pub const FRAME_HEADER_SIZE: usize = 8;

/// File name of segment `seq`.
pub fn segment_file_name(seq: u32) -> String {
    format!("seg-{seq:08}.log")
}

/// Parses a segment sequence number from a file name.
pub fn parse_segment_file_name(name: &str) -> Option<u32> {
    let rest = name.strip_prefix("seg-")?.strip_suffix(".log")?;
    if rest.len() != 8 || !rest.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    rest.parse().ok()
}

/// Fsyncs directory `dir`. POSIX makes a created or renamed name durable
/// only once its directory is synced; a file's own fsync does not.
pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// An open segment accepting appended batches.
///
/// A failed append or sync leaves no frame behind: the segment is cut back
/// to its length at the last successful [`SegmentWriter::sync`], so a
/// batch reported as failed never replays, and the next frame is written
/// where replay expects it. If the cut fails as well, the writer refuses
/// every later append and sync.
#[derive(Debug)]
pub struct SegmentWriter {
    file: File,
    path: PathBuf,
    seq: u32,
    /// Bytes written so far, header included.
    len: u64,
    /// `len` at the last successful sync: what a failure cuts back to.
    synced: u64,
    /// Set when a failure could not be cut back.
    broken: bool,
}

impl SegmentWriter {
    /// Creates a new segment file (fails if it already exists) and syncs
    /// `dir`, so the new name survives a power cut.
    pub fn create(dir: &Path, seq: u32) -> io::Result<Self> {
        let mut file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(dir.join(segment_file_name(seq)))?;
        file.write_all(&encode_header(seq))?;
        sync_dir(dir)?;
        Self::reopen(dir, seq, HEADER_SIZE as u64)
    }

    /// Reopens an existing, verified segment for appending at `len` bytes.
    pub fn reopen(dir: &Path, seq: u32, len: u64) -> io::Result<Self> {
        let path = dir.join(segment_file_name(seq));
        // Truncate any torn tail found during verification.
        let file = open_at(&path, len)?;
        Ok(Self {
            file,
            path,
            seq,
            len,
            synced: len,
            broken: false,
        })
    }

    /// Segment sequence number.
    pub fn seq(&self) -> u32 {
        self.seq
    }

    /// Bytes in the segment so far (header included).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` when no batch has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.len == HEADER_SIZE as u64
    }

    /// Appends one CRC-framed batch of tuples.
    pub fn append_batch(&mut self, tuples: &[RawTuple]) -> io::Result<()> {
        let mut frame = Vec::with_capacity(FRAME_HEADER_SIZE + tuples.len() * RECORD_SIZE);
        if !tuples.is_empty() {
            encode_frame(&mut frame, |payload| encode_records(tuples, payload));
        }
        self.write_or_cut_back(|file| file.write_all(&frame))?;
        self.len += frame.len() as u64;
        Ok(())
    }

    /// Fsyncs the file.
    pub fn sync(&mut self) -> io::Result<()> {
        self.write_or_cut_back(|file| file.sync_data())?;
        self.synced = self.len;
        Ok(())
    }

    /// Runs `op` on the file. When it fails, the segment is cut back to
    /// its last synced length through a fresh handle positioned there (the
    /// failed one may sit past a partial frame) before the error returns;
    /// when the cut fails too, the writer is broken.
    fn write_or_cut_back(
        &mut self,
        op: impl FnOnce(&mut File) -> io::Result<()>,
    ) -> io::Result<()> {
        if self.broken {
            let path = self.path.display();
            let reason = format!("{path}: a failed write could not be cut back; reopen the store");
            return Err(io::Error::other(reason));
        }
        let Err(e) = op(&mut self.file) else {
            return Ok(());
        };
        match open_at(&self.path, self.synced).and_then(|file| file.sync_data().map(|()| file)) {
            Ok(file) => (self.file, self.len) = (file, self.synced),
            Err(_) => self.broken = true,
        }
        Err(e)
    }
}

/// Opens `path` for writing, cut to `len` bytes and positioned at its end.
fn open_at(path: &Path, len: u64) -> io::Result<File> {
    let mut file = OpenOptions::new().write(true).open(path)?;
    file.set_len(len)?;
    file.seek(SeekFrom::Start(len))?;
    Ok(file)
}

/// The header opening segment `seq`.
pub(crate) fn encode_header(seq: u32) -> Vec<u8> {
    [&MAGIC[..], &VERSION.to_le_bytes(), &seq.to_le_bytes()].concat()
}

/// Appends one frame to `out`: a placeholder header, the payload that
/// `encode` appends, then the header patched in place once the payload's
/// length and CRC are known.
pub(crate) fn encode_frame(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER_SIZE]);
    encode(out);
    let (header, payload) = out[start..].split_at_mut(FRAME_HEADER_SIZE);
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
}

/// Where a scan of a segment's frames stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FrameScan {
    /// Sequence number from the header.
    pub seq: u32,
    /// Bytes of clean data (header + intact, accepted frames). Anything
    /// past this offset is a torn or corrupt tail.
    pub clean_len: u64,
    /// `true` when a torn/corrupt tail was detected (and skipped).
    pub truncated_tail: bool,
}

/// Reads and verifies a segment file, handing each CRC-valid payload to
/// `accept` in order.
///
/// Bad headers are hard errors (the file is not a segment); bad frames are
/// *expected* after a crash and end the scan, reported via
/// `clean_len`/`truncated_tail`. A payload that `accept` rejects (its CRC
/// held, but it does not decode) ends the scan the same way.
pub(crate) fn read_frames(
    path: &Path,
    mut accept: impl FnMut(&[u8]) -> bool,
) -> io::Result<FrameScan> {
    let mut file = File::open(path)?;
    let mut data = Vec::new();
    file.read_to_end(&mut data)?;
    if data.len() < HEADER_SIZE || data[..MAGIC.len()] != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: not a segment file", path.display()),
        ));
    }
    let version = u32_at(&data, 8);
    if version != VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: unsupported version {version}", path.display()),
        ));
    }
    let seq = u32_at(&data, 12);

    let mut offset = HEADER_SIZE;
    let mut truncated_tail = false;
    while offset < data.len() {
        // Need a complete frame header.
        if offset + FRAME_HEADER_SIZE > data.len() {
            truncated_tail = true;
            break;
        }
        let len = u32_at(&data, offset) as usize;
        let crc = u32_at(&data, offset + 4);
        let start = offset + FRAME_HEADER_SIZE;
        let end = match start.checked_add(len) {
            Some(e) if e <= data.len() => e,
            _ => {
                truncated_tail = true;
                break;
            }
        };
        let payload = &data[start..end];
        if crc32(payload) != crc || !accept(payload) {
            truncated_tail = true;
            break;
        }
        offset = end;
    }
    Ok(FrameScan {
        seq,
        clean_len: offset as u64,
        truncated_tail,
    })
}

/// The outcome of reading a segment.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentContents {
    /// Sequence number from the header.
    pub seq: u32,
    /// Every tuple in clean batches, in append order.
    pub tuples: Vec<RawTuple>,
    /// Bytes of clean data (header + intact batches). Anything past this
    /// offset is a torn or corrupt tail.
    pub clean_len: u64,
    /// `true` when a torn/corrupt tail was detected (and skipped).
    pub truncated_tail: bool,
}

/// Reads and verifies a segment of tuple batches: `read_frames` with
/// every payload decoded as a run of records.
pub fn read_segment(path: &Path) -> io::Result<SegmentContents> {
    let mut tuples = Vec::new();
    let scan = read_frames(path, |payload| match decode_batch(payload) {
        Some(batch) => {
            tuples.extend(batch);
            true
        }
        None => false,
    })?;
    Ok(SegmentContents {
        seq: scan.seq,
        tuples,
        clean_len: scan.clean_len,
        truncated_tail: scan.truncated_tail,
    })
}

/// Little-endian `u32` at `at`; the caller has already bounds-checked
/// `at + 4 <= data.len()`.
fn u32_at(data: &[u8], at: usize) -> u32 {
    let mut bytes = [0u8; 4];
    bytes.copy_from_slice(&data[at..at + 4]);
    u32::from_le_bytes(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use enviro_data::Timestamp;
    use enviro_geo::Point;

    impl SegmentWriter {
        /// Replaces the writer's file handle, as a test's stand-in for a
        /// disk that fails.
        pub(crate) fn replace_file(&mut self, file: File) {
            self.file = file;
        }
    }

    fn tuple(secs: i64) -> RawTuple {
        RawTuple::new(Timestamp::from_secs(secs), Point::new(1.0, 2.0), 400.0)
    }

    fn tempdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("enviro-seg-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn file_name_roundtrip() {
        assert_eq!(segment_file_name(7), "seg-00000007.log");
        assert_eq!(parse_segment_file_name("seg-00000007.log"), Some(7));
        assert_eq!(parse_segment_file_name("seg-7.log"), None);
        assert_eq!(parse_segment_file_name("other.log"), None);
        assert_eq!(parse_segment_file_name("seg-0000000x.log"), None);
    }

    #[test]
    fn write_read_roundtrip() {
        let dir = tempdir("roundtrip");
        let mut w = SegmentWriter::create(&dir, 3).unwrap();
        w.append_batch(&[tuple(1), tuple(2)]).unwrap();
        w.append_batch(&[tuple(3)]).unwrap();
        w.sync().unwrap();
        let c = read_segment(&dir.join(segment_file_name(3))).unwrap();
        assert_eq!(c.seq, 3);
        assert_eq!(c.tuples.len(), 3);
        assert!(!c.truncated_tail);
        assert_eq!(c.clean_len, w.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_segment_reads_empty() {
        let dir = tempdir("empty");
        let w = SegmentWriter::create(&dir, 0).unwrap();
        assert!(w.is_empty());
        let c = read_segment(&dir.join(segment_file_name(0))).unwrap();
        assert!(c.tuples.is_empty());
        assert!(!c.truncated_tail);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_detected_and_skipped() {
        let dir = tempdir("torn");
        let mut w = SegmentWriter::create(&dir, 0).unwrap();
        w.append_batch(&[tuple(1)]).unwrap();
        let clean = w.len();
        w.append_batch(&[tuple(2), tuple(3)]).unwrap();
        w.sync().unwrap();
        let path = dir.join(segment_file_name(0));
        // Chop the last batch mid-payload (a torn write).
        let full = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 10).unwrap();
        let c = read_segment(&path).unwrap();
        assert_eq!(c.tuples.len(), 1);
        assert!(c.truncated_tail);
        assert_eq!(c.clean_len, clean);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_crc_stops_reading() {
        let dir = tempdir("crc");
        let mut w = SegmentWriter::create(&dir, 0).unwrap();
        w.append_batch(&[tuple(1)]).unwrap();
        w.append_batch(&[tuple(2)]).unwrap();
        w.sync().unwrap();
        let path = dir.join(segment_file_name(0));
        let mut data = std::fs::read(&path).unwrap();
        // Flip one bit in the second batch's payload.
        let idx = data.len() - 5;
        data[idx] ^= 0x40;
        std::fs::write(&path, &data).unwrap();
        let c = read_segment(&path).unwrap();
        assert_eq!(c.tuples.len(), 1);
        assert!(c.truncated_tail);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_magic_is_hard_error() {
        let dir = tempdir("magic");
        let path = dir.join(segment_file_name(0));
        std::fs::write(&path, b"definitely not a segment").unwrap();
        assert!(read_segment(&path).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_appends_after_clean_prefix() {
        let dir = tempdir("reopen");
        let mut w = SegmentWriter::create(&dir, 1).unwrap();
        w.append_batch(&[tuple(1)]).unwrap();
        w.sync().unwrap();
        let clean = w.len();
        drop(w);
        let mut w2 = SegmentWriter::reopen(&dir, 1, clean).unwrap();
        w2.append_batch(&[tuple(2)]).unwrap();
        w2.sync().unwrap();
        let c = read_segment(&dir.join(segment_file_name(1))).unwrap();
        assert_eq!(c.tuples.len(), 2);
        assert!(!c.truncated_tail);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_sync_cuts_back_to_the_last_synced_length() {
        let dir = tempdir("sync-fails");
        let path = dir.join(segment_file_name(1));
        let mut w = SegmentWriter::create(&dir, 1).unwrap();
        w.append_batch(&[tuple(1), tuple(2)]).unwrap();
        w.sync().unwrap();
        let synced = w.len();
        // Batch B is written and counted, but its sync fails: the state
        // `sync` is in when `sync_data` errs.
        w.append_batch(&[tuple(3)]).unwrap();
        assert!(w.len() > synced);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), w.len());
        let injected = w.write_or_cut_back(|_| Err(io::Error::other("injected fsync failure")));
        assert!(injected.is_err());
        assert_eq!(w.len(), synced);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), synced);
        // The next batch lands where replay expects it: A then C, no tail.
        w.append_batch(&[tuple(4)]).unwrap();
        w.sync().unwrap();
        let c = read_segment(&path).unwrap();
        assert_eq!(c.tuples, vec![tuple(1), tuple(2), tuple(4)]);
        assert!(!c.truncated_tail);
        assert_eq!(c.clean_len, w.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn huge_declared_length_is_treated_as_torn() {
        let dir = tempdir("hugelen");
        let mut w = SegmentWriter::create(&dir, 0).unwrap();
        w.append_batch(&[tuple(1)]).unwrap();
        w.sync().unwrap();
        let path = dir.join(segment_file_name(0));
        let mut data = std::fs::read(&path).unwrap();
        // Append a frame header declaring a gigantic payload.
        data.extend_from_slice(&u32::MAX.to_le_bytes());
        data.extend_from_slice(&0u32.to_le_bytes());
        std::fs::write(&path, &data).unwrap();
        let c = read_segment(&path).unwrap();
        assert_eq!(c.tuples.len(), 1);
        assert!(c.truncated_tail);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
