//! Persistent raw-tuple storage for EnviroMeter.
//!
//! Figure 1 of the paper: "The sensed data is stored in a database in the
//! form of raw tuples." This crate is that database — one store,
//! [`WalStore`], deliberately shaped like the write path of an LCSN
//! ingestion node:
//!
//! * tuples arrive mostly in time order and are **append-only** (a sensor
//!   reading is a fact; there are no updates or deletes),
//! * they are grouped into epoch-aligned **windows** `W_c` (the unit that
//!   model building consumes), which are sealed once the stream has moved
//!   past them; the offline store is simply one with no open windows,
//! * the process can die at any moment, so every batch is CRC-framed and
//!   recovery truncates at the first torn or corrupt batch.
//!
//! Segment files (`seg-00000000.log`, `seg-00000001.log`, …) hold the
//! write-ahead log and the sealed windows. Each starts with a 16-byte
//! header and holds a sequence of *frames*:
//! `[u32 payload_len][u32 crc32(payload)][payload]`. A WAL frame's payload
//! is a batch: a packed run of fixed 32-byte records `(i64 time, f64 x,
//! f64 y, f64 s)`. A sealed window's file is one such batch, then a cover
//! frame whose payload belongs to the store's owner.
//!
//! ```
//! use enviro_data::{Dataset, Pollutant, RawTuple, Timestamp};
//! use enviro_geo::Point;
//! use enviro_storage::{WalConfig, WalStore};
//!
//! let dir = std::env::temp_dir().join("enviro-doc-store");
//! let _ = std::fs::remove_dir_all(&dir);
//! let config = WalConfig { window_secs: 3_600, ..WalConfig::default() };
//! let mut store = WalStore::open(&dir, config).unwrap();
//! let reading = RawTuple::new(Timestamp::from_secs(60), Point::new(1.0, 2.0), 420.0);
//! assert_eq!(store.append_batch(&[reading]).unwrap(), 1); // durable on return
//! store.seal_windows_before(1).unwrap(); // window 0 moves to windows/, its WAL segment goes
//!
//! // Reopen (e.g. after a restart) and hand everything to the engine.
//! let store = WalStore::open(&dir, config).unwrap();
//! let dataset = Dataset::from_tuples(Pollutant::Co2, store.tuples().unwrap()).unwrap();
//! assert_eq!(dataset.tuples(), &[reading]);
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod crc;
pub mod record;
pub mod segment;
pub mod wal;

pub use wal::{StorageError, WalConfig, WalStats, WalStore};
