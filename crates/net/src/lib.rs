//! EnviroMeter's mobile data protocol (§2.3 of the paper).
//!
//! Smartphones reach the EnviroMeter server over GPRS/3G. Bandwidth and
//! battery are scarce, so the paper proposes **model-cache**: instead of one
//! round-trip per query tuple (the *baseline*), the phone downloads the
//! current model cover `(t_n, µ, M)` once and answers queries locally until
//! the cover expires.
//!
//! This crate provides everything Figure 7(b) measures:
//!
//! * [`protocol`] — the request/response message types.
//! * [`codec`] — a compact fixed-layout binary codec (and a verbose text
//!   codec for the ablation), with byte-exact size accounting.
//! * [`link`] — a deterministic simulated cellular link: virtual clock,
//!   per-direction throughput, round-trip latency, and per-message protocol
//!   overhead (TCP/IP headers over a PDP context).
//! * [`server`] — the EnviroMeter server endpoint: decodes requests,
//!   consults the [`enviro_meter::EnviroMeter`] platform, encodes responses.
//! * [`client`] — [`client::BaselineClient`] and
//!   [`client::ModelCacheClient`] running Query 1 trajectories end-to-end,
//!   with [`client::SessionStats`] capturing bytes sent/received and elapsed
//!   (virtual) time; plus [`client::EnviroClient`], the production client
//!   speaking batched `QueryBatch` frames over any [`client::Wire`].
//! * [`concurrent`] — the in-process transport:
//!   [`concurrent::ConcurrentTransport`] serves one shared server under
//!   `workers` permits (one for the demos), with per-connection
//!   [`concurrent::Session`]s that carry one request at a time and serve
//!   it on their own thread.
//! * [`buffers`] — per-thread buffer pools backing the allocation-free
//!   steady-state serving path.
//! * [`clock`] — injectable time ([`clock::SystemClock`] /
//!   [`clock::VirtualClock`]) behind deadlines, backoff and outages, so
//!   resilience tests never sleep.
//! * [`fault`] — the chaos layer: [`fault::ChaosWire`] perturbs any wire
//!   per a seeded declarative [`fault::FaultPlan`] (drop / duplicate /
//!   reorder / corrupt / delay / stall / scripted outages).
//! * [`ingest`] — the durable write path: [`ingest::IngestState`] appends
//!   `IngestBatch` frames to a WAL-backed store and a background
//!   [`ingest::ModelMaintenance`] worker rebuilds Ad-KMN covers off the hot
//!   path, publishing them atomically via an epoch-versioned registry.
//!   A sealed window's final cover is written into the window's own file,
//!   so a restart publishes it without re-running Ad-KMN.

#![warn(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]

pub mod buffers;
pub mod client;
pub mod clock;
pub mod codec;
pub mod concurrent;
pub mod fault;
pub mod ingest;
pub mod link;
pub mod protocol;
pub mod server;

pub use client::{
    BaselineClient, ClientError, EnviroClient, IngestReport, LoopbackWire, ModelCacheClient,
    ResilienceStats, RetryPolicy, SessionStats, Wire,
};
pub use clock::{Clock, SystemClock, VirtualClock};
pub use codec::{BinaryCodec, TextCodec, WireCodec};
pub use concurrent::{ConcurrentTransport, Session, TransportConfig, TransportError};
pub use fault::{ChaosStats, ChaosWire, FaultPlan, Outage, XorShiftRng};
pub use ingest::{IngestConfig, IngestOutcome, IngestState, IngestStats, ModelMaintenance};
pub use link::{LinkProfile, SimulatedLink};
pub use protocol::{ErrorCode, ProtocolError, Request, Response, BATCH_VERSION, MAX_BATCH};
pub use server::EnviroServer;
