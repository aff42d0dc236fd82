//! # EnviroMeter
//!
//! A platform for querying community-sensed environmental data — a full
//! reimplementation of *"EnviroMeter: A Platform for Querying
//! Community-Sensed Data"* (Sathe et al., VLDB 2013).
//!
//! Large-area Community-driven Sensor Networks (LCSNs) produce
//! **geo-temporally skewed** data: mobile sensors (buses, cars, phones)
//! sample the phenomenon only where and when they happen to be. EnviroMeter
//! answers point and continuous pollution queries over such data by
//! replacing the raw tuples of each time window with an adaptive
//! **model cover** — a set of cluster centroids, each owning a small linear
//! regression model of its sub-region — and interpolating from the nearest
//! model instead of scanning raw data.
//!
//! ## Crate layout
//!
//! * [`cluster`] — standard k-means (k-means++ / Lloyd) and the adaptive
//!   **Ad-KMN** algorithm that splits high-error regions (§2.1 of the
//!   paper).
//! * [`model`] — per-region linear regression models and the
//!   pollutant-normalized approximation-error metric.
//! * [`cover`] — the [`ModelCover`]: centroids + models + validity horizon,
//!   the unit cached by clients and shipped by the server.
//! * [`query`] — the windowed [`query::QueryEngine`], which answers with
//!   each of the seven [`QueryMethod`]s: the naïve scan, the four
//!   metric-space indexes and the model cover of §2.2, plus IDW.
//! * [`eval`] — NRMSE and coverage metrics for the accuracy experiments.
//! * [`heatmap`] — the web UI's heatmap mode: model-cover evaluation over a
//!   grid, with PPM/ASCII rendering.
//! * [`route`] — the Android app's route recording with OSHA
//!   classification.
//! * [`publish`] — the [`CoverRegistry`]: epoch-versioned, atomically
//!   swapped cover sets for the durable write path's online maintenance.
//! * [`platform`] — the [`EnviroMeter`] facade tying everything together.
//!
//! ## Quickstart
//!
//! ```
//! use enviro_data::{LausanneSim, SimConfig, WindowSpec};
//! use enviro_meter::{AdKmnConfig, EnviroMeter, QueryMethod};
//!
//! // Simulate two buses sensing CO2 for six hours.
//! let sim = LausanneSim::lausanne(SimConfig {
//!     duration_secs: 6 * 3600,
//!     ..SimConfig::default()
//! });
//! let dataset = sim.generate();
//!
//! // Stand up the platform with 4-hour model windows.
//! let platform = EnviroMeter::new(
//!     dataset,
//!     WindowSpec::ByDuration(4 * 3600),
//!     AdKmnConfig::default(),
//!     1_000.0, // radius r = 1 km for the raw-data methods
//! );
//!
//! // Ask for the CO2 level at a position, via the model cover.
//! let q = enviro_data::QueryTuple::new(
//!     enviro_data::Timestamp::from_hours(2),
//!     enviro_geo::Point::new(500.0, -100.0),
//! );
//! let answer = platform.point_query(&q, QueryMethod::ModelCover);
//! assert!(answer.unwrap() > 300.0); // plausible ppm
//! ```

#![forbid(unsafe_code)]
// Panic-prone sites in this crate are legacy debt tracked by the xtask
// panic ratchet (crates/xtask/panic-baseline.toml): counts may only go
// down. The clippy warn-level lints stay crate-allowed until the burn-down
// reaches zero; prefer typed errors in new code.
#![allow(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod cluster;
pub mod cover;
pub mod eval;
pub mod heatmap;
pub mod model;
pub mod platform;
pub mod publish;
pub mod query;
pub mod route;
mod routing;

pub use cluster::{AdKmn, AdKmnConfig, ClusterMembers, KMeans, SplitStrategy};
pub use cover::{CoverBuilder, CoverRegion, ModelCover};
pub use enviro_data::default_parallelism;
pub use eval::{nrmse_percent, AccuracyReport};
pub use heatmap::{Heatmap, HeatmapBuilder};
pub use model::{ApproximationError, LinearModel, RegionModel};
pub use platform::EnviroMeter;
pub use publish::{
    CoverCacheStats, CoverLoader, CoverReadError, CoverReader, CoverRegistry, CoverSet,
    PublishedCover, StoredCover, COVER_CACHE_CAPACITY,
};
pub use query::{QueryEngine, QueryMethod, QueryOutcome};
pub use route::{Route, RouteSummary};
