//! Spatial primitives for the EnviroMeter platform.
//!
//! Community-sensed data is indexed by *position*: every raw tuple carries a
//! coordinate, every query is anchored at a coordinate, and every model in a
//! model cover is responsible for a spatial sub-region. This crate provides
//! the small, allocation-free geometric vocabulary shared by all other
//! EnviroMeter crates:
//!
//! * [`Point`] — a position in a local metric plane (meters).
//! * [`BoundingBox`] — axis-aligned rectangles used by the R-tree.
//! * [`Grid`] — a uniform cell decomposition used by the grid index and the
//!   heatmap service.
//! * [`polyline`] — arc-length utilities for bus routes and recorded tracks.
//!
//! All distances are Euclidean in the metric plane; the paper's radius-`r` queries ("a radius r of 1 km") are
//! metric-plane disks.

#![forbid(unsafe_code)]
// Panic-prone sites in this crate are legacy debt tracked by the xtask
// panic ratchet (crates/xtask/panic-baseline.toml): counts may only go
// down. The clippy warn-level lints stay crate-allowed until the burn-down
// reaches zero; prefer typed errors in new code.
#![allow(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod bbox;
pub mod grid;
mod memsize_impls;
pub mod point;
pub mod polyline;

pub use bbox::BoundingBox;
pub use grid::{CellId, Grid};
pub use point::Point;
pub use polyline::Polyline;
