//! Sensor-data model for the EnviroMeter platform.
//!
//! This crate owns everything about the *data* side of a Large-area
//! Community-driven Sensor Network (LCSN):
//!
//! * [`Pollutant`] — the monitored phenomena (CO₂, CO, particulates, …) with
//!   their units, *normal ranges* (the denominator of the paper's
//!   approximation-error metric) and OSHA exposure bands.
//! * [`RawTuple`] — the paper's `b_i = (t_i, x_i, y_i, s_i)` record, and
//!   [`QueryTuple`] — the mobile object's `q_l = (t_l, x_l, y_l)`.
//! * [`Dataset`] — a time-ordered collection of raw tuples with metadata,
//!   summary statistics and CSV import/export.
//! * [`window`] — count-based and duration-based window decompositions
//!   (`W_c`), the unit over which model covers are learned.
//! * [`field`] — ground-truth pollution fields (background + diurnal cycle +
//!   plume sources), giving the NRMSE evaluation an exact reference.
//! * [`sim`] — the `lausanne-sim` generator: two buses driving fixed routes
//!   through a Lausanne-like street network, sampling the field at a fixed
//!   interval (60 s by default, 30 s at paper scale) with sensor noise.
//!   This substitutes for the proprietary OpenSense `lausanne-data` trace
//!   (176 K tuples over one month) while reproducing its defining
//!   property: geo-temporal skew along bus corridors.

#![forbid(unsafe_code)]
// Panic-prone sites in this crate are legacy debt tracked by the xtask
// panic ratchet (crates/xtask/panic-baseline.toml): counts may only go
// down. The clippy warn-level lints stay crate-allowed until the burn-down
// reaches zero; prefer typed errors in new code.
#![allow(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod csv;
pub mod dataset;
pub mod field;
mod memsize_impls;
pub mod pollutant;
pub mod sim;
pub mod tuple;
pub mod window;

pub use dataset::{Dataset, DatasetStats};
pub use field::{DiurnalCycle, GaussianPlume, PollutionField, SyntheticField};
pub use pollutant::{Pollutant, SafetyLevel};
pub use sim::{BusLine, LausanneSim, SimConfig};
pub use tuple::{QueryTuple, RawTuple, Timestamp};
pub use window::{Window, WindowSpec, Windows};

/// The default worker-thread count for every parallel stage: simulation,
/// cover preparation and concurrent serving. It is the machine's available
/// hardware parallelism, or 1 when the OS cannot report it.
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}
