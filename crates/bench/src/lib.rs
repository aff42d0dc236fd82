//! The EnviroMeter experiment harness.
//!
//! One module per panel of the paper's evaluation (§4) plus the ablations
//! from DESIGN.md. Every experiment is a plain function returning row
//! structs, so the `figures` binary, the criterion benches and the
//! integration tests all share one implementation.
//!
//! | module | reproduces |
//! |---|---|
//! | [`fig6a`] | Figure 6(a): query time vs window size `H`, four methods |
//! | [`fig6b`] | Figure 6(b): NRMSE vs `H`, Ad-KMN vs naïve |
//! | [`fig7a`] | Figure 7(a): memory at `H = 5000`, four representations |
//! | [`fig7b`] | Figure 7(b): bandwidth/time, baseline vs model-cache |
//! | [`ablations`] | abl-k0 / abl-split / abl-tau / abl-codec / abl-radius |
//! | [`faults`] | resilience cost: goodput & retries vs injected fault rate |
//!
//! Serving under load is not measured here: `perfbench/` (its own package
//! at the repository root) is the end-to-end serving benchmark, and the
//! `throughput` and `ingest` criterion benches time the per-frame pieces.

#![forbid(unsafe_code)]
// Panic-prone sites in this crate are legacy debt tracked by the xtask
// panic ratchet (crates/xtask/panic-baseline.toml): counts may only go
// down. The clippy warn-level lints stay crate-allowed until the burn-down
// reaches zero; prefer typed errors in new code.
#![allow(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod ablations;
pub mod faults;
pub mod fig6a;
pub mod fig6b;
pub mod fig7a;
pub mod fig7b;
pub mod table;
pub mod workload;
