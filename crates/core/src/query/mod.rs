//! Continuous query processing — the methods of §2.2 over one windowed
//! dataset.
//!
//! *Query 1 (Continuous Value Query)*: a mobile object `v_q` transmits query
//! tuples `q_l = (t_l, x_l, y_l)`; the platform interpolates the sensor
//! value `ŝ_l` at each position. The paper proposes and compares:
//!
//! * the naïve method — exhaustive scan of the window for tuples within
//!   radius `r`, answer = their average;
//! * metric-space indexing — same semantics, but the radius search goes
//!   through an index (R-tree, VP-tree, kd-tree or grid);
//! * the model cover — nearest cluster centroid `µ*`, answer = its model
//!   `M*` evaluated at the query point.
//!
//! IDW over the k nearest tuples is an extension baseline. [`QueryMethod`]
//! names all seven methods; [`QueryEngine`] answers each of them over a
//! windowed dataset, building and caching per-window structures lazily (the
//! `model_cover` table of Figure 1).

mod engine;
mod idw;
mod indexed;
mod naive;
mod outcome;

pub use engine::QueryEngine;
pub use outcome::QueryOutcome;

/// The query-processing methods evaluated in the paper (plus the grid-index
/// ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryMethod {
    /// Exhaustive window scan + average within radius `r`.
    Naive,
    /// R-tree radius search + average.
    RTree,
    /// VP-tree radius search + average.
    VpTree,
    /// k-d tree radius search + average (extension; not in the paper).
    KdTree,
    /// Uniform-grid radius search + average (ablation; not in the paper).
    Grid,
    /// Inverse-distance-weighted k-NN interpolation (extension; not in the
    /// paper).
    Idw,
    /// Ad-KMN model cover: nearest centroid's model.
    ModelCover,
}

impl QueryMethod {
    /// All methods, in the order the figures report them.
    pub const ALL: [QueryMethod; 7] = [
        QueryMethod::ModelCover,
        QueryMethod::VpTree,
        QueryMethod::RTree,
        QueryMethod::KdTree,
        QueryMethod::Grid,
        QueryMethod::Idw,
        QueryMethod::Naive,
    ];

    /// Stable display name (matches the paper's figure legends).
    pub fn name(&self) -> &'static str {
        match self {
            QueryMethod::Naive => "naive",
            QueryMethod::RTree => "R-tree",
            QueryMethod::VpTree => "VP-tree",
            QueryMethod::KdTree => "kd-tree",
            QueryMethod::Grid => "grid",
            QueryMethod::Idw => "IDW",
            QueryMethod::ModelCover => "Ad-KMN",
        }
    }
}

impl std::fmt::Display for QueryMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}
