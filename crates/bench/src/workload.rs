//! Shared workload construction for all experiments.

use enviro_data::{Dataset, LausanneSim, QueryTuple, RawTuple, SimConfig, Timestamp};
use enviro_geo::Point;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The size of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's regime: `SimConfig::paper_scale` (~173 K raw tuples
    /// ≈ the 176 K of `lausanne-data`), 5000 point queries.
    Paper,
    /// A CI-friendly regime: ~10 K tuples, 1000 queries. Same shapes,
    /// seconds instead of minutes.
    Quick,
}

impl Scale {
    /// Simulation config for this scale.
    pub fn sim_config(&self, seed: u64) -> SimConfig {
        match self {
            Scale::Paper => SimConfig::paper_scale(seed),
            Scale::Quick => SimConfig {
                duration_secs: 3 * 86_400 + 43_200, // 3.5 days
                sampling_interval_secs: 60,
                seed,
                ..SimConfig::default()
            },
        }
    }

    /// Number of point queries the evaluation issues.
    pub fn query_count(&self) -> usize {
        match self {
            Scale::Paper => 5_000,
            Scale::Quick => 1_000,
        }
    }
}

/// The standard evaluation environment: the simulator, its dataset, and the
/// point-query workloads.
pub struct Workload {
    /// The simulator (keeps the ground-truth field for NRMSE).
    pub sim: LausanneSim,
    /// The community-sensed dataset.
    pub dataset: Dataset,
    /// The point queries for the *efficiency* experiments: positions within
    /// a few hundred meters of the corridors, uniform times.
    pub queries: Vec<QueryTuple>,
    /// The point queries for the *accuracy* experiments: the (time,
    /// position) of a random sample of raw tuples. The paper's NRMSE is
    /// necessarily computed where reference sensor values exist — at
    /// sensed positions; accuracy away from the corridors is a separate
    /// question (see the `abl-spread` ablation).
    pub accuracy_queries: Vec<QueryTuple>,
}

/// The paper's query radius `r` = 1 km.
pub const RADIUS_M: f64 = 1_000.0;

/// Lateral spread of *efficiency* query positions around the bus corridors
/// (meters). Queries land mostly inside the radius-`r` band where the
/// raw-data methods can answer.
pub const QUERY_SPREAD_M: f64 = 400.0;

/// Builds the standard workload for a scale and seed.
pub fn build(scale: Scale, seed: u64) -> Workload {
    let sim = LausanneSim::lausanne(scale.sim_config(seed));
    let dataset = sim.generate();
    let queries = sim.query_workload(scale.query_count(), QUERY_SPREAD_M, seed ^ 0x51);
    // Accuracy queries sit at sensed (time, position) pairs: every method
    // has reference data there, whatever the window size.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xAC);
    let accuracy_queries = (0..scale.query_count())
        .map(|_| {
            let t = &dataset.tuples()[rng.gen_range(0..dataset.len())];
            QueryTuple::new(t.time, t.pos)
        })
        .collect();
    Workload {
        sim,
        dataset,
        queries,
        accuracy_queries,
    }
}

/// A deterministic synthetic tuple stream for the write-path benches:
/// distinct times two simulated seconds apart (spanning `n / 1800` hour
/// windows), positions and values varied by modular arithmetic.
pub fn synthetic_tuples(n: usize, seed: u64) -> Vec<RawTuple> {
    (0..n)
        .map(|i| {
            let j = i as u64 ^ (seed & 0xFF);
            RawTuple::new(
                Timestamp::from_secs(i as i64 * 2),
                Point::new(
                    (j % 89) as f64 * 45.0 - 2_000.0,
                    (j % 53) as f64 * 60.0 - 1_500.0,
                ),
                400.0 + (j % 41) as f64 * 2.5,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_sizes() {
        let w = build(Scale::Quick, 1);
        // 3.5 days × 1440 samples/day × 2 buses = 10 080 tuples.
        assert_eq!(w.dataset.len(), 10_080);
        assert_eq!(w.queries.len(), 1_000);
    }

    #[test]
    fn workload_is_deterministic() {
        let a = build(Scale::Quick, 7);
        let b = build(Scale::Quick, 7);
        assert_eq!(a.dataset, b.dataset);
        assert_eq!(a.queries, b.queries);
    }

    #[test]
    fn paper_scale_config_matches_paper() {
        let cfg = Scale::Paper.sim_config(0);
        let tuples = (cfg.duration_secs / cfg.sampling_interval_secs) * 2;
        assert!((150_000..200_000).contains(&tuples), "{tuples}");
        assert_eq!(Scale::Paper.query_count(), 5_000);
    }
}
