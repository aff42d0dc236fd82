//! Ad-KMN: adaptive k-means driven by model approximation error.
//!
//! The loop of §2.1: cluster the window's positions, fit a linear model per
//! region, and wherever the model's approximation error exceeds `τ_n`,
//! *split* that region by seeding an extra centroid (at the worst-error
//! position, per Figure 2) and re-running Lloyd over the enlarged centroid
//! set — "continued until all the regions meet the approximation error
//! threshold".

use crate::cluster::kmeans::KMeans;
use crate::model::{ApproximationError, RegionModel};
use enviro_data::{Pollutant, RawTuple};
use enviro_geo::Point;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How a violating region seeds its new centroid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitStrategy {
    /// Seed at the member position with the largest absolute residual — the
    /// paper's choice (Figure 2: "positions with worst error").
    #[default]
    WorstErrorPoint,
    /// Seed at a uniformly random member position (ablation baseline).
    RandomPoint,
    /// Seed at the centroid plus a small random jitter (ablation baseline).
    CentroidJitter,
}

/// Ad-KMN parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct AdKmnConfig {
    /// Number of clusters before any adaptive split (the paper's example
    /// starts from two).
    pub initial_k: usize,
    /// The approximation-error threshold `τ_n`, in percent of the
    /// pollutant's normal range (the paper evaluates `τ_n = 2 %`).
    pub tau_percent: f64,
    /// Hard cap on the number of models — bounds cover size and bandwidth.
    pub max_models: usize,
    /// Maximum split rounds before giving up on convergence.
    pub max_rounds: usize,
    /// Split-seed strategy.
    pub split: SplitStrategy,
    /// After convergence, greedily merge nearest-centroid region pairs
    /// whose *combined* model still meets `τ_n`. Off by default (the paper
    /// only splits); essential for warm-started windows, whose model count
    /// would otherwise ratchet upward forever (see the `abl-warm`
    /// ablation).
    pub merge_after_converge: bool,
}

impl Default for AdKmnConfig {
    fn default() -> Self {
        Self {
            initial_k: 2,
            tau_percent: 2.0,
            max_models: 64,
            max_rounds: 16,
            split: SplitStrategy::default(),
            merge_after_converge: false,
        }
    }
}

/// The full outcome of an Ad-KMN run over one window.
#[derive(Debug, Clone)]
pub struct AdKmnResult {
    /// Final centroids `µ`.
    pub centroids: Vec<Point>,
    /// Final per-tuple region assignment (indices into `centroids`).
    pub assignment: Vec<usize>,
    /// One fitted model per region, aligned with `centroids`.
    pub models: Vec<RegionModel>,
    /// Training approximation error per region.
    pub errors: Vec<ApproximationError>,
    /// Split rounds performed (0 = the initial clustering already met τ).
    pub rounds: usize,
    /// `true` if every region meets the threshold (false when `max_models`
    /// or `max_rounds` stopped the loop first).
    pub converged: bool,
}

impl AdKmnResult {
    /// Number of regions/models.
    pub fn model_count(&self) -> usize {
        self.models.len()
    }

    /// The worst per-region error percentage (0 when empty).
    pub fn worst_error_percent(&self) -> f64 {
        self.errors
            .iter()
            .map(ApproximationError::percent)
            .fold(0.0, f64::max)
    }

    /// Verifies the result's structural invariants, returning the first
    /// violation found. Checked (in debug builds) after the split loop:
    /// * `centroids`, `models` and `errors` are aligned one-to-one;
    /// * every assignment index names an existing region;
    /// * every centroid is finite (a NaN centroid would silently swallow
    ///   its Voronoi cell in nearest-centroid queries).
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.models.len() != self.centroids.len() || self.errors.len() != self.centroids.len() {
            return Err(format!(
                "misaligned result: {} centroids, {} models, {} errors",
                self.centroids.len(),
                self.models.len(),
                self.errors.len()
            ));
        }
        if let Some(&bad) = self.assignment.iter().find(|&&a| a >= self.centroids.len()) {
            return Err(format!(
                "assignment names region {bad} of {}",
                self.centroids.len()
            ));
        }
        if let Some(i) = self.centroids.iter().position(|c| !c.is_finite()) {
            return Err(format!("centroid {i} is non-finite"));
        }
        Ok(())
    }
}

/// The Ad-KMN algorithm.
///
/// ```
/// use enviro_data::{Pollutant, RawTuple, Timestamp};
/// use enviro_geo::Point;
/// use enviro_meter::{AdKmn, AdKmnConfig};
///
/// // Two far-apart regimes no single plane fits: Ad-KMN partitions them.
/// let tuples: Vec<RawTuple> = (0..40)
///     .map(|i| {
///         let (x, v) = if i % 2 == 0 { (0.0, 400.0) } else { (5_000.0, 900.0) };
///         RawTuple::new(Timestamp::from_secs(i), Point::new(x + i as f64, 0.0), v)
///     })
///     .collect();
/// let result = AdKmn::new(AdKmnConfig::default()).run(&tuples, Pollutant::Co2);
/// assert!(result.converged);
/// assert!(result.model_count() >= 2);
/// ```
#[derive(Debug, Clone)]
pub struct AdKmn {
    config: AdKmnConfig,
}

impl AdKmn {
    /// Creates the algorithm with the given configuration.
    pub fn new(config: AdKmnConfig) -> Self {
        assert!(config.initial_k >= 1, "initial_k must be >= 1");
        assert!(config.max_models >= config.initial_k);
        assert!(config.tau_percent >= 0.0);
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AdKmnConfig {
        &self.config
    }

    /// Runs Ad-KMN over one window of raw tuples.
    pub fn run(&self, tuples: &[RawTuple], pollutant: Pollutant) -> AdKmnResult {
        self.run_impl(tuples, pollutant, None)
    }

    /// Runs Ad-KMN warm-started from a previous window's centroids.
    ///
    /// "The phenomena … adapt to the changing nature of the sensed
    /// phenomenon": consecutive windows see similar geometry (the buses
    /// drive the same routes), so the previous cover's centroids are an
    /// excellent initialization — typically saving most of the k-means++
    /// and split work (see the `abl-warm` ablation). Results still respect
    /// `max_models` and `τ_n` exactly as a cold run would.
    pub fn run_seeded(
        &self,
        tuples: &[RawTuple],
        pollutant: Pollutant,
        seeds: &[Point],
    ) -> AdKmnResult {
        if seeds.is_empty() {
            return self.run(tuples, pollutant);
        }
        self.run_impl(tuples, pollutant, Some(seeds))
    }

    fn run_impl(
        &self,
        tuples: &[RawTuple],
        pollutant: Pollutant,
        seeds: Option<&[Point]>,
    ) -> AdKmnResult {
        let cfg = &self.config;
        if tuples.is_empty() {
            return AdKmnResult {
                centroids: Vec::new(),
                assignment: Vec::new(),
                models: Vec::new(),
                errors: Vec::new(),
                rounds: 0,
                converged: true,
            };
        }
        let positions: Vec<Point> = tuples.iter().map(|t| t.pos).collect();
        let mut rng = StdRng::seed_from_u64(KMeans::SEED ^ 0xAD06);
        let mut clustering = match seeds {
            Some(seeds) => {
                let mut seeds = seeds.to_vec();
                seeds.truncate(cfg.max_models);
                KMeans::lloyd(&positions, seeds)
            }
            None => KMeans::fit(&positions, cfg.initial_k),
        };
        let mut rounds = 0;
        loop {
            // Fit a model per region and measure its error.
            let members = clustering.members();
            let mut models = Vec::with_capacity(members.cluster_count());
            let mut errors = Vec::with_capacity(members.cluster_count());
            let mut region_tuples: Vec<Vec<RawTuple>> = Vec::with_capacity(members.cluster_count());
            for m in members.iter() {
                let region: Vec<RawTuple> = m.iter().map(|&i| tuples[i]).collect();
                let model = RegionModel::fit(&region).unwrap_or(RegionModel::Mean(0.0));
                let error = model.approximation_error(&region, pollutant);
                models.push(model);
                errors.push(error);
                region_tuples.push(region);
            }

            // Which regions violate τ and can actually be split (two or more
            // distinct positions)?
            let violators: Vec<usize> = (0..members.cluster_count())
                .filter(|&r| {
                    errors[r].exceeds(cfg.tau_percent)
                        && has_two_distinct_positions(&region_tuples[r])
                })
                .collect();
            let converged = violators.is_empty();
            let capped = clustering.centroids.len() >= cfg.max_models || rounds >= cfg.max_rounds;
            if converged || capped {
                let mut result = AdKmnResult {
                    centroids: clustering.centroids,
                    assignment: clustering.assignment,
                    models,
                    errors,
                    rounds,
                    converged,
                };
                if cfg.merge_after_converge {
                    merge_regions(&mut result, tuples, pollutant, cfg);
                }
                debug_assert_eq!(result.check_invariants(), Ok(()));
                return result;
            }

            // Split: seed one new centroid per violating region, capped.
            let mut centroids = clustering.centroids.clone();
            for &r in &violators {
                if centroids.len() >= cfg.max_models {
                    break;
                }
                let seed = self.split_seed(
                    &region_tuples[r],
                    &models[r],
                    &clustering.centroids[r],
                    &mut rng,
                );
                centroids.push(seed);
            }
            // Re-estimate all centroids from the enlarged set.
            clustering = KMeans::lloyd(&positions, centroids);
            rounds += 1;
        }
    }

    /// Chooses the new centroid position for a violating region.
    fn split_seed(
        &self,
        region: &[RawTuple],
        model: &RegionModel,
        centroid: &Point,
        rng: &mut StdRng,
    ) -> Point {
        debug_assert!(!region.is_empty());
        match self.config.split {
            SplitStrategy::WorstErrorPoint => {
                region
                    .iter()
                    .max_by(|a, b| {
                        let ra = (model.predict(a.time, &a.pos) - a.value).abs();
                        let rb = (model.predict(b.time, &b.pos) - b.value).abs();
                        ra.partial_cmp(&rb).expect("finite residuals")
                    })
                    .expect("non-empty region")
                    .pos
            }
            SplitStrategy::RandomPoint => region[rng.gen_range(0..region.len())].pos,
            SplitStrategy::CentroidJitter => {
                // Jitter by a fraction of the region's spread.
                let spread = region
                    .iter()
                    .map(|t| t.pos.distance(centroid))
                    .fold(0.0, f64::max)
                    .max(1.0);
                Point::new(
                    centroid.x + rng.gen_range(-0.5..0.5) * spread,
                    centroid.y + rng.gen_range(-0.5..0.5) * spread,
                )
            }
        }
    }
}

/// Greedily merges region pairs whose combined model still meets `τ_n`.
///
/// Each round considers every region paired with its nearest other
/// centroid, fits a model over the union of their tuples, and performs the
/// merge with the lowest resulting error if that error is within the
/// threshold. Repeats until no admissible merge remains. Centroids,
/// assignment, models and errors are kept consistent throughout.
fn merge_regions(
    result: &mut AdKmnResult,
    tuples: &[RawTuple],
    pollutant: Pollutant,
    cfg: &AdKmnConfig,
) {
    while result.centroids.len() > 1 {
        // Region membership under the current assignment.
        let k = result.centroids.len();
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (i, &a) in result.assignment.iter().enumerate() {
            members[a].push(i);
        }
        // Candidate: each region with its nearest other centroid.
        let mut best: Option<(usize, usize, RegionModel, f64)> = None;
        for a in 0..k {
            let mut nearest = None;
            let mut nearest_d = f64::INFINITY;
            for b in 0..k {
                if b == a {
                    continue;
                }
                let d = result.centroids[a].distance_sq(&result.centroids[b]);
                if d < nearest_d {
                    nearest_d = d;
                    nearest = Some(b);
                }
            }
            let Some(b) = nearest else { continue };
            let (a, b) = (a.min(b), a.max(b));
            if let Some((pa, pb, _, _)) = best {
                if (pa, pb) == (a, b) {
                    continue; // already evaluated this pair
                }
            }
            let combined: Vec<RawTuple> = members[a]
                .iter()
                .chain(members[b].iter())
                .map(|&i| tuples[i])
                .collect();
            let Some(model) = RegionModel::fit(&combined) else {
                continue;
            };
            let error = model.approximation_error(&combined, pollutant);
            if !error.exceeds(cfg.tau_percent)
                && best
                    .as_ref()
                    .map(|&(_, _, _, e)| error.percent() < e)
                    .unwrap_or(true)
            {
                best = Some((a, b, model, error.percent()));
            }
        }
        let Some((a, b, model, _)) = best else { break };
        // Merge b into a: weighted-mean centroid, combined model, then drop b.
        let (na, nb) = (
            members_count(&result.assignment, a) as f64,
            members_count(&result.assignment, b) as f64,
        );
        let total = (na + nb).max(1.0);
        result.centroids[a] = Point::new(
            (result.centroids[a].x * na + result.centroids[b].x * nb) / total,
            (result.centroids[a].y * na + result.centroids[b].y * nb) / total,
        );
        let combined: Vec<RawTuple> = result
            .assignment
            .iter()
            .enumerate()
            .filter(|&(_, &r)| r == a || r == b)
            .map(|(i, _)| tuples[i])
            .collect();
        result.errors[a] = model.approximation_error(&combined, pollutant);
        result.models[a] = model;
        result.centroids.remove(b);
        result.models.remove(b);
        result.errors.remove(b);
        for r in &mut result.assignment {
            if *r == b {
                *r = a;
            } else if *r > b {
                *r -= 1;
            }
        }
    }
}

fn members_count(assignment: &[usize], region: usize) -> usize {
    assignment.iter().filter(|&&a| a == region).count()
}

/// `true` if at least two tuples have different positions (splitting a
/// region of coincident points cannot reduce its error).
fn has_two_distinct_positions(tuples: &[RawTuple]) -> bool {
    tuples
        .first()
        .map(|f| tuples.iter().any(|t| t.pos != f.pos))
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use enviro_data::Timestamp;

    fn tup(t: i64, x: f64, y: f64, v: f64) -> RawTuple {
        RawTuple::new(Timestamp::from_secs(t), Point::new(x, y), v)
    }

    /// Two spatial blobs whose values follow *different* planes — one global
    /// linear model cannot fit both, so Ad-KMN must split.
    fn two_regime_data() -> Vec<RawTuple> {
        let mut out = Vec::new();
        for i in 0..40 {
            let x = (i % 8) as f64 * 20.0;
            let y = (i / 8) as f64 * 20.0;
            // Left blob: flat 400 ppm.
            out.push(tup(i, x, y, 400.0));
            // Right blob, 5 km away: steep plane around 1000 ppm.
            out.push(tup(i, 5_000.0 + x, y, 1_000.0 + 3.0 * x - 2.0 * y));
        }
        out
    }

    #[test]
    fn empty_window() {
        let r = AdKmn::new(AdKmnConfig::default()).run(&[], Pollutant::Co2);
        assert!(r.centroids.is_empty());
        assert!(r.converged);
    }

    #[test]
    fn single_tuple_window() {
        let r = AdKmn::new(AdKmnConfig::default()).run(&[tup(0, 1.0, 1.0, 400.0)], Pollutant::Co2);
        assert_eq!(r.model_count(), 1);
        assert!(r.converged);
        let pred = r.models[0].predict(Timestamp::ZERO, &Point::new(1.0, 1.0));
        assert!((pred - 400.0).abs() < 1e-9);
    }

    #[test]
    fn smooth_data_needs_no_split() {
        // A single global plane: initial k=2 should already meet τ.
        let tuples: Vec<RawTuple> = (0..100)
            .map(|i| {
                let x = (i % 10) as f64 * 50.0;
                let y = (i / 10) as f64 * 50.0;
                tup(i, x, y, 400.0 + 0.01 * x)
            })
            .collect();
        let r = AdKmn::new(AdKmnConfig::default()).run(&tuples, Pollutant::Co2);
        assert!(r.converged);
        assert_eq!(r.rounds, 0);
        assert_eq!(r.model_count(), 2);
    }

    #[test]
    fn two_regime_data_converges() {
        let r = AdKmn::new(AdKmnConfig::default()).run(&two_regime_data(), Pollutant::Co2);
        assert!(r.converged, "worst error {}", r.worst_error_percent());
        assert!(r.worst_error_percent() <= 2.0);
    }

    #[test]
    fn tighter_tau_produces_more_models() {
        let data: Vec<RawTuple> = (0..200)
            .map(|i| {
                let x = (i % 20) as f64 * 100.0;
                let y = (i / 20) as f64 * 100.0;
                // Non-linear surface: a paraboloid no single plane fits.
                let v = 400.0
                    + 0.0003 * (x - 1000.0).powi(2) / 10.0
                    + 0.0002 * (y - 500.0).powi(2) / 10.0;
                tup(i, x, y, v)
            })
            .collect();
        let loose = AdKmn::new(AdKmnConfig {
            tau_percent: 8.0,
            ..AdKmnConfig::default()
        })
        .run(&data, Pollutant::Co2);
        let tight = AdKmn::new(AdKmnConfig {
            tau_percent: 0.25,
            ..AdKmnConfig::default()
        })
        .run(&data, Pollutant::Co2);
        assert!(
            tight.model_count() >= loose.model_count(),
            "tight {} vs loose {}",
            tight.model_count(),
            loose.model_count()
        );
    }

    #[test]
    fn max_models_caps_growth() {
        // Deterministic "noise" that no linear model can fit: the error
        // threshold is unreachable, so only max_models stops the loop.
        let noisy: Vec<RawTuple> = (0..120)
            .map(|i| {
                tup(
                    (i * 7_919) % 5_000,
                    (i * 37 % 100) as f64 * 10.0,
                    (i * 53 % 100) as f64 * 10.0,
                    ((i * 91) % 700) as f64,
                )
            })
            .collect();
        let cfg = AdKmnConfig {
            tau_percent: 0.0001, // effectively unreachable
            max_models: 5,
            max_rounds: 64,
            ..AdKmnConfig::default()
        };
        let r = AdKmn::new(cfg).run(&noisy, Pollutant::Co2);
        assert!(r.model_count() <= 5);
        assert!(!r.converged);
    }

    #[test]
    fn max_rounds_terminates() {
        let cfg = AdKmnConfig {
            tau_percent: 1e-9,
            max_rounds: 2,
            max_models: 1_000,
            ..AdKmnConfig::default()
        };
        let noisy: Vec<RawTuple> = (0..100)
            .map(|i| {
                tup(
                    i,
                    (i * 37 % 100) as f64,
                    (i * 53 % 100) as f64,
                    (i * 91 % 700) as f64,
                )
            })
            .collect();
        let r = AdKmn::new(cfg).run(&noisy, Pollutant::Co2);
        assert!(r.rounds <= 2);
    }

    #[test]
    fn result_vectors_are_aligned() {
        let r = AdKmn::new(AdKmnConfig::default()).run(&two_regime_data(), Pollutant::Co2);
        assert_eq!(r.centroids.len(), r.models.len());
        assert_eq!(r.centroids.len(), r.errors.len());
        assert_eq!(r.assignment.len(), two_regime_data().len());
        assert!(r.assignment.iter().all(|&a| a < r.centroids.len()));
    }

    #[test]
    fn deterministic_runs() {
        let a = AdKmn::new(AdKmnConfig::default()).run(&two_regime_data(), Pollutant::Co2);
        let b = AdKmn::new(AdKmnConfig::default()).run(&two_regime_data(), Pollutant::Co2);
        assert_eq!(a.centroids, b.centroids);
        assert_eq!(a.assignment, b.assignment);
    }

    #[test]
    fn all_split_strategies_converge_on_two_regimes() {
        for split in [
            SplitStrategy::WorstErrorPoint,
            SplitStrategy::RandomPoint,
            SplitStrategy::CentroidJitter,
        ] {
            let cfg = AdKmnConfig {
                split,
                max_rounds: 32,
                ..AdKmnConfig::default()
            };
            let r = AdKmn::new(cfg).run(&two_regime_data(), Pollutant::Co2);
            assert!(
                r.worst_error_percent() <= 2.5,
                "{split:?}: worst {}",
                r.worst_error_percent()
            );
        }
    }

    #[test]
    fn seeded_run_with_empty_seeds_equals_cold_run() {
        let data = two_regime_data();
        let adkmn = AdKmn::new(AdKmnConfig::default());
        let cold = adkmn.run(&data, Pollutant::Co2);
        let seeded = adkmn.run_seeded(&data, Pollutant::Co2, &[]);
        assert_eq!(cold.centroids, seeded.centroids);
    }

    #[test]
    fn good_seeds_save_rounds() {
        let data = two_regime_data();
        let adkmn = AdKmn::new(AdKmnConfig {
            tau_percent: 1.0,
            ..AdKmnConfig::default()
        });
        let cold = adkmn.run(&data, Pollutant::Co2);
        // Warm-start from the cold run's own solution: must converge with
        // no additional splits and the same model count.
        let warm = adkmn.run_seeded(&data, Pollutant::Co2, &cold.centroids);
        assert!(warm.converged);
        assert!(
            warm.rounds <= cold.rounds,
            "warm {} vs cold {}",
            warm.rounds,
            cold.rounds
        );
        assert_eq!(warm.model_count(), cold.model_count());
    }

    #[test]
    fn seeds_beyond_max_models_are_truncated() {
        let data = two_regime_data();
        let adkmn = AdKmn::new(AdKmnConfig {
            max_models: 3,
            ..AdKmnConfig::default()
        });
        let seeds: Vec<Point> = (0..10).map(|i| Point::new(i as f64, 0.0)).collect();
        let r = adkmn.run_seeded(&data, Pollutant::Co2, &seeds);
        assert!(r.model_count() <= 3);
    }

    #[test]
    fn merge_collapses_over_split_covers() {
        // A single smooth plane split into many seeds: with merging on, the
        // final cover should need far fewer models than the seed count.
        let tuples: Vec<RawTuple> = (0..120)
            .map(|i| {
                let x = (i % 12) as f64 * 100.0;
                let y = (i / 12) as f64 * 100.0;
                tup(i * 37 % 5_000, x, y, 400.0 + 0.01 * x)
            })
            .collect();
        let cfg = AdKmnConfig {
            merge_after_converge: true,
            ..AdKmnConfig::default()
        };
        let adkmn = AdKmn::new(cfg);
        let seeds: Vec<Point> = (0..16)
            .map(|i| Point::new((i % 4) as f64 * 300.0, (i / 4) as f64 * 300.0))
            .collect();
        let merged = adkmn.run_seeded(&tuples, Pollutant::Co2, &seeds);
        let unmerged =
            AdKmn::new(AdKmnConfig::default()).run_seeded(&tuples, Pollutant::Co2, &seeds);
        assert!(
            merged.model_count() < unmerged.model_count(),
            "merged {} vs unmerged {}",
            merged.model_count(),
            unmerged.model_count()
        );
        // And every remaining region still meets the threshold.
        assert!(merged.worst_error_percent() <= 2.0 + 1e-9);
    }

    #[test]
    fn merge_preserves_result_consistency() {
        let cfg = AdKmnConfig {
            merge_after_converge: true,
            ..AdKmnConfig::default()
        };
        let data = two_regime_data();
        let seeds: Vec<Point> = (0..10).map(|i| Point::new(i as f64 * 600.0, 0.0)).collect();
        let r = AdKmn::new(cfg).run_seeded(&data, Pollutant::Co2, &seeds);
        assert_eq!(r.centroids.len(), r.models.len());
        assert_eq!(r.centroids.len(), r.errors.len());
        assert_eq!(r.assignment.len(), data.len());
        assert!(r.assignment.iter().all(|&a| a < r.centroids.len()));
        // Two genuinely different regimes must not merge into one.
        assert!(r.model_count() >= 2);
    }

    #[test]
    fn merge_does_not_fire_below_two_regions() {
        let cfg = AdKmnConfig {
            initial_k: 1,
            merge_after_converge: true,
            ..AdKmnConfig::default()
        };
        let tuples: Vec<RawTuple> = (0..20).map(|i| tup(i, i as f64, 0.0, 400.0)).collect();
        let r = AdKmn::new(cfg).run(&tuples, Pollutant::Co2);
        assert_eq!(r.model_count(), 1);
    }

    #[test]
    fn identical_positions_cannot_split_forever() {
        // All tuples at one position with wildly different values: error can
        // never meet τ, but the region has no second distinct position, so
        // Ad-KMN must detect it cannot split and stop.
        let tuples: Vec<RawTuple> = (0..20)
            .map(|i| tup(i, 1.0, 1.0, (i * 500) as f64))
            .collect();
        let r = AdKmn::new(AdKmnConfig::default()).run(&tuples, Pollutant::Co2);
        assert!(r.rounds <= 1);
        assert!(r.converged); // no *splittable* violator remains
    }
}
