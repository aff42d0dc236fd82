//! Per-region models and the approximation-error metric.
//!
//! Each sub-region of a model cover carries one [`RegionModel`]: either a
//! full spatio-temporal [`LinearModel`] (`s = β₀ + β₁x + β₂y + β₃t` over
//! standardized features) or — when the region holds too few or too
//! degenerate tuples — a mean model. The quality of a model on its training
//! window is the paper's [`ApproximationError`]: mean absolute error as a
//! percentage of the pollutant's normal range.

mod error;
mod linear;

pub use error::ApproximationError;
pub use linear::LinearModel;

use enviro_data::{Pollutant, RawTuple, Timestamp};
use enviro_geo::Point;

/// The model attached to one sub-region of a model cover.
#[derive(Debug, Clone, PartialEq)]
pub enum RegionModel {
    /// A fitted linear regression over space and time.
    Linear(LinearModel),
    /// Fallback: the mean of the region's training values. Used when the
    /// region is too small or too collinear for a stable regression.
    Mean(f64),
}

impl RegionModel {
    /// Fits the best available model for a region's tuples.
    ///
    /// Fits a sample-scaled ridge regression (see [`LinearModel::RIDGE_ALPHA`]
    /// for why ridge, not OLS), falling back to the mean when fewer than
    /// [`LinearModel::MIN_POINTS_FOR_REGRESSION`] tuples are available or
    /// the solve fails. An empty region has no meaningful model and returns
    /// `None`.
    pub fn fit(tuples: &[RawTuple]) -> Option<RegionModel> {
        if tuples.is_empty() {
            return None;
        }
        if tuples.len() >= LinearModel::MIN_POINTS_FOR_REGRESSION {
            if let Some(linear) = LinearModel::fit(tuples) {
                return Some(RegionModel::Linear(linear));
            }
        }
        let mean = tuples.iter().map(|t| t.value).sum::<f64>() / tuples.len() as f64;
        Some(RegionModel::Mean(mean))
    }

    /// Evaluates the model at a time and position.
    pub fn predict(&self, time: Timestamp, pos: &Point) -> f64 {
        match self {
            RegionModel::Linear(m) => m.predict(time, pos),
            RegionModel::Mean(v) => *v,
        }
    }

    /// The paper's approximation error of this model on a tuple set.
    pub fn approximation_error(
        &self,
        tuples: &[RawTuple],
        pollutant: Pollutant,
    ) -> ApproximationError {
        ApproximationError::compute(
            tuples
                .iter()
                .map(|t| (self.predict(t.time, &t.pos), t.value)),
            pollutant,
        )
    }

    /// Verifies the model's numeric invariants: a mean model's value is
    /// finite, and a linear model passes [`LinearModel::check_invariants`]
    /// (under which an `INFINITY` scale is legal).
    pub fn check_invariants(&self) -> Result<(), String> {
        match self {
            RegionModel::Mean(v) if !v.is_finite() => Err("non-finite mean model".into()),
            RegionModel::Mean(_) => Ok(()),
            RegionModel::Linear(m) => m.check_invariants(),
        }
    }
}

impl enviro_memsize::DeepSize for RegionModel {
    #[inline]
    fn heap_size(&self) -> usize {
        0 // both variants are inline-only
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enviro_data::Timestamp;

    fn tup(t: i64, x: f64, y: f64, v: f64) -> RawTuple {
        RawTuple::new(Timestamp::from_secs(t), Point::new(x, y), v)
    }

    #[test]
    fn fit_empty_region_is_none() {
        assert!(RegionModel::fit(&[]).is_none());
    }

    #[test]
    fn fit_small_region_is_mean() {
        let tuples = [tup(0, 0.0, 0.0, 10.0), tup(1, 1.0, 0.0, 20.0)];
        let m = RegionModel::fit(&tuples).unwrap();
        match m {
            RegionModel::Mean(v) => assert_eq!(v, 15.0),
            other => panic!("expected mean model, got {other:?}"),
        }
    }

    #[test]
    fn fit_planar_data_recovers_plane() {
        // s = 100 + 0.5x - 0.25y, time-invariant, over a grid of points.
        let mut tuples = Vec::new();
        for i in 0..6i64 {
            for j in 0..6i64 {
                let (x, y) = (i as f64 * 10.0, j as f64 * 10.0);
                // Times decorrelated from positions so OLS has full rank.
                let t = ((i * 6 + j) * 104_729) % 3_000;
                tuples.push(tup(t, x, y, 100.0 + 0.5 * x - 0.25 * y));
            }
        }
        let m = RegionModel::fit(&tuples).unwrap();
        assert!(matches!(m, RegionModel::Linear(_)));
        let pred = m.predict(Timestamp::from_secs(90), &Point::new(25.0, 35.0));
        let want = 100.0 + 0.5 * 25.0 - 0.25 * 35.0;
        assert!((pred - want).abs() < 0.5, "{pred} vs {want}");
    }

    #[test]
    fn fit_collinear_positions_still_works() {
        // All samples on a line (a bus trajectory): OLS normal equations may
        // be singular in the direction orthogonal to the line; the fit must
        // still succeed (ridge or mean) and predict something finite.
        let tuples: Vec<RawTuple> = (0..20)
            .map(|i| tup(i, i as f64 * 5.0, i as f64 * 5.0, 50.0 + i as f64))
            .collect();
        let m = RegionModel::fit(&tuples).unwrap();
        let pred = m.predict(Timestamp::from_secs(10), &Point::new(50.0, 50.0));
        assert!(pred.is_finite());
        assert!((pred - 60.0).abs() < 5.0, "prediction {pred} off the line");
    }

    #[test]
    fn fit_identical_positions_falls_back() {
        let tuples: Vec<RawTuple> = (0..10).map(|_| tup(0, 1.0, 1.0, 7.0)).collect();
        let m = RegionModel::fit(&tuples).unwrap();
        let pred = m.predict(Timestamp::ZERO, &Point::new(1.0, 1.0));
        assert!((pred - 7.0).abs() < 1e-2, "{pred}");
    }

    #[test]
    fn approximation_error_zero_for_exact_model() {
        let m = RegionModel::Mean(42.0);
        let tuples = [tup(0, 0.0, 0.0, 42.0), tup(1, 5.0, 5.0, 42.0)];
        let err = m.approximation_error(&tuples, Pollutant::Co2);
        assert_eq!(err.percent(), 0.0);
    }

    #[test]
    fn approximation_error_scales_with_normal_range() {
        let m = RegionModel::Mean(0.0);
        let tuples = [tup(0, 0.0, 0.0, 11.5)]; // |err| = 11.5
                                               // CO2 normal range width = 1150 → 1 %.
        let err = m.approximation_error(&tuples, Pollutant::Co2);
        assert!((err.percent() - 1.0).abs() < 1e-9);
    }
}
