//! Spatio-temporal linear regression over standardized features.

use enviro_data::{RawTuple, Timestamp};
use enviro_geo::Point;

/// A fitted linear model `s = β₀ + β₁·x̃ + β₂·ỹ + β₃·t̃`.
///
/// Features are *standardized* (centered on the training mean, scaled by
/// the training spread) before fitting — raw city coordinates (10³ m) and
/// timestamps (10⁶ s) would otherwise produce a catastrophically
/// ill-conditioned Gram matrix. The standardization constants are part of
/// the model and travel with it over the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearModel {
    /// Coefficients `[β₀, β₁, β₂, β₃]` over `[1, x̃, ỹ, t̃]`.
    pub beta: [f64; 4],
    /// Feature centers `(cx, cy, ct)`.
    pub center: (f64, f64, f64),
    /// Feature scales `(sx, sy, st)`. A scale of `f64::INFINITY` marks a
    /// *degenerate* dimension (training spread below the identifiability
    /// floor): its standardized feature is always 0 and the model carries
    /// no slope for it.
    pub scale: (f64, f64, f64),
    /// Plausible output interval, derived from the training values (extended
    /// by 10 % of their span). Predictions are clamped into it: a local
    /// model may interpolate and gently extrapolate, but never invent
    /// values far outside what its region ever observed.
    pub value_range: (f64, f64),
}

/// Prediction-time clamp on standardized features: a local region model is
/// only trusted a few standard deviations beyond its training support;
/// farther out it saturates instead of extrapolating linearly.
const FEATURE_CLAMP: f64 = 4.0;

#[inline]
fn feature(v: f64, center: f64, scale: f64) -> f64 {
    // Degenerate dimensions have scale = ∞ → feature 0.
    ((v - center) / scale).clamp(-FEATURE_CLAMP, FEATURE_CLAMP)
}

impl LinearModel {
    /// Number of `f64` values needed to reconstruct the model
    /// (4 β + 3 centers + 3 scales + 2 value bounds).
    pub const COEFFICIENT_COUNT: usize = 12;

    /// Below this many tuples [`crate::RegionModel::fit`] gives a region a
    /// mean model instead of a regression (4 coefficients need comfortably
    /// more than 4 points).
    ///
    /// This and the three constants below shape every fitted cover, which
    /// `core/tests/golden_cover.rs` pins: changing one needs a
    /// `COVER_FRAME_VERSION` bump in `enviro-net`.
    pub const MIN_POINTS_FOR_REGRESSION: usize = 8;

    /// Relative ridge strength: the solver uses `λ = RIDGE_ALPHA · n` on
    /// standardized features.
    ///
    /// Bus-trajectory windows are nearly one-dimensional: the spatial slope
    /// *orthogonal* to the track is unidentifiable, and plain OLS would fit
    /// it to GPS noise — harmless on the track, catastrophic when a query
    /// extrapolates a few hundred meters off-corridor. Sample-scaled ridge
    /// shrinks exactly those unidentified directions (Gram eigenvalue ≪
    /// λ·n) to zero while biasing well-identified slopes by only
    /// ≈ `RIDGE_ALPHA` relative.
    pub const RIDGE_ALPHA: f64 = 1e-4;

    /// Minimum spatial spread (meters, standard deviation) for a coordinate
    /// to earn a slope. A region whose lateral extent is only GPS noise
    /// (~5 m) must not fit a lateral gradient: standardization would
    /// amplify that noise-slope 100× for a query a few hundred meters
    /// off-track.
    pub const MIN_SPATIAL_SPREAD_M: f64 = 10.0;

    /// Minimum temporal spread (seconds) for the time feature to earn a
    /// slope.
    pub const MIN_TIME_SPREAD_S: f64 = 30.0;

    /// Fits the model by ridge regression on standardized features (see
    /// [`LinearModel::RIDGE_ALPHA`] for why ridge is not merely a fallback).
    ///
    /// The 4×4 normal equations `(AᵀA + λI)·β = Aᵀb` are accumulated tuple
    /// by tuple and solved in place by Cholesky decomposition; no design
    /// matrix is built. Returns `None` when no finite coefficients exist
    /// (non-finite inputs).
    pub fn fit(tuples: &[RawTuple]) -> Option<LinearModel> {
        Self::fit_ridge(tuples, Self::RIDGE_ALPHA)
    }

    /// [`LinearModel::fit`] under ridge strength `ridge_alpha`.
    fn fit_ridge(tuples: &[RawTuple], ridge_alpha: f64) -> Option<LinearModel> {
        let n = tuples.len();
        if n < 4 {
            return None;
        }
        // Standardization constants.
        let nf = n as f64;
        let cx = tuples.iter().map(|t| t.pos.x).sum::<f64>() / nf;
        let cy = tuples.iter().map(|t| t.pos.y).sum::<f64>() / nf;
        let ct = tuples.iter().map(|t| t.time.as_secs_f64()).sum::<f64>() / nf;
        let spread = |f: &dyn Fn(&RawTuple) -> f64, c: f64, floor: f64| -> f64 {
            let var = tuples.iter().map(|t| (f(t) - c).powi(2)).sum::<f64>() / nf;
            let sd = var.sqrt();
            // Below the identifiability floor the dimension is degenerate.
            if sd < floor {
                f64::INFINITY
            } else {
                sd
            }
        };
        let sx = spread(&|t| t.pos.x, cx, Self::MIN_SPATIAL_SPREAD_M);
        let sy = spread(&|t| t.pos.y, cy, Self::MIN_SPATIAL_SPREAD_M);
        let st = spread(&|t| t.time.as_secs_f64(), ct, Self::MIN_TIME_SPREAD_S);

        let (mut gram, rhs) = normal_equations(tuples.iter().map(|t| {
            let row = [
                1.0,
                feature(t.pos.x, cx, sx),
                feature(t.pos.y, cy, sy),
                feature(t.time.as_secs_f64(), ct, st),
            ];
            (row, t.value)
        }));
        let lambda = (ridge_alpha * n as f64).max(f64::MIN_POSITIVE);
        for (i, row) in gram.iter_mut().enumerate() {
            row[i] += lambda;
        }
        let beta = cholesky_solve(&gram, &rhs)?;
        if !beta.iter().all(|v| v.is_finite()) {
            return None;
        }
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for t in tuples {
            lo = lo.min(t.value);
            hi = hi.max(t.value);
        }
        let margin = (hi - lo) * 0.1;
        Some(LinearModel {
            beta,
            center: (cx, cy, ct),
            scale: (sx, sy, st),
            value_range: (lo - margin, hi + margin),
        })
    }

    /// Evaluates the model at `(time, pos)`.
    ///
    /// Standardized features are clamped to ±4 σ of the training support:
    /// a region model describes its neighbourhood and saturates — rather
    /// than extrapolating a straight line — far outside it.
    #[inline]
    pub fn predict(&self, time: Timestamp, pos: &Point) -> f64 {
        let (cx, cy, ct) = self.center;
        let (sx, sy, st) = self.scale;
        let raw = self.beta[0]
            + self.beta[1] * feature(pos.x, cx, sx)
            + self.beta[2] * feature(pos.y, cy, sy)
            + self.beta[3] * feature(time.as_secs_f64(), ct, st);
        raw.clamp(self.value_range.0, self.value_range.1)
    }

    /// Serializes the model to its wire coefficients (see
    /// [`LinearModel::COEFFICIENT_COUNT`]).
    pub fn to_coefficients(&self) -> [f64; Self::COEFFICIENT_COUNT] {
        [
            self.beta[0],
            self.beta[1],
            self.beta[2],
            self.beta[3],
            self.center.0,
            self.center.1,
            self.center.2,
            self.scale.0,
            self.scale.1,
            self.scale.2,
            self.value_range.0,
            self.value_range.1,
        ]
    }

    /// Verifies the model's numeric invariants, returning the first
    /// violation found:
    /// * `beta` and `center` are finite;
    /// * scales are positive, and either finite or the `INFINITY`
    ///   degenerate-dimension sentinel (never NaN);
    /// * the value range is finite and ordered.
    pub fn check_invariants(&self) -> Result<(), String> {
        if !self.beta.iter().all(|b| b.is_finite()) {
            return Err(format!("non-finite beta {:?}", self.beta));
        }
        let (cx, cy, ct) = self.center;
        if !(cx.is_finite() && cy.is_finite() && ct.is_finite()) {
            return Err(format!("non-finite center {:?}", self.center));
        }
        let (sx, sy, st) = self.scale;
        if !(sx > 0.0 && sy > 0.0 && st > 0.0) {
            return Err(format!("non-positive or NaN scale {:?}", self.scale));
        }
        let (lo, hi) = self.value_range;
        if !(lo.is_finite() && hi.is_finite() && lo <= hi) {
            return Err(format!("bad value range {:?}", self.value_range));
        }
        Ok(())
    }

    /// Reconstructs a model from wire coefficients.
    pub fn from_coefficients(c: &[f64; Self::COEFFICIENT_COUNT]) -> LinearModel {
        LinearModel {
            beta: [c[0], c[1], c[2], c[3]],
            center: (c[4], c[5], c[6]),
            scale: (c[7], c[8], c[9]),
            value_range: (c[10], c[11]),
        }
    }
}

/// Accumulates the normal equations `AᵀA` and `Aᵀb` of a 4-column
/// least-squares problem from its `(row, value)` pairs, in order.
///
/// Only the upper triangle of `AᵀA` is summed (zero entries skipped), then
/// mirrored; the summation order is part of the fit's bit-exact output.
fn normal_equations(rows: impl Iterator<Item = ([f64; 4], f64)>) -> ([[f64; 4]; 4], [f64; 4]) {
    let mut gram = [[0.0; 4]; 4];
    let mut rhs = [0.0; 4];
    for (row, value) in rows {
        for i in 0..4 {
            let a = row[i];
            if a == 0.0 {
                continue;
            }
            for j in i..4 {
                gram[i][j] += a * row[j];
            }
        }
        if value != 0.0 {
            for (o, &a) in rhs.iter_mut().zip(&row) {
                *o += a * value;
            }
        }
    }
    let upper = gram;
    for (i, row) in gram.iter_mut().enumerate() {
        for (j, g) in row.iter_mut().enumerate().take(i) {
            *g = upper[j][i];
        }
    }
    (gram, rhs)
}

/// Solves `A·x = b` for symmetric positive-definite `A` by Cholesky
/// decomposition (`A = L·Lᵀ`, then two triangular solves). Only the lower
/// triangle of `a` is read.
///
/// Returns `None` for non-finite input, or when a pivot falls below
/// `1e-12 · max(max|aᵢⱼ|, 1)` (`A` is not positive definite, or too close
/// to singular to trust).
fn cholesky_solve(a: &[[f64; 4]; 4], b: &[f64; 4]) -> Option<[f64; 4]> {
    if !a.iter().flatten().chain(b).all(|v| v.is_finite()) {
        return None;
    }
    let max_abs = a.iter().flatten().fold(0.0, |m: f64, v| m.max(v.abs()));
    let tol = 1e-12 * max_abs.max(1.0);
    let mut l = [[0.0; 4]; 4];
    for i in 0..4 {
        for j in 0..=i {
            let sum = (0..j).fold(a[i][j], |sum, k| sum - l[i][k] * l[j][k]);
            if i == j {
                if sum <= tol {
                    return None;
                }
                l[i][i] = sum.sqrt();
            } else {
                l[i][j] = sum / l[j][j];
            }
        }
    }
    // Forward solve L·y = b.
    let mut y = [0.0; 4];
    for i in 0..4 {
        let mut sum = b[i];
        for k in 0..i {
            sum -= l[i][k] * y[k];
        }
        y[i] = sum / l[i][i];
    }
    // Back solve Lᵀ·x = y.
    let mut x = [0.0; 4];
    for i in (0..4).rev() {
        let mut sum = y[i];
        for k in (i + 1)..4 {
            sum -= l[k][i] * x[k];
        }
        x[i] = sum / l[i][i];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tup(t: i64, x: f64, y: f64, v: f64) -> RawTuple {
        RawTuple::new(Timestamp::from_secs(t), Point::new(x, y), v)
    }

    /// Grid of samples from an exact plane with a time trend. Times are
    /// decoupled from positions (pseudo-random order) so the design matrix
    /// has full rank and OLS applies.
    fn planar_tuples() -> Vec<RawTuple> {
        let mut out = Vec::new();
        for i in 0..5i64 {
            for j in 0..5i64 {
                let (x, y) = (i as f64 * 100.0, j as f64 * 100.0);
                let t = ((i * 5 + j) * 7919) % 1500; // decorrelated from (x, y)
                out.push(tup(t, x, y, 400.0 + 0.1 * x - 0.05 * y + 0.01 * t as f64));
            }
        }
        out
    }

    #[test]
    fn recovers_exact_plane_with_time() {
        let tuples = planar_tuples();
        let m = LinearModel::fit(&tuples).unwrap();
        // Ridge biases the fit by ~RIDGE_ALPHA relative; tolerance reflects
        // that.
        for t in &tuples {
            let pred = m.predict(t.time, &t.pos);
            assert!((pred - t.value).abs() < 0.5, "{pred} vs {}", t.value);
        }
    }

    #[test]
    fn extrapolates_the_plane() {
        let m = LinearModel::fit(&planar_tuples()).unwrap();
        let pred = m.predict(Timestamp::from_secs(600), &Point::new(250.0, 150.0));
        let want = 400.0 + 0.1 * 250.0 - 0.05 * 150.0 + 0.01 * 600.0;
        assert!((pred - want).abs() < 1.0, "{pred} vs {want}");
    }

    #[test]
    fn fit_needs_at_least_four_points() {
        let tuples = vec![tup(0, 0.0, 0.0, 1.0); 3];
        assert!(LinearModel::fit(&tuples).is_none());
    }

    #[test]
    fn handles_huge_raw_coordinates() {
        // Unstandardized, x ~ 1e6 and t ~ 1e6 would wreck conditioning.
        let tuples: Vec<RawTuple> = (0..50)
            .map(|i| {
                let x = 1.0e6 + i as f64;
                let y = -2.0e6 + (i * i % 13) as f64;
                tup(1_000_000 + i * 60, x, y, 500.0 + (i % 7) as f64)
            })
            .collect();
        let m = LinearModel::fit(&tuples).unwrap();
        let pred = m.predict(tuples[10].time, &tuples[10].pos);
        assert!(pred.is_finite());
        assert!((pred - tuples[10].value).abs() < 50.0);
    }

    #[test]
    fn coefficients_roundtrip() {
        let m = LinearModel::fit(&planar_tuples()).unwrap();
        let back = LinearModel::from_coefficients(&m.to_coefficients());
        assert_eq!(m, back);
    }

    #[test]
    fn constant_data_gives_constant_model() {
        // x and t are collinear here (a bus moving at constant speed), so
        // the fit falls back to ridge; the on-trajectory prediction must
        // still be the constant, up to the regularization bias.
        let tuples: Vec<RawTuple> = (0..10).map(|i| tup(i, i as f64, 0.0, 33.0)).collect();
        let m = LinearModel::fit(&tuples);
        if let Some(m) = m {
            let pred = m.predict(Timestamp::from_secs(4), &Point::new(4.0, 0.0));
            assert!((pred - 33.0).abs() < 0.1, "{pred}");
        }
    }

    /// `a` as the leading 2×2 block of an otherwise-identity 4×4 matrix.
    fn embed(a: [[f64; 2]; 2]) -> [[f64; 4]; 4] {
        let mut m = [[0.0; 4]; 4];
        for (i, row) in m.iter_mut().enumerate() {
            row[i] = 1.0;
        }
        m[0][..2].copy_from_slice(&a[0]);
        m[1][..2].copy_from_slice(&a[1]);
        m
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn cholesky_solves_spd_system() {
        // [[4,2],[2,3]] x = [10, 8] → x = [1.75, 1.5]; the identity block
        // passes its right-hand side through.
        let x = cholesky_solve(&embed([[4.0, 2.0], [2.0, 3.0]]), &[10.0, 8.0, -1.0, 2.0]).unwrap();
        assert_close(&x, &[1.75, 1.5, -1.0, 2.0], 1e-12);
    }

    #[test]
    fn cholesky_identity_returns_rhs() {
        let x = cholesky_solve(&embed([[1.0, 0.0], [0.0, 1.0]]), &[1.0, -2.0, 3.0, -4.0]).unwrap();
        assert_close(&x, &[1.0, -2.0, 3.0, -4.0], 1e-15);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = embed([[0.0, 1.0], [1.0, 0.0]]);
        assert_eq!(cholesky_solve(&a, &[1.0; 4]), None);
    }

    #[test]
    fn cholesky_rejects_rank_deficient() {
        let a = embed([[1.0, 1.0], [1.0, 1.0]]);
        assert_eq!(cholesky_solve(&a, &[2.0, 2.0, 0.0, 0.0]), None);
    }

    #[test]
    fn cholesky_rejects_non_finite() {
        let identity = embed([[1.0, 0.0], [0.0, 1.0]]);
        assert_eq!(
            cholesky_solve(&embed([[f64::NAN, 0.0], [0.0, 1.0]]), &[1.0; 4]),
            None
        );
        assert_eq!(
            cholesky_solve(&identity, &[1.0, f64::INFINITY, 0.0, 0.0]),
            None
        );
    }

    /// Rows of a 4-column design matrix with zero entries and a zero value,
    /// so the accumulation's zero-skipping paths run.
    fn design() -> Vec<([f64; 4], f64)> {
        vec![
            ([1.0, 2.0, 0.0, -1.5], 3.0),
            ([1.0, -0.5, 4.0, 0.0], -2.0),
            ([1.0, 0.0, -3.0, 2.5], 0.0),
            ([0.0, 1.0, 1.0, 1.0], 7.0),
        ]
    }

    #[test]
    fn gram_equals_explicit_ata() {
        let rows = design();
        let (g, _) = normal_equations(rows.iter().copied());
        for i in 0..4 {
            for j in 0..4 {
                let explicit: f64 = rows.iter().map(|(r, _)| r[i] * r[j]).sum();
                assert!((g[i][j] - explicit).abs() < 1e-12, "({i}, {j})");
            }
        }
    }

    #[test]
    fn gram_is_symmetric() {
        let (g, _) = normal_equations(design().into_iter());
        for (i, row) in g.iter().enumerate() {
            for (j, &gij) in row.iter().enumerate() {
                assert_eq!(gij, g[j][i]);
            }
        }
    }

    #[test]
    fn t_matvec_equals_explicit() {
        let rows = design();
        let (_, rhs) = normal_equations(rows.iter().copied());
        let explicit: Vec<f64> = (0..4)
            .map(|j| rows.iter().map(|(r, v)| r[j] * v).sum())
            .collect();
        assert_eq!(rhs.to_vec(), explicit);
    }

    #[test]
    fn ridge_handles_collinear_columns() {
        // A bus at constant speed on a straight east-west street: x and t
        // are the same standardized column, and y is degenerate.
        let tuples: Vec<RawTuple> = (0..20)
            .map(|i| tup(i * 60, i as f64 * 50.0, 0.0, 400.0 + 0.1 * i as f64 * 50.0))
            .collect();
        let m = LinearModel::fit(&tuples).unwrap();
        // Ridge splits the shared slope evenly between the twin columns.
        assert!((m.beta[1] - m.beta[3]).abs() < 1e-6, "{:?}", m.beta);
        assert_eq!(m.beta[2], 0.0);
        for t in &tuples {
            let pred = m.predict(t.time, &t.pos);
            assert!((pred - t.value).abs() < 0.1, "{pred} vs {}", t.value);
        }
    }

    #[test]
    fn ridge_shrinks_towards_zero_with_large_lambda() {
        let tuples: Vec<RawTuple> = planar_tuples()
            .into_iter()
            .map(|t| RawTuple { value: 4.0, ..t })
            .collect();
        let fit = |ridge_alpha| LinearModel::fit_ridge(&tuples, ridge_alpha).unwrap().beta[0];
        let (small, big) = (fit(1e-9), fit(1e3));
        assert!((small - 4.0).abs() < 1e-6, "{small}");
        assert!(big.abs() < small.abs(), "{big} vs {small}");
    }
}
