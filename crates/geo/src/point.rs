//! Points in the metric plane.

/// A position in a local, metric plane.
///
/// Coordinates are in meters east (`x`) and north (`y`) of an origin; CSV
/// rows and the simulator are metric already. `Point` is the coordinate
/// type used throughout query processing: raw tuples, query tuples,
/// cluster centroids and index entries all carry a `Point`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Meters east of the origin.
    pub x: f64,
    /// Meters north of the origin.
    pub y: f64,
}

impl Point {
    /// Creates a point from east/north offsets in meters.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// The origin of the plane.
    #[inline]
    pub const fn origin() -> Self {
        Self { x: 0.0, y: 0.0 }
    }

    /// Euclidean distance to `other`, in meters.
    #[inline]
    pub fn distance(&self, other: &Point) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared Euclidean distance to `other`.
    ///
    /// Cheaper than [`Point::distance`]; prefer it for nearest-neighbour
    /// comparisons where the monotone transform does not matter.
    #[inline]
    pub fn distance_sq(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Component-wise midpoint between `self` and `other`.
    #[inline]
    pub fn midpoint(&self, other: &Point) -> Point {
        Point::new((self.x + other.x) * 0.5, (self.y + other.y) * 0.5)
    }

    /// Linear interpolation from `self` towards `other`.
    ///
    /// `t = 0` yields `self`, `t = 1` yields `other`; values outside `[0, 1]`
    /// extrapolate along the segment.
    #[inline]
    pub fn lerp(&self, other: &Point, t: f64) -> Point {
        Point::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }

    /// Returns `true` if both coordinates are finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl From<(f64, f64)> for Point {
    #[inline]
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

impl From<Point> for (f64, f64) {
    #[inline]
    fn from(p: Point) -> Self {
        (p.x, p.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_zero_for_identical_points() {
        let p = Point::new(3.5, -2.0);
        assert_eq!(p.distance(&p), 0.0);
    }

    #[test]
    fn distance_matches_pythagoras() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(a.distance_sq(&b), 25.0);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(-4.0, 7.5);
        assert_eq!(a.distance(&b), b.distance(&a));
    }

    #[test]
    fn midpoint_is_equidistant() {
        let a = Point::new(-2.0, 1.0);
        let b = Point::new(6.0, 5.0);
        let m = a.midpoint(&b);
        assert!((a.distance(&m) - b.distance(&m)).abs() < 1e-9);
        assert_eq!(m, Point::new(2.0, 3.0));
    }

    #[test]
    fn lerp_endpoints_and_middle() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, -10.0);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
        assert_eq!(a.lerp(&b, 0.5), Point::new(5.0, -5.0));
    }

    #[test]
    fn is_finite_rejects_nan_and_inf() {
        assert!(Point::new(1.0, 2.0).is_finite());
        assert!(!Point::new(f64::NAN, 0.0).is_finite());
        assert!(!Point::new(0.0, f64::INFINITY).is_finite());
    }

    #[test]
    fn tuple_conversions_roundtrip() {
        let p: Point = (1.5, -2.5).into();
        let t: (f64, f64) = p.into();
        assert_eq!(t, (1.5, -2.5));
    }
}
