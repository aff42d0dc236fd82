//! Axis-aligned bounding boxes in the projected plane.

use crate::Point;

/// An axis-aligned rectangle, used as the bounding volume of R-tree nodes and
/// as the extent of heatmap/grid computations.
///
/// A box is *valid* when `min.x <= max.x && min.y <= max.y`. The
/// [`BoundingBox::empty`] constructor produces the canonical empty box (an
/// inverted box), which behaves as the identity for [`BoundingBox::union`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundingBox {
    /// Lower-left corner.
    pub min: Point,
    /// Upper-right corner.
    pub max: Point,
}

impl BoundingBox {
    /// Creates a box from two corners, normalizing the coordinate order.
    pub fn new(a: Point, b: Point) -> Self {
        Self {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// The canonical empty box: the identity element of [`BoundingBox::union`].
    pub const fn empty() -> Self {
        Self {
            min: Point::new(f64::INFINITY, f64::INFINITY),
            max: Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        }
    }

    /// The smallest box containing every point of the iterator.
    ///
    /// Returns [`BoundingBox::empty`] for an empty iterator.
    pub fn from_points<I: IntoIterator<Item = Point>>(points: I) -> Self {
        points
            .into_iter()
            .fold(Self::empty(), |bb, p| bb.expanded(p))
    }

    /// Returns `true` if no point is contained (inverted corners).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y
    }

    /// Box width in meters (0 for empty boxes).
    #[inline]
    pub fn width(&self) -> f64 {
        (self.max.x - self.min.x).max(0.0)
    }

    /// Box height in meters (0 for empty boxes).
    #[inline]
    pub fn height(&self) -> f64 {
        (self.max.y - self.min.y).max(0.0)
    }

    /// Area in square meters (0 for empty boxes).
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Center of the box. Meaningless for empty boxes.
    #[inline]
    pub fn center(&self) -> Point {
        self.min.midpoint(&self.max)
    }

    /// Returns `true` if `p` lies inside or on the boundary.
    #[inline]
    pub fn contains(&self, p: &Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Returns `true` if `other` lies entirely inside `self`.
    #[inline]
    pub fn contains_box(&self, other: &BoundingBox) -> bool {
        !other.is_empty()
            && other.min.x >= self.min.x
            && other.max.x <= self.max.x
            && other.min.y >= self.min.y
            && other.max.y <= self.max.y
    }

    /// Returns `true` if the boxes share at least one point.
    #[inline]
    pub fn intersects(&self, other: &BoundingBox) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.min.x <= other.max.x
            && other.min.x <= self.max.x
            && self.min.y <= other.max.y
            && other.min.y <= self.max.y
    }

    /// The smallest box containing both operands.
    #[inline]
    pub fn union(&self, other: &BoundingBox) -> BoundingBox {
        BoundingBox {
            min: Point::new(self.min.x.min(other.min.x), self.min.y.min(other.min.y)),
            max: Point::new(self.max.x.max(other.max.x), self.max.y.max(other.max.y)),
        }
    }

    /// The smallest box containing `self` and `p`.
    #[inline]
    pub fn expanded(&self, p: Point) -> BoundingBox {
        BoundingBox {
            min: Point::new(self.min.x.min(p.x), self.min.y.min(p.y)),
            max: Point::new(self.max.x.max(p.x), self.max.y.max(p.y)),
        }
    }

    /// Grows the box by `pad` meters on every side.
    #[inline]
    pub fn padded(&self, pad: f64) -> BoundingBox {
        BoundingBox {
            min: Point::new(self.min.x - pad, self.min.y - pad),
            max: Point::new(self.max.x + pad, self.max.y + pad),
        }
    }

    /// Minimum Euclidean distance from `p` to the box (0 if inside).
    ///
    /// This is the `mindist` bound driving best-first k-NN search over an
    /// R-tree.
    #[inline]
    pub fn min_distance(&self, p: &Point) -> f64 {
        self.min_distance_sq(p).sqrt()
    }

    /// Squared minimum distance from `p` to the box.
    #[inline]
    pub fn min_distance_sq(&self, p: &Point) -> f64 {
        let dx = (self.min.x - p.x).max(0.0).max(p.x - self.max.x);
        let dy = (self.min.y - p.y).max(0.0).max(p.y - self.max.y);
        dx * dx + dy * dy
    }

    /// Returns `true` if any point of the box lies within `radius` of `p`.
    #[inline]
    pub fn intersects_circle(&self, p: &Point, radius: f64) -> bool {
        !self.is_empty() && self.min_distance_sq(p) <= radius * radius
    }
}

impl Default for BoundingBox {
    fn default() -> Self {
        Self::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> BoundingBox {
        BoundingBox::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0))
    }

    #[test]
    fn new_normalizes_corners() {
        let b = BoundingBox::new(Point::new(5.0, -1.0), Point::new(-5.0, 1.0));
        assert_eq!(b.min, Point::new(-5.0, -1.0));
        assert_eq!(b.max, Point::new(5.0, 1.0));
    }

    #[test]
    fn empty_box_properties() {
        let e = BoundingBox::empty();
        assert!(e.is_empty());
        assert_eq!(e.area(), 0.0);
        assert_eq!(e.width(), 0.0);
        assert!(!e.contains(&Point::origin()));
        assert!(!e.intersects(&unit()));
    }

    #[test]
    fn empty_is_union_identity() {
        let b = unit();
        assert_eq!(BoundingBox::empty().union(&b), b);
        assert_eq!(b.union(&BoundingBox::empty()), b);
    }

    #[test]
    fn from_points_covers_all() {
        let pts = [
            Point::new(1.0, 2.0),
            Point::new(-3.0, 0.5),
            Point::new(2.0, -4.0),
        ];
        let b = BoundingBox::from_points(pts);
        for p in &pts {
            assert!(b.contains(p));
        }
        assert_eq!(b.min, Point::new(-3.0, -4.0));
        assert_eq!(b.max, Point::new(2.0, 2.0));
    }

    #[test]
    fn from_points_empty_iterator() {
        assert!(BoundingBox::from_points(std::iter::empty()).is_empty());
    }

    #[test]
    fn contains_boundary_points() {
        let b = unit();
        assert!(b.contains(&Point::new(0.0, 0.0)));
        assert!(b.contains(&Point::new(1.0, 1.0)));
        assert!(b.contains(&Point::new(0.5, 1.0)));
        assert!(!b.contains(&Point::new(1.0 + 1e-12, 0.5)));
    }

    #[test]
    fn contains_box_requires_full_containment() {
        let outer = BoundingBox::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0));
        let inner = BoundingBox::new(Point::new(2.0, 2.0), Point::new(3.0, 3.0));
        let straddle = BoundingBox::new(Point::new(9.0, 9.0), Point::new(11.0, 11.0));
        assert!(outer.contains_box(&inner));
        assert!(!outer.contains_box(&straddle));
        assert!(!outer.contains_box(&BoundingBox::empty()));
    }

    #[test]
    fn intersects_shared_edge() {
        let a = unit();
        let b = BoundingBox::new(Point::new(1.0, 0.0), Point::new(2.0, 1.0));
        assert!(a.intersects(&b));
        let c = BoundingBox::new(Point::new(1.1, 0.0), Point::new(2.0, 1.0));
        assert!(!a.intersects(&c));
    }

    #[test]
    fn union_commutes_and_covers() {
        let a = unit();
        let b = BoundingBox::new(Point::new(5.0, 5.0), Point::new(6.0, 7.0));
        let u = a.union(&b);
        assert_eq!(u, b.union(&a));
        assert!(u.contains_box(&a));
        assert!(u.contains_box(&b));
    }

    #[test]
    fn min_distance_inside_is_zero() {
        let b = unit();
        assert_eq!(b.min_distance(&Point::new(0.5, 0.5)), 0.0);
    }

    #[test]
    fn min_distance_to_corner_and_edge() {
        let b = unit();
        // Corner: (2, 2) is sqrt(2) from (1, 1).
        assert!((b.min_distance(&Point::new(2.0, 2.0)) - 2f64.sqrt()).abs() < 1e-12);
        // Edge: (0.5, 3) is 2 from the top edge.
        assert_eq!(b.min_distance(&Point::new(0.5, 3.0)), 2.0);
    }

    #[test]
    fn intersects_circle_edge_cases() {
        let b = unit();
        assert!(b.intersects_circle(&Point::new(0.5, 0.5), 0.0)); // center inside
        assert!(b.intersects_circle(&Point::new(2.0, 0.5), 1.0)); // touches edge
        assert!(!b.intersects_circle(&Point::new(2.0, 0.5), 0.99));
    }

    #[test]
    fn padded_grows_every_side() {
        let b = unit().padded(2.0);
        assert_eq!(b.min, Point::new(-2.0, -2.0));
        assert_eq!(b.max, Point::new(3.0, 3.0));
        assert_eq!(b.area(), 25.0);
    }

    #[test]
    fn center_of_unit_box() {
        assert_eq!(unit().center(), Point::new(0.5, 0.5));
    }
}
