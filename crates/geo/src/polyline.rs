//! Polyline (route) geometry: arc length, sampling, point projection.
//!
//! Bus routes in the Lausanne simulator and recorded user routes in the
//! EnviroMeter app are polylines in the metric plane. The simulator walks a
//! vehicle along a polyline at a given speed; the app projects pollution
//! samples onto the recorded track.

use crate::Point;

/// An open polyline through two or more vertices in the metric plane.
#[derive(Debug, Clone, PartialEq)]
pub struct Polyline {
    vertices: Vec<Point>,
    /// Cumulative arc length at each vertex; `cum[0] == 0`.
    cum: Vec<f64>,
}

impl Polyline {
    /// Builds a polyline from its vertices.
    ///
    /// # Panics
    /// Panics if fewer than two vertices are given or any vertex is
    /// non-finite.
    pub fn new(vertices: Vec<Point>) -> Self {
        assert!(vertices.len() >= 2, "polyline needs at least two vertices");
        assert!(
            vertices.iter().all(Point::is_finite),
            "polyline vertices must be finite"
        );
        let mut cum = Vec::with_capacity(vertices.len());
        cum.push(0.0);
        for w in vertices.windows(2) {
            let last = *cum.last().expect("cum is non-empty");
            cum.push(last + w[0].distance(&w[1]));
        }
        Self { vertices, cum }
    }

    /// The vertices of the polyline.
    #[inline]
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Total arc length in meters.
    #[inline]
    pub fn length(&self) -> f64 {
        *self.cum.last().expect("cum is non-empty")
    }

    /// The point at arc-length position `s` from the start.
    ///
    /// `s` is clamped to `[0, length]`, so callers may drive past the ends
    /// without panicking (the vehicle simply waits at the terminus).
    pub fn point_at(&self, s: f64) -> Point {
        let s = s.clamp(0.0, self.length());
        // Binary search for the segment containing s.
        let seg = match self
            .cum
            .binary_search_by(|c| c.partial_cmp(&s).expect("finite arc lengths"))
        {
            Ok(i) => i.min(self.vertices.len() - 2),
            Err(i) => i - 1,
        };
        let seg_len = self.cum[seg + 1] - self.cum[seg];
        if seg_len <= 0.0 {
            return self.vertices[seg];
        }
        let t = (s - self.cum[seg]) / seg_len;
        self.vertices[seg].lerp(&self.vertices[seg + 1], t)
    }

    /// The minimum distance from `p` to the polyline, and the arc-length
    /// position of the closest point.
    pub fn project(&self, p: &Point) -> (f64, f64) {
        let mut best_d2 = f64::INFINITY;
        let mut best_s = 0.0;
        for (i, w) in self.vertices.windows(2).enumerate() {
            let (d2, t) = point_segment_distance_sq(p, &w[0], &w[1]);
            if d2 < best_d2 {
                best_d2 = d2;
                best_s = self.cum[i] + t * (self.cum[i + 1] - self.cum[i]);
            }
        }
        (best_d2.sqrt(), best_s)
    }
}

/// Squared distance from `p` to segment `ab` and the parameter `t ∈ [0,1]`
/// of the closest point.
fn point_segment_distance_sq(p: &Point, a: &Point, b: &Point) -> (f64, f64) {
    let abx = b.x - a.x;
    let aby = b.y - a.y;
    let len2 = abx * abx + aby * aby;
    let t = if len2 <= 0.0 {
        0.0
    } else {
        (((p.x - a.x) * abx + (p.y - a.y) * aby) / len2).clamp(0.0, 1.0)
    };
    let cx = a.x + t * abx;
    let cy = a.y + t * aby;
    let dx = p.x - cx;
    let dy = p.y - cy;
    (dx * dx + dy * dy, t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l_shape() -> Polyline {
        Polyline::new(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 10.0),
        ])
    }

    #[test]
    fn length_sums_segments() {
        assert_eq!(l_shape().length(), 20.0);
    }

    #[test]
    fn point_at_start_middle_end() {
        let pl = l_shape();
        assert_eq!(pl.point_at(0.0), Point::new(0.0, 0.0));
        assert_eq!(pl.point_at(10.0), Point::new(10.0, 0.0));
        assert_eq!(pl.point_at(15.0), Point::new(10.0, 5.0));
        assert_eq!(pl.point_at(20.0), Point::new(10.0, 10.0));
    }

    #[test]
    fn point_at_clamps_out_of_range() {
        let pl = l_shape();
        assert_eq!(pl.point_at(-5.0), Point::new(0.0, 0.0));
        assert_eq!(pl.point_at(99.0), Point::new(10.0, 10.0));
    }

    #[test]
    fn point_at_vertex_arc_length_exact() {
        let pl = l_shape();
        // Hitting exactly the cumulative length of a vertex must not panic
        // and must return that vertex.
        assert_eq!(pl.point_at(10.0), Point::new(10.0, 0.0));
    }

    #[test]
    fn project_onto_segment_interior() {
        let pl = l_shape();
        let (d, s) = pl.project(&Point::new(5.0, 3.0));
        assert!((d - 3.0).abs() < 1e-12);
        assert!((s - 5.0).abs() < 1e-12);
    }

    #[test]
    fn project_onto_corner() {
        let pl = l_shape();
        let (d, s) = pl.project(&Point::new(12.0, -2.0));
        assert!((d - 8f64.sqrt()).abs() < 1e-12);
        assert!((s - 10.0).abs() < 1e-12);
    }

    #[test]
    fn project_point_on_line_is_zero() {
        let pl = l_shape();
        let (d, s) = pl.project(&Point::new(10.0, 7.0));
        assert!(d.abs() < 1e-12);
        assert!((s - 17.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_segment_handled() {
        let pl = Polyline::new(vec![
            Point::new(0.0, 0.0),
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
        ]);
        assert_eq!(pl.length(), 4.0);
        assert_eq!(pl.point_at(2.0), Point::new(2.0, 0.0));
        let (d, _) = pl.project(&Point::new(0.0, 1.0));
        assert!((d - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_vertex_panics() {
        Polyline::new(vec![Point::origin()]);
    }
}
