//! Property-based tests for the geometric primitives.

// Harness code, exempt from the library panic policy: an unwrap here
// fails the run loudly, which is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use enviro_geo::{BoundingBox, Grid, Point, Polyline};
use proptest::prelude::*;

fn finite_coord() -> impl Strategy<Value = f64> {
    -1.0e5..1.0e5
}

fn arb_point() -> impl Strategy<Value = Point> {
    (finite_coord(), finite_coord()).prop_map(|(x, y)| Point::new(x, y))
}

proptest! {
    #[test]
    fn distance_triangle_inequality(a in arb_point(), b in arb_point(), c in arb_point()) {
        let slack = 1e-6 * (1.0 + a.distance(&c));
        prop_assert!(a.distance(&c) <= a.distance(&b) + b.distance(&c) + slack);
    }

    #[test]
    fn distance_nonnegative_and_symmetric(a in arb_point(), b in arb_point()) {
        prop_assert!(a.distance(&b) >= 0.0);
        prop_assert!((a.distance(&b) - b.distance(&a)).abs() < 1e-9);
    }

    #[test]
    fn bbox_union_contains_operands(
        pts_a in prop::collection::vec(arb_point(), 1..20),
        pts_b in prop::collection::vec(arb_point(), 1..20),
    ) {
        let a = BoundingBox::from_points(pts_a.iter().copied());
        let b = BoundingBox::from_points(pts_b.iter().copied());
        let u = a.union(&b);
        for p in pts_a.iter().chain(pts_b.iter()) {
            prop_assert!(u.contains(p));
        }
        prop_assert!(u.contains_box(&a) && u.contains_box(&b));
    }

    #[test]
    fn bbox_min_distance_lower_bounds_member_distance(
        pts in prop::collection::vec(arb_point(), 1..30),
        q in arb_point(),
    ) {
        let bb = BoundingBox::from_points(pts.iter().copied());
        let bound = bb.min_distance(&q);
        for p in &pts {
            prop_assert!(bound <= q.distance(p) + 1e-9);
        }
    }

    #[test]
    fn bbox_intersects_is_symmetric(
        a1 in arb_point(), a2 in arb_point(),
        b1 in arb_point(), b2 in arb_point(),
    ) {
        let a = BoundingBox::new(a1, a2);
        let b = BoundingBox::new(b1, b2);
        prop_assert_eq!(a.intersects(&b), b.intersects(&a));
    }

    #[test]
    fn grid_cell_of_agrees_with_cell_bounds(
        x in 0.0..1000.0f64,
        y in 0.0..1000.0f64,
        cols in 1u32..30,
        rows in 1u32..30,
    ) {
        let g = Grid::new(
            BoundingBox::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0)),
            cols,
            rows,
        );
        let p = Point::new(x, y);
        let cell = g.cell_of(&p).expect("inside extent");
        prop_assert!(g.cell_bounds(cell).contains(&p));
    }

    #[test]
    fn grid_cells_in_radius_covers_containing_cell(
        x in 0.0..1000.0f64,
        y in 0.0..1000.0f64,
        radius in 0.0..500.0f64,
    ) {
        let g = Grid::new(
            BoundingBox::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0)),
            16,
            16,
        );
        let p = Point::new(x, y);
        let cells = g.cells_in_radius(&p, radius);
        let home = g.cell_of(&p).expect("inside extent");
        prop_assert!(cells.contains(&home));
    }

    #[test]
    fn polyline_point_at_lies_near_vertices_hull(
        vs in prop::collection::vec(arb_point(), 2..10),
        frac in 0.0..1.0f64,
    ) {
        let pl = Polyline::new(vs.clone());
        let p = pl.point_at(frac * pl.length());
        let hull = BoundingBox::from_points(vs);
        prop_assert!(hull.padded(1e-6).contains(&p));
    }

    #[test]
    fn polyline_projection_distance_at_most_vertex_distance(
        vs in prop::collection::vec(arb_point(), 2..10),
        q in arb_point(),
    ) {
        let pl = Polyline::new(vs.clone());
        let (d, s) = pl.project(&q);
        // The projected distance can never exceed the distance to any vertex.
        for v in &vs {
            prop_assert!(d <= q.distance(v) + 1e-6);
        }
        prop_assert!((0.0..=pl.length() + 1e-9).contains(&s));
    }
}
