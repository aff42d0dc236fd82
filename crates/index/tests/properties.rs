//! Property-based tests: every index must agree with the brute-force scan.

// Harness code, exempt from the library panic policy: an unwrap here
// fails the run loudly, which is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use enviro_geo::Point;
use enviro_index::{
    brute_force_nearest, brute_force_within, Entry, GridIndex, KdTree, RTree, SpatialIndex, VpTree,
};
use proptest::prelude::*;

fn arb_entries(max: usize) -> impl Strategy<Value = Vec<Entry>> {
    prop::collection::vec((-500.0..500.0f64, -500.0..500.0f64), 0..max).prop_map(|pts| {
        pts.into_iter()
            .enumerate()
            .map(|(i, (x, y))| Entry::new(Point::new(x, y), i as u32))
            .collect()
    })
}

fn ids(entries: &[Entry]) -> Vec<u32> {
    let mut v: Vec<u32> = entries.iter().map(|e| e.id).collect();
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rtree_bulk_radius_equals_brute_force(
        entries in arb_entries(120),
        cx in -600.0..600.0f64,
        cy in -600.0..600.0f64,
        r in 0.0..800.0f64,
    ) {
        let tree = RTree::bulk_load(entries.clone());
        tree.check_invariants().map_err(TestCaseError::fail)?;
        let center = Point::new(cx, cy);
        prop_assert_eq!(
            ids(&tree.within_radius(&center, r)),
            ids(&brute_force_within(&entries, &center, r))
        );
    }

    #[test]
    fn rtree_bulk_radius_on_tied_coordinates_equals_brute_force(
        cells in prop::collection::vec((-4i32..4, -4i32..4), 0..80),
        cx in -600.0..600.0f64,
        cy in -600.0..600.0f64,
        r in 0.0..800.0f64,
    ) {
        // Coordinates on a 100 m lattice: STR's x and y sorts see long runs
        // of ties and many entries share one position.
        let entries: Vec<Entry> = cells
            .into_iter()
            .enumerate()
            .map(|(i, (x, y))| {
                Entry::new(Point::new(f64::from(x) * 100.0, f64::from(y) * 100.0), i as u32)
            })
            .collect();
        let tree = RTree::bulk_load(entries.clone());
        tree.check_invariants().map_err(TestCaseError::fail)?;
        let center = Point::new(cx, cy);
        prop_assert_eq!(
            ids(&tree.within_radius(&center, r)),
            ids(&brute_force_within(&entries, &center, r))
        );
    }

    #[test]
    fn vptree_radius_equals_brute_force(
        entries in arb_entries(120),
        cx in -600.0..600.0f64,
        cy in -600.0..600.0f64,
        r in 0.0..800.0f64,
    ) {
        let tree = VpTree::build(entries.clone());
        tree.check_invariants().map_err(TestCaseError::fail)?;
        let center = Point::new(cx, cy);
        prop_assert_eq!(
            ids(&tree.within_radius(&center, r)),
            ids(&brute_force_within(&entries, &center, r))
        );
    }

    #[test]
    fn kdtree_radius_equals_brute_force(
        entries in arb_entries(120),
        cx in -600.0..600.0f64,
        cy in -600.0..600.0f64,
        r in 0.0..800.0f64,
    ) {
        let tree = KdTree::build(entries.clone());
        tree.check_invariants().map_err(TestCaseError::fail)?;
        let center = Point::new(cx, cy);
        prop_assert_eq!(
            ids(&tree.within_radius(&center, r)),
            ids(&brute_force_within(&entries, &center, r))
        );
    }

    #[test]
    fn grid_radius_equals_brute_force(
        entries in arb_entries(120),
        cx in -600.0..600.0f64,
        cy in -600.0..600.0f64,
        r in 0.0..800.0f64,
        cell in 5.0..200.0f64,
    ) {
        let idx = GridIndex::build(&entries, cell);
        let center = Point::new(cx, cy);
        prop_assert_eq!(
            ids(&idx.within_radius(&center, r)),
            ids(&brute_force_within(&entries, &center, r))
        );
    }

    #[test]
    fn knn_distances_agree_across_indexes(
        entries in arb_entries(100),
        cx in -600.0..600.0f64,
        cy in -600.0..600.0f64,
        k in 1usize..12,
    ) {
        let center = Point::new(cx, cy);
        let want: Vec<f64> = brute_force_nearest(&entries, &center, k)
            .iter()
            .map(|n| n.distance)
            .collect();
        let got = RTree::bulk_load(entries).nearest(&center, k);
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((g.distance - w).abs() < 1e-9, "{} vs {}", g.distance, w);
        }
    }

    #[test]
    fn knn_results_sorted_by_distance(
        entries in arb_entries(100),
        k in 1usize..20,
    ) {
        let center = Point::origin();
        let nn = RTree::bulk_load(entries).nearest(&center, k);
        for w in nn.windows(2) {
            prop_assert!(w[0].distance <= w[1].distance);
        }
    }
}
