//! A uniform grid index (spatial hashing baseline).
//!
//! Not evaluated in the paper, but the natural third baseline between the
//! naïve scan and the tree indexes: bucket every entry by grid cell, answer
//! a radius query by scanning only the cells the disk touches. Cheap to
//! build, cheap to store, and competitive when data density is uniform —
//! which LCSN data is decidedly *not*, making it a useful ablation.

use crate::{Entry, SpatialIndex};
use enviro_geo::{BoundingBox, Grid, Point};

/// A uniform grid over the data extent, with per-cell entry buckets.
#[derive(Debug, Clone)]
pub struct GridIndex {
    grid: Option<Grid>,
    /// Buckets in row-major flat order; empty when `grid` is `None`.
    buckets: Vec<Vec<Entry>>,
    len: usize,
}

impl GridIndex {
    /// Builds an index with cells of `cell_size` meters over the entries'
    /// bounding box (padded slightly so boundary points fall inside).
    pub fn build(entries: &[Entry], cell_size: f64) -> Self {
        assert!(cell_size > 0.0, "cell size must be positive");
        assert!(
            entries.iter().all(|e| e.pos.is_finite()),
            "cannot index non-finite positions"
        );
        if entries.is_empty() {
            return Self {
                grid: None,
                buckets: Vec::new(),
                len: 0,
            };
        }
        let extent = BoundingBox::from_points(entries.iter().map(|e| e.pos)).padded(1e-9);
        let grid = Grid::with_cell_size(extent, cell_size);
        let mut buckets = vec![Vec::new(); grid.len()];
        for e in entries {
            let cell = grid
                .cell_of(&e.pos)
                .expect("entry inside padded extent by construction");
            buckets[grid.flat_index(cell)].push(*e);
        }
        Self {
            grid: Some(grid),
            buckets,
            len: entries.len(),
        }
    }
}

impl SpatialIndex for GridIndex {
    fn len(&self) -> usize {
        self.len
    }

    fn for_each_within(&self, center: &Point, radius: f64, visit: &mut dyn FnMut(&Entry)) {
        let Some(grid) = &self.grid else { return };
        let r2 = radius * radius;
        // Stream the candidate cells: a Vec of cell ids here would be the
        // only per-query allocation in the radius-scan hot path.
        grid.for_each_cell_in_radius(center, radius, &mut |cell| {
            for e in &self.buckets[grid.flat_index(cell)] {
                if e.pos.distance_sq(center) <= r2 {
                    visit(e);
                }
            }
        });
    }
}

impl enviro_memsize::DeepSize for GridIndex {
    fn heap_size(&self) -> usize {
        self.buckets.capacity() * std::mem::size_of::<Vec<Entry>>()
            + self
                .buckets
                .iter()
                .map(|b| b.capacity() * std::mem::size_of::<Entry>())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute_force_within;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_entries(n: usize, seed: u64) -> Vec<Entry> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                Entry::new(
                    Point::new(rng.gen_range(-300.0..300.0), rng.gen_range(-300.0..300.0)),
                    i as u32,
                )
            })
            .collect()
    }

    fn sorted_ids(entries: &[Entry]) -> Vec<u32> {
        let mut ids: Vec<u32> = entries.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn empty_index() {
        let idx = GridIndex::build(&[], 10.0);
        assert!(idx.is_empty());
        assert!(idx.within_radius(&Point::origin(), 100.0).is_empty());
    }

    #[test]
    fn radius_matches_brute_force() {
        let entries = random_entries(500, 21);
        let idx = GridIndex::build(&entries, 25.0);
        for r in [0.0, 10.0, 80.0, 900.0] {
            let center = Point::new(-40.0, 95.0);
            let got = idx.within_radius(&center, r);
            let want = brute_force_within(&entries, &center, r);
            assert_eq!(sorted_ids(&got), sorted_ids(&want), "radius {r}");
        }
    }

    #[test]
    fn radius_query_far_outside_extent() {
        let entries = random_entries(100, 22);
        let idx = GridIndex::build(&entries, 50.0);
        let far = Point::new(10_000.0, 10_000.0);
        assert!(idx.within_radius(&far, 10.0).is_empty());
        // But a big enough radius still reaches the data.
        let all = idx.within_radius(&far, 20_000.0);
        assert_eq!(all.len(), 100);
    }

    #[test]
    fn single_point_and_boundary() {
        let entries = vec![Entry::new(Point::new(1.0, 1.0), 0)];
        let idx = GridIndex::build(&entries, 10.0);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.within_radius(&Point::new(1.0, 1.0), 0.0).len(), 1);
    }

    #[test]
    fn identical_points_single_cell() {
        let p = Point::new(3.0, 3.0);
        let entries: Vec<Entry> = (0..10).map(|i| Entry::new(p, i)).collect();
        let idx = GridIndex::build(&entries, 5.0);
        assert_eq!(idx.within_radius(&p, 0.0).len(), 10);
    }
}
