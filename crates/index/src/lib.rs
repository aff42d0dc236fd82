//! Metric-space indexes for EnviroMeter's baseline query-processing methods.
//!
//! The paper's *metric space indexing* method answers radius queries over the
//! raw tuples of a window through an index instead of an exhaustive scan
//! (§2.2). It evaluates two indexes — an R-tree and a VP-tree — which this
//! crate implements from scratch, plus a k-d tree and a uniform grid index as
//! additional baselines. Each is built once per window and answers radius
//! queries:
//!
//! * [`RTree`] — an R-tree built by STR (sort-tile-recursive) bulk loading.
//!   It also answers best-first k-NN queries ([`RTree::nearest`]), which the
//!   IDW interpolation baseline uses.
//! * [`VpTree`] — vantage-point tree with median splits. Deliberately built
//!   with one heap allocation per node — the textbook layout — which is also
//!   what makes its memory footprint the largest in Figure 7(a).
//! * [`KdTree`] — balanced k-d tree in a flat arena: the most compact of
//!   the three trees, with median splits on alternating axes.
//! * [`GridIndex`] — uniform-cell bucketing, the simplest spatial hash.
//!
//! All indexes implement [`SpatialIndex`] over [`Entry`] items (a position
//! plus an opaque `u32` id referencing the raw tuple in its window), so the
//! query layer can treat them interchangeably.

#![forbid(unsafe_code)]
// Panic-prone sites in this crate are legacy debt tracked by the xtask
// panic ratchet (crates/xtask/panic-baseline.toml): counts may only go
// down. The clippy warn-level lints stay crate-allowed until the burn-down
// reaches zero; prefer typed errors in new code.
#![allow(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod grid_index;
pub mod kdtree;
pub mod rtree;
pub mod vptree;

pub use grid_index::GridIndex;
pub use kdtree::KdTree;
pub use rtree::RTree;
pub use vptree::VpTree;

use enviro_geo::Point;

/// One indexed item: a position and the id of the raw tuple it stands for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Entry {
    /// Sampling position of the tuple.
    pub pos: Point,
    /// Opaque identifier (the tuple's offset inside its window).
    pub id: u32,
}

impl enviro_memsize::DeepSize for Entry {
    #[inline]
    fn heap_size(&self) -> usize {
        0
    }
}

impl Entry {
    /// Creates an entry.
    #[inline]
    pub const fn new(pos: Point, id: u32) -> Self {
        Self { pos, id }
    }
}

/// A neighbour returned by [`RTree::nearest`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// The matching entry.
    pub entry: Entry,
    /// Its distance from the query point, in meters.
    pub distance: f64,
}

/// The operations the query layer needs from a spatial index.
pub trait SpatialIndex {
    /// Number of indexed entries.
    fn len(&self) -> usize;

    /// `true` if no entries are indexed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Calls `visit` for every entry within `radius` of `center`
    /// (boundary inclusive).
    fn for_each_within(&self, center: &Point, radius: f64, visit: &mut dyn FnMut(&Entry));

    /// Collects the entries within `radius` of `center`.
    ///
    /// Order is index-specific; callers needing determinism should sort.
    fn within_radius(&self, center: &Point, radius: f64) -> Vec<Entry> {
        let mut out = Vec::new();
        self.for_each_within(center, radius, &mut |e| out.push(*e));
        out
    }
}

/// Reference implementation used by tests and the paper's naïve method:
/// a linear scan over a slice of entries.
pub fn brute_force_within(entries: &[Entry], center: &Point, radius: f64) -> Vec<Entry> {
    let r2 = radius * radius;
    entries
        .iter()
        .filter(|e| e.pos.distance_sq(center) <= r2)
        .copied()
        .collect()
}

/// Reference k-NN by full sort; closest first, ties by id.
pub fn brute_force_nearest(entries: &[Entry], center: &Point, k: usize) -> Vec<Neighbor> {
    let mut all: Vec<Neighbor> = entries
        .iter()
        .map(|e| Neighbor {
            entry: *e,
            distance: e.pos.distance(center),
        })
        .collect();
    all.sort_by(|a, b| {
        a.distance
            .partial_cmp(&b.distance)
            .expect("finite distances")
            .then(a.entry.id.cmp(&b.entry.id))
    });
    all.truncate(k);
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brute_force_within_includes_boundary() {
        let entries = [
            Entry::new(Point::new(0.0, 0.0), 0),
            Entry::new(Point::new(3.0, 4.0), 1), // exactly 5 away
            Entry::new(Point::new(6.0, 0.0), 2),
        ];
        let hits = brute_force_within(&entries, &Point::origin(), 5.0);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn brute_force_nearest_orders_and_breaks_ties_by_id() {
        let entries = [
            Entry::new(Point::new(1.0, 0.0), 5),
            Entry::new(Point::new(-1.0, 0.0), 2),
            Entry::new(Point::new(3.0, 0.0), 1),
        ];
        let nn = brute_force_nearest(&entries, &Point::origin(), 3);
        assert_eq!(nn[0].entry.id, 2); // tie at distance 1 → lower id first
        assert_eq!(nn[1].entry.id, 5);
        assert_eq!(nn[2].entry.id, 1);
    }

    #[test]
    fn brute_force_nearest_truncates_to_k() {
        let entries = [
            Entry::new(Point::new(1.0, 0.0), 0),
            Entry::new(Point::new(2.0, 0.0), 1),
        ];
        assert_eq!(brute_force_nearest(&entries, &Point::origin(), 1).len(), 1);
        assert_eq!(brute_force_nearest(&entries, &Point::origin(), 9).len(), 2);
    }
}
