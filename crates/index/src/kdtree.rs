//! A static k-d tree over points, stored *implicitly* in one flat array.
//!
//! The third member of the paper's "metric space index (e.g., R-tree or
//! VP-tree)" family. Built once per window by recursive median selection on
//! alternating axes; the tree structure is **implicit**: the subtree for
//! range `[lo, hi)` has its splitting entry at `mid = (lo + hi) / 2` with
//! axis `depth % 2`, so no node struct, no child pointers — the whole index
//! is one `Vec<Entry>` (24 bytes per point), making it the most compact of
//! the three trees for Figure 7(a)-style comparisons.
//!
//! Duplicate coordinates may land on either side of their median, so the
//! descent conditions are inclusive on both sides — conservative descent is
//! always correct because leaves check true distances.

use crate::{Entry, SpatialIndex};
use enviro_geo::Point;

/// A balanced, implicitly laid-out k-d tree over point [`Entry`]s.
///
/// ```
/// use enviro_geo::Point;
/// use enviro_index::{Entry, KdTree, SpatialIndex};
///
/// let entries: Vec<Entry> = (0..64)
///     .map(|i| Entry::new(Point::new((i % 8) as f64, (i / 8) as f64), i))
///     .collect();
/// let tree = KdTree::build(entries);
/// assert_eq!(tree.within_radius(&Point::new(3.0, 3.0), 1.0).len(), 5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct KdTree {
    entries: Vec<Entry>,
}

#[inline]
fn coord(p: &Point, axis: usize) -> f64 {
    if axis == 0 {
        p.x
    } else {
        p.y
    }
}

impl KdTree {
    /// Builds a balanced tree by recursive median selection.
    pub fn build(mut entries: Vec<Entry>) -> Self {
        assert!(
            entries.iter().all(|e| e.pos.is_finite()),
            "cannot index non-finite positions"
        );
        build_rec(&mut entries, 0);
        let tree = Self { entries };
        debug_assert_eq!(tree.check_invariants(), Ok(()));
        tree
    }

    /// Tree height: `ceil(log2(n + 1))` by construction (0 when empty).
    pub fn height(&self) -> usize {
        (usize::BITS - self.entries.len().leading_zeros()) as usize
    }

    /// Checks the (tie-tolerant) k-d layout invariant: within every range,
    /// the left half is ≤ the median coordinate and the right half ≥ it on
    /// the range's axis.
    pub fn check_invariants(&self) -> Result<(), String> {
        fn check(entries: &[Entry], depth: usize) -> Result<(), String> {
            if entries.len() <= 1 {
                return Ok(());
            }
            let axis = depth % 2;
            let mid = entries.len() / 2;
            let split = coord(&entries[mid].pos, axis);
            for e in &entries[..mid] {
                if coord(&e.pos, axis) > split {
                    return Err(format!("left item {} above split on axis {axis}", e.id));
                }
            }
            for e in &entries[mid + 1..] {
                if coord(&e.pos, axis) < split {
                    return Err(format!("right item {} below split on axis {axis}", e.id));
                }
            }
            check(&entries[..mid], depth + 1)?;
            check(&entries[mid + 1..], depth + 1)
        }
        check(&self.entries, 0)
    }
}

impl SpatialIndex for KdTree {
    fn len(&self) -> usize {
        self.entries.len()
    }

    fn for_each_within(&self, center: &Point, radius: f64, visit: &mut dyn FnMut(&Entry)) {
        fn rec(
            entries: &[Entry],
            depth: usize,
            center: &Point,
            radius: f64,
            r2: f64,
            visit: &mut dyn FnMut(&Entry),
        ) {
            if entries.is_empty() {
                return;
            }
            let axis = depth % 2;
            let mid = entries.len() / 2;
            let node = &entries[mid];
            if node.pos.distance_sq(center) <= r2 {
                visit(node);
            }
            let split = coord(&node.pos, axis);
            let c = coord(center, axis);
            if c - radius <= split {
                rec(&entries[..mid], depth + 1, center, radius, r2, visit);
            }
            if c + radius >= split {
                rec(&entries[mid + 1..], depth + 1, center, radius, r2, visit);
            }
        }
        rec(&self.entries, 0, center, radius, radius * radius, visit);
    }
}

impl enviro_memsize::DeepSize for KdTree {
    fn heap_size(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<Entry>()
    }
}

/// Recursively arranges `items` into the implicit layout: median at the
/// middle, lesser-or-equal coordinates left, greater-or-equal right.
fn build_rec(items: &mut [Entry], depth: usize) {
    if items.len() <= 1 {
        return;
    }
    let axis = depth % 2;
    let mid = items.len() / 2;
    items.select_nth_unstable_by(mid, |a, b| {
        coord(&a.pos, axis)
            .partial_cmp(&coord(&b.pos, axis))
            .expect("finite coordinates")
    });
    let (left, rest) = items.split_at_mut(mid);
    build_rec(left, depth + 1);
    build_rec(&mut rest[1..], depth + 1);
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
                    Point::new(rng.gen_range(-500.0..500.0), rng.gen_range(-500.0..500.0)),
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
    fn empty_tree() {
        let t = KdTree::build(Vec::new());
        assert!(t.is_empty());
        assert_eq!(t.height(), 0);
        assert!(t.within_radius(&Point::origin(), 100.0).is_empty());
        t.check_invariants().unwrap();
    }

    #[test]
    fn invariants_on_random_data() {
        for seed in 0..5 {
            let t = KdTree::build(random_entries(300, seed));
            t.check_invariants()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn radius_matches_brute_force() {
        let entries = random_entries(400, 41);
        let t = KdTree::build(entries.clone());
        for r in [0.0, 30.0, 150.0, 1_500.0] {
            let center = Point::new(12.0, -77.0);
            assert_eq!(
                sorted_ids(&t.within_radius(&center, r)),
                sorted_ids(&brute_force_within(&entries, &center, r)),
                "radius {r}"
            );
        }
    }

    #[test]
    fn duplicate_coordinates_kept_and_found() {
        let p = Point::new(1.0, 2.0);
        let entries: Vec<Entry> = (0..20).map(|i| Entry::new(p, i)).collect();
        let t = KdTree::build(entries);
        t.check_invariants().unwrap();
        assert_eq!(t.len(), 20);
        assert_eq!(t.within_radius(&p, 0.0).len(), 20);
    }

    #[test]
    fn collinear_points_on_axis() {
        // All on one vertical line: x-splits degenerate, y-splits carry.
        let entries: Vec<Entry> = (0..50)
            .map(|i| Entry::new(Point::new(5.0, i as f64), i))
            .collect();
        let t = KdTree::build(entries.clone());
        t.check_invariants().unwrap();
        let got = t.within_radius(&Point::new(5.0, 25.0), 3.0);
        assert_eq!(got.len(), 7); // y in 22..=28
    }

    #[test]
    fn height_is_logarithmic() {
        let t = KdTree::build(random_entries(1_024, 43));
        assert_eq!(t.height(), 11); // ceil(log2(1025))
    }

    #[test]
    fn implicit_layout_is_the_most_compact_tree() {
        use enviro_memsize::DeepSize;
        let entries = random_entries(1_000, 44);
        let kd = KdTree::build(entries.clone());
        let rt = crate::RTree::bulk_load(entries.clone());
        let vp = crate::VpTree::build(entries);
        assert!(kd.deep_size_of() < rt.deep_size_of());
        assert!(kd.deep_size_of() < vp.deep_size_of());
        // Exactly one Entry per point, nothing else.
        assert!(kd.heap_size() <= 1_000 * std::mem::size_of::<Entry>());
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn build_rejects_nan() {
        KdTree::build(vec![Entry::new(Point::new(f64::NAN, 0.0), 0)]);
    }
}
