//! A vantage-point tree (metric-space index).
//!
//! The VP-tree partitions entries by distance to a *vantage point*: the
//! median distance µ splits the remaining items into an inner ball
//! (`d < µ`) and an outer shell (`d ≥ µ`). Radius searches prune a side
//! whenever the triangle inequality proves it cannot contain a match.
//!
//! The layout is the textbook one — one heap-allocated node per entry —
//! which is exactly why the paper's Figure 7(a) finds the VP-tree to be the
//! most memory-hungry representation. We keep that layout deliberately (see
//! DESIGN.md) rather than flattening it into an arena.

use crate::{Entry, SpatialIndex};
use enviro_geo::Point;

/// A static vantage-point tree over point [`Entry`]s.
///
/// The tree is built once per window ([`VpTree::build`]); the LCSN workload
/// never mutates a window in place, so no insert/delete is provided.
///
/// ```
/// use enviro_geo::Point;
/// use enviro_index::{Entry, SpatialIndex, VpTree};
///
/// let entries: Vec<Entry> = (0..50)
///     .map(|i| Entry::new(Point::new(0.0, i as f64 * 10.0), i))
///     .collect();
/// let tree = VpTree::build(entries);
/// // y = 100 is 2.5 m away; the next sample (y = 110) is 7.5 m away.
/// assert_eq!(tree.within_radius(&Point::new(0.0, 102.5), 5.0).len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct VpTree {
    root: Option<Box<VpNode>>,
    len: usize,
}

/// One node: a vantage entry, the median radius, and the two subtrees.
#[derive(Debug, Clone)]
pub(crate) struct VpNode {
    pub(crate) vantage: Entry,
    /// Median distance from `vantage` to the items below it; items strictly
    /// closer go `inner`, the rest `outer`. Zero for leaves.
    pub(crate) mu: f64,
    pub(crate) inner: Option<Box<VpNode>>,
    pub(crate) outer: Option<Box<VpNode>>,
}

impl VpTree {
    /// Builds a VP-tree from entries.
    ///
    /// Deterministic: the vantage point of each subtree is its first entry
    /// in the incoming order (after earlier partitioning), so equal inputs
    /// give equal trees.
    pub fn build(mut entries: Vec<Entry>) -> Self {
        assert!(
            entries.iter().all(|e| e.pos.is_finite()),
            "cannot index non-finite positions"
        );
        let len = entries.len();
        let root = build_rec(&mut entries);
        let tree = Self { root, len };
        debug_assert_eq!(tree.check_invariants(), Ok(()));
        tree
    }

    /// Tree height (0 when empty).
    pub fn height(&self) -> usize {
        fn h(n: &Option<Box<VpNode>>) -> usize {
            n.as_ref().map_or(0, |n| 1 + h(&n.inner).max(h(&n.outer)))
        }
        h(&self.root)
    }

    /// Checks the VP-tree invariant: every descendant in `inner` is strictly
    /// closer to the vantage than `mu`, every descendant in `outer` at least
    /// `mu` away.
    pub fn check_invariants(&self) -> Result<(), String> {
        fn collect(n: &Option<Box<VpNode>>, out: &mut Vec<Entry>) {
            if let Some(n) = n {
                out.push(n.vantage);
                collect(&n.inner, out);
                collect(&n.outer, out);
            }
        }
        fn check(n: &Option<Box<VpNode>>) -> Result<usize, String> {
            let Some(node) = n else { return Ok(0) };
            let mut inner_items = Vec::new();
            collect(&node.inner, &mut inner_items);
            let mut outer_items = Vec::new();
            collect(&node.outer, &mut outer_items);
            for e in &inner_items {
                let d = e.pos.distance(&node.vantage.pos);
                if d >= node.mu {
                    return Err(format!(
                        "inner item {} at distance {d} >= mu {}",
                        e.id, node.mu
                    ));
                }
            }
            for e in &outer_items {
                let d = e.pos.distance(&node.vantage.pos);
                if d < node.mu {
                    return Err(format!(
                        "outer item {} at distance {d} < mu {}",
                        e.id, node.mu
                    ));
                }
            }
            Ok(1 + check(&node.inner)? + check(&node.outer)?)
        }
        let counted = check(&self.root)?;
        if counted != self.len {
            return Err(format!("len {} but counted {counted}", self.len));
        }
        Ok(())
    }
}

impl SpatialIndex for VpTree {
    fn len(&self) -> usize {
        self.len
    }

    fn for_each_within(&self, center: &Point, radius: f64, visit: &mut dyn FnMut(&Entry)) {
        fn rec(
            n: &Option<Box<VpNode>>,
            center: &Point,
            radius: f64,
            visit: &mut dyn FnMut(&Entry),
        ) {
            let Some(node) = n else { return };
            let d = node.vantage.pos.distance(center);
            if d <= radius {
                visit(&node.vantage);
            }
            // Triangle-inequality pruning:
            // inner holds items with dist-to-vantage < mu; it can contain a
            // match only if d - radius < mu.
            if d - radius < node.mu {
                rec(&node.inner, center, radius, visit);
            }
            // outer holds items with dist-to-vantage >= mu; reachable only
            // if d + radius >= mu.
            if d + radius >= node.mu {
                rec(&node.outer, center, radius, visit);
            }
        }
        rec(&self.root, center, radius, visit);
    }
}

/// Recursive build: first entry is the vantage; the rest are partitioned
/// around the median distance.
fn build_rec(items: &mut Vec<Entry>) -> Option<Box<VpNode>> {
    let vantage = items.pop()?;
    if items.is_empty() {
        return Some(Box::new(VpNode {
            vantage,
            mu: 0.0,
            inner: None,
            outer: None,
        }));
    }
    // Median split by distance to the vantage.
    let mid = items.len() / 2;
    items.select_nth_unstable_by(mid, |a, b| {
        a.pos
            .distance_sq(&vantage.pos)
            .partial_cmp(&b.pos.distance_sq(&vantage.pos))
            .expect("finite distances")
    });
    let mu = items[mid].pos.distance(&vantage.pos);
    // Items strictly closer than mu go inner; the rest (>= mu) outer. The
    // median element itself goes outer, guaranteeing the outer side is
    // non-empty and the recursion shrinks.
    let mut outer: Vec<Entry> = items.split_off(mid);
    let mut inner = std::mem::take(items);
    // select_nth puts <=-ish elements left, but ties with mu may land on
    // either side; normalize so the invariant (inner < mu <= outer) holds.
    let mut i = 0;
    while i < inner.len() {
        if inner[i].pos.distance(&vantage.pos) >= mu {
            outer.push(inner.swap_remove(i));
        } else {
            i += 1;
        }
    }
    Some(Box::new(VpNode {
        vantage,
        mu,
        inner: build_rec(&mut inner),
        outer: build_rec(&mut outer),
    }))
}

impl enviro_memsize::DeepSize for VpTree {
    fn heap_size(&self) -> usize {
        fn node_heap(node: &Option<Box<VpNode>>) -> usize {
            node.as_ref().map_or(0, |n| {
                std::mem::size_of::<VpNode>() + node_heap(&n.inner) + node_heap(&n.outer)
            })
        }
        node_heap(&self.root)
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
        let t = VpTree::build(Vec::new());
        assert!(t.is_empty());
        assert_eq!(t.height(), 0);
        assert!(t.within_radius(&Point::origin(), 10.0).is_empty());
        t.check_invariants().unwrap();
    }

    #[test]
    fn single_entry() {
        let t = VpTree::build(vec![Entry::new(Point::new(1.0, 1.0), 0)]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.within_radius(&Point::origin(), 2.0).len(), 1);
        assert!(t.within_radius(&Point::origin(), 1.0).is_empty());
        t.check_invariants().unwrap();
    }

    #[test]
    fn invariants_hold_on_random_data() {
        for seed in 0..5 {
            let t = VpTree::build(random_entries(200, seed));
            t.check_invariants()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn radius_matches_brute_force() {
        let entries = random_entries(400, 11);
        let t = VpTree::build(entries.clone());
        for r in [0.0, 25.0, 120.0, 1_500.0] {
            let center = Point::new(40.0, -60.0);
            let got = t.within_radius(&center, r);
            let want = brute_force_within(&entries, &center, r);
            assert_eq!(sorted_ids(&got), sorted_ids(&want), "radius {r}");
        }
    }

    #[test]
    fn radius_boundary_inclusive() {
        let entries = vec![
            Entry::new(Point::new(3.0, 4.0), 0), // exactly 5 from origin
            Entry::new(Point::new(10.0, 0.0), 1),
        ];
        let t = VpTree::build(entries);
        assert_eq!(t.within_radius(&Point::origin(), 5.0).len(), 1);
    }

    #[test]
    fn duplicate_positions_kept() {
        let p = Point::new(7.0, -7.0);
        let entries: Vec<Entry> = (0..25).map(|i| Entry::new(p, i)).collect();
        let t = VpTree::build(entries);
        assert_eq!(t.len(), 25);
        t.check_invariants().unwrap();
        assert_eq!(t.within_radius(&p, 0.0).len(), 25);
    }

    #[test]
    fn height_reasonable_for_balanced_build() {
        let t = VpTree::build(random_entries(1024, 13));
        // Median splits give height ~log2(n) = 10; allow generous slack for
        // tie-normalization imbalance.
        assert!(t.height() <= 26, "height {}", t.height());
    }

    #[test]
    fn build_deterministic() {
        let entries = random_entries(100, 14);
        let a = VpTree::build(entries.clone());
        let b = VpTree::build(entries);
        let qa = a.within_radius(&Point::origin(), 200.0);
        let qb = b.within_radius(&Point::origin(), 200.0);
        assert_eq!(qa.len(), qb.len());
        for (x, y) in qa.iter().zip(&qb) {
            assert_eq!(x.id, y.id);
        }
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn build_rejects_nan() {
        VpTree::build(vec![Entry::new(Point::new(0.0, f64::NAN), 0)]);
    }
}
