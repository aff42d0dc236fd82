//! An R-tree built by STR (sort-tile-recursive) bulk loading.
//!
//! This is the `pyrtree` stand-in for the paper's *metric space indexing*
//! baseline. Every window's tree is built once, from all its tuples, so STR
//! packing is the only way to build one. Points are stored in leaves; every
//! node keeps the tight bounding box of its subtree. Radius queries descend
//! only into nodes whose box intersects the query disk; k-NN uses
//! best-first search with the `mindist` lower bound.

use crate::{Entry, Neighbor, SpatialIndex};
use enviro_geo::{BoundingBox, Point};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Maximum number of entries/children per node.
pub const NODE_CAPACITY: usize = 8;

/// An R-tree over point [`Entry`]s.
///
/// ```
/// use enviro_geo::Point;
/// use enviro_index::{Entry, RTree, SpatialIndex};
///
/// let entries: Vec<Entry> = (0..100)
///     .map(|i| Entry::new(Point::new(i as f64, 0.0), i))
///     .collect();
/// let tree = RTree::bulk_load(entries);
/// assert_eq!(tree.within_radius(&Point::new(10.0, 0.0), 2.5).len(), 5);
/// assert_eq!(tree.nearest(&Point::new(42.4, 0.0), 1)[0].entry.id, 42);
/// ```
#[derive(Debug, Clone)]
pub struct RTree {
    root: Option<Node>,
    len: usize,
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        bbox: BoundingBox,
        entries: Vec<Entry>,
    },
    Inner {
        bbox: BoundingBox,
        children: Vec<Node>,
    },
}

impl Node {
    fn bbox(&self) -> &BoundingBox {
        match self {
            Node::Leaf { bbox, .. } | Node::Inner { bbox, .. } => bbox,
        }
    }

    fn depth(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Inner { children, .. } => 1 + children.first().map_or(0, Node::depth),
        }
    }
}

impl RTree {
    /// Bulk loads a tree using sort-tile-recursive (STR) packing.
    pub fn bulk_load(mut entries: Vec<Entry>) -> Self {
        assert!(
            entries.iter().all(|e| e.pos.is_finite()),
            "cannot index non-finite positions"
        );
        let len = entries.len();
        let mut level = if len == 0 {
            Vec::new()
        } else {
            str_pack_leaves(&mut entries)
        };
        // Pack upper levels until a single root remains.
        while level.len() > 1 {
            level = str_pack_inner(level);
        }
        let tree = Self {
            root: level.pop(),
            len,
        };
        debug_assert_eq!(tree.check_invariants(), Ok(()));
        tree
    }

    /// The bounding box of all indexed points.
    pub fn bounds(&self) -> BoundingBox {
        self.root
            .as_ref()
            .map_or(BoundingBox::empty(), |r| *r.bbox())
    }

    /// Tree height in levels (0 when empty, 1 for a single leaf).
    pub fn height(&self) -> usize {
        self.root.as_ref().map_or(0, Node::depth)
    }

    /// Checks the R-tree structural invariants; used by tests.
    ///
    /// Verifies (a) every node's box tightly bounds its subtree, (b) no node
    /// exceeds [`NODE_CAPACITY`] and none is empty (STR packing leaves the
    /// last node of a level partly filled, so there is no lower bound), and
    /// (c) all leaves sit at the same depth. Returns a description of the
    /// first violation.
    pub fn check_invariants(&self) -> Result<(), String> {
        let Some(root) = &self.root else {
            return if self.len == 0 {
                Ok(())
            } else {
                Err("empty tree with non-zero len".into())
            };
        };
        let mut leaf_depths = Vec::new();
        let counted = check_rec(root, 1, &mut leaf_depths)?;
        if counted != self.len {
            return Err(format!("len {} but counted {counted}", self.len));
        }
        if leaf_depths.windows(2).any(|w| w[0] != w[1]) {
            return Err(format!("leaves at differing depths: {leaf_depths:?}"));
        }
        Ok(())
    }

    /// The `k` nearest entries to `center`, closest first; ties broken by id.
    pub fn nearest(&self, center: &Point, k: usize) -> Vec<Neighbor> {
        let Some(root) = &self.root else {
            return Vec::new();
        };
        if k == 0 {
            return Vec::new();
        }
        // Best-first search over a min-heap keyed by mindist.
        #[derive(Debug)]
        enum Item<'a> {
            Node(&'a Node),
            Point(Entry),
        }
        struct HeapEntry<'a> {
            dist: f64,
            seq: u32,
            item: Item<'a>,
        }
        impl PartialEq for HeapEntry<'_> {
            fn eq(&self, other: &Self) -> bool {
                self.dist == other.dist && self.seq == other.seq
            }
        }
        impl Eq for HeapEntry<'_> {}
        impl PartialOrd for HeapEntry<'_> {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for HeapEntry<'_> {
            fn cmp(&self, other: &Self) -> Ordering {
                // Reverse for a min-heap; tie-break by seq (ids) for
                // deterministic output.
                other
                    .dist
                    .partial_cmp(&self.dist)
                    .expect("finite distances")
                    .then(other.seq.cmp(&self.seq))
            }
        }

        let mut heap = BinaryHeap::new();
        heap.push(HeapEntry {
            dist: root.bbox().min_distance(center),
            seq: 0,
            item: Item::Node(root),
        });
        let mut out = Vec::with_capacity(k.min(self.len));
        while let Some(HeapEntry { dist, item, .. }) = heap.pop() {
            match item {
                Item::Point(entry) => {
                    out.push(Neighbor {
                        entry,
                        distance: dist,
                    });
                    if out.len() == k {
                        break;
                    }
                }
                Item::Node(Node::Leaf { entries, .. }) => {
                    for e in entries {
                        heap.push(HeapEntry {
                            dist: e.pos.distance(center),
                            seq: e.id,
                            item: Item::Point(*e),
                        });
                    }
                }
                Item::Node(Node::Inner { children, .. }) => {
                    for c in children {
                        heap.push(HeapEntry {
                            dist: c.bbox().min_distance(center),
                            seq: 0,
                            item: Item::Node(c),
                        });
                    }
                }
            }
        }
        out
    }
}

impl SpatialIndex for RTree {
    fn len(&self) -> usize {
        self.len
    }

    fn for_each_within(&self, center: &Point, radius: f64, visit: &mut dyn FnMut(&Entry)) {
        let Some(root) = &self.root else { return };
        let r2 = radius * radius;
        radius_rec(root, center, radius, r2, visit);
    }
}

fn radius_rec(node: &Node, center: &Point, radius: f64, r2: f64, visit: &mut dyn FnMut(&Entry)) {
    if !node.bbox().intersects_circle(center, radius) {
        return;
    }
    match node {
        Node::Leaf { entries, .. } => {
            for e in entries {
                if e.pos.distance_sq(center) <= r2 {
                    visit(e);
                }
            }
        }
        Node::Inner { children, .. } => {
            for c in children {
                radius_rec(c, center, radius, r2, visit);
            }
        }
    }
}

/// STR leaf packing: sort by x, tile into vertical slabs (a multiple of
/// [`NODE_CAPACITY`] wide, so leaves never straddle slabs), sort each slab
/// by y, chop into full leaves.
fn str_pack_leaves(entries: &mut [Entry]) -> Vec<Node> {
    let slab_size = slab_size(entries.len());
    entries.sort_by(|a, b| a.pos.x.total_cmp(&b.pos.x));
    for slab in entries.chunks_mut(slab_size) {
        slab.sort_by(|a, b| a.pos.y.total_cmp(&b.pos.y));
    }
    entries
        .chunks(NODE_CAPACITY)
        .map(|chunk| Node::Leaf {
            bbox: BoundingBox::from_points(chunk.iter().map(|e| e.pos)),
            entries: chunk.to_vec(),
        })
        .collect()
}

/// STR packing of one upper level: the same tiling over child-box centers.
fn str_pack_inner(mut nodes: Vec<Node>) -> Vec<Node> {
    let n = nodes.len();
    let slab_size = slab_size(n);
    nodes.sort_by(|a, b| a.bbox().center().x.total_cmp(&b.bbox().center().x));
    for slab in nodes.chunks_mut(slab_size) {
        slab.sort_by(|a, b| a.bbox().center().y.total_cmp(&b.bbox().center().y));
    }
    // Slab width is a multiple of the capacity, so full chunks never
    // straddle a slab boundary; consume the nodes without cloning subtrees.
    let mut parents = Vec::with_capacity(n.div_ceil(NODE_CAPACITY));
    let mut iter = nodes.into_iter();
    loop {
        let children: Vec<Node> = iter.by_ref().take(NODE_CAPACITY).collect();
        if children.is_empty() {
            break;
        }
        parents.push(Node::Inner {
            bbox: children
                .iter()
                .fold(BoundingBox::empty(), |b, c| b.union(c.bbox())),
            children,
        });
    }
    parents
}

/// Items per STR slab when packing `n` items: √(node count) nodes' worth.
fn slab_size(n: usize) -> usize {
    let node_count = n.div_ceil(NODE_CAPACITY);
    (node_count as f64).sqrt().ceil() as usize * NODE_CAPACITY
}

fn check_rec(node: &Node, depth: usize, leaf_depths: &mut Vec<usize>) -> Result<usize, String> {
    match node {
        Node::Leaf { bbox, entries } => {
            if entries.is_empty() {
                return Err("empty leaf".into());
            }
            if entries.len() > NODE_CAPACITY {
                return Err(format!("leaf occupancy {} over capacity", entries.len()));
            }
            let tight = BoundingBox::from_points(entries.iter().map(|e| e.pos));
            if tight != *bbox {
                return Err("leaf bbox not tight".into());
            }
            leaf_depths.push(depth);
            Ok(entries.len())
        }
        Node::Inner { bbox, children } => {
            if children.is_empty() {
                return Err("empty inner node".into());
            }
            if children.len() > NODE_CAPACITY {
                return Err(format!("inner occupancy {} over capacity", children.len()));
            }
            let tight = children
                .iter()
                .fold(BoundingBox::empty(), |b, c| b.union(c.bbox()));
            if tight != *bbox {
                return Err("inner bbox not tight".into());
            }
            let mut count = 0;
            for c in children {
                count += check_rec(c, depth + 1, leaf_depths)?;
            }
            Ok(count)
        }
    }
}

impl enviro_memsize::DeepSize for RTree {
    fn heap_size(&self) -> usize {
        fn node_heap(node: &Node) -> usize {
            match node {
                Node::Leaf { entries, .. } => entries.capacity() * std::mem::size_of::<Entry>(),
                Node::Inner { children, .. } => {
                    children.capacity() * std::mem::size_of::<Node>()
                        + children.iter().map(node_heap).sum::<usize>()
                }
            }
        }
        // The root is stored inline in the Option (no Box), so only its
        // owned buffers count.
        self.root.as_ref().map_or(0, node_heap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{brute_force_nearest, brute_force_within};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_entries(n: usize, seed: u64) -> Vec<Entry> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                Entry::new(
                    Point::new(
                        rng.gen_range(-1000.0..1000.0),
                        rng.gen_range(-1000.0..1000.0),
                    ),
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
    fn empty_tree_queries() {
        let t = RTree::bulk_load(Vec::new());
        assert!(t.is_empty());
        assert_eq!(t.height(), 0);
        assert!(t.within_radius(&Point::origin(), 100.0).is_empty());
        assert!(t.nearest(&Point::origin(), 3).is_empty());
        t.check_invariants().unwrap();
    }

    #[test]
    fn bulk_load_radius_matches_brute_force() {
        let entries = random_entries(500, 3);
        let t = RTree::bulk_load(entries.clone());
        assert_eq!(t.len(), 500);
        t.check_invariants().unwrap();
        let center = Point::new(10.0, -20.0);
        for r in [0.0, 30.0, 150.0, 2_000.0] {
            let got = t.within_radius(&center, r);
            let want = brute_force_within(&entries, &center, r);
            assert_eq!(sorted_ids(&got), sorted_ids(&want), "radius {r}");
        }
    }

    #[test]
    fn bulk_load_small_inputs() {
        for n in [0usize, 1, 2, 7, 8, 9] {
            let entries = random_entries(n, 10 + n as u64);
            let t = RTree::bulk_load(entries.clone());
            assert_eq!(t.len(), n, "n={n}");
            t.check_invariants()
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
            let got = t.within_radius(&Point::origin(), 1e6);
            assert_eq!(got.len(), n);
        }
    }

    #[test]
    fn knn_matches_brute_force() {
        let entries = random_entries(400, 5);
        let t = RTree::bulk_load(entries.clone());
        let center = Point::new(123.0, -77.0);
        for k in [1, 5, 17, 400, 500] {
            let got = t.nearest(&center, k);
            let want = brute_force_nearest(&entries, &center, k);
            assert_eq!(got.len(), want.len(), "k={k}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.entry.id, w.entry.id, "k={k}");
                assert!((g.distance - w.distance).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn duplicate_positions_are_kept() {
        let p = Point::new(5.0, 5.0);
        let t = RTree::bulk_load((0..20).map(|id| Entry::new(p, id)).collect());
        assert_eq!(t.len(), 20);
        t.check_invariants().unwrap();
        assert_eq!(t.within_radius(&p, 0.0).len(), 20);
    }

    #[test]
    fn height_grows_logarithmically() {
        let t = RTree::bulk_load(random_entries(1_000, 7));
        // With cap 8: 1000 points → 125 leaves → ~16 inner → 2 → 1. Height ≈ 4.
        assert!(t.height() >= 3 && t.height() <= 5, "height {}", t.height());
    }

    #[test]
    fn bounds_covers_all_points() {
        let entries = random_entries(64, 8);
        let t = RTree::bulk_load(entries.clone());
        let b = t.bounds();
        for e in &entries {
            assert!(b.contains(&e.pos));
        }
    }

    #[test]
    #[should_panic(expected = "cannot index non-finite positions")]
    fn bulk_load_rejects_non_finite() {
        RTree::bulk_load(vec![Entry::new(Point::new(f64::NAN, 0.0), 0)]);
    }
}
