//! Standard k-means: k-means++ seeding and Lloyd iterations.

use enviro_geo::Point;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The outcome of a clustering run.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    /// Cluster centroids `µ_1..µ_k`.
    pub centroids: Vec<Point>,
    /// For each input point, the index of its centroid.
    pub assignment: Vec<usize>,
    /// Lloyd iterations actually performed.
    pub iterations: usize,
}

/// Cluster membership in counting-sort form: all member indices in one flat
/// vector plus per-cluster offsets.
///
/// Ad-KMN recomputes membership every split round, and the old Vec-of-Vecs
/// representation paid `k` growing allocations per call. This layout costs
/// two exact-sized allocations total and hands out each cluster as a slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterMembers {
    /// `offsets[c]..offsets[c + 1]` indexes cluster `c` in `indices`.
    offsets: Vec<usize>,
    /// Member indices, grouped by cluster, in input order within a cluster.
    indices: Vec<usize>,
}

impl ClusterMembers {
    /// Number of clusters.
    pub fn cluster_count(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// The member indices of cluster `c`, in input order.
    ///
    /// # Panics
    /// Panics when `c` is out of range.
    pub fn cluster(&self, c: usize) -> &[usize] {
        &self.indices[self.offsets[c]..self.offsets[c + 1]]
    }

    /// Iterates over the clusters as slices, in cluster order.
    pub fn iter(&self) -> impl Iterator<Item = &[usize]> + '_ {
        (0..self.cluster_count()).map(|c| self.cluster(c))
    }

    /// Total number of member indices across all clusters.
    pub fn total_len(&self) -> usize {
        self.indices.len()
    }
}

impl Clustering {
    /// The member indices of each cluster, in input order.
    pub fn members(&self) -> ClusterMembers {
        let k = self.centroids.len();
        // Counting sort: histogram, prefix-sum to starts, then place each
        // point while using `offsets[c]` as the cluster's write cursor.
        let mut offsets = vec![0usize; k + 1];
        for &c in &self.assignment {
            offsets[c + 1] += 1;
        }
        for c in 1..=k {
            offsets[c] += offsets[c - 1];
        }
        let mut indices = vec![0usize; self.assignment.len()];
        for (i, &c) in self.assignment.iter().enumerate() {
            indices[offsets[c]] = i;
            offsets[c] += 1;
        }
        // The cursors have advanced to each cluster's end, which is the
        // next cluster's start: shift right to restore the offsets.
        for c in (1..=k).rev() {
            offsets[c] = offsets[c - 1];
        }
        if let Some(first) = offsets.first_mut() {
            *first = 0;
        }
        ClusterMembers { offsets, indices }
    }

    /// Sum of squared distances from points to their centroids (inertia).
    pub fn inertia(&self, points: &[Point]) -> f64 {
        self.assignment
            .iter()
            .zip(points)
            .map(|(&c, p)| p.distance_sq(&self.centroids[c]))
            .sum()
    }
}

/// Namespace for the k-means entry points.
#[derive(Debug, Clone, Copy, Default)]
pub struct KMeans;

impl KMeans {
    /// Maximum Lloyd iterations per run.
    ///
    /// This and [`KMeans::SEED`] shape every fitted cover, which
    /// `core/tests/golden_cover.rs` pins: changing either needs a
    /// `COVER_FRAME_VERSION` bump in `enviro-net`.
    pub const MAX_ITERATIONS: usize = 50;

    /// Seed of the k-means++ initialization ("KMEA"); Ad-KMN seeds its
    /// split draws from it too.
    pub const SEED: u64 = 0x4B4D_4541;

    /// Runs k-means++ initialization followed by Lloyd iterations.
    ///
    /// `k` is clamped to the number of points; `k = 0` on non-empty input is
    /// a caller bug and panics. Empty input yields an empty clustering.
    pub fn fit(points: &[Point], k: usize) -> Clustering {
        if points.is_empty() {
            return Clustering {
                centroids: Vec::new(),
                assignment: Vec::new(),
                iterations: 0,
            };
        }
        assert!(k > 0, "k must be positive for non-empty input");
        let k = k.min(points.len());
        let mut rng = StdRng::seed_from_u64(Self::SEED);
        let centroids = kmeanspp_init(points, k, &mut rng);
        Self::lloyd(points, centroids)
    }

    /// Runs at most [`KMeans::MAX_ITERATIONS`] Lloyd iterations from explicit
    /// starting centroids — Ad-KMN's "re-estimate all the centroids" step
    /// after a split.
    ///
    /// Empty clusters are re-seeded at the point currently farthest from its
    /// assigned centroid, so the returned clustering always has exactly
    /// `centroids.len().min(points.len())` non-empty clusters.
    pub fn lloyd(points: &[Point], mut centroids: Vec<Point>) -> Clustering {
        if points.is_empty() {
            return Clustering {
                centroids: Vec::new(),
                assignment: Vec::new(),
                iterations: 0,
            };
        }
        centroids.truncate(points.len().max(1));
        assert!(!centroids.is_empty(), "need at least one centroid");
        let mut assignment = assign(points, &centroids);
        let mut iterations = 0;
        for _ in 0..Self::MAX_ITERATIONS {
            iterations += 1;
            // Update step: move each centroid to its members' mean.
            let k = centroids.len();
            let mut sums = vec![(0.0f64, 0.0f64, 0usize); k];
            for (p, &c) in points.iter().zip(&assignment) {
                sums[c].0 += p.x;
                sums[c].1 += p.y;
                sums[c].2 += 1;
            }
            for (c, &(sx, sy, n)) in centroids.iter_mut().zip(&sums) {
                if n > 0 {
                    *c = Point::new(sx / n as f64, sy / n as f64);
                }
            }
            // Re-seed empty clusters at the worst-served point.
            for ci in 0..k {
                if sums[ci].2 == 0 {
                    if let Some((far_idx, _)) = points
                        .iter()
                        .enumerate()
                        .map(|(i, p)| (i, p.distance_sq(&centroids[assignment[i]])))
                        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
                    {
                        centroids[ci] = points[far_idx];
                    }
                }
            }
            // Assignment step.
            let new_assignment = assign(points, &centroids);
            let converged = new_assignment == assignment;
            assignment = new_assignment;
            if converged {
                break;
            }
        }
        Clustering {
            centroids,
            assignment,
            iterations,
        }
    }
}

/// Index of the centroid nearest to `p` (ties: lowest index; 0 when there
/// are no centroids).
///
/// The crate's one nearest-centroid scan: k-means assignment runs it over
/// a centroid slice, and [`crate::ModelCover::nearest_region`] over a
/// cover's region centroids.
pub fn nearest_centroid<'a>(centroids: impl IntoIterator<Item = &'a Point>, p: &Point) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (i, c) in centroids.into_iter().enumerate() {
        let d = c.distance_sq(p);
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

fn assign(points: &[Point], centroids: &[Point]) -> Vec<usize> {
    points
        .iter()
        .map(|p| nearest_centroid(centroids, p))
        .collect()
}

/// k-means++ seeding: first centroid uniform, then each next centroid drawn
/// with probability proportional to squared distance from the nearest chosen
/// centroid.
fn kmeanspp_init(points: &[Point], k: usize, rng: &mut StdRng) -> Vec<Point> {
    let mut centroids = Vec::with_capacity(k);
    centroids.push(points[rng.gen_range(0..points.len())]);
    let mut dist2: Vec<f64> = points
        .iter()
        .map(|p| p.distance_sq(&centroids[0]))
        .collect();
    while centroids.len() < k {
        let total: f64 = dist2.iter().sum();
        let next = if total <= 0.0 {
            // All remaining points coincide with chosen centroids; any pick
            // works.
            points[rng.gen_range(0..points.len())]
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut chosen = points.len() - 1;
            for (i, &d) in dist2.iter().enumerate() {
                if target < d {
                    chosen = i;
                    break;
                }
                target -= d;
            }
            points[chosen]
        };
        centroids.push(next);
        for (d, p) in dist2.iter_mut().zip(points) {
            *d = d.min(p.distance_sq(&next));
        }
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three well-separated blobs of 20 points each.
    fn three_blobs() -> Vec<Point> {
        let mut pts = Vec::new();
        for (cx, cy) in [(0.0, 0.0), (100.0, 0.0), (50.0, 100.0)] {
            for i in 0..20 {
                let dx = (i % 5) as f64 - 2.0;
                let dy = (i / 5) as f64 - 2.0;
                pts.push(Point::new(cx + dx, cy + dy));
            }
        }
        pts
    }

    #[test]
    fn empty_input_empty_output() {
        let c = KMeans::fit(&[], 3);
        assert!(c.centroids.is_empty());
        assert!(c.assignment.is_empty());
    }

    #[test]
    fn k_clamped_to_point_count() {
        let pts = [Point::new(0.0, 0.0), Point::new(1.0, 1.0)];
        let c = KMeans::fit(&pts, 10);
        assert!(c.centroids.len() <= 2);
        assert_eq!(c.assignment.len(), 2);
    }

    #[test]
    fn separates_well_separated_blobs() {
        let pts = three_blobs();
        let c = KMeans::fit(&pts, 3);
        assert_eq!(c.centroids.len(), 3);
        // Each blob must map to a single cluster.
        for blob in 0..3 {
            let first = c.assignment[blob * 20];
            for i in 0..20 {
                assert_eq!(c.assignment[blob * 20 + i], first, "blob {blob}");
            }
        }
        // And the three clusters must be distinct.
        let mut ids: Vec<usize> = (0..3).map(|b| c.assignment[b * 20]).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 3);
    }

    #[test]
    fn assignment_is_nearest_centroid() {
        let pts = three_blobs();
        let c = KMeans::fit(&pts, 3);
        for (p, &a) in pts.iter().zip(&c.assignment) {
            assert_eq!(a, nearest_centroid(&c.centroids, p));
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let pts = three_blobs();
        let a = KMeans::fit(&pts, 3);
        let b = KMeans::fit(&pts, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let pts = three_blobs();
        let c1 = KMeans::fit(&pts, 1);
        let c3 = KMeans::fit(&pts, 3);
        assert!(c3.inertia(&pts) < c1.inertia(&pts));
    }

    #[test]
    fn k_equals_one_centroid_is_mean() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(1.0, 3.0),
        ];
        let c = KMeans::fit(&pts, 1);
        assert!((c.centroids[0].x - 1.0).abs() < 1e-9);
        assert!((c.centroids[0].y - 1.0).abs() < 1e-9);
    }

    #[test]
    fn identical_points_do_not_crash() {
        let pts = vec![Point::new(5.0, 5.0); 10];
        let c = KMeans::fit(&pts, 3);
        assert_eq!(c.assignment.len(), 10);
        assert!(c.assignment.iter().all(|&a| a < c.centroids.len()));
    }

    #[test]
    fn lloyd_from_explicit_seeds() {
        let pts = three_blobs();
        let seeds = vec![
            Point::new(-10.0, -10.0),
            Point::new(110.0, 10.0),
            Point::new(50.0, 110.0),
        ];
        let c = KMeans::lloyd(&pts, seeds);
        // Should converge to (approximately) the blob centers.
        let mut xs: Vec<f64> = c.centroids.iter().map(|p| p.x).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((xs[0] - 0.0).abs() < 2.0);
        assert!((xs[1] - 50.0).abs() < 2.0);
        assert!((xs[2] - 100.0).abs() < 2.0);
    }

    #[test]
    fn lloyd_reseeds_empty_clusters() {
        let pts = three_blobs();
        // Two seeds on top of each other far away: one will end up empty
        // and must be re-seeded rather than lost.
        let seeds = vec![Point::new(0.0, 0.0), Point::new(0.0, 0.0)];
        let c = KMeans::lloyd(&pts, seeds);
        let members = c.members();
        assert!(members.iter().all(|m| !m.is_empty()), "{members:?}");
    }

    #[test]
    fn members_partition_input() {
        let pts = three_blobs();
        let c = KMeans::fit(&pts, 3);
        let members = c.members();
        let total: usize = members.iter().map(<[usize]>::len).sum();
        assert_eq!(total, pts.len());
        assert_eq!(members.total_len(), pts.len());
    }

    #[test]
    fn members_match_assignment_in_input_order() {
        let pts = three_blobs();
        let c = KMeans::fit(&pts, 3);
        let members = c.members();
        assert_eq!(members.cluster_count(), c.centroids.len());
        for (cluster, m) in members.iter().enumerate() {
            assert!(m.windows(2).all(|w| w[0] < w[1]), "input order violated");
            for &i in m {
                assert_eq!(c.assignment[i], cluster);
            }
        }
    }

    #[test]
    fn members_of_empty_clustering() {
        let c = KMeans::fit(&[], 3);
        let members = c.members();
        assert_eq!(members.cluster_count(), 0);
        assert_eq!(members.total_len(), 0);
        assert!(members.iter().next().is_none());
    }

    #[test]
    fn nearest_centroid_tie_breaks_low_index() {
        let cs = [Point::new(-1.0, 0.0), Point::new(1.0, 0.0)];
        assert_eq!(nearest_centroid(&cs, &Point::origin()), 0);
    }
}
