//! Inverse-distance-weighted (IDW) interpolation — an extension baseline.
//!
//! The paper's raw-data methods average *uniformly* within radius `r`,
//! which wastes the distance information the radius search already
//! computed. IDW (Shepard interpolation) weights the `k` nearest tuples by
//! `1/dᵖ` instead, answering every query for which *any* data exists. Not
//! part of the paper — included as the natural "stronger raw-data
//! baseline" an adopter would ask about (see the `abl-interp` ablation).

use enviro_data::{QueryTuple, RawTuple};
use enviro_index::RTree;

/// Number of neighbours interpolated over.
const K: usize = 8;

/// Distance exponent `p` (2 is Shepard's classic choice).
const POWER: f64 = 2.0;

/// Interpolates the value at `q` from the [`K`] tuples nearest to it,
/// found through `tree`, an R-tree over the window `tuples` (entry id =
/// offset in `tuples`). `None` only for an empty window.
pub(super) fn idw(tree: &RTree, tuples: &[RawTuple], q: &QueryTuple) -> Option<f64> {
    let neighbors = tree.nearest(&q.pos, K);
    let nearest = neighbors.first()?;
    // A (near-)exact hit dominates all weights; return it directly to
    // avoid dividing by ~0.
    if nearest.distance < 1e-9 {
        return Some(tuples[nearest.entry.id as usize].value);
    }
    let mut num = 0.0;
    let mut den = 0.0;
    for n in &neighbors {
        let w = n.distance.powf(-POWER);
        num += w * tuples[n.entry.id as usize].value;
        den += w;
    }
    Some(num / den)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::indexed::entries;
    use enviro_data::Timestamp;
    use enviro_geo::Point;

    fn tup(x: f64, y: f64, v: f64) -> RawTuple {
        RawTuple::new(Timestamp::ZERO, Point::new(x, y), v)
    }

    fn interpolate(tuples: &[RawTuple], x: f64, y: f64) -> Option<f64> {
        let tree = RTree::bulk_load(entries(tuples));
        idw(
            &tree,
            tuples,
            &QueryTuple::new(Timestamp::ZERO, Point::new(x, y)),
        )
    }

    #[test]
    fn empty_window_returns_none() {
        assert_eq!(interpolate(&[], 0.0, 0.0), None);
    }

    #[test]
    fn exact_hit_returns_sample_value() {
        let tuples = [tup(1.0, 1.0, 77.0), tup(10.0, 10.0, 99.0)];
        assert_eq!(interpolate(&tuples, 1.0, 1.0), Some(77.0));
    }

    #[test]
    fn interpolation_is_between_neighbour_values() {
        let tuples = [tup(0.0, 0.0, 100.0), tup(10.0, 0.0, 200.0)];
        let v = interpolate(&tuples, 5.0, 0.0).unwrap();
        assert!((v - 150.0).abs() < 1e-9, "midpoint is the plain mean: {v}");
        let closer = interpolate(&tuples, 2.0, 0.0).unwrap();
        assert!(closer < 150.0, "closer to 100 ⇒ below the mean: {closer}");
        assert!((100.0..200.0).contains(&closer));
    }

    #[test]
    fn answers_far_from_data_unlike_radius_methods() {
        let v = interpolate(&[tup(0.0, 0.0, 420.0)], 1.0e5, 1.0e5).unwrap();
        assert_eq!(v, 420.0);
    }

    #[test]
    fn respects_k_limit() {
        // K near samples at 111 and a far outlier at 999: the outlier is
        // the (K + 1)-th neighbour and never contributes.
        let mut tuples: Vec<RawTuple> = (0..K)
            .map(|i| tup((i % 3) as f64, (i / 3) as f64, 111.0))
            .collect();
        tuples.push(tup(1_000.0, 1_000.0, 999.0));
        let v = interpolate(&tuples, 0.4, 0.4).unwrap();
        assert!((v - 111.0).abs() < 1e-9, "{v}");
    }
}
