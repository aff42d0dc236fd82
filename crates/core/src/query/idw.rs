//! Inverse-distance-weighted (IDW) interpolation — an extension baseline.
//!
//! The paper's raw-data methods average *uniformly* within radius `r`,
//! which wastes the distance information the radius search already
//! computed. IDW (Shepard interpolation) weights the `k` nearest tuples by
//! `1/dᵖ` instead, answering every query for which *any* data exists. Not
//! part of the paper — included as the natural "stronger raw-data
//! baseline" an adopter would ask about (see the `abl-interp` ablation).

use crate::query::{PointQueryProcessor, QueryMethod};
use enviro_data::{QueryTuple, RawTuple};
use enviro_index::{Entry, RTree};

/// IDW parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdwConfig {
    /// Number of neighbours interpolated over.
    pub k: usize,
    /// Distance exponent `p` (2 is Shepard's classic choice).
    pub power: f64,
}

impl Default for IdwConfig {
    fn default() -> Self {
        Self { k: 8, power: 2.0 }
    }
}

/// Inverse-distance-weighted interpolation over one window, with the k-NN
/// search served by an STR-packed R-tree.
#[derive(Debug, Clone)]
pub struct IdwProcessor {
    tree: RTree,
    values: Vec<f64>,
    config: IdwConfig,
}

impl IdwProcessor {
    /// Builds the processor over one window's tuples.
    pub fn build(tuples: &[RawTuple], config: IdwConfig) -> Self {
        assert!(config.k >= 1, "IDW needs at least one neighbour");
        assert!(config.power > 0.0, "IDW power must be positive");
        let entries: Vec<Entry> = tuples
            .iter()
            .enumerate()
            .map(|(i, t)| Entry::new(t.pos, i as u32))
            .collect();
        Self {
            tree: RTree::bulk_load(entries),
            values: tuples.iter().map(|t| t.value).collect(),
            config,
        }
    }

    /// The parameters in use.
    pub fn config(&self) -> IdwConfig {
        self.config
    }
}

impl PointQueryProcessor for IdwProcessor {
    fn interpolate(&self, q: &QueryTuple) -> Option<f64> {
        let neighbors = self.tree.nearest(&q.pos, self.config.k);
        if neighbors.is_empty() {
            return None;
        }
        // A (near-)exact hit dominates all weights; return it directly to
        // avoid dividing by ~0.
        if neighbors[0].distance < 1e-9 {
            return Some(self.values[neighbors[0].entry.id as usize]);
        }
        let mut num = 0.0;
        let mut den = 0.0;
        for n in &neighbors {
            let w = n.distance.powf(-self.config.power);
            num += w * self.values[n.entry.id as usize];
            den += w;
        }
        Some(num / den)
    }

    fn method(&self) -> QueryMethod {
        QueryMethod::Idw
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enviro_data::Timestamp;
    use enviro_geo::Point;

    fn tup(x: f64, y: f64, v: f64) -> RawTuple {
        RawTuple::new(Timestamp::ZERO, Point::new(x, y), v)
    }

    fn q(x: f64, y: f64) -> QueryTuple {
        QueryTuple::new(Timestamp::ZERO, Point::new(x, y))
    }

    #[test]
    fn empty_window_returns_none() {
        let p = IdwProcessor::build(&[], IdwConfig::default());
        assert_eq!(p.interpolate(&q(0.0, 0.0)), None);
    }

    #[test]
    fn exact_hit_returns_sample_value() {
        let p = IdwProcessor::build(
            &[tup(1.0, 1.0, 77.0), tup(10.0, 10.0, 99.0)],
            IdwConfig::default(),
        );
        assert_eq!(p.interpolate(&q(1.0, 1.0)), Some(77.0));
    }

    #[test]
    fn interpolation_is_between_neighbour_values() {
        let p = IdwProcessor::build(
            &[tup(0.0, 0.0, 100.0), tup(10.0, 0.0, 200.0)],
            IdwConfig { k: 2, power: 2.0 },
        );
        let v = p.interpolate(&q(5.0, 0.0)).unwrap();
        assert!((v - 150.0).abs() < 1e-9, "midpoint is the plain mean: {v}");
        let closer = p.interpolate(&q(2.0, 0.0)).unwrap();
        assert!(closer < 150.0, "closer to 100 ⇒ below the mean: {closer}");
        assert!((100.0..200.0).contains(&closer));
    }

    #[test]
    fn weighting_sharpens_with_power() {
        let tuples = [tup(0.0, 0.0, 100.0), tup(10.0, 0.0, 200.0)];
        let p2 = IdwProcessor::build(&tuples, IdwConfig { k: 2, power: 2.0 });
        let p8 = IdwProcessor::build(&tuples, IdwConfig { k: 2, power: 8.0 });
        // At x = 2, a higher power gives the nearer sample more dominance.
        let v2 = p2.interpolate(&q(2.0, 0.0)).unwrap();
        let v8 = p8.interpolate(&q(2.0, 0.0)).unwrap();
        assert!(v8 < v2, "p=8 {v8} vs p=2 {v2}");
    }

    #[test]
    fn answers_far_from_data_unlike_radius_methods() {
        let p = IdwProcessor::build(&[tup(0.0, 0.0, 420.0)], IdwConfig::default());
        let v = p.interpolate(&q(1.0e5, 1.0e5)).unwrap();
        assert_eq!(v, 420.0);
    }

    #[test]
    fn respects_k_limit() {
        // Three near samples at 111 and a far outlier at 999: with k = 3
        // the outlier never contributes.
        let tuples = [
            tup(0.0, 0.0, 111.0),
            tup(1.0, 0.0, 111.0),
            tup(0.0, 1.0, 111.0),
            tup(1_000.0, 1_000.0, 999.0),
        ];
        let p = IdwProcessor::build(&tuples, IdwConfig { k: 3, power: 2.0 });
        let v = p.interpolate(&q(0.4, 0.4)).unwrap();
        assert!((v - 111.0).abs() < 1e-9, "{v}");
    }

    #[test]
    fn method_tag() {
        let p = IdwProcessor::build(&[], IdwConfig::default());
        assert_eq!(p.method(), QueryMethod::Idw);
    }
}
