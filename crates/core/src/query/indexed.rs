//! The metric-space-indexing query method (R-tree / VP-tree / kd-tree /
//! grid).

use enviro_data::{QueryTuple, RawTuple};
use enviro_index::{Entry, SpatialIndex};

/// The index entries of one window: each tuple's position, with its offset
/// in the window as the entry id.
pub(super) fn entries(tuples: &[RawTuple]) -> Vec<Entry> {
    tuples
        .iter()
        .enumerate()
        .map(|(i, t)| Entry::new(t.pos, i as u32))
        .collect()
}

/// The paper's *metric space indexing* method: the naïve method's answer
/// (the average of all tuples within `radius`), with the radius search
/// served by `index`, built over [`entries`] of `tuples`.
pub(super) fn indexed_mean(
    index: &dyn SpatialIndex,
    tuples: &[RawTuple],
    radius: f64,
    q: &QueryTuple,
) -> Option<f64> {
    let mut sum = 0.0;
    let mut n = 0usize;
    index.for_each_within(&q.pos, radius, &mut |e| {
        sum += tuples[e.id as usize].value;
        n += 1;
    });
    (n > 0).then(|| sum / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::AdKmnConfig;
    use crate::query::{QueryEngine, QueryMethod};
    use enviro_data::{Dataset, Pollutant, Timestamp, WindowSpec};
    use enviro_geo::Point;
    use enviro_index::{GridIndex, KdTree, RTree, VpTree};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_tuples(n: usize, seed: u64) -> Vec<RawTuple> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                RawTuple::new(
                    Timestamp::from_secs(i as i64),
                    Point::new(
                        rng.gen_range(-2000.0..2000.0),
                        rng.gen_range(-2000.0..2000.0),
                    ),
                    rng.gen_range(300.0..900.0),
                )
            })
            .collect()
    }

    #[test]
    fn all_kinds_agree_with_naive() {
        let tuples = random_tuples(400, 31);
        let dataset = Dataset::from_tuples(Pollutant::Co2, tuples).unwrap();
        let engine = QueryEngine::new(
            dataset,
            WindowSpec::ByCount(400),
            AdKmnConfig::default(),
            500.0,
        );
        assert_eq!(engine.window_count(), 1);
        for method in [
            QueryMethod::RTree,
            QueryMethod::VpTree,
            QueryMethod::KdTree,
            QueryMethod::Grid,
        ] {
            for qi in 0..50 {
                let q = QueryTuple::new(
                    Timestamp::ZERO,
                    Point::new(qi as f64 * 70.0 - 1750.0, (qi % 7) as f64 * 300.0 - 900.0),
                );
                let a = engine.query(&q, QueryMethod::Naive);
                let b = engine.query(&q, method);
                match (a, b) {
                    (None, None) => {}
                    (Some(x), Some(y)) => {
                        assert!((x - y).abs() < 1e-9, "{method} query {qi}: {x} vs {y}")
                    }
                    other => panic!("{method} query {qi}: mismatch {other:?}"),
                }
            }
        }
    }

    #[test]
    fn empty_window_none() {
        let indexes: [&dyn SpatialIndex; 4] = [
            &RTree::bulk_load(Vec::new()),
            &VpTree::build(Vec::new()),
            &KdTree::build(Vec::new()),
            &GridIndex::build(&[], 100.0),
        ];
        let q = QueryTuple::new(Timestamp::ZERO, Point::origin());
        for index in indexes {
            assert_eq!(indexed_mean(index, &[], 100.0, &q), None);
        }
    }
}
