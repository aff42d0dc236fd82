//! Time-ordered datasets of raw tuples with metadata and statistics.

use crate::pollutant::Pollutant;
use crate::tuple::{RawTuple, Timestamp};
use enviro_geo::BoundingBox;

/// A community-sensed dataset: the `raw_tuples` table of the paper's
/// architecture (Figure 1).
///
/// Tuples are kept sorted by time — the storage layer and the window
/// decomposition both rely on this invariant, which [`Dataset::push`]
/// maintains and [`Dataset::from_tuples`] establishes.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    pollutant: Pollutant,
    tuples: Vec<RawTuple>,
}

/// Summary statistics of the sensed values in a dataset (or window).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetStats {
    /// Number of tuples.
    pub count: usize,
    /// Minimum sensed value.
    pub min: f64,
    /// Maximum sensed value.
    pub max: f64,
    /// Arithmetic mean of the sensed values.
    pub mean: f64,
    /// Population standard deviation of the sensed values.
    pub std_dev: f64,
}

impl Dataset {
    /// Creates an empty dataset for `pollutant`.
    pub fn new(pollutant: Pollutant) -> Self {
        Self {
            pollutant,
            tuples: Vec::new(),
        }
    }

    /// Builds a dataset from a tuple collection, sorting by time.
    ///
    /// A non-finite or pre-epoch tuple is rejected with an error naming
    /// its index: GPS glitches, sensor dropouts and clock faults must be
    /// cleaned upstream.
    pub fn from_tuples(pollutant: Pollutant, mut tuples: Vec<RawTuple>) -> Result<Self, String> {
        for (i, t) in tuples.iter().enumerate() {
            check_tuple(t).map_err(|e| format!("tuple {i} {e}"))?;
        }
        tuples.sort_by_key(|t| t.time);
        Ok(Self { pollutant, tuples })
    }

    /// The monitored pollutant.
    #[inline]
    pub fn pollutant(&self) -> Pollutant {
        self.pollutant
    }

    /// All tuples, sorted by time.
    #[inline]
    pub fn tuples(&self) -> &[RawTuple] {
        &self.tuples
    }

    /// Number of tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// `true` if the dataset holds no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Appends a tuple, keeping the time order.
    ///
    /// Appending in time order is O(1); out-of-order tuples are inserted at
    /// their sorted position (O(n) worst case), matching the mostly-ordered
    /// arrival pattern of a live deployment. A non-finite or pre-epoch
    /// tuple is rejected.
    pub fn push(&mut self, tuple: RawTuple) -> Result<(), String> {
        check_tuple(&tuple).map_err(|e| format!("tuple {e}"))?;
        match self.tuples.last() {
            Some(last) if last.time > tuple.time => {
                let idx = self.tuples.partition_point(|t| t.time <= tuple.time);
                self.tuples.insert(idx, tuple);
            }
            _ => self.tuples.push(tuple),
        }
        Ok(())
    }

    /// The time span `[first, last]` of the data, or `None` when empty.
    pub fn time_span(&self) -> Option<(Timestamp, Timestamp)> {
        Some((self.tuples.first()?.time, self.tuples.last()?.time))
    }

    /// The spatial bounding box of all sampling positions.
    pub fn bounds(&self) -> BoundingBox {
        BoundingBox::from_points(self.tuples.iter().map(|t| t.pos))
    }

    /// Summary statistics over the sensed values, or `None` when empty.
    pub fn stats(&self) -> Option<DatasetStats> {
        stats_of(&self.tuples)
    }
}

/// Checks that a dataset can hold `t`: its position and value are finite,
/// and it is not before the epoch, so the epoch-window rule
/// ([`crate::WindowSpec::window_id_at`]) files it under a window. The
/// error says what is wrong with the tuple.
pub(crate) fn check_tuple(t: &RawTuple) -> Result<(), String> {
    if !t.is_finite() {
        return Err("has non-finite position or value".into());
    }
    if t.time < Timestamp::ZERO {
        return Err(format!(
            "is before the epoch (time_secs {})",
            t.time.as_secs()
        ));
    }
    Ok(())
}

/// Computes summary statistics for a tuple slice (shared with [`crate::Window`]).
pub(crate) fn stats_of(tuples: &[RawTuple]) -> Option<DatasetStats> {
    if tuples.is_empty() {
        return None;
    }
    let n = tuples.len() as f64;
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut sum = 0.0;
    for t in tuples {
        min = min.min(t.value);
        max = max.max(t.value);
        sum += t.value;
    }
    let mean = sum / n;
    let var = tuples
        .iter()
        .map(|t| {
            let d = t.value - mean;
            d * d
        })
        .sum::<f64>()
        / n;
    Some(DatasetStats {
        count: tuples.len(),
        min,
        max,
        mean,
        std_dev: var.sqrt(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use enviro_geo::Point;

    fn tup(secs: i64, x: f64, v: f64) -> RawTuple {
        RawTuple::new(Timestamp::from_secs(secs), Point::new(x, 0.0), v)
    }

    #[test]
    fn from_tuples_sorts_by_time() {
        let ds = Dataset::from_tuples(
            Pollutant::Co2,
            vec![tup(30, 0.0, 3.0), tup(10, 0.0, 1.0), tup(20, 0.0, 2.0)],
        )
        .unwrap();
        let times: Vec<i64> = ds.tuples().iter().map(|t| t.time.as_secs()).collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn from_tuples_rejects_non_finite() {
        let err = Dataset::from_tuples(Pollutant::Co2, vec![tup(0, f64::NAN, 1.0)]);
        assert!(err.is_err());
    }

    #[test]
    fn from_tuples_and_push_reject_pre_epoch_tuples() {
        let err = Dataset::from_tuples(Pollutant::Co2, vec![tup(0, 0.0, 1.0), tup(-1, 0.0, 1.0)]);
        assert_eq!(
            err.unwrap_err(),
            "tuple 1 is before the epoch (time_secs -1)"
        );
        let mut ds = Dataset::new(Pollutant::Co2);
        assert!(ds.push(tup(-1, 0.0, 1.0)).is_err());
        assert!(ds.is_empty());
    }

    #[test]
    fn pre_epoch_history_is_refused() {
        // 50 readings before the epoch and 50 at 20 000 s. Admitted, the
        // early ones would need a window the epoch-window rule has no id
        // for; filed under window u64::MAX instead, that cover sorts last
        // in the server's registry and answers t = 30 000 s with 400 where
        // a point query answers 900.
        let early = (0..50).map(|i| tup(-3_000 + i, i as f64, 400.0));
        let late = (0..50).map(|i| tup(20_000 + i, i as f64, 900.0));
        let err = Dataset::from_tuples(Pollutant::Co2, early.chain(late).collect());
        assert!(err.unwrap_err().contains("before the epoch"));
    }

    #[test]
    fn push_in_order_appends() {
        let mut ds = Dataset::new(Pollutant::Co2);
        ds.push(tup(10, 0.0, 1.0)).unwrap();
        ds.push(tup(20, 0.0, 2.0)).unwrap();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.tuples()[1].time.as_secs(), 20);
    }

    #[test]
    fn push_out_of_order_inserts_sorted() {
        let mut ds = Dataset::new(Pollutant::Co2);
        ds.push(tup(10, 0.0, 1.0)).unwrap();
        ds.push(tup(30, 0.0, 3.0)).unwrap();
        ds.push(tup(20, 0.0, 2.0)).unwrap();
        let times: Vec<i64> = ds.tuples().iter().map(|t| t.time.as_secs()).collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn push_equal_times_keeps_all() {
        let mut ds = Dataset::new(Pollutant::Co2);
        ds.push(tup(10, 0.0, 1.0)).unwrap();
        ds.push(tup(10, 1.0, 2.0)).unwrap();
        assert_eq!(ds.len(), 2);
    }

    #[test]
    fn time_span_and_bounds() {
        let ds = Dataset::from_tuples(Pollutant::Co2, vec![tup(10, -5.0, 1.0), tup(50, 7.0, 2.0)])
            .unwrap();
        let (a, b) = ds.time_span().unwrap();
        assert_eq!((a.as_secs(), b.as_secs()), (10, 50));
        let bb = ds.bounds();
        assert_eq!(bb.min.x, -5.0);
        assert_eq!(bb.max.x, 7.0);
    }

    #[test]
    fn empty_dataset_behaviour() {
        let ds = Dataset::new(Pollutant::Co2);
        assert!(ds.is_empty());
        assert_eq!(ds.time_span(), None);
        assert_eq!(ds.stats(), None);
        assert!(ds.bounds().is_empty());
    }

    #[test]
    fn stats_values() {
        let ds = Dataset::from_tuples(
            Pollutant::Co2,
            vec![tup(0, 0.0, 2.0), tup(1, 0.0, 4.0), tup(2, 0.0, 6.0)],
        )
        .unwrap();
        let s = ds.stats().unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 6.0);
        assert_eq!(s.mean, 4.0);
        let expected_sd = (8.0f64 / 3.0).sqrt();
        assert!((s.std_dev - expected_sd).abs() < 1e-12);
    }
}
