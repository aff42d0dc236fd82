//! Window decomposition of a dataset — the paper's `W_c`.
//!
//! Model covers are learned per *window* of raw tuples,
//! `W_c = ⟨b_i | c·H ≤ t_i < (c+1)·H⟩`. The paper uses `H` in two senses:
//! a duration (the formula above) and a tuple count ("a varying window size
//! H from 40 to 240 raw tuples"). [`WindowSpec`] supports both.

use crate::dataset::{stats_of, Dataset, DatasetStats};
use crate::tuple::{RawTuple, Timestamp};

/// How a dataset is decomposed into windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowSpec {
    /// Consecutive windows of exactly `n` tuples (the last window may be
    /// shorter). This is the paper's evaluation regime (`H` = 40…240
    /// tuples).
    ByCount(usize),
    /// Windows of `secs` seconds aligned to the epoch:
    /// window `c` holds tuples with `c·secs ≤ t < (c+1)·secs`.
    ByDuration(i64),
}

impl WindowSpec {
    /// The epoch-window rule: the id `c = ⌊t/H⌋` of the duration window
    /// holding `time`, the one `W_c` with `c·H ≤ t < (c+1)·H`. Every
    /// place that files a tuple under a window — this decomposition, the
    /// store and the ingest path — asks this rule.
    ///
    /// `None` for a time before the epoch, which no window `c ≥ 0` holds
    /// (both entrances, `Dataset` and the store, refuse such tuples), and
    /// for [`WindowSpec::ByCount`], whose windows are defined by tuple
    /// position, not by time.
    #[inline]
    pub fn window_id_at(&self, time: Timestamp) -> Option<u64> {
        match *self {
            WindowSpec::ByCount(_) => None,
            WindowSpec::ByDuration(secs) => u64::try_from(time.as_secs().div_euclid(secs)).ok(),
        }
    }

    /// Window `id` over `tuples`. A duration window is valid until its end
    /// `(c+1)·H` (saturating at the last representable time); a count
    /// window until its last tuple's time, as the cover learned from it is
    /// superseded as soon as newer data arrives.
    pub fn window<'a>(&self, id: u64, tuples: &'a [RawTuple]) -> Window<'a> {
        let valid_until = match *self {
            WindowSpec::ByCount(_) => tuples.last().map_or(Timestamp::ZERO, |t| t.time),
            WindowSpec::ByDuration(secs) => {
                Timestamp::from_secs((id as i64).saturating_add(1).saturating_mul(secs))
            }
        };
        Window {
            id,
            tuples,
            valid_until,
        }
    }
}

/// One window `W_c`: a view over a contiguous, time-sorted run of tuples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window<'a> {
    /// The window id `c`.
    pub id: u64,
    /// The tuples of the window, time-sorted.
    pub tuples: &'a [RawTuple],
    /// The end of the window's validity, as [`WindowSpec::window`] sets it.
    pub valid_until: Timestamp,
}

impl Window<'_> {
    /// Number of tuples in the window.
    #[inline]
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// `true` if the window holds no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Summary statistics of the window's sensed values.
    pub fn stats(&self) -> Option<DatasetStats> {
        stats_of(self.tuples)
    }
}

/// Iterator over the windows of a dataset under a [`WindowSpec`].
#[derive(Debug)]
pub struct Windows<'a> {
    tuples: &'a [RawTuple],
    spec: WindowSpec,
    /// Next tuple offset.
    offset: usize,
    /// Next count window's id.
    next_id: u64,
}

impl<'a> Windows<'a> {
    /// Creates the window iterator for `dataset`.
    ///
    /// # Panics
    /// Panics if the spec is degenerate (`ByCount(0)` or a non-positive
    /// duration).
    pub fn new(dataset: &'a Dataset, spec: WindowSpec) -> Self {
        match spec {
            WindowSpec::ByCount(n) => assert!(n > 0, "window size must be positive"),
            WindowSpec::ByDuration(s) => {
                assert!(s > 0, "window duration must be positive")
            }
        }
        Self {
            tuples: dataset.tuples(),
            spec,
            offset: 0,
            next_id: 0,
        }
    }
}

impl<'a> Iterator for Windows<'a> {
    type Item = Window<'a>;

    fn next(&mut self) -> Option<Window<'a>> {
        let rest = &self.tuples[self.offset..];
        let first = rest.first()?;
        let (id, n) = match self.spec {
            WindowSpec::ByCount(n) => (self.next_id, n.min(rest.len())),
            // Empty windows are skipped: the next window is the one holding
            // the next tuple, and it runs to the first tuple past it.
            WindowSpec::ByDuration(_) => {
                let id = self.spec.window_id_at(first.time)?;
                let n = rest.partition_point(|t| self.spec.window_id_at(t.time) <= Some(id));
                (id, n)
            }
        };
        self.offset += n;
        self.next_id = id + 1;
        Some(self.spec.window(id, &rest[..n]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pollutant::Pollutant;
    use enviro_geo::Point;

    fn ds(times: &[i64]) -> Dataset {
        Dataset::from_tuples(
            Pollutant::Co2,
            times
                .iter()
                .map(|&s| RawTuple::new(Timestamp::from_secs(s), Point::origin(), 1.0))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn by_count_partitions_exactly() {
        let d = ds(&[1, 2, 3, 4, 5, 6]);
        let ws: Vec<_> = Windows::new(&d, WindowSpec::ByCount(2)).collect();
        assert_eq!(ws.len(), 3);
        assert!(ws.iter().all(|w| w.len() == 2));
        assert_eq!(ws[0].id, 0);
        assert_eq!(ws[2].id, 2);
    }

    #[test]
    fn by_count_last_window_short() {
        let d = ds(&[1, 2, 3, 4, 5]);
        let ws: Vec<_> = Windows::new(&d, WindowSpec::ByCount(2)).collect();
        assert_eq!(ws.len(), 3);
        assert_eq!(ws[2].len(), 1);
    }

    #[test]
    fn by_count_covers_every_tuple_once() {
        let d = ds(&[1, 2, 3, 4, 5, 6, 7]);
        let total: usize = Windows::new(&d, WindowSpec::ByCount(3))
            .map(|w| w.len())
            .sum();
        assert_eq!(total, d.len());
    }

    #[test]
    fn by_count_valid_until_is_last_tuple_time() {
        let d = ds(&[10, 20, 30]);
        let ws: Vec<_> = Windows::new(&d, WindowSpec::ByCount(2)).collect();
        assert_eq!(ws[0].valid_until.as_secs(), 20);
        assert_eq!(ws[1].valid_until.as_secs(), 30);
    }

    #[test]
    fn by_duration_half_open_boundaries() {
        // Window length 100: t = 100 belongs to window 1, not window 0.
        let d = ds(&[0, 50, 100, 150, 200]);
        let ws: Vec<_> = Windows::new(&d, WindowSpec::ByDuration(100)).collect();
        assert_eq!(ws.len(), 3);
        assert_eq!(ws[0].len(), 2); // 0, 50
        assert_eq!(ws[1].len(), 2); // 100, 150
        assert_eq!(ws[2].len(), 1); // 200
        assert_eq!(ws[0].id, 0);
        assert_eq!(ws[1].id, 1);
        assert_eq!(ws[2].id, 2);
    }

    #[test]
    fn by_duration_valid_until_is_window_end() {
        let d = ds(&[0, 250]);
        let ws: Vec<_> = Windows::new(&d, WindowSpec::ByDuration(100)).collect();
        assert_eq!(ws[0].valid_until.as_secs(), 100);
        assert_eq!(ws[1].valid_until.as_secs(), 300);
    }

    #[test]
    fn by_duration_skips_empty_windows() {
        let d = ds(&[10, 910]);
        let ws: Vec<_> = Windows::new(&d, WindowSpec::ByDuration(100)).collect();
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[0].id, 0);
        assert_eq!(ws[1].id, 9);
    }

    #[test]
    fn by_duration_starts_at_first_tuple_window() {
        let d = ds(&[950, 1010]);
        let ws: Vec<_> = Windows::new(&d, WindowSpec::ByDuration(100)).collect();
        assert_eq!(ws[0].id, 9);
        assert_eq!(ws[1].id, 10);
    }

    #[test]
    fn window_id_at_duration() {
        let spec = WindowSpec::ByDuration(3_600);
        assert_eq!(spec.window_id_at(Timestamp::from_secs(0)), Some(0));
        assert_eq!(spec.window_id_at(Timestamp::from_secs(3_599)), Some(0));
        assert_eq!(spec.window_id_at(Timestamp::from_secs(3_600)), Some(1));
        // No window c ≥ 0 holds a time before the epoch.
        assert_eq!(spec.window_id_at(Timestamp::from_secs(-1)), None);
        assert_eq!(WindowSpec::ByCount(40).window_id_at(Timestamp::ZERO), None);
    }

    #[test]
    fn window_end_saturates_at_the_last_time() {
        let spec = WindowSpec::ByDuration(3_600);
        assert_eq!(spec.window(2, &[]).valid_until.as_secs(), 3 * 3_600);
        let last = spec.window_id_at(Timestamp::from_secs(i64::MAX)).unwrap();
        assert_eq!(spec.window(last, &[]).valid_until.as_secs(), i64::MAX);
    }

    #[test]
    fn empty_dataset_yields_no_windows() {
        let d = Dataset::new(Pollutant::Co2);
        assert_eq!(Windows::new(&d, WindowSpec::ByCount(10)).count(), 0);
        assert_eq!(Windows::new(&d, WindowSpec::ByDuration(60)).count(), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_count_panics() {
        let d = ds(&[1]);
        let _ = Windows::new(&d, WindowSpec::ByCount(0));
    }

    #[test]
    fn window_stats_present() {
        let d = ds(&[1, 2]);
        let w = Windows::new(&d, WindowSpec::ByCount(2)).next().unwrap();
        assert_eq!(w.stats().unwrap().count, 2);
    }
}
