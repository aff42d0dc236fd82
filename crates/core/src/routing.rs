//! Time routing: which window answers a query at time `t`.
//!
//! Both read paths — the batch [`crate::QueryEngine`] and a published
//! [`crate::CoverSet`] — hold their windows sorted by the arrival time of
//! each window's **first tuple** and route with one rule: a query at `t` is
//! answered by the newest window whose first tuple is at or before `t`,
//! and by the oldest window when `t` predates all data. Window `i` thus
//! owns the half-open range `[first_time(i), first_time(i + 1))`, open
//! below for the first window and above for the last.
//!
//! Both paths call this module, so streamed routing cannot drift from
//! batch routing. A batch is routed by [`for_each_window_run`]: one binary search
//! locates the window of a run's first tuple, and the run then extends
//! while the next tuple's time stays inside that window's range — the way
//! a segment reader looks up its block index once per block and scans the
//! block in order, instead of searching once per key.

use enviro_data::{QueryTuple, Timestamp};

/// The index of the window responsible for time `t` among `windows`, whose
/// first-tuple times (`first_time`) must be non-decreasing; `None` only
/// when there are no windows.
pub(crate) fn window_index<W>(
    windows: &[W],
    first_time: impl Fn(&W) -> Timestamp,
    t: Timestamp,
) -> Option<usize> {
    if windows.is_empty() {
        return None;
    }
    // partition_point: first window whose first_time > t.
    Some(
        windows
            .partition_point(|w| first_time(w) <= t)
            .saturating_sub(1),
    )
}

/// Calls `f(window index, run)` for each maximal run of consecutive
/// `queries` that [`window_index`] routes to the same window, in order, so
/// the runs cover every query exactly once; never calls `f` when there are
/// no windows.
pub(crate) fn for_each_window_run<W>(
    windows: &[W],
    first_time: impl Fn(&W) -> Timestamp,
    queries: &[QueryTuple],
    mut f: impl FnMut(usize, &[QueryTuple]),
) {
    let mut rest = queries;
    while let Some(head) = rest.first() {
        let Some(idx) = window_index(windows, &first_time, head.time) else {
            return;
        };
        // The window's range: open below for the first window, open above
        // for the last.
        let lo = (idx > 0).then(|| first_time(&windows[idx]));
        let hi = windows.get(idx + 1).map(&first_time);
        let len = 1 + rest[1..]
            .iter()
            .take_while(|q| {
                !(lo.is_some_and(|lo| q.time < lo) || hi.is_some_and(|hi| q.time >= hi))
            })
            .count();
        let (run, tail) = rest.split_at(len);
        f(idx, run);
        rest = tail;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enviro_geo::Point;

    fn at(secs: i64) -> QueryTuple {
        QueryTuple::new(Timestamp::from_secs(secs), Point::origin())
    }

    /// `(window index, run length)` per run.
    fn runs(first_times: &[i64], times: &[i64]) -> Vec<(usize, usize)> {
        let queries: Vec<QueryTuple> = times.iter().map(|&t| at(t)).collect();
        let mut runs = Vec::new();
        for_each_window_run(
            first_times,
            |&s| Timestamp::from_secs(s),
            &queries,
            |idx, run| runs.push((idx, run.len())),
        );
        runs
    }

    #[test]
    fn runs_break_exactly_at_window_starts() {
        let starts = [100, 200, 300];
        assert_eq!(
            runs(&starts, &[0, 99, 100, 199, 200, 299, 300, 10_000]),
            vec![(0, 4), (1, 2), (2, 2)]
        );
        // Out of order: a regression starts a new run.
        assert_eq!(
            runs(&starts, &[250, 150, 150, 250]),
            vec![(1, 1), (0, 2), (1, 1)]
        );
    }

    #[test]
    fn shared_first_times_route_to_the_newest() {
        // Windows 0 and 1 start at the same second: every query at or
        // after it belongs to window 1, as `window_index` says.
        let starts = [100, 100, 200];
        assert_eq!(
            window_index(
                &starts,
                |&s| Timestamp::from_secs(s),
                Timestamp::from_secs(100)
            ),
            Some(1)
        );
        assert_eq!(
            runs(&starts, &[50, 100, 150, 200]),
            vec![(0, 1), (1, 2), (2, 1)]
        );
    }

    #[test]
    fn no_windows_no_runs() {
        let none: [i64; 0] = [];
        assert_eq!(
            window_index(&none, |&s| Timestamp::from_secs(s), Timestamp::ZERO),
            None
        );
        assert_eq!(runs(&none, &[1, 2, 3]), vec![]);
        assert_eq!(runs(&[5], &[]), vec![]);
        assert_eq!(runs(&[5], &[i64::MIN, 0, i64::MAX]), vec![(0, 3)]);
    }
}
