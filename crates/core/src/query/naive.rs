//! The naïve query-processing method: exhaustive radius scan.

use enviro_data::{QueryTuple, RawTuple};

/// Exhaustive search over the window `W_c` for all raw tuples within radius
/// `r` of the query position; the interpolated value is their average
/// (§2.2, "Naïve"). `None` when no tuple lies within `radius`.
pub(super) fn naive_mean(tuples: &[RawTuple], radius: f64, q: &QueryTuple) -> Option<f64> {
    let r2 = radius * radius;
    let mut sum = 0.0;
    let mut n = 0usize;
    for t in tuples {
        if t.pos.distance_sq(&q.pos) <= r2 {
            sum += t.value;
            n += 1;
        }
    }
    (n > 0).then(|| sum / n as f64)
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
    fn averages_tuples_in_radius() {
        let tuples = [
            tup(0.0, 0.0, 10.0),
            tup(5.0, 0.0, 20.0),
            tup(100.0, 0.0, 99.0),
        ];
        assert_eq!(naive_mean(&tuples, 10.0, &q(0.0, 0.0)), Some(15.0));
    }

    #[test]
    fn boundary_tuple_included() {
        let tuples = [tup(3.0, 4.0, 50.0)]; // exactly 5 away
        assert_eq!(naive_mean(&tuples, 5.0, &q(0.0, 0.0)), Some(50.0));
    }

    #[test]
    fn no_tuple_in_radius_is_none() {
        let tuples = [tup(100.0, 100.0, 1.0)];
        assert_eq!(naive_mean(&tuples, 10.0, &q(0.0, 0.0)), None);
    }

    #[test]
    fn empty_window_is_none() {
        assert_eq!(naive_mean(&[], 1_000.0, &q(0.0, 0.0)), None);
    }

    #[test]
    fn zero_radius_matches_exact_position_only() {
        let tuples = [tup(1.0, 1.0, 7.0), tup(1.1, 1.0, 9.0)];
        assert_eq!(naive_mean(&tuples, 0.0, &q(1.0, 1.0)), Some(7.0));
        assert_eq!(naive_mean(&tuples, 0.0, &q(2.0, 2.0)), None);
    }
}
