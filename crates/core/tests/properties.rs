//! Property-based tests for the core algorithms: whatever the data looks
//! like, the structural invariants of clustering, covers and query
//! processing must hold.

// Harness code, exempt from the library panic policy: an unwrap here
// fails the run loudly, which is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use enviro_data::{Dataset, Pollutant, QueryTuple, RawTuple, Timestamp, Window, WindowSpec};
use enviro_geo::Point;
use enviro_meter::{
    AdKmn, AdKmnConfig, CoverBuilder, CoverRegistry, CoverSet, KMeans, LinearModel, PublishedCover,
    QueryEngine, QueryMethod, RegionModel,
};
use enviro_schedule::sync::Arc;
use proptest::prelude::*;

fn arb_tuples(max: usize) -> impl Strategy<Value = Vec<RawTuple>> {
    prop::collection::vec(
        (
            0i64..100_000,
            -5_000.0..5_000.0f64,
            -5_000.0..5_000.0f64,
            100.0..2_000.0f64,
        ),
        0..max,
    )
    .prop_map(|v| {
        let mut tuples: Vec<RawTuple> = v
            .into_iter()
            .map(|(t, x, y, s)| RawTuple::new(Timestamp::from_secs(t), Point::new(x, y), s))
            .collect();
        tuples.sort_by_key(|t| t.time);
        tuples
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kmeans_assignment_is_nearest_centroid(
        pts in prop::collection::vec((-1e4..1e4f64, -1e4..1e4f64), 1..80),
        k in 1usize..8,
    ) {
        let points: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let c = KMeans::fit(&points, k);
        prop_assert_eq!(c.assignment.len(), points.len());
        for (p, &a) in points.iter().zip(&c.assignment) {
            let d_assigned = c.centroids[a].distance_sq(p);
            for other in &c.centroids {
                prop_assert!(d_assigned <= other.distance_sq(p) + 1e-9);
            }
        }
    }

    #[test]
    fn adkmn_result_invariants(tuples in arb_tuples(120)) {
        let cfg = AdKmnConfig {
            max_models: 12,
            max_rounds: 6,
            ..AdKmnConfig::default()
        };
        let r = AdKmn::new(cfg.clone()).run(&tuples, Pollutant::Co2);
        // Alignment.
        prop_assert_eq!(r.centroids.len(), r.models.len());
        prop_assert_eq!(r.centroids.len(), r.errors.len());
        prop_assert_eq!(r.assignment.len(), tuples.len());
        // Bounds.
        prop_assert!(r.centroids.len() <= cfg.max_models.max(cfg.initial_k));
        prop_assert!(r.rounds <= cfg.max_rounds);
        prop_assert!(r.assignment.iter().all(|&a| a < r.centroids.len().max(1)));
        // Everything finite.
        prop_assert!(r.centroids.iter().all(Point::is_finite));
    }

    #[test]
    fn cover_interpolation_is_nearest_region_prediction(tuples in arb_tuples(100)) {
        let window = Window {
            id: 0,
            tuples: &tuples,
            valid_until: Timestamp::from_secs(200_000),
        };
        let cover = CoverBuilder::new(AdKmnConfig::default()).build(&window, Pollutant::Co2);
        prop_assert_eq!(cover.is_empty(), tuples.is_empty());
        let q = Point::new(123.0, -456.0);
        let t = Timestamp::from_secs(50_000);
        match (cover.interpolate(t, &q), cover.nearest_region(&q)) {
            (Some(v), Some((_, region))) => {
                prop_assert_eq!(v, region.model.predict(t, &q));
                prop_assert!(v.is_finite());
            }
            (None, None) => {}
            other => prop_assert!(false, "inconsistent cover: {:?}", other),
        }
    }

    #[test]
    fn cover_population_sums_to_window_size(tuples in arb_tuples(100)) {
        let window = Window {
            id: 0,
            tuples: &tuples,
            valid_until: Timestamp::from_secs(200_000),
        };
        let cover = CoverBuilder::new(AdKmnConfig::default()).build(&window, Pollutant::Co2);
        let total: usize = cover.regions.iter().map(|r| r.population).sum();
        prop_assert_eq!(total, tuples.len());
        prop_assert!(cover.regions.iter().all(|r| r.population > 0));
    }

    #[test]
    fn linear_model_predictions_stay_in_training_range(tuples in arb_tuples(80)) {
        prop_assume!(tuples.len() >= 8);
        if let Some(model) = RegionModel::fit(&tuples) {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for t in &tuples {
                lo = lo.min(t.value);
                hi = hi.max(t.value);
            }
            let margin = (hi - lo) * 0.1 + 1e-9;
            // Anywhere — even absurdly far away — the prediction must stay
            // inside the (extended) training value range.
            for q in [
                Point::new(0.0, 0.0),
                Point::new(1.0e6, -1.0e6),
                Point::new(-4.2e7, 9.9e7),
            ] {
                let v = model.predict(Timestamp::from_secs(123), &q);
                prop_assert!(v >= lo - margin && v <= hi + margin, "{v} outside [{lo}, {hi}]");
            }
        }
    }

    #[test]
    fn naive_answer_is_within_neighbourhood_value_range(
        tuples in arb_tuples(80),
        qx in -5_000.0..5_000.0f64,
        qy in -5_000.0..5_000.0f64,
    ) {
        // One window holding every tuple, so each query scans them all.
        let engine = QueryEngine::new(
            Dataset::from_tuples(Pollutant::Co2, tuples.clone()).unwrap(),
            WindowSpec::ByCount(tuples.len().max(1)),
            AdKmnConfig::default(),
            1_000.0,
        );
        let q = QueryTuple::new(Timestamp::from_secs(0), Point::new(qx, qy));
        if let Some(v) = engine.query(&q, QueryMethod::Naive) {
            let in_radius: Vec<f64> = tuples
                .iter()
                .filter(|t| t.pos.distance(&q.pos) <= 1_000.0)
                .map(|t| t.value)
                .collect();
            prop_assert!(!in_radius.is_empty());
            let lo = in_radius.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = in_radius.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }
    }

    #[test]
    fn warm_start_respects_caps(tuples in arb_tuples(100), n_seeds in 1usize..20) {
        let cfg = AdKmnConfig {
            max_models: 6,
            ..AdKmnConfig::default()
        };
        let seeds: Vec<Point> = (0..n_seeds)
            .map(|i| Point::new(i as f64 * 100.0, -(i as f64) * 50.0))
            .collect();
        let r = AdKmn::new(cfg).run_seeded(&tuples, Pollutant::Co2, &seeds);
        prop_assert!(r.model_count() <= 6);
        prop_assert_eq!(r.assignment.len(), tuples.len());
    }
}

/// The design row `[1, x̃, ỹ, t̃]` a fitted model gives `t`, rebuilt from the
/// model's public standardization (features saturate at ±4 σ).
fn design_row(m: &LinearModel, t: &RawTuple) -> [f64; 4] {
    let z = |v: f64, c: f64, s: f64| ((v - c) / s).clamp(-4.0, 4.0);
    [
        1.0,
        z(t.pos.x, m.center.0, m.scale.0),
        z(t.pos.y, m.center.1, m.scale.1),
        z(t.time.as_secs_f64(), m.center.2, m.scale.2),
    ]
}

/// Fits the default ridge model, returning it with its normal equations
/// `AᵀA` and `Aᵀb` computed naively from the model's design rows.
fn fit_with_normal_equations(tuples: &[RawTuple]) -> (LinearModel, [[f64; 4]; 4], [f64; 4]) {
    let m = LinearModel::fit(tuples).expect("finite inputs always fit");
    let (mut gram, mut rhs) = ([[0.0; 4]; 4], [0.0; 4]);
    for t in tuples {
        let row = design_row(&m, t);
        for (i, (g, r)) in gram.iter_mut().zip(&mut rhs).enumerate() {
            *r += row[i] * t.value;
            for (gij, rj) in g.iter_mut().zip(&row) {
                *gij += row[i] * rj;
            }
        }
    }
    (m, gram, rhs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cholesky_solution_satisfies_system(tuples in arb_tuples(80)) {
        prop_assume!(tuples.len() >= 4);
        let (m, gram, rhs) = fit_with_normal_equations(&tuples);
        let lambda = LinearModel::RIDGE_ALPHA * tuples.len() as f64;
        for ((i, g), r) in gram.iter().enumerate().zip(rhs) {
            let terms = g.iter().zip(&m.beta).map(|(gij, bj)| gij * bj);
            let ridge = lambda * m.beta[i];
            let lhs = ridge + terms.clone().sum::<f64>();
            let scale = ridge.abs() + r.abs() + terms.map(f64::abs).sum::<f64>();
            prop_assert!((lhs - r).abs() <= 1e-9 * scale, "row {i}: {lhs} vs {r}");
        }
    }

    #[test]
    fn gram_is_positive_semidefinite_diag(tuples in arb_tuples(80)) {
        // Standardization keeps the ridge system well scaled: the intercept
        // column sums to n and every slope column's square sum lies in
        // [0, n] (exactly 0 for a degenerate dimension).
        prop_assume!(tuples.len() >= 4);
        let (_, gram, _) = fit_with_normal_equations(&tuples);
        let n = tuples.len() as f64;
        prop_assert_eq!(gram[0][0], n);
        for (i, row) in gram.iter().enumerate().skip(1) {
            prop_assert!(row[i] >= 0.0, "negative diagonal {}", row[i]);
            prop_assert!(row[i] <= n * (1.0 + 1e-9), "diagonal {} above n", row[i]);
        }
    }

    #[test]
    fn ridge_always_solves_finite_inputs(tuples in arb_tuples(80)) {
        prop_assume!(tuples.len() >= 4);
        let m = LinearModel::fit(&tuples);
        prop_assert!(m.is_some(), "ridge is always positive definite");
        prop_assert_eq!(m.unwrap().check_invariants(), Ok(()));
    }

    #[test]
    fn ridge_residual_not_worse_than_zero_model(tuples in arb_tuples(80)) {
        prop_assume!(tuples.len() >= 4);
        let (m, _, _) = fit_with_normal_equations(&tuples);
        let mut rss = 0.0;
        let mut tss = 0.0;
        for t in &tuples {
            let row = design_row(&m, t);
            let fitted: f64 = row.iter().zip(&m.beta).map(|(a, b)| a * b).sum();
            rss += (t.value - fitted).powi(2);
            tss += t.value * t.value;
        }
        // The ridge optimum costs at most what β = 0 does.
        prop_assert!(rss <= tss * (1.0 + 1e-9), "rss {rss} > tss {tss}");
    }
}

/// Seconds between ticks of the coarse data clock: many readings share a
/// timestamp, so count-based windows split runs of equal times.
const TICK_SECS: i64 = 60;
/// Ticks the data spans.
const TICKS: i64 = 40;

/// Readings on the coarse clock, time-sorted by `Dataset::from_tuples`.
fn arb_clocked_tuples(max: usize) -> impl Strategy<Value = Vec<RawTuple>> {
    prop::collection::vec(
        (
            0..TICKS,
            -2_000.0..2_000.0f64,
            -2_000.0..2_000.0f64,
            300.0..900.0f64,
        ),
        0..max,
    )
    .prop_map(|v| {
        v.into_iter()
            .map(|(tick, x, y, s)| {
                RawTuple::new(Timestamp::from_secs(tick * TICK_SECS), Point::new(x, y), s)
            })
            .collect()
    })
}

/// The published set a streaming server would hold for `engine`'s windows:
/// each window's cover keyed by its first tuple's time.
fn published_set(engine: &QueryEngine) -> Arc<CoverSet> {
    let registry = CoverRegistry::new();
    let entries: Vec<PublishedCover> = (0..engine.window_count())
        .map(|idx| PublishedCover {
            window_id: idx as u64,
            first_time: engine.window_tuples(idx)[0].time,
            cover: Arc::new(engine.cover(idx).clone()).into(),
        })
        .collect();
    if !entries.is_empty() {
        registry.publish(entries);
    }
    registry.snapshot()
}

/// Query times that probe the routing rule: every window's first time and
/// the second before it, times before the first window and after the last,
/// random times, repeats, and a time-sorted prefix (long runs) ahead of an
/// unsorted tail.
fn probe_queries(
    engine: &QueryEngine,
    picks: &[(usize, u8)],
    sorted_prefix: usize,
) -> Vec<QueryTuple> {
    let starts: Vec<i64> = (0..engine.window_count())
        .map(|idx| engine.window_tuples(idx)[0].time.as_secs())
        .collect();
    let span = TICKS * TICK_SECS;
    let mut times: Vec<i64> = Vec::with_capacity(picks.len());
    for &(pick, kind) in picks {
        let t = match (kind, starts.len()) {
            (0, n) if n > 0 => starts[pick % n],
            (1, n) if n > 0 => starts[pick % n] - 1,
            (2, _) => [-1_000_000_000, -1, span + 1, 1_000_000_000][pick % 4],
            (3, _) if !times.is_empty() => times[pick % times.len()],
            _ => (pick as i64 * 7) % (span + 2 * TICK_SECS) - TICK_SECS,
        };
        times.push(t);
    }
    let sorted = sorted_prefix.min(times.len());
    times[..sorted].sort_unstable();
    times
        .iter()
        .zip(picks)
        .map(|(&t, &(pick, _))| {
            let x = (pick % 41) as f64 * 100.0 - 2_000.0;
            let y = (pick % 29) as f64 * 140.0 - 2_000.0;
            QueryTuple::new(Timestamp::from_secs(t), Point::new(x, y))
        })
        .collect()
}

fn bits(answers: impl IntoIterator<Item = Option<f64>>) -> Vec<Option<u64>> {
    answers.into_iter().map(|v| v.map(f64::to_bits)).collect()
}

/// Batch routing equals per-tuple routing on both read paths, bit for bit,
/// and streamed answers equal batch model-cover answers.
fn assert_batch_routing_matches_per_tuple(
    engine: &QueryEngine,
    queries: &[QueryTuple],
) -> Result<(), TestCaseError> {
    let mut out = vec![Some(f64::NAN); 3];
    for method in QueryMethod::ALL {
        engine.query_batch_into(queries, method, &mut out);
        let single = bits(queries.iter().map(|q| engine.query(q, method)));
        prop_assert_eq!(bits(out.iter().copied()), single, "{}", method);
    }
    let set = published_set(engine);
    let mut streamed = vec![Some(f64::NAN); 3];
    prop_assert!(set.query_batch_into(queries, &mut streamed).is_ok());
    let single = bits(
        queries
            .iter()
            .map(|q| set.query(q).ok().flatten().flatten()),
    );
    prop_assert_eq!(bits(streamed.iter().copied()), single.clone());
    engine.query_batch_into(queries, QueryMethod::ModelCover, &mut out);
    prop_assert_eq!(bits(out.iter().copied()), single);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batch_routing_equals_per_tuple_routing(
        tuples in arb_clocked_tuples(150),
        shape in 0u8..6,
        per_window in 1usize..40,
        window_secs in 1i64..900,
        picks in prop::collection::vec((0usize..10_000, 0u8..5), 0..96),
        sorted_prefix in 0usize..96,
    ) {
        let (tuples, spec) = match shape {
            // Empty engine and empty published set.
            0 => (Vec::new(), WindowSpec::ByCount(per_window)),
            // One window.
            1 => (tuples, WindowSpec::ByCount(usize::MAX)),
            2 | 3 => (tuples, WindowSpec::ByCount(per_window)),
            _ => (tuples, WindowSpec::ByDuration(window_secs)),
        };
        let dataset = Dataset::from_tuples(Pollutant::Co2, tuples).unwrap();
        let engine = QueryEngine::new(dataset, spec, AdKmnConfig::default(), 500.0);
        if shape == 1 {
            prop_assert!(engine.window_count() <= 1);
        }
        let queries = probe_queries(&engine, &picks, sorted_prefix);
        assert_batch_routing_matches_per_tuple(&engine, &queries)?;
    }
}

/// Count windows whose boundaries split runs of equal timestamps: two
/// windows share a first time, and only the newer of them is routed to.
#[test]
fn count_windows_splitting_equal_times_route_like_single_queries() {
    // Six readings at tick 1, six at tick 2, four per window: window 0 is
    // all tick 1, window 1 starts at tick 1 and ends in tick 2, window 2
    // is the rest of tick 2.
    let tuples: Vec<RawTuple> = (0..12)
        .map(|i| {
            RawTuple::new(
                Timestamp::from_secs((1 + i / 6) * TICK_SECS),
                Point::new(i as f64 * 150.0, (i % 3) as f64 * 90.0),
                400.0 + 10.0 * i as f64,
            )
        })
        .collect();
    let dataset = Dataset::from_tuples(Pollutant::Co2, tuples).unwrap();
    let engine = QueryEngine::new(
        dataset,
        WindowSpec::ByCount(4),
        AdKmnConfig::default(),
        500.0,
    );
    let first_secs: Vec<i64> = (0..engine.window_count())
        .map(|idx| engine.window_tuples(idx)[0].time.as_secs())
        .collect();
    assert_eq!(first_secs, vec![TICK_SECS, TICK_SECS, 2 * TICK_SECS]);
    let route = |secs: i64| engine.window_index_for(Timestamp::from_secs(secs));
    assert_eq!(route(TICK_SECS - 1), Some(0));
    assert_eq!(route(TICK_SECS), Some(1));
    assert_eq!(route(2 * TICK_SECS - 1), Some(1));
    assert_eq!(route(2 * TICK_SECS), Some(2));
    let queries: Vec<QueryTuple> = [0, 59, 60, 60, 119, 120, 120, 600, 60, 0]
        .iter()
        .enumerate()
        .map(|(i, &secs)| {
            QueryTuple::new(
                Timestamp::from_secs(secs),
                Point::new(i as f64 * 300.0, 0.0),
            )
        })
        .collect();
    assert_batch_routing_matches_per_tuple(&engine, &queries).unwrap();
}
