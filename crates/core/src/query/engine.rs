//! The windowed query engine: lazy per-window structures + dispatch.

use crate::cluster::AdKmnConfig;
use crate::cover::{CoverBuilder, ModelCover};
use crate::publish::PublishedCover;
use crate::query::idw::idw;
use crate::query::indexed::{entries, indexed_mean};
use crate::query::naive::naive_mean;
use crate::query::QueryMethod;
use crate::routing;
use enviro_data::{
    default_parallelism, Dataset, QueryTuple, RawTuple, Timestamp, WindowSpec, Windows,
};
use enviro_index::{GridIndex, KdTree, RTree, SpatialIndex, VpTree};
use enviro_schedule::sync::{Arc, OnceLock};

/// Precomputed placement of one window inside the dataset's tuple vector.
#[derive(Debug, Clone, Copy)]
struct WindowMeta {
    id: u64,
    start: usize,
    end: usize,
    first_time: Timestamp,
    valid_until: Timestamp,
}

/// One window's lazily built structures, one slot per structure a
/// [`QueryMethod`] needs. Each slot is an independent `OnceLock`, which
/// keeps the hot query path lock-free after the first build. The R-tree
/// serves both [`QueryMethod::RTree`]'s radius search and
/// [`QueryMethod::Idw`]'s k-NN; the naïve scan needs no structure. The
/// cover is `Arc`-shared, so a server publishing it into a
/// [`crate::CoverRegistry`] holds the same copy the engine does.
#[derive(Debug, Default)]
struct WindowSlots {
    cover: OnceLock<Arc<ModelCover>>,
    rtree: OnceLock<RTree>,
    vptree: OnceLock<VpTree>,
    kdtree: OnceLock<KdTree>,
    grid: OnceLock<GridIndex>,
}

/// One method bound to one window: what answers each query of a window
/// run.
#[derive(Clone, Copy)]
enum Bound<'a> {
    Cover(&'a ModelCover),
    Naive {
        tuples: &'a [RawTuple],
        radius: f64,
    },
    Indexed {
        index: &'a dyn SpatialIndex,
        tuples: &'a [RawTuple],
        radius: f64,
    },
    Idw {
        tree: &'a RTree,
        tuples: &'a [RawTuple],
    },
}

impl Bound<'_> {
    fn answer(self, q: &QueryTuple) -> Option<f64> {
        match self {
            Bound::Cover(cover) => cover.interpolate(q.time, &q.pos),
            Bound::Naive { tuples, radius } => naive_mean(tuples, radius, q),
            Bound::Indexed {
                index,
                tuples,
                radius,
            } => indexed_mean(index, tuples, radius, q),
            Bound::Idw { tree, tuples } => idw(tree, tuples, q),
        }
    }
}

/// The EnviroMeter server's query engine (Figure 3): owns the raw tuples,
/// decomposes them into windows, lazily materializes the per-window
/// structure each method needs (model cover, R-tree, VP-tree, kd-tree,
/// grid) and caches it — the `model_cover` table of Figure 1.
#[derive(Debug)]
pub struct QueryEngine {
    dataset: Dataset,
    spec: WindowSpec,
    builder: CoverBuilder,
    radius: f64,
    windows: Vec<WindowMeta>,
    /// Per-window structure slots, parallel to `windows`.
    slots: Vec<WindowSlots>,
}

impl QueryEngine {
    /// Creates an engine over `dataset` with the given windowing, Ad-KMN
    /// configuration and raw-data query radius `radius` (meters).
    pub fn new(dataset: Dataset, spec: WindowSpec, adkmn: AdKmnConfig, radius: f64) -> Self {
        assert!(radius >= 0.0, "radius must be non-negative");
        let mut windows = Vec::new();
        let mut offset = 0usize;
        for w in Windows::new(&dataset, spec) {
            windows.push(WindowMeta {
                id: w.id,
                start: offset,
                end: offset + w.len(),
                first_time: w.tuples.first().map(|t| t.time).unwrap_or(Timestamp::ZERO),
                valid_until: w.valid_until,
            });
            offset += w.len();
        }
        let slots = (0..windows.len()).map(|_| WindowSlots::default()).collect();
        Self {
            dataset,
            spec,
            builder: CoverBuilder::new(adkmn),
            radius,
            windows,
            slots,
        }
    }

    /// The underlying dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The window specification.
    pub fn spec(&self) -> WindowSpec {
        self.spec
    }

    /// The raw-data query radius `r` in meters.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Number of windows in the dataset.
    pub fn window_count(&self) -> usize {
        self.windows.len()
    }

    /// The index of the window responsible for time `t`.
    ///
    /// Queries before the first window are served by the first; queries
    /// after the last by the last (the freshest available data) — a query
    /// must always be answerable from *some* window. `None` only for an
    /// empty dataset. The rule is the crate's one routing rule, shared with
    /// [`crate::CoverSet::cover_for_time`].
    pub fn window_index_for(&self, t: Timestamp) -> Option<usize> {
        routing::window_index(&self.windows, |w| w.first_time, t)
    }

    /// The tuples of window `idx`.
    ///
    /// # Panics
    /// Panics when `idx` is out of range.
    pub fn window_tuples(&self, idx: usize) -> &[RawTuple] {
        let w = &self.windows[idx];
        &self.dataset.tuples()[w.start..w.end]
    }

    /// The model cover of window `idx`, building and caching it on first
    /// use (the paper's lazy model creation).
    pub fn cover(&self, idx: usize) -> &ModelCover {
        self.shared_cover(idx)
    }

    fn shared_cover(&self, idx: usize) -> &Arc<ModelCover> {
        self.slots[idx].cover.get_or_init(|| {
            let meta = self.windows[idx];
            let window = enviro_data::Window {
                id: meta.id,
                tuples: self.window_tuples(idx),
                valid_until: meta.valid_until,
            };
            Arc::new(self.builder.build(&window, self.dataset.pollutant()))
        })
    }

    /// Every window's cover as a [`PublishedCover`], oldest window first,
    /// each keyed by its window id and first tuple time and sharing the
    /// engine's copy — what a server publishes as the covers of its static
    /// history. Builds any cover not yet built, one window at a time (call
    /// [`QueryEngine::prepare_parallel_auto`] first to build them in
    /// parallel).
    pub fn published_covers(&self) -> Vec<PublishedCover> {
        self.windows
            .iter()
            .enumerate()
            .map(|(idx, meta)| PublishedCover {
                window_id: meta.id,
                first_time: meta.first_time,
                cover: Arc::clone(self.shared_cover(idx)).into(),
            })
            .collect()
    }

    /// The model cover responsible for time `t` (`None` on empty dataset).
    pub fn cover_for_time(&self, t: Timestamp) -> Option<&ModelCover> {
        self.window_index_for(t).map(|i| self.cover(i))
    }

    /// Binds `method` to window `idx`, building and caching the structure
    /// it needs on first use — the one dispatch over [`QueryMethod`].
    fn bind<'a>(&'a self, idx: usize, method: QueryMethod) -> Bound<'a> {
        let tuples = self.window_tuples(idx);
        let slots = &self.slots[idx];
        let radius = self.radius;
        let rtree = || {
            slots
                .rtree
                .get_or_init(|| RTree::bulk_load(entries(tuples)))
        };
        let indexed = |index: &'a dyn SpatialIndex| Bound::Indexed {
            index,
            tuples,
            radius,
        };
        match method {
            QueryMethod::ModelCover => Bound::Cover(self.cover(idx)),
            QueryMethod::Naive => Bound::Naive { tuples, radius },
            QueryMethod::Idw => Bound::Idw {
                tree: rtree(),
                tuples,
            },
            QueryMethod::RTree => indexed(rtree()),
            QueryMethod::VpTree => {
                indexed(slots.vptree.get_or_init(|| VpTree::build(entries(tuples))))
            }
            QueryMethod::KdTree => {
                indexed(slots.kdtree.get_or_init(|| KdTree::build(entries(tuples))))
            }
            // Cell size on the order of the query radius keeps the
            // per-query cell count constant.
            QueryMethod::Grid => indexed(
                slots
                    .grid
                    .get_or_init(|| GridIndex::build(&entries(tuples), radius.max(1.0))),
            ),
        }
    }

    /// Eagerly builds every per-window structure for `method`, so that a
    /// subsequent timed query loop measures pure query cost (the evaluation
    /// regime of Figure 6a).
    pub fn prepare(&self, method: QueryMethod) {
        for idx in 0..self.windows.len() {
            self.bind(idx, method);
        }
    }

    /// Like [`QueryEngine::prepare`], but builds window structures on
    /// `threads` worker threads. Safe because every per-window slot is an
    /// independent `OnceLock`; useful when standing up paper-scale datasets
    /// (hundreds of windows) for evaluation.
    pub fn prepare_parallel(&self, method: QueryMethod, threads: usize) {
        let threads = threads.max(1);
        let next = enviro_schedule::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    // ordering: Relaxed — a pure work-distribution counter;
                    // no data is published through it (each slot is its own
                    // OnceLock), so only atomicity matters.
                    let idx = next.fetch_add(1, enviro_schedule::sync::atomic::Ordering::Relaxed);
                    if idx >= self.windows.len() {
                        break;
                    }
                    self.bind(idx, method);
                });
            }
        });
    }

    /// [`QueryEngine::prepare_parallel`] with [`default_parallelism`]
    /// worker threads — the deployment default.
    pub fn prepare_parallel_auto(&self, method: QueryMethod) {
        self.prepare_parallel(method, default_parallelism());
    }

    /// Answers one point query with the chosen method.
    pub fn query(&self, q: &QueryTuple, method: QueryMethod) -> Option<f64> {
        let idx = self.window_index_for(q.time)?;
        self.bind(idx, method).answer(q)
    }

    /// Answers a batch of point queries, appending one answer per query to
    /// `out` (which is cleared first).
    ///
    /// This is the serving path behind `Request::QueryBatch`: the caller
    /// owns and reuses `out` across frames, so a warmed-up server does no
    /// per-query allocation here. The batch is routed once per run of
    /// consecutive queries in the same window (one window search per run,
    /// then a range check per tuple), and each run binds the method to its
    /// window once — trajectory chunks are strongly time-sorted, so runs
    /// are long.
    pub fn query_batch_into(
        &self,
        queries: &[QueryTuple],
        method: QueryMethod,
        out: &mut Vec<Option<f64>>,
    ) {
        out.clear();
        out.reserve(queries.len());
        if self.windows.is_empty() {
            // Empty dataset: nothing can answer any query.
            out.resize(queries.len(), None);
            return;
        }
        routing::for_each_window_run(
            &self.windows,
            |w| w.first_time,
            queries,
            |idx, run| match self.bind(idx, method) {
                // The serving path: a direct cover loop, no per-query
                // dispatch.
                Bound::Cover(cover) => {
                    out.extend(run.iter().map(|q| cover.interpolate(q.time, &q.pos)))
                }
                bound => out.extend(run.iter().map(|q| bound.answer(q))),
            },
        );
    }

    /// Answers a continuous query (a whole trajectory) with one method.
    pub fn continuous_query(
        &self,
        trajectory: &[QueryTuple],
        method: QueryMethod,
    ) -> Vec<Option<f64>> {
        let mut out = Vec::new();
        self.query_batch_into(trajectory, method, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enviro_data::{LausanneSim, Pollutant, SimConfig};
    use enviro_geo::Point;

    fn small_engine() -> (QueryEngine, LausanneSim) {
        let sim = LausanneSim::lausanne(SimConfig {
            duration_secs: 4 * 3_600,
            sampling_interval_secs: 60,
            seed: 99,
            ..SimConfig::default()
        });
        let engine = QueryEngine::new(
            sim.generate(),
            WindowSpec::ByCount(120),
            AdKmnConfig::default(),
            1_000.0,
        );
        (engine, sim)
    }

    #[test]
    fn window_layout_covers_dataset() {
        let (engine, _) = small_engine();
        let total: usize = (0..engine.window_count())
            .map(|i| engine.window_tuples(i).len())
            .sum();
        assert_eq!(total, engine.dataset().len());
        // 4 h × 60 s × 2 buses = 480 tuples → 4 windows of 120.
        assert_eq!(engine.window_count(), 4);
    }

    #[test]
    fn window_index_for_times() {
        let (engine, _) = small_engine();
        // The first tuple of window 1 starts at 3600 s (120 tuples / 2
        // buses × 60 s).
        assert_eq!(engine.window_index_for(Timestamp::from_secs(0)), Some(0));
        assert_eq!(
            engine.window_index_for(Timestamp::from_secs(3_599)),
            Some(0)
        );
        assert_eq!(
            engine.window_index_for(Timestamp::from_secs(3_600)),
            Some(1)
        );
        // Far future → last window.
        assert_eq!(engine.window_index_for(Timestamp::from_days(40)), Some(3));
        // Before epoch → first window.
        assert_eq!(engine.window_index_for(Timestamp::from_secs(-5)), Some(0));
    }

    #[test]
    fn empty_dataset_engine() {
        let engine = QueryEngine::new(
            Dataset::new(Pollutant::Co2),
            WindowSpec::ByCount(10),
            AdKmnConfig::default(),
            100.0,
        );
        assert_eq!(engine.window_count(), 0);
        assert_eq!(engine.window_index_for(Timestamp::ZERO), None);
        let q = QueryTuple::new(Timestamp::ZERO, Point::origin());
        for m in QueryMethod::ALL {
            assert_eq!(engine.query(&q, m), None, "{m}");
        }
    }

    #[test]
    fn covers_are_cached() {
        let (engine, _) = small_engine();
        let a = engine.cover(0) as *const _;
        let b = engine.cover(0) as *const _;
        assert_eq!(a, b);
    }

    #[test]
    fn published_covers_share_the_engine_copies() {
        let (engine, _) = small_engine();
        let published = engine.published_covers();
        assert_eq!(published.len(), engine.window_count());
        for (idx, entry) in published.iter().enumerate() {
            assert_eq!(entry.window_id, idx as u64);
            assert_eq!(entry.first_time, engine.window_tuples(idx)[0].time);
            let resident = entry.cover.resident().expect("static covers are resident");
            assert!(std::ptr::eq(resident.as_ref(), engine.cover(idx)));
        }
    }

    #[test]
    fn indexes_are_cached_per_kind() {
        let (engine, _) = small_engine();
        engine.prepare(QueryMethod::RTree);
        let slots = &engine.slots[1];
        let rtree = slots.rtree.get().unwrap() as *const RTree;
        assert!(slots.vptree.get().is_none() && slots.kdtree.get().is_none());
        engine.prepare(QueryMethod::RTree);
        engine.prepare(QueryMethod::VpTree);
        assert_eq!(slots.rtree.get().unwrap() as *const RTree, rtree);
        assert!(slots.vptree.get().is_some());
        assert!(slots.grid.get().is_none() && slots.cover.get().is_none());
    }

    #[test]
    fn rtree_serves_both_radius_search_and_idw() {
        let (engine, sim) = small_engine();
        engine.prepare(QueryMethod::Idw);
        let rtrees: Vec<*const RTree> = engine
            .slots
            .iter()
            .map(|s| s.rtree.get().unwrap() as *const RTree)
            .collect();
        for q in sim.query_workload(20, 300.0, 5) {
            engine.query(&q, QueryMethod::RTree);
        }
        engine.prepare(QueryMethod::RTree);
        for (slots, rtree) in engine.slots.iter().zip(rtrees) {
            assert_eq!(slots.rtree.get().unwrap() as *const RTree, rtree);
        }
    }

    #[test]
    fn raw_methods_agree_everywhere() {
        let (engine, sim) = small_engine();
        for q in sim.query_workload(60, 300.0, 7) {
            let naive = engine.query(&q, QueryMethod::Naive);
            for m in [
                QueryMethod::RTree,
                QueryMethod::VpTree,
                QueryMethod::KdTree,
                QueryMethod::Grid,
            ] {
                let got = engine.query(&q, m);
                match (naive, got) {
                    (None, None) => {}
                    (Some(a), Some(b)) => assert!((a - b).abs() < 1e-9, "{m}"),
                    other => panic!("{m}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn model_cover_answers_sensible_values() {
        let (engine, sim) = small_engine();
        let queries = sim.query_workload(40, 200.0, 8);
        let mut answered = 0;
        for q in &queries {
            if let Some(v) = engine.query(q, QueryMethod::ModelCover) {
                answered += 1;
                // CO2 around Lausanne: generously 200..2000 ppm.
                assert!((100.0..3_000.0).contains(&v), "implausible {v}");
            }
        }
        assert_eq!(answered, queries.len(), "cover answers every query");
    }

    /// One window over a sampled plane `500 + 0.1·x − 0.05·y`.
    fn plane_engine() -> QueryEngine {
        let tuples: Vec<RawTuple> = (0..80)
            .map(|i| {
                let x = (i % 8) as f64 * 50.0;
                let y = (i / 8) as f64 * 50.0;
                RawTuple::new(
                    Timestamp::from_secs(i),
                    Point::new(x, y),
                    500.0 + 0.1 * x - 0.05 * y,
                )
            })
            .collect();
        let dataset = Dataset::from_tuples(Pollutant::Co2, tuples).unwrap();
        QueryEngine::new(
            dataset,
            WindowSpec::ByCount(80),
            AdKmnConfig::default(),
            100.0,
        )
    }

    #[test]
    fn model_cover_answers_from_models() {
        let engine = plane_engine();
        let q = QueryTuple::new(Timestamp::from_secs(40), Point::new(175.0, 225.0));
        let got = engine.query(&q, QueryMethod::ModelCover).unwrap();
        let truth = 500.0 + 0.1 * 175.0 - 0.05 * 225.0;
        assert!((got - truth).abs() < 5.0, "{got} vs {truth}");
    }

    #[test]
    fn model_cover_answers_even_far_from_data() {
        // Unlike the radius methods, the cover extrapolates: a query far
        // from any sample still gets the nearest region's model value.
        let engine = plane_engine();
        let q = QueryTuple::new(Timestamp::from_secs(0), Point::new(1.0e5, 1.0e5));
        assert!(engine.query(&q, QueryMethod::ModelCover).is_some());
        assert_eq!(engine.query(&q, QueryMethod::Naive), None);
    }

    #[test]
    fn model_cover_empty_cover_returns_none() {
        let cover = ModelCover {
            pollutant: Pollutant::Co2,
            window_id: 0,
            valid_until: Timestamp::ZERO,
            regions: Vec::new(),
        };
        let q = QueryTuple::new(Timestamp::ZERO, Point::origin());
        assert_eq!(Bound::Cover(&cover).answer(&q), None);
    }

    #[test]
    fn continuous_query_length_matches() {
        let (engine, sim) = small_engine();
        let traj = sim.continuous_trajectory(25, 30, 5);
        let vals = engine.continuous_query(&traj, QueryMethod::ModelCover);
        assert_eq!(vals.len(), 25);
    }

    #[test]
    fn batch_matches_per_query_for_all_methods() {
        let (engine, sim) = small_engine();
        // A workload that crosses window boundaries mid-batch, plus an
        // unsorted tail so the run detection sees window regressions.
        let mut queries = sim.continuous_trajectory(60, 300, 11);
        queries.extend(sim.query_workload(40, 300.0, 12));
        let mut out = Vec::new();
        for m in QueryMethod::ALL {
            engine.query_batch_into(&queries, m, &mut out);
            assert_eq!(out.len(), queries.len(), "{m}");
            for (i, q) in queries.iter().enumerate() {
                let single = engine.query(q, m);
                match (single, out[i]) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        assert_eq!(a.to_bits(), b.to_bits(), "{m} query {i}")
                    }
                    other => panic!("{m} query {i}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn batch_into_reuses_buffer() {
        let (engine, sim) = small_engine();
        let queries = sim.query_workload(30, 300.0, 21);
        let mut out = Vec::new();
        engine.query_batch_into(&queries, QueryMethod::ModelCover, &mut out);
        let cap = out.capacity();
        engine.query_batch_into(&queries, QueryMethod::ModelCover, &mut out);
        assert_eq!(out.capacity(), cap, "buffer must be reused, not regrown");
        assert_eq!(out.len(), queries.len());
    }

    #[test]
    fn batch_on_empty_dataset_answers_all_none() {
        let engine = QueryEngine::new(
            Dataset::new(Pollutant::Co2),
            WindowSpec::ByCount(10),
            AdKmnConfig::default(),
            100.0,
        );
        let queries = vec![QueryTuple::new(Timestamp::ZERO, Point::origin()); 5];
        let mut out = Vec::new();
        engine.query_batch_into(&queries, QueryMethod::ModelCover, &mut out);
        assert_eq!(out, vec![None; 5]);
    }

    #[test]
    fn default_parallelism_is_positive() {
        assert!(default_parallelism() >= 1);
    }

    #[test]
    fn prepare_parallel_auto_populates_caches() {
        let (engine, _) = small_engine();
        engine.prepare_parallel_auto(QueryMethod::ModelCover);
        assert!(engine.slots.iter().all(|s| s.cover.get().is_some()));
    }

    #[test]
    fn prepare_parallel_equals_sequential() {
        let (seq_engine, sim) = small_engine();
        seq_engine.prepare(QueryMethod::ModelCover);
        let par_engine = QueryEngine::new(
            sim.generate(),
            WindowSpec::ByCount(120),
            AdKmnConfig::default(),
            1_000.0,
        );
        par_engine.prepare_parallel(QueryMethod::ModelCover, 4);
        for q in sim.query_workload(50, 200.0, 99) {
            assert_eq!(
                seq_engine.query(&q, QueryMethod::ModelCover),
                par_engine.query(&q, QueryMethod::ModelCover)
            );
        }
    }

    #[test]
    fn prepare_populates_caches() {
        let (engine, _) = small_engine();
        engine.prepare(QueryMethod::ModelCover);
        assert!(engine.slots.iter().all(|s| s.cover.get().is_some()));
        engine.prepare(QueryMethod::VpTree);
        assert!(engine.slots.iter().all(|s| s.vptree.get().is_some()));
    }
}
