//! The windowed query engine: lazy per-window structures + dispatch.

use crate::cluster::AdKmnConfig;
use crate::cover::{CoverBuilder, ModelCover};
use crate::query::{
    CoverProcessor, IdwConfig, IdwProcessor, IndexKind, IndexedProcessor, NaiveProcessor,
    PointQueryProcessor, QueryMethod,
};
use crate::routing;
use enviro_data::{Dataset, QueryTuple, RawTuple, Timestamp, WindowSpec, Windows};
use enviro_schedule::sync::OnceLock;

/// Precomputed placement of one window inside the dataset's tuple vector.
#[derive(Debug, Clone, Copy)]
struct WindowMeta {
    id: u64,
    start: usize,
    end: usize,
    first_time: Timestamp,
    valid_until: Timestamp,
}

/// The EnviroMeter server's query engine (Figure 3): owns the raw tuples,
/// decomposes them into windows, lazily materializes the per-window
/// structure each method needs (model cover, R-tree, VP-tree, grid) and
/// caches it — the `model_cover` table of Figure 1.
#[derive(Debug)]
pub struct QueryEngine {
    dataset: Dataset,
    spec: WindowSpec,
    builder: CoverBuilder,
    radius: f64,
    windows: Vec<WindowMeta>,
    /// Per-window lazily built covers; `OnceLock` keeps the hot query path
    /// lock-free after the first build.
    covers: Vec<OnceLock<ModelCover>>,
    /// Per-window, per-kind lazily built indexes
    /// (order: R-tree, VP-tree, kd-tree, grid).
    indexes: Vec<[OnceLock<IndexedProcessor>; 4]>,
    /// Per-window lazily built IDW processors (extension method).
    idw: Vec<OnceLock<IdwProcessor>>,
}

fn kind_slot(kind: IndexKind) -> usize {
    match kind {
        IndexKind::RTree => 0,
        IndexKind::VpTree => 1,
        IndexKind::KdTree => 2,
        IndexKind::Grid => 3,
    }
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
        let covers = (0..windows.len()).map(|_| OnceLock::new()).collect();
        let indexes = (0..windows.len())
            .map(|_| {
                [
                    OnceLock::new(),
                    OnceLock::new(),
                    OnceLock::new(),
                    OnceLock::new(),
                ]
            })
            .collect();
        let idw = (0..windows.len()).map(|_| OnceLock::new()).collect();
        Self {
            dataset,
            spec,
            builder: CoverBuilder::new(adkmn),
            radius,
            windows,
            covers,
            indexes,
            idw,
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
        self.covers[idx].get_or_init(|| {
            let meta = self.windows[idx];
            let window = enviro_data::Window {
                id: meta.id,
                tuples: self.window_tuples(idx),
                valid_until: meta.valid_until,
            };
            self.builder.build(&window, self.dataset.pollutant())
        })
    }

    /// The model cover responsible for time `t` (`None` on empty dataset).
    pub fn cover_for_time(&self, t: Timestamp) -> Option<&ModelCover> {
        self.window_index_for(t).map(|i| self.cover(i))
    }

    /// The indexed processor of `kind` for window `idx`, cached.
    pub fn indexed(&self, idx: usize, kind: IndexKind) -> &IndexedProcessor {
        self.indexes[idx][kind_slot(kind)]
            .get_or_init(|| IndexedProcessor::build(kind, self.window_tuples(idx), self.radius))
    }

    /// The IDW processor for window `idx`, cached.
    pub fn idw(&self, idx: usize) -> &IdwProcessor {
        self.idw[idx]
            .get_or_init(|| IdwProcessor::build(self.window_tuples(idx), IdwConfig::default()))
    }

    /// Builds the structure `method` needs for window `idx` (no-op for the
    /// scan-based naive method).
    fn build_window(&self, idx: usize, method: QueryMethod) {
        match method {
            QueryMethod::Naive => {}
            QueryMethod::ModelCover => {
                let _ = self.cover(idx);
            }
            QueryMethod::RTree => {
                let _ = self.indexed(idx, IndexKind::RTree);
            }
            QueryMethod::VpTree => {
                let _ = self.indexed(idx, IndexKind::VpTree);
            }
            QueryMethod::KdTree => {
                let _ = self.indexed(idx, IndexKind::KdTree);
            }
            QueryMethod::Grid => {
                let _ = self.indexed(idx, IndexKind::Grid);
            }
            QueryMethod::Idw => {
                let _ = self.idw(idx);
            }
        }
    }

    /// Eagerly builds every per-window structure for `method`, so that a
    /// subsequent timed query loop measures pure query cost (the evaluation
    /// regime of Figure 6a).
    pub fn prepare(&self, method: QueryMethod) {
        for idx in 0..self.windows.len() {
            self.build_window(idx, method);
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
                    self.build_window(idx, method);
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
        match method {
            QueryMethod::Naive => {
                NaiveProcessor::new(self.window_tuples(idx), self.radius).interpolate(q)
            }
            QueryMethod::RTree => self.indexed(idx, IndexKind::RTree).interpolate(q),
            QueryMethod::VpTree => self.indexed(idx, IndexKind::VpTree).interpolate(q),
            QueryMethod::KdTree => self.indexed(idx, IndexKind::KdTree).interpolate(q),
            QueryMethod::Grid => self.indexed(idx, IndexKind::Grid).interpolate(q),
            QueryMethod::Idw => self.idw(idx).interpolate(q),
            QueryMethod::ModelCover => CoverProcessor::new(self.cover(idx)).interpolate(q),
        }
    }

    /// Answers a batch of point queries, appending one answer per query to
    /// `out` (which is cleared first).
    ///
    /// This is the serving path behind `Request::QueryBatch`: the caller
    /// owns and reuses `out` across frames, so a warmed-up server does no
    /// per-query allocation here. The batch is routed once per run of
    /// consecutive queries in the same window (one window search per run,
    /// then a range check per tuple), and each run shares one processor
    /// binding — trajectory chunks are strongly time-sorted, so runs are
    /// long.
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
            |idx, run| match method {
                QueryMethod::Naive => NaiveProcessor::new(self.window_tuples(idx), self.radius)
                    .interpolate_batch(run, out),
                QueryMethod::RTree => self
                    .indexed(idx, IndexKind::RTree)
                    .interpolate_batch(run, out),
                QueryMethod::VpTree => self
                    .indexed(idx, IndexKind::VpTree)
                    .interpolate_batch(run, out),
                QueryMethod::KdTree => self
                    .indexed(idx, IndexKind::KdTree)
                    .interpolate_batch(run, out),
                QueryMethod::Grid => self
                    .indexed(idx, IndexKind::Grid)
                    .interpolate_batch(run, out),
                QueryMethod::Idw => self.idw(idx).interpolate_batch(run, out),
                QueryMethod::ModelCover => {
                    CoverProcessor::new(self.cover(idx)).interpolate_batch(run, out)
                }
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

/// The default worker-thread count for parallel preparation and concurrent
/// serving: the machine's available hardware parallelism, or 1 when the OS
/// cannot report it.
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
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
    fn indexes_are_cached_per_kind() {
        let (engine, _) = small_engine();
        let a = engine.indexed(1, IndexKind::RTree) as *const _;
        let b = engine.indexed(1, IndexKind::RTree) as *const _;
        let c = engine.indexed(1, IndexKind::VpTree);
        assert_eq!(a, b);
        assert_eq!(c.kind(), IndexKind::VpTree);
    }

    #[test]
    fn raw_methods_agree_everywhere() {
        let (engine, sim) = small_engine();
        for q in sim.query_workload(60, 300.0, 7) {
            let naive = engine.query(&q, QueryMethod::Naive);
            for m in [QueryMethod::RTree, QueryMethod::VpTree, QueryMethod::Grid] {
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
        assert!(engine.covers.iter().all(|c| c.get().is_some()));
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
        assert!(engine.covers.iter().all(|c| c.get().is_some()));
        engine.prepare(QueryMethod::VpTree);
        assert!(engine
            .indexes
            .iter()
            .all(|slots| slots[kind_slot(IndexKind::VpTree)].get().is_some()));
    }
}
