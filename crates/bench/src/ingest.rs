//! The durable write path: ingest throughput over the batch-size sweep,
//! and what concurrent ingestion costs the read path.
//!
//! Two questions the WAL tentpole raises, answered by measurement:
//!
//! 1. **Throughput vs batch size** — each `IngestBatch` frame pays one
//!    round trip, one WAL append (with an fsync-equivalent buffer flush)
//!    and one ack, so batching should amortize the per-frame cost the
//!    same way `QueryBatch` frames amortize the read path's. The sweep
//!    streams the same tuple set at several batch sizes and reports
//!    acked tuples/second.
//! 2. **Query latency under ingestion** — the maintenance worker rebuilds
//!    Ad-KMN covers off the hot path, so queries should see (almost) the
//!    same p50/p99 whether or not a writer is streaming. Two cells, same
//!    query load: one quiet, one with a concurrent resilient writer plus
//!    the background maintenance thread, measured per-frame.
//!
//! Latency cells use wall-clock timing; run on an idle host for clean
//! numbers. The report JSON records both cells so the overhead is
//! auditable rather than asserted.

use crate::workload::{Scale, RADIUS_M};
use enviro_data::{Pollutant, QueryTuple, RawTuple, Timestamp, WindowSpec};
use enviro_geo::Point;
use enviro_meter::{AdKmnConfig, EnviroMeter, QueryMethod};
use enviro_net::{
    BinaryCodec, ConcurrentTransport, EnviroClient, EnviroServer, IngestConfig, IngestState,
    ModelMaintenance,
};
use enviro_schedule::sync::atomic::{AtomicU64, Ordering};
use enviro_schedule::sync::Arc;
use enviro_storage::WalConfig;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// WAL window width used by every cell (one simulated hour).
const WINDOW_SECS: i64 = 3_600;

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct IngestBenchConfig {
    /// Ingest batch sizes (tuples per `IngestBatch` frame) to sweep.
    pub batches: Vec<usize>,
    /// Tuples streamed per throughput cell.
    pub tuples: usize,
    /// Queries issued per latency cell.
    pub queries: usize,
    /// Tuples per `QueryBatch` frame in the latency cells.
    pub query_batch: usize,
    /// Worker threads backing the concurrent transport.
    pub workers: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Default for IngestBenchConfig {
    fn default() -> Self {
        Self {
            batches: vec![1, 16, 64, 256],
            tuples: 20_000,
            queries: 4_000,
            query_batch: 32,
            workers: 2,
            seed: 0x001A_6E57,
        }
    }
}

/// One throughput cell: all `tuples` streamed at one batch size.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestThroughputRow {
    /// Tuples per `IngestBatch` frame.
    pub batch: usize,
    /// Tuples acknowledged durable.
    pub acked: u64,
    /// Tuples the retry budget gave up on (0 on the clean wire).
    pub failed: u64,
    /// Tuples recovered from the WAL by the server at the end of the run.
    pub durable: u64,
    /// Wall-clock seconds for the stream.
    pub elapsed_secs: f64,
    /// Acked tuples per second.
    pub tuples_per_sec: f64,
}

/// One latency cell: the full query load, quiet or under ingestion.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryLatencyRow {
    /// Whether a concurrent writer + maintenance thread ran during the
    /// measurement.
    pub concurrent_ingest: bool,
    /// Queries answered.
    pub queries: usize,
    /// Median per-frame round-trip, microseconds.
    pub p50_us: f64,
    /// 99th-percentile per-frame round-trip, microseconds.
    pub p99_us: f64,
    /// Mean per-frame round-trip, microseconds.
    pub mean_us: f64,
    /// Queries per second over the whole cell.
    pub qps: f64,
    /// Tuples the concurrent writer landed while queries ran (0 when
    /// quiet).
    pub ingested_during: u64,
    /// Cover generations published while queries ran.
    pub generations_published: u64,
}

/// The full report.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestReportJson {
    /// Throughput sweep, in `batches` order.
    pub throughput: Vec<IngestThroughputRow>,
    /// Latency cells: `[quiet, under_ingest]`.
    pub latency: Vec<QueryLatencyRow>,
    /// Tuples per throughput cell.
    pub tuples: usize,
    /// Sweep seed.
    pub seed: u64,
}

impl IngestReportJson {
    /// p99 latency under ingestion relative to quiet (1.0 = free writes).
    pub fn p99_ratio(&self) -> Option<f64> {
        let quiet = self.latency.iter().find(|r| !r.concurrent_ingest)?;
        let busy = self.latency.iter().find(|r| r.concurrent_ingest)?;
        Some(busy.p99_us / quiet.p99_us.max(1e-9))
    }

    /// Serializes the report as pretty-printed JSON (no dependencies;
    /// every value is a number, so no string escaping is needed).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"bench\": \"ingest\",");
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"tuples_per_cell\": {},", self.tuples);
        let _ = writeln!(out, "  \"throughput\": [");
        for (i, row) in self.throughput.iter().enumerate() {
            let _ = writeln!(out, "    {{");
            let _ = writeln!(out, "      \"batch\": {},", row.batch);
            let _ = writeln!(out, "      \"acked\": {},", row.acked);
            let _ = writeln!(out, "      \"failed\": {},", row.failed);
            let _ = writeln!(out, "      \"durable\": {},", row.durable);
            let _ = writeln!(out, "      \"elapsed_secs\": {:.6},", row.elapsed_secs);
            let _ = writeln!(out, "      \"tuples_per_sec\": {:.1}", row.tuples_per_sec);
            let _ = writeln!(
                out,
                "    }}{}",
                if i + 1 < self.throughput.len() {
                    ","
                } else {
                    ""
                }
            );
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "  \"latency\": [");
        for (i, row) in self.latency.iter().enumerate() {
            let _ = writeln!(out, "    {{");
            let _ = writeln!(
                out,
                "      \"concurrent_ingest\": {},",
                row.concurrent_ingest
            );
            let _ = writeln!(out, "      \"queries\": {},", row.queries);
            let _ = writeln!(out, "      \"p50_us\": {:.1},", row.p50_us);
            let _ = writeln!(out, "      \"p99_us\": {:.1},", row.p99_us);
            let _ = writeln!(out, "      \"mean_us\": {:.1},", row.mean_us);
            let _ = writeln!(out, "      \"qps\": {:.1},", row.qps);
            let _ = writeln!(out, "      \"ingested_during\": {},", row.ingested_during);
            let _ = writeln!(
                out,
                "      \"generations_published\": {}",
                row.generations_published
            );
            let _ = writeln!(
                out,
                "    }}{}",
                if i + 1 < self.latency.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(
            out,
            "  \"p99_under_ingest_ratio\": {:.3}",
            self.p99_ratio().unwrap_or(0.0)
        );
        let _ = writeln!(out, "}}");
        out
    }
}

/// A deterministic synthetic tuple stream: distinct times two simulated
/// seconds apart (spanning `n / 1800` hour windows), positions and values
/// varied by modular arithmetic.
pub fn synthetic_tuples(n: usize, seed: u64) -> Vec<RawTuple> {
    (0..n)
        .map(|i| {
            let j = i as u64 ^ (seed & 0xFF);
            RawTuple::new(
                Timestamp::from_secs(i as i64 * 2),
                Point::new(
                    (j % 89) as f64 * 45.0 - 2_000.0,
                    (j % 53) as f64 * 60.0 - 1_500.0,
                ),
                400.0 + (j % 41) as f64 * 2.5,
            )
        })
        .collect()
}

/// A fresh directory per call: the unit tests run the bench concurrently in
/// one process, and two cells sharing a directory delete each other's WAL.
fn bench_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    // ordering: Relaxed — a unique-name counter; nothing is published
    // through it.
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let pid = std::process::id();
    std::env::temp_dir().join(format!("enviro-bench-ingest-{tag}-{pid}-{n}"))
}

fn open_state(dir: &PathBuf) -> Option<Arc<IngestState>> {
    let _ = std::fs::remove_dir_all(dir);
    match IngestState::open(
        dir,
        WalConfig {
            window_secs: WINDOW_SECS,
            ..WalConfig::default()
        },
        IngestConfig::default(),
    ) {
        Ok(state) => Some(Arc::new(state)),
        Err(e) => {
            eprintln!("ingest: WAL at {} failed to open: {e}", dir.display());
            None
        }
    }
}

/// An ingest-only server: empty static platform, every frame goes to the
/// WAL.
fn ingest_server(state: &Arc<IngestState>) -> EnviroServer<BinaryCodec> {
    EnviroServer::new(
        EnviroMeter::new(
            enviro_data::Dataset::new(Pollutant::Co2),
            WindowSpec::ByDuration(WINDOW_SECS),
            AdKmnConfig::default(),
            RADIUS_M,
        ),
        BinaryCodec,
        QueryMethod::ModelCover,
    )
    .with_ingest(Arc::clone(state))
}

/// The read-path server for the latency cells: quick-scale platform with
/// prebuilt covers, windowed like the store, plus an attached ingest state
/// for the busy cell.
fn query_server(seed: u64, state: &Arc<IngestState>) -> EnviroServer<BinaryCodec> {
    let sim = enviro_data::LausanneSim::lausanne(Scale::Quick.sim_config(seed));
    let platform = EnviroMeter::new(
        sim.generate(),
        WindowSpec::ByDuration(WINDOW_SECS),
        AdKmnConfig::default(),
        RADIUS_M,
    );
    EnviroServer::new(platform, BinaryCodec, QueryMethod::ModelCover).with_ingest(Arc::clone(state))
}

/// Measures one throughput cell: `cfg.tuples` tuples at `batch` per frame.
fn run_throughput_cell(cfg: &IngestBenchConfig, batch: usize) -> IngestThroughputRow {
    // A zeroed row for a cell that could not even start (WAL open or
    // thread-spawn failure); impossible to measure, visible in the output.
    let failed_row = || {
        eprintln!("ingest: cell batch={batch} could not start");
        IngestThroughputRow {
            batch,
            acked: 0,
            failed: 0,
            durable: 0,
            elapsed_secs: f64::INFINITY,
            tuples_per_sec: 0.0,
        }
    };
    let dir = bench_dir(&format!("tput-{batch}"));
    let Some(state) = open_state(&dir) else {
        return failed_row();
    };
    let transport =
        match ConcurrentTransport::spawn_shared(Arc::new(ingest_server(&state)), cfg.workers) {
            Ok(t) => t,
            Err(_) => return failed_row(),
        };
    let tuples = synthetic_tuples(cfg.tuples, cfg.seed);
    let mut wire = transport.session();
    let mut client = EnviroClient::new(BinaryCodec, Pollutant::Co2).with_batch(batch);

    let start = Instant::now();
    let report = client.ingest_resilient(&mut wire, 0xBE, &tuples);
    let elapsed = start.elapsed().as_secs_f64();

    let durable = state.stats().durable_tuples;
    let _ = std::fs::remove_dir_all(&dir);
    IngestThroughputRow {
        batch,
        acked: report.acked_tuples,
        failed: report.failed_tuples,
        durable,
        elapsed_secs: elapsed,
        tuples_per_sec: report.acked_tuples as f64 / elapsed.max(1e-9),
    }
}

/// Measures one latency cell. When `with_ingest` is set, a second session
/// streams tuples (and the maintenance thread rebuilds covers) for the
/// whole measurement.
fn run_latency_cell(cfg: &IngestBenchConfig, with_ingest: bool) -> QueryLatencyRow {
    let failed_row = || {
        eprintln!("ingest: latency cell (ingest={with_ingest}) could not start");
        QueryLatencyRow {
            concurrent_ingest: with_ingest,
            queries: 0,
            p50_us: 0.0,
            p99_us: 0.0,
            mean_us: 0.0,
            qps: 0.0,
            ingested_during: 0,
            generations_published: 0,
        }
    };
    let dir = bench_dir(if with_ingest { "lat-busy" } else { "lat-quiet" });
    let Some(state) = open_state(&dir) else {
        return failed_row();
    };
    let maintenance = with_ingest
        .then(|| ModelMaintenance::spawn(Arc::clone(&state)).ok())
        .flatten();
    let server = Arc::new(query_server(cfg.seed, &state));
    // Counted from after the server seeded its static covers: only the
    // generations the writer's load published.
    let gen_before = state.generation();
    let transport = match ConcurrentTransport::spawn_shared(Arc::clone(&server), cfg.workers) {
        Ok(t) => t,
        Err(_) => return failed_row(),
    };
    let sim = enviro_data::LausanneSim::lausanne(Scale::Quick.sim_config(cfg.seed));
    let traj: Vec<QueryTuple> = sim.continuous_trajectory(cfg.queries, 60, cfg.seed ^ 9);
    let writer_tuples = synthetic_tuples(cfg.tuples, cfg.seed ^ 0x0077_1217);

    let stop = enviro_schedule::sync::atomic::AtomicBool::new(false);
    let writing = enviro_schedule::sync::atomic::AtomicBool::new(false);
    let (latencies_us, elapsed, ingested) = std::thread::scope(|scope| {
        let writer = with_ingest.then(|| {
            let transport = &transport;
            let stop = &stop;
            let writing = &writing;
            let tuples = &writer_tuples;
            scope.spawn(move || {
                let mut wire = transport.session();
                let mut client = EnviroClient::new(BinaryCodec, Pollutant::Co2).with_batch(64);
                let mut landed = 0u64;
                // Keep writing until the query side finishes.
                // ordering: Relaxed — a polled stop flag; the writer only
                // needs to observe the store eventually, and the scope join
                // below is what synchronizes its counters back.
                while !stop.load(enviro_schedule::sync::atomic::Ordering::Relaxed) {
                    landed += client
                        .ingest_resilient(&mut wire, 0xADD, tuples)
                        .acked_tuples;
                    // ordering: Relaxed — a start signal polled by the query
                    // side below; the scope join synchronizes the counters.
                    writing.store(true, enviro_schedule::sync::atomic::Ordering::Relaxed);
                }
                landed
            })
        });
        // The busy cell measures queries *under* ingest: hold the query loop
        // until the writer has landed its first batch (or exited), so a
        // slow-to-schedule writer cannot leave the whole cell unloaded.
        if let Some(w) = &writer {
            // ordering: Relaxed — see the writer's store above.
            while !writing.load(enviro_schedule::sync::atomic::Ordering::Relaxed)
                && !w.is_finished()
            {
                std::thread::yield_now();
            }
        }

        let mut wire = transport.session();
        let mut client = EnviroClient::new(BinaryCodec, Pollutant::Co2).with_batch(cfg.query_batch);
        let mut latencies = Vec::with_capacity(traj.len() / cfg.query_batch + 1);
        let mut values = Vec::new();
        let start = Instant::now();
        for frame in traj.chunks(cfg.query_batch) {
            let t0 = Instant::now();
            let _ = client.query_batch(&mut wire, frame, &mut values);
            latencies.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        let elapsed = start.elapsed().as_secs_f64();
        // ordering: Relaxed — see the writer's polling load above.
        stop.store(true, enviro_schedule::sync::atomic::Ordering::Relaxed);
        let ingested = writer.and_then(|h| h.join().ok()).unwrap_or(0);
        (latencies, elapsed, ingested)
    });
    drop(maintenance);
    let generations = state.generation().saturating_sub(gen_before);
    let _ = std::fs::remove_dir_all(&dir);

    let mut sorted = latencies_us.clone();
    sorted.sort_by(|a, b| a.total_cmp(b));
    QueryLatencyRow {
        concurrent_ingest: with_ingest,
        queries: traj.len(),
        p50_us: percentile(&sorted, 50.0),
        p99_us: percentile(&sorted, 99.0),
        mean_us: sorted.iter().sum::<f64>() / (sorted.len() as f64).max(1.0),
        qps: traj.len() as f64 / elapsed.max(1e-9),
        ingested_during: ingested,
        generations_published: generations,
    }
}

/// Nearest-rank percentile of an ascending-sorted slice, in the slice's
/// units.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Runs the full sweep.
pub fn run(cfg: &IngestBenchConfig) -> IngestReportJson {
    let throughput = cfg
        .batches
        .iter()
        .map(|&batch| run_throughput_cell(cfg, batch))
        .collect();
    let latency = vec![run_latency_cell(cfg, false), run_latency_cell(cfg, true)];
    IngestReportJson {
        throughput,
        latency,
        tuples: cfg.tuples,
        seed: cfg.seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> IngestBenchConfig {
        IngestBenchConfig {
            batches: vec![1, 64],
            tuples: 800,
            queries: 400,
            query_batch: 16,
            workers: 2,
            seed: 0x001A_6E57,
        }
    }

    #[test]
    fn throughput_cells_land_every_tuple() {
        let report = run(&tiny_config());
        assert_eq!(report.throughput.len(), 2);
        for row in &report.throughput {
            assert_eq!(row.acked, 800, "{row:?}");
            assert_eq!(row.failed, 0, "{row:?}");
            assert_eq!(row.durable, 800, "{row:?}");
            assert!(row.tuples_per_sec > 0.0, "{row:?}");
        }
    }

    #[test]
    fn batching_raises_ingest_throughput() {
        let report = run(&tiny_config());
        let (one, big) = (&report.throughput[0], &report.throughput[1]);
        assert!(
            big.tuples_per_sec > one.tuples_per_sec,
            "batch 64 {} !> batch 1 {}",
            big.tuples_per_sec,
            one.tuples_per_sec
        );
    }

    #[test]
    fn latency_cells_answer_the_full_load() {
        let report = run(&tiny_config());
        assert_eq!(report.latency.len(), 2);
        let quiet = &report.latency[0];
        let busy = &report.latency[1];
        assert!(!quiet.concurrent_ingest && busy.concurrent_ingest);
        assert_eq!(quiet.queries, 400);
        assert_eq!(busy.queries, 400);
        assert!(quiet.p50_us > 0.0 && quiet.p99_us >= quiet.p50_us);
        assert!(busy.ingested_during > 0, "{busy:?}");
    }

    #[test]
    fn json_is_well_formed_enough() {
        let json = run(&tiny_config()).to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        assert_eq!(json.matches("\"batch\"").count(), 2);
        assert_eq!(json.matches("\"concurrent_ingest\"").count(), 2);
        assert!(!json.contains("inf") && !json.contains("NaN"), "{json}");
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
