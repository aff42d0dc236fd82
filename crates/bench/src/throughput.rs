//! Throughput of the concurrent serving layer: queries/second over a
//! worker-count × batch-size sweep, against a one-worker, one-`Query`-frame
//! per-tuple baseline.
//!
//! The sweep answers the two deployment questions the tentpole makes:
//! how much do the sharded thread pool and batch frames raise sustained
//! queries/second over the one-tuple-per-round-trip baseline, and
//! how much does batching shrink wire bytes per query. On a single-core
//! host the speedup comes almost entirely from batch frames amortizing the
//! per-round-trip cost (channel hops, thread wakeups, framing) over many
//! tuples; extra workers add parallel speedup only when real cores back
//! them — the JSON records the core count so results read honestly.

use crate::workload::{Scale, RADIUS_M};
use enviro_data::{Pollutant, QueryTuple, WindowSpec};
use enviro_meter::{default_parallelism, AdKmnConfig, EnviroMeter, QueryMethod};
use enviro_net::{
    BinaryCodec, ConcurrentTransport, EnviroClient, EnviroServer, Request, Response, Wire,
    WireCodec,
};
use enviro_schedule::sync::Arc;
use std::fmt::Write as _;
use std::time::Instant;

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct ThroughputConfig {
    /// Worker counts to sweep for the concurrent transport.
    pub workers: Vec<usize>,
    /// Batch sizes (tuples per `QueryBatch` frame) to sweep.
    pub batches: Vec<usize>,
    /// Concurrent client threads driving load.
    pub clients: usize,
    /// Queries each client issues per measurement.
    pub queries_per_client: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Default for ThroughputConfig {
    fn default() -> Self {
        Self {
            workers: vec![1, 2, 4],
            batches: vec![1, 16, 64],
            clients: 4,
            queries_per_client: 2_000,
            seed: 0,
        }
    }
}

/// One measured cell of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputRow {
    /// Worker threads (the baseline row reports 1: its single server
    /// thread).
    pub workers: usize,
    /// Tuples per request frame (1 for the baseline's `Query` frames).
    pub batch: usize,
    /// Total queries answered across all clients.
    pub total_queries: usize,
    /// Wall-clock seconds for the whole run.
    pub elapsed_secs: f64,
    /// Queries per second.
    pub qps: f64,
    /// Total request + reply bytes crossing the wire.
    pub wire_bytes: u64,
    /// Wire bytes per answered query.
    pub bytes_per_query: f64,
}

/// The full sweep result.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputReport {
    /// The one-worker per-query baseline.
    pub baseline: ThroughputRow,
    /// The concurrent-transport sweep, in `workers`-major order.
    pub rows: Vec<ThroughputRow>,
    /// `std::thread::available_parallelism()` on the measuring host.
    pub cores: usize,
    /// Clients that drove the load.
    pub clients: usize,
}

impl ThroughputReport {
    /// The sweep row for (`workers`, `batch`), if measured.
    pub fn row(&self, workers: usize, batch: usize) -> Option<&ThroughputRow> {
        self.rows
            .iter()
            .find(|r| r.workers == workers && r.batch == batch)
    }

    /// Queries/second of (`workers`, `batch`) relative to the baseline.
    pub fn speedup(&self, workers: usize, batch: usize) -> Option<f64> {
        self.row(workers, batch)
            .map(|r| r.qps / self.baseline.qps.max(1e-9))
    }

    /// Wire bytes/query of (`workers`, `batch`) relative to the baseline.
    pub fn bytes_ratio(&self, workers: usize, batch: usize) -> Option<f64> {
        self.row(workers, batch)
            .map(|r| r.bytes_per_query / self.baseline.bytes_per_query.max(1e-9))
    }

    /// Serializes the report as pretty-printed JSON (no dependencies; every
    /// value is a number, so no string escaping is needed).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"bench\": \"throughput\",");
        let _ = writeln!(out, "  \"cores\": {},", self.cores);
        let _ = writeln!(out, "  \"clients\": {},", self.clients);
        let _ = write!(out, "  \"baseline\": ");
        row_json(&mut out, &self.baseline, 2);
        let _ = writeln!(out, ",");
        let _ = writeln!(out, "  \"rows\": [");
        for (i, row) in self.rows.iter().enumerate() {
            let _ = write!(out, "    ");
            row_json(&mut out, row, 4);
            let _ = writeln!(out, "{}", if i + 1 < self.rows.len() { "," } else { "" });
        }
        let _ = writeln!(out, "  ],");
        let best_workers = self.rows.iter().map(|r| r.workers).max().unwrap_or(1);
        let best_batch = self.rows.iter().map(|r| r.batch).max().unwrap_or(1);
        let _ = writeln!(
            out,
            "  \"speedup_at_{best_workers}workers_batch{best_batch}\": {:.3},",
            self.speedup(best_workers, best_batch).unwrap_or(0.0)
        );
        let _ = writeln!(
            out,
            "  \"bytes_per_query_ratio_batch16\": {:.4}",
            self.bytes_ratio(best_workers.min(4), 16).unwrap_or(1.0)
        );
        let _ = writeln!(out, "}}");
        out
    }
}

fn row_json(out: &mut String, row: &ThroughputRow, indent: usize) {
    let pad = " ".repeat(indent);
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "{pad}  \"workers\": {},", row.workers);
    let _ = writeln!(out, "{pad}  \"batch\": {},", row.batch);
    let _ = writeln!(out, "{pad}  \"total_queries\": {},", row.total_queries);
    let _ = writeln!(out, "{pad}  \"elapsed_secs\": {:.6},", row.elapsed_secs);
    let _ = writeln!(out, "{pad}  \"qps\": {:.1},", row.qps);
    let _ = writeln!(out, "{pad}  \"wire_bytes\": {},", row.wire_bytes);
    let _ = writeln!(
        out,
        "{pad}  \"bytes_per_query\": {:.3}",
        row.bytes_per_query
    );
    let _ = write!(out, "{pad}}}");
}

/// A [`Wire`] adapter that counts request and reply bytes.
struct CountingWire<W> {
    inner: W,
    bytes: u64,
}

impl<W: Wire> Wire for CountingWire<W> {
    fn exchange(&mut self, request: &[u8]) -> Result<&[u8], enviro_net::TransportError> {
        self.bytes += request.len() as u64;
        let reply = self.inner.exchange(request)?;
        self.bytes += reply.len() as u64;
        Ok(reply)
    }
}

/// Builds the benchmark server: quick-scale workload, hour-long windows,
/// model-cover serving, every window's cover prebuilt (by
/// `EnviroServer::new`) so measurements see steady state rather than
/// first-touch cache builds.
fn build_server(seed: u64) -> EnviroServer<BinaryCodec> {
    let sim = enviro_data::LausanneSim::lausanne(Scale::Quick.sim_config(seed));
    let platform = EnviroMeter::new(
        sim.generate(),
        WindowSpec::ByDuration(4 * 3_600),
        AdKmnConfig::default(),
        RADIUS_M,
    );
    EnviroServer::new(platform, BinaryCodec, QueryMethod::ModelCover)
}

/// Client `k`'s trajectory (distinct per client).
fn trajectory(seed: u64, k: usize, len: usize) -> Vec<QueryTuple> {
    let sim = enviro_data::LausanneSim::lausanne(Scale::Quick.sim_config(seed));
    sim.continuous_trajectory(len, 60, seed ^ (k as u64 + 1))
}

/// Measures the baseline: one worker thread, one `Query` frame (and
/// round-trip) per tuple, `clients` concurrent callers.
fn run_baseline(cfg: &ThroughputConfig) -> ThroughputRow {
    let transport = match ConcurrentTransport::spawn_shared(Arc::new(build_server(cfg.seed)), 1) {
        Ok(t) => t,
        Err(e) => return failed_row(1, 1, &e.to_string()),
    };
    let trajectories: Vec<Vec<QueryTuple>> = (0..cfg.clients)
        .map(|k| trajectory(cfg.seed, k, cfg.queries_per_client))
        .collect();

    let start = Instant::now();
    let bytes: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = trajectories
            .iter()
            .map(|traj| {
                let transport = &transport;
                scope.spawn(move || {
                    let mut session = transport.session();
                    let mut bytes = 0u64;
                    for q in traj {
                        let request = Request::Query {
                            time: q.time,
                            pos: q.pos,
                        };
                        let mut sent = 0;
                        let reply = session.call_with(|out| {
                            BinaryCodec.encode_request_into(&request, out);
                            sent = out.len();
                        });
                        bytes += sent as u64;
                        if let Ok(reply) = reply {
                            bytes += reply.len() as u64;
                        }
                    }
                    bytes
                })
            })
            .collect();
        handles.into_iter().filter_map(|h| h.join().ok()).sum()
    });
    let elapsed = start.elapsed().as_secs_f64();
    finish_row(1, 1, cfg.clients * cfg.queries_per_client, elapsed, bytes)
}

/// Measures one concurrent-transport cell: `workers` threads, batch frames
/// of `batch` tuples, `clients` concurrent sessions.
fn run_concurrent(cfg: &ThroughputConfig, workers: usize, batch: usize) -> ThroughputRow {
    let server = Arc::new(build_server(cfg.seed));
    let transport = match ConcurrentTransport::spawn_shared(server, workers) {
        Ok(t) => t,
        Err(e) => return failed_row(workers, batch, &e.to_string()),
    };
    let trajectories: Vec<Vec<QueryTuple>> = (0..cfg.clients)
        .map(|k| trajectory(cfg.seed, k, cfg.queries_per_client))
        .collect();

    let start = Instant::now();
    let (bytes, answered): (u64, usize) = std::thread::scope(|scope| {
        let handles: Vec<_> = trajectories
            .iter()
            .map(|traj| {
                let transport = &transport;
                scope.spawn(move || {
                    let mut wire = CountingWire {
                        inner: transport.session(),
                        bytes: 0,
                    };
                    let mut client =
                        EnviroClient::new(BinaryCodec, Pollutant::Co2).with_batch(batch);
                    let mut values = Vec::new();
                    match client.query_batch(&mut wire, traj, &mut values) {
                        Ok(()) => (wire.bytes, values.len()),
                        Err(_) => (wire.bytes, 0),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .filter_map(|h| h.join().ok())
            .fold((0, 0), |(b, n), (rb, rn)| (b + rb, n + rn))
    });
    let elapsed = start.elapsed().as_secs_f64();
    finish_row(workers, batch, answered, elapsed, bytes)
}

fn finish_row(
    workers: usize,
    batch: usize,
    total_queries: usize,
    elapsed_secs: f64,
    wire_bytes: u64,
) -> ThroughputRow {
    ThroughputRow {
        workers,
        batch,
        total_queries,
        elapsed_secs,
        qps: total_queries as f64 / elapsed_secs.max(1e-9),
        wire_bytes,
        bytes_per_query: wire_bytes as f64 / (total_queries as f64).max(1.0),
    }
}

/// A zeroed row for a cell whose transport could not even start (thread
/// spawn failure); impossible to measure, visible in the output.
fn failed_row(workers: usize, batch: usize, why: &str) -> ThroughputRow {
    eprintln!("throughput: cell workers={workers} batch={batch} failed: {why}");
    finish_row(workers, batch, 0, f64::INFINITY, 0)
}

/// Runs the full sweep.
pub fn run(cfg: &ThroughputConfig) -> ThroughputReport {
    let baseline = run_baseline(cfg);
    let mut rows = Vec::with_capacity(cfg.workers.len() * cfg.batches.len());
    for &workers in &cfg.workers {
        for &batch in &cfg.batches {
            rows.push(run_concurrent(cfg, workers, batch));
        }
    }
    ThroughputReport {
        baseline,
        rows,
        cores: default_parallelism(),
        clients: cfg.clients,
    }
}

/// Validates one response kind the sweep relies on (used by tests).
pub fn sanity_check_one_exchange(seed: u64) -> bool {
    let server = build_server(seed);
    let traj = trajectory(seed, 0, 4);
    let req = BinaryCodec.encode_request(&Request::QueryBatch {
        seq: 1,
        queries: traj.clone(),
    });
    let reply = server.handle_bytes(&req);
    matches!(
        BinaryCodec.decode_response(&reply),
        Ok(Response::ValueBatch { seq: 1, values, .. }) if values.len() == traj.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ThroughputConfig {
        ThroughputConfig {
            workers: vec![1, 2],
            batches: vec![1, 64],
            clients: 2,
            queries_per_client: 120,
            seed: 7,
        }
    }

    #[test]
    fn sweep_produces_all_cells() {
        let report = run(&tiny_config());
        assert_eq!(report.rows.len(), 4);
        assert!(report.baseline.qps > 0.0);
        for row in &report.rows {
            assert_eq!(row.total_queries, 240, "cell {row:?}");
            assert!(row.qps > 0.0, "cell {row:?}");
        }
    }

    #[test]
    fn batching_cuts_wire_bytes_per_query() {
        // The compact binary codec leaves little framing to amortize, and
        // protocol v2's integrity fields (seq + CRC, 8 B per frame each
        // way) push break-even out to ~batch 32 — so the strict reduction
        // is asserted at batch 64, where amortization clearly wins.
        let report = run(&tiny_config());
        let ratio = report.bytes_ratio(2, 64).unwrap_or(1.0);
        assert!(ratio < 1.0, "batch 64 bytes/query ratio {ratio} not < 1.0");
    }

    #[test]
    fn json_is_well_formed_enough() {
        let report = run(&ThroughputConfig {
            workers: vec![1],
            batches: vec![1],
            clients: 1,
            queries_per_client: 30,
            seed: 3,
        });
        let json = report.to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        assert_eq!(json.matches("\"workers\"").count(), 2);
        assert!(json.contains("\"cores\""));
        assert!(!json.contains("inf") && !json.contains("NaN"), "{json}");
    }

    #[test]
    fn batch_exchange_sanity() {
        assert!(sanity_check_one_exchange(11));
    }
}
