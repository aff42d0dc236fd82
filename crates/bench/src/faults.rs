//! Goodput under injected faults: what resilience costs, swept over the
//! fault rate.
//!
//! Each cell drives one resilient [`EnviroClient`] through a seeded
//! [`ChaosWire`] over an in-process loopback, with all time charged to a
//! shared [`VirtualClock`] — so every number in the report is
//! deterministic for a fixed seed, including the simulated elapsed time.
//! The sweep answers: as the fault rate climbs, how fast does goodput
//! (fresh answers per simulated second) fall, how many extra wire
//! exchanges do retries cost, and — the invariant the chaos suite pins —
//! does the client ever return a *wrong* value (it must not, at any rate).

use crate::workload::{Scale, RADIUS_M};
use enviro_data::{LausanneSim, QueryTuple, WindowSpec};
use enviro_meter::{AdKmnConfig, EnviroMeter, QueryMethod, QueryOutcome};
use enviro_net::{
    BinaryCodec, ChaosStats, ChaosWire, Clock, EnviroClient, EnviroServer, FaultPlan, LinkProfile,
    LoopbackWire, Request, ResilienceStats, Response, SimulatedLink, VirtualClock, WireCodec,
};
use std::fmt::Write as _;

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct FaultsConfig {
    /// Base fault rates to sweep (0.0 = clean-wire control row).
    pub rates: Vec<f64>,
    /// Continuous-query tuples per cell.
    pub tuples: usize,
    /// Tuples per `QueryBatch` frame.
    pub batch: usize,
    /// Seed for the workload, the chaos wire and the client's jitter RNG.
    pub seed: u64,
}

impl Default for FaultsConfig {
    fn default() -> Self {
        Self {
            rates: vec![0.0, 0.02, 0.05, 0.10, 0.20],
            tuples: 2_000,
            batch: 32,
            seed: 0xFA_07,
        }
    }
}

/// One measured cell of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultsRow {
    /// Base fault rate (drop probability; the other faults scale off it).
    pub rate: f64,
    /// Tuples issued.
    pub tuples: usize,
    /// Tuples answered fresh.
    pub fresh: usize,
    /// Tuples answered from degraded/stale state.
    pub stale: usize,
    /// Tuples with no answer at all (retry budget exhausted).
    pub unavailable: usize,
    /// Fresh answers not bit-identical to the fault-free oracle. The
    /// whole point of the resilience layer is that this stays 0.
    pub wrong: usize,
    /// Wire exchanges attempted (first sends + retries).
    pub exchanges: u64,
    /// Client retry/rejection counters.
    pub client: ResilienceStats,
    /// Faults the wire actually injected.
    pub wire: ChaosStats,
    /// Simulated milliseconds the run consumed on the virtual clock.
    pub virtual_elapsed_ms: u64,
    /// Fresh answers per simulated second.
    pub goodput_qps: f64,
}

/// The full sweep result.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultsReport {
    /// One row per swept fault rate, in `rates` order.
    pub rows: Vec<FaultsRow>,
    /// Tuples per cell.
    pub tuples: usize,
    /// Batch size used.
    pub batch: usize,
    /// Sweep seed (reproduces the report bit-for-bit).
    pub seed: u64,
}

impl FaultsReport {
    /// Total wrong answers across the sweep — must be 0.
    pub fn total_wrong(&self) -> usize {
        self.rows.iter().map(|r| r.wrong).sum()
    }

    /// Serializes the report as pretty-printed JSON (no dependencies;
    /// every value is a number, so no string escaping is needed).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"bench\": \"faults\",");
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"tuples\": {},", self.tuples);
        let _ = writeln!(out, "  \"batch\": {},", self.batch);
        let _ = writeln!(out, "  \"total_wrong\": {},", self.total_wrong());
        let _ = writeln!(out, "  \"rows\": [");
        for (i, row) in self.rows.iter().enumerate() {
            let _ = writeln!(out, "    {{");
            let _ = writeln!(out, "      \"rate\": {:.3},", row.rate);
            let _ = writeln!(out, "      \"fresh\": {},", row.fresh);
            let _ = writeln!(out, "      \"stale\": {},", row.stale);
            let _ = writeln!(out, "      \"unavailable\": {},", row.unavailable);
            let _ = writeln!(out, "      \"wrong\": {},", row.wrong);
            let _ = writeln!(out, "      \"exchanges\": {},", row.exchanges);
            let _ = writeln!(out, "      \"retries\": {},", row.client.retries);
            let _ = writeln!(out, "      \"timeouts\": {},", row.client.timeouts);
            let _ = writeln!(
                out,
                "      \"corrupt_replies\": {},",
                row.client.corrupt_replies
            );
            let _ = writeln!(
                out,
                "      \"stale_replies\": {},",
                row.client.stale_replies
            );
            let _ = writeln!(out, "      \"wire_dropped\": {},", row.wire.dropped);
            let _ = writeln!(
                out,
                "      \"wire_corrupted\": {},",
                row.wire.corrupted_requests + row.wire.corrupted_replies
            );
            let _ = writeln!(out, "      \"wire_duplicated\": {},", row.wire.duplicated);
            let _ = writeln!(
                out,
                "      \"virtual_elapsed_ms\": {},",
                row.virtual_elapsed_ms
            );
            let _ = writeln!(out, "      \"goodput_qps\": {:.1}", row.goodput_qps);
            let _ = writeln!(
                out,
                "    }}{}",
                if i + 1 < self.rows.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }
}

/// The fault mix at base rate `r`: drops and delays at `r`, duplicates and
/// corruption at half, reordering and stalls at a quarter — the same shape
/// the chaos matrix test sweeps.
pub fn plan_for(rate: f64) -> FaultPlan {
    FaultPlan {
        drop: rate,
        duplicate: rate / 2.0,
        corrupt: rate / 2.0,
        reorder: rate / 4.0,
        stall: rate / 4.0,
        delay: rate,
        ..FaultPlan::default()
    }
}

fn build_server(seed: u64) -> EnviroServer<BinaryCodec> {
    let sim = LausanneSim::lausanne(Scale::Quick.sim_config(seed));
    let platform = EnviroMeter::new(
        sim.generate(),
        WindowSpec::ByDuration(4 * 3_600),
        AdKmnConfig::default(),
        RADIUS_M,
    );
    EnviroServer::new(platform, BinaryCodec, QueryMethod::ModelCover)
}

/// The fault-free ground truth: the server's own answer to one
/// `QueryBatch` frame per `batch` tuples, through the same codec but not
/// through the client loop under test. A frame that fails reads as
/// misses.
fn oracle(
    server: &EnviroServer<BinaryCodec>,
    traj: &[QueryTuple],
    batch: usize,
) -> Vec<Option<f64>> {
    let mut values = Vec::with_capacity(traj.len());
    for chunk in traj.chunks(batch) {
        let request = BinaryCodec.encode_request(&Request::QueryBatch {
            seq: 1,
            queries: chunk.to_vec(),
        });
        match BinaryCodec.decode_response(&server.handle_bytes(&request)) {
            Ok(Response::ValueBatch { values: chunk, .. }) => values.extend(chunk),
            _ => values.resize(values.len() + chunk.len(), None),
        }
    }
    values
}

/// Measures one cell: `cfg.tuples` resilient queries at base rate `rate`.
fn run_cell(
    server: &EnviroServer<BinaryCodec>,
    truth: &[Option<f64>],
    traj: &[QueryTuple],
    cfg: &FaultsConfig,
    rate: f64,
) -> FaultsRow {
    let clock = VirtualClock::new();
    let mut link = SimulatedLink::new(LinkProfile::IDEAL);
    let mut wire = ChaosWire::new(
        LoopbackWire::new(server, &mut link),
        plan_for(rate),
        cfg.seed ^ (rate * 1_000.0) as u64,
        clock.clone(),
    );
    let mut client = EnviroClient::new(
        BinaryCodec,
        server.platform().engine().dataset().pollutant(),
    )
    .with_batch(cfg.batch)
    .with_clock(clock.clone())
    .with_rng_seed(cfg.seed ^ 0xD1CE);
    let mut outcomes = Vec::new();
    client.query_resilient(&mut wire, traj, &mut outcomes);

    let (mut fresh, mut stale, mut unavailable, mut wrong) = (0, 0, 0, 0);
    for (got, want) in outcomes.iter().zip(truth) {
        match got {
            QueryOutcome::Fresh(v) => {
                fresh += 1;
                let matches = match (v, want) {
                    (Some(a), Some(b)) => a.to_bits() == b.to_bits(),
                    (None, None) => true,
                    _ => false,
                };
                if !matches {
                    wrong += 1;
                }
            }
            QueryOutcome::Stale(_) => stale += 1,
            QueryOutcome::Unavailable => unavailable += 1,
        }
    }
    let virtual_elapsed_ms = clock.now_ms().max(1);
    FaultsRow {
        rate,
        tuples: traj.len(),
        fresh,
        stale,
        unavailable,
        wrong,
        exchanges: client.exchanges() as u64,
        client: client.resilience_stats(),
        wire: wire.stats(),
        virtual_elapsed_ms,
        goodput_qps: fresh as f64 * 1_000.0 / virtual_elapsed_ms as f64,
    }
}

/// Runs the full sweep.
pub fn run(cfg: &FaultsConfig) -> FaultsReport {
    let server = build_server(cfg.seed);
    let sim = LausanneSim::lausanne(Scale::Quick.sim_config(cfg.seed));
    let traj = sim.continuous_trajectory(cfg.tuples, 30, cfg.seed ^ 1);
    let truth = oracle(&server, &traj, cfg.batch);
    let rows = cfg
        .rates
        .iter()
        .map(|&rate| run_cell(&server, &truth, &traj, cfg, rate))
        .collect();
    FaultsReport {
        rows,
        tuples: cfg.tuples,
        batch: cfg.batch,
        seed: cfg.seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> FaultsConfig {
        FaultsConfig {
            rates: vec![0.0, 0.05, 0.15],
            tuples: 400,
            batch: 16,
            seed: 0xFA_07,
        }
    }

    #[test]
    fn sweep_never_returns_wrong_values() {
        let report = run(&tiny_config());
        assert_eq!(report.rows.len(), 3);
        assert_eq!(report.total_wrong(), 0, "{report:?}");
        for row in &report.rows {
            assert_eq!(
                row.fresh + row.stale + row.unavailable,
                row.tuples,
                "{row:?}"
            );
        }
    }

    #[test]
    fn clean_control_row_needs_no_retries() {
        let report = run(&tiny_config());
        let clean = &report.rows[0];
        assert_eq!(clean.rate, 0.0);
        assert_eq!(clean.client.retries, 0, "{clean:?}");
        assert_eq!(clean.unavailable, 0, "{clean:?}");
        assert_eq!(clean.fresh, clean.tuples, "{clean:?}");
    }

    #[test]
    fn faults_cost_goodput_and_exchanges() {
        let report = run(&tiny_config());
        let (clean, faulty) = (&report.rows[0], &report.rows[2]);
        assert!(faulty.client.retries > 0, "{faulty:?}");
        assert!(faulty.exchanges > clean.exchanges, "{faulty:?}");
        assert!(
            faulty.goodput_qps < clean.goodput_qps,
            "goodput {} !< {}",
            faulty.goodput_qps,
            clean.goodput_qps
        );
    }

    #[test]
    fn report_is_deterministic_for_a_seed() {
        let a = run(&tiny_config());
        let b = run(&tiny_config());
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn json_is_well_formed_enough() {
        let json = run(&tiny_config()).to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        assert_eq!(json.matches("\"rate\"").count(), 3);
        assert!(json.contains("\"total_wrong\": 0"));
        assert!(!json.contains("inf") && !json.contains("NaN"), "{json}");
    }
}
