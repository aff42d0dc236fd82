//! Runs the concurrent-serving throughput sweep and writes
//! `results/BENCH_throughput.json`.
//!
//! ```text
//! throughput [--out PATH] [--seed N] [--clients K] [--queries M]
//! ```
//!
//! Sweeps worker count {1, 2, 4} × batch size {1, 16, 64} against a
//! one-worker per-query baseline (one `Query` frame per tuple). The JSON records
//! the measuring host's core count: on a single core the speedup comes
//! from batch frames amortizing round-trip overhead, not from parallelism.

#![forbid(unsafe_code)]

use enviro_bench::throughput::{run, ThroughputConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cfg = ThroughputConfig::default();
    let mut out_path = String::from("results/BENCH_throughput.json");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--out" => out_path = iter.next().ok_or("--out needs a path")?.clone(),
            "--seed" => cfg.seed = iter.next().ok_or("--seed needs an integer")?.parse()?,
            "--clients" => {
                cfg.clients = iter.next().ok_or("--clients needs an integer")?.parse()?;
            }
            "--queries" => {
                cfg.queries_per_client =
                    iter.next().ok_or("--queries needs an integer")?.parse()?;
            }
            "--help" | "-h" => {
                eprintln!("usage: throughput [--out PATH] [--seed N] [--clients K] [--queries M]");
                return Ok(());
            }
            other => return Err(format!("unknown argument {other:?}").into()),
        }
    }

    eprintln!(
        "throughput sweep: workers {:?} x batch {:?}, {} clients x {} queries (seed {})",
        cfg.workers, cfg.batches, cfg.clients, cfg.queries_per_client, cfg.seed
    );
    let report = run(&cfg);
    println!(
        "baseline (channel, per-query): {:.0} qps, {:.1} B/query",
        report.baseline.qps, report.baseline.bytes_per_query
    );
    for row in &report.rows {
        println!(
            "workers={} batch={:>3}: {:>8.0} qps ({:.2}x), {:.1} B/query",
            row.workers,
            row.batch,
            row.qps,
            row.qps / report.baseline.qps.max(1e-9),
            row.bytes_per_query
        );
    }
    std::fs::write(&out_path, report.to_json())?;
    eprintln!("wrote {out_path}");
    Ok(())
}
