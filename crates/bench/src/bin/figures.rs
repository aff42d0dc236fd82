//! Regenerates every figure of the paper's evaluation (and the ablations).
//!
//! ```text
//! figures [--quick] [--seed N] <panel>... | all
//! ```
//!
//! `figures --help` lists the panels. Every name is checked before any
//! workload is built.
//!
//! `--quick` runs the CI-sized workload (~10 K tuples, 1000 queries);
//! without it the paper-scale workload (~173 K tuples, 5000 queries) is
//! used. Results print as aligned text tables; EXPERIMENTS.md records a
//! reference run next to the paper's numbers.

#![forbid(unsafe_code)]
// Panic-prone sites here are legacy debt tracked by the xtask panic
// ratchet (crates/xtask/panic-baseline.toml); prefer typed errors in new
// code.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use enviro_bench::workload::{build, Scale, Workload};
use enviro_bench::{ablations, fig6a, fig6b, fig7a, fig7b, table};
use enviro_meter::QueryMethod;

/// Every panel, in the order `all` runs them.
const PANELS: [&str; 15] = [
    "fig6a",
    "fig6b",
    "fig7a",
    "fig7b",
    "abl-k0",
    "abl-split",
    "abl-tau",
    "abl-codec",
    "abl-radius",
    "abl-spread",
    "abl-interp",
    "abl-warm",
    "abl-build",
    "abl-interval",
    "abl-loss",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Paper;
    let mut seed = 0u64;
    let mut targets = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => scale = Scale::Quick,
            "--seed" => {
                seed = iter
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs an integer"));
            }
            "--help" | "-h" => {
                println!("{}", usage_line());
                return;
            }
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() {
        usage("no experiment named");
    }
    if let Some(unknown) = targets
        .iter()
        .find(|t| *t != "all" && !PANELS.contains(&t.as_str()))
    {
        usage(&format!("unknown experiment {unknown:?}"));
    }
    let expanded: Vec<String> = if targets.iter().any(|t| t == "all") {
        PANELS.iter().map(|s| s.to_string()).collect()
    } else {
        targets
    };

    // Workload is shared across fig6a/fig6b/ablations; build lazily.
    let needs_workload = expanded.iter().any(|t| {
        !matches!(
            t.as_str(),
            "fig7a" | "fig7b" | "abl-codec" | "abl-interval" | "abl-loss"
        )
    });
    let workload: Option<Workload> = if needs_workload {
        eprintln!(
            "building {} workload (seed {seed})...",
            if scale == Scale::Paper {
                "paper-scale"
            } else {
                "quick"
            }
        );
        Some(build(scale, seed))
    } else {
        None
    };
    let w = || workload.as_ref().expect("workload built above");

    for target in &expanded {
        match target.as_str() {
            "fig6a" => run_fig6a(w()),
            "fig6b" => run_fig6b(w()),
            "fig7a" => run_fig7a(),
            "fig7b" => run_fig7b(seed),
            "abl-k0" => run_abl_k0(w()),
            "abl-split" => run_abl_split(w()),
            "abl-tau" => run_abl_tau(w()),
            "abl-codec" => run_abl_codec(seed),
            "abl-radius" => run_abl_radius(w()),
            "abl-spread" => run_abl_spread(w()),
            "abl-interp" => run_abl_interp(w()),
            "abl-warm" => run_abl_warm(w()),
            "abl-build" => run_abl_build(w()),
            "abl-interval" => run_abl_interval(seed),
            "abl-loss" => run_abl_loss(seed),
            other => unreachable!("{other:?} was checked against PANELS"),
        }
    }
}

/// The one-line usage, listing every panel.
fn usage_line() -> String {
    format!(
        "usage: figures [--quick] [--seed N] <{}|all>...",
        PANELS.join("|")
    )
}

/// A usage error: the message and the usage on stderr, exit code 2.
fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{}", usage_line());
    std::process::exit(2);
}

fn run_fig6a(w: &Workload) {
    println!("\n== Figure 6(a): query time (seconds) vs window size H ==");
    println!(
        "({} queries, r = 1 km, tau = 2 %; per-window structures prebuilt)",
        w.queries.len()
    );
    let rows = fig6a::run(w, &fig6a::PAPER_H_VALUES);
    let mut out = Vec::new();
    for &h in &fig6a::PAPER_H_VALUES {
        let mut cells = vec![h.to_string()];
        for m in fig6a::METHODS {
            let r = rows
                .iter()
                .find(|r| r.h == h && r.method == m)
                .expect("row exists");
            cells.push(table::fmt_f64(r.elapsed_secs));
        }
        out.push(cells);
    }
    println!(
        "{}",
        table::render(&["H", "Ad-KMN", "VP-tree", "R-tree", "naive"], &out)
    );
    for (h, other, paper) in [
        (40usize, QueryMethod::VpTree, "7.1x"),
        (240, QueryMethod::RTree, "39.4x"),
    ] {
        if let Some(s) = fig6a::speedup(&rows, h, other) {
            println!(
                "Ad-KMN vs {other} at H={h}: {:.1}x faster (paper: {paper})",
                s
            );
        }
    }
}

fn run_fig6b(w: &Workload) {
    println!("\n== Figure 6(b): NRMSE (%) vs window size H ==");
    let rows = fig6b::run(w, &fig6a::PAPER_H_VALUES);
    let mut out = Vec::new();
    for &h in &fig6a::PAPER_H_VALUES {
        let of = |m: QueryMethod| {
            rows.iter()
                .find(|r| r.h == h && r.method == m)
                .expect("row exists")
        };
        let cover = of(QueryMethod::ModelCover);
        let naive = of(QueryMethod::Naive);
        out.push(vec![
            h.to_string(),
            table::fmt_f64(cover.common_nrmse_percent),
            table::fmt_f64(naive.common_nrmse_percent),
            table::fmt_f64(cover.report.nrmse_percent),
            table::fmt_f64(naive.report.nrmse_percent),
            format!("{:.2}", naive.report.coverage()),
        ]);
    }
    println!(
        "{}",
        table::render(
            &[
                "H",
                "Ad-KMN NRMSE*",
                "naive NRMSE*",
                "Ad-KMN all",
                "naive answered",
                "naive cov",
            ],
            &out
        )
    );
    println!(
        "(* = common support: queries both methods answer; the cover also \
answers the rest.\n paper: Ad-KMN consistently below naive)"
    );
}

fn run_fig7a() {
    println!("\n== Figure 7(a): memory (KiB) of the queryable representation, H = 5000 ==");
    let rows = fig7a::run(10);
    let out: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.method.name().to_string(),
                format!("{:.1}", r.mean_bytes / 1024.0),
            ]
        })
        .collect();
    println!("{}", table::render(&["method", "KiB"], &out));
    for (m, paper) in [
        (QueryMethod::Naive, "7x"),
        (QueryMethod::RTree, "70x"),
        (QueryMethod::VpTree, "407x"),
    ] {
        if let Some(f) = fig7a::factor_vs_cover(&rows, m) {
            println!(
                "{} uses {f:.1}x the model-cover memory (paper: {paper})",
                m.name()
            );
        }
    }
    println!("(averaged over 10 independent runs, as in the paper)");
}

fn run_fig7b(seed: u64) {
    println!("\n== Figure 7(b): bandwidth & time, 100-tuple continuous query over GPRS ==");
    let c = fig7b::run(seed);
    print_fig7b(&c);
}

fn print_fig7b(c: &fig7b::Comparison) {
    let out = vec![
        vec![
            "baseline".into(),
            format!("{:.2}", c.baseline.usage.sent_bytes as f64 / 1024.0),
            format!("{:.2}", c.baseline.usage.received_bytes as f64 / 1024.0),
            table::fmt_f64(c.baseline.elapsed_secs),
            c.baseline.server_exchanges.to_string(),
        ],
        vec![
            "model-cache".into(),
            format!("{:.2}", c.model_cache.usage.sent_bytes as f64 / 1024.0),
            format!("{:.2}", c.model_cache.usage.received_bytes as f64 / 1024.0),
            table::fmt_f64(c.model_cache.elapsed_secs),
            c.model_cache.server_exchanges.to_string(),
        ],
    ];
    println!(
        "{}",
        table::render(
            &[
                "technique",
                "sent (KiB)",
                "recv (KiB)",
                "time (s)",
                "round-trips"
            ],
            &out
        )
    );
    println!(
        "factors: sent {:.0}x (paper 113x), received {:.0}x (paper 31x), time {:.0}x (paper ~100x)",
        c.sent_factor(),
        c.received_factor(),
        c.time_factor()
    );
}

fn run_abl_k0(w: &Workload) {
    println!("\n== abl-k0: initial k vs Ad-KMN outcome (one H = 240 window) ==");
    let rows = ablations::k0_sweep(w, 240, &[1, 2, 4, 8]);
    let out: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.k0.to_string(),
                r.models.to_string(),
                r.rounds.to_string(),
                table::fmt_f64(r.worst_error),
                table::fmt_f64(r.build_secs),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(
            &["k0", "models", "rounds", "worst err %", "build (s)"],
            &out
        )
    );
}

fn run_abl_split(w: &Workload) {
    println!("\n== abl-split: split-seed strategy (one H = 240 window) ==");
    let rows = ablations::split_sweep(w, 240);
    let out: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:?}", r.strategy),
                r.models.to_string(),
                r.rounds.to_string(),
                table::fmt_f64(r.worst_error),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(&["strategy", "models", "rounds", "worst err %"], &out)
    );
}

fn run_abl_tau(w: &Workload) {
    println!("\n== abl-tau: threshold tau vs model count & accuracy ==");
    let rows = ablations::tau_sweep(w, 240, &[0.5, 1.0, 2.0, 4.0, 8.0]);
    let out: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                table::fmt_f64(r.tau),
                table::fmt_f64(r.mean_models),
                table::fmt_f64(r.report.nrmse_percent),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(&["tau %", "mean models/window", "NRMSE %"], &out)
    );
}

fn run_abl_codec(seed: u64) {
    println!("\n== abl-codec: binary vs text wire format on Figure 7(b) ==");
    for row in ablations::codec_sweep(seed) {
        println!("\n-- codec: {} --", row.codec);
        print_fig7b(&row.comparison);
    }
}

fn run_abl_radius(w: &Workload) {
    println!("\n== abl-radius: naive-method radius sweep (H = 240) ==");
    let rows = ablations::radius_sweep(w, 240, &[250.0, 500.0, 1_000.0, 2_000.0, 4_000.0]);
    let out: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.0}", r.radius),
                format!("{:.2}", r.report.coverage()),
                table::fmt_f64(r.report.nrmse_percent),
                table::fmt_f64(r.elapsed_secs),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(&["r (m)", "coverage", "NRMSE %", "time (s)"], &out)
    );
}

fn run_abl_spread(w: &Workload) {
    println!("\n== abl-spread: accuracy vs lateral query distance from the corridors ==");
    let rows = ablations::spread_sweep(w, 240, &[0.0, 100.0, 200.0, 400.0, 800.0]);
    let out: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.0}", r.spread),
                table::fmt_f64(r.cover.nrmse_percent),
                table::fmt_f64(r.naive.nrmse_percent),
                format!("{:.2}", r.naive.coverage()),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(
            &["spread (m)", "Ad-KMN NRMSE %", "naive NRMSE %", "naive cov"],
            &out
        )
    );
}

fn run_abl_interp(w: &Workload) {
    println!("\n== abl-interp: interpolator comparison (NRMSE %, H = 240) ==");
    let rows = ablations::interp_sweep(w, 240, &[0.0, 200.0, 400.0]);
    let out: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.0}", r.spread),
                table::fmt_f64(r.cover.nrmse_percent),
                table::fmt_f64(r.idw.nrmse_percent),
                table::fmt_f64(r.naive.nrmse_percent),
                format!("{:.2}", r.naive.coverage()),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(
            &["spread (m)", "Ad-KMN", "IDW k=8", "naive avg", "naive cov"],
            &out
        )
    );
    println!("(IDW and Ad-KMN answer every query; naive only within r = 1 km)");
}

fn run_abl_warm(w: &Workload) {
    println!(
        "\n== abl-warm: cold vs warm-started Ad-KMN across all windows (tau = 1 %, H = 240) =="
    );
    let rows = ablations::warm_sweep(w, 240);
    let out: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.mode.to_string(),
                r.total_rounds.to_string(),
                table::fmt_f64(r.mean_models),
                table::fmt_f64(r.mean_worst_error),
                table::fmt_f64(r.build_secs),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(
            &[
                "mode",
                "total rounds",
                "mean models",
                "mean worst err %",
                "build (s)"
            ],
            &out
        )
    );
}

fn run_abl_build(w: &Workload) {
    println!("\n== abl-build: cost to materialize every window structure (H = 240) ==");
    let rows = ablations::build_sweep(w, 240);
    let out: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.method.name().to_string(),
                table::fmt_f64(r.prepare_secs),
                r.windows.to_string(),
                table::fmt_f64(r.prepare_secs / r.windows.max(1) as f64 * 1e3),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(
            &["method", "prepare (s)", "windows", "per window (ms)"],
            &out
        )
    );
    println!("(naive needs no preparation; Fig. 6a measures queries after this cost is paid)");
}

fn run_abl_interval(seed: u64) {
    println!(
        "\n== abl-interval: position-update interval vs session cost (100-minute journey, GPRS) =="
    );
    let rows = ablations::interval_sweep(seed, &[30, 60, 120, 300]);
    let out: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let c = &r.comparison;
            vec![
                r.interval_secs.to_string(),
                c.baseline.values.len().to_string(),
                format!("{:.2}", c.baseline.usage.sent_bytes as f64 / 1024.0),
                format!("{:.2}", c.model_cache.usage.sent_bytes as f64 / 1024.0),
                format!("{:.0}", c.time_factor()),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(
            &[
                "interval (s)",
                "updates",
                "baseline sent (KiB)",
                "cache sent (KiB)",
                "time factor"
            ],
            &out
        )
    );
    println!("(the app's settings screen exposes this interval; caching makes it free)");
}

fn run_abl_loss(seed: u64) {
    println!("\n== abl-loss: Figure 7(b) under per-attempt packet loss (GPRS) ==");
    let rows = ablations::loss_sweep(seed, &[0.0, 0.1, 0.3]);
    let out: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let c = &r.comparison;
            vec![
                format!("{:.0}%", r.loss * 100.0),
                table::fmt_f64(c.baseline.elapsed_secs),
                table::fmt_f64(c.model_cache.elapsed_secs),
                format!("{:.0}", c.time_factor()),
                format!("{:.0}", c.sent_factor()),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(
            &[
                "loss",
                "baseline time (s)",
                "cache time (s)",
                "time factor",
                "sent factor"
            ],
            &out
        )
    );
    println!("(the baseline rolls the retransmission dice 100x per session; the cache, once)");
}
