//! CLI entry point: `cargo run -p xtask -- lint [--update-baseline]` and
//! `cargo run -p xtask -- loc`.

#![forbid(unsafe_code)]

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    // The binary always runs from a source checkout, so the workspace root
    // is two levels above this crate's manifest.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent);
    let Some(root) = root else {
        eprintln!("xtask: cannot locate the workspace root");
        return ExitCode::FAILURE;
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => {
            let update = args.iter().any(|a| a == "--update-baseline");
            if let Some(unknown) = args[1..].iter().find(|a| *a != "--update-baseline") {
                eprintln!("xtask: unknown argument `{unknown}`");
                return usage();
            }
            lint(root, update)
        }
        Some("loc") if args.len() == 1 => loc(root),
        _ => usage(),
    }
}

fn loc(root: &Path) -> ExitCode {
    match xtask::product_lines(root) {
        Ok(counts) => {
            for (name, lines) in &counts {
                println!("{name:<16} {lines:>6}");
            }
            println!("{:<16} {:>6}", "total", counts.values().sum::<usize>());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("xtask: cannot count product lines: {e}");
            ExitCode::FAILURE
        }
    }
}

fn lint(root: &Path, update_baseline: bool) -> ExitCode {
    let outcome = xtask::run_lint(root, update_baseline);
    for w in &outcome.warnings {
        eprintln!("warning: {w}");
    }
    for e in &outcome.errors {
        eprintln!("error: {e}");
    }
    let crates = outcome.counts.len();
    let sites: usize = outcome.counts.values().sum();
    if outcome.passed() {
        println!(
            "xtask lint: OK — {crates} crates, {sites} baselined panic-prone sites, \
             layering + invariant hooks + concurrency discipline clean"
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask lint: FAILED with {} error(s)", outcome.errors.len());
        ExitCode::FAILURE
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: cargo run -p xtask -- lint [--update-baseline]\n       \
         cargo run -p xtask -- loc\n\n\
         `loc` prints each crate's product lines: its src/**/*.rs lines\n\
         before each file's first #[cfg(test)] attribute.\n\n\
         `lint` runs the workspace static-analysis gate:\n  \
         * dependency-DAG layering check (+ [lints] workspace adoption)\n  \
         * panic-policy ratchet against crates/xtask/panic-baseline.toml\n  \
         * debug_assertions invariant-hook audit\n  \
         * concurrency discipline: std::sync facade ratchet, `// ordering:`\n    \
         justifications, lock-scope check, lock-order registry\n    \
         (crates/xtask/lock-order.toml)"
    );
    ExitCode::FAILURE
}
