//! CLI entry point: `cargo run -p xtask -- lint [--update-baseline]` and
//! `cargo run -p xtask -- loc [PATH…]`.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
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
        Some("loc") => loc_paths(&args[1..]),
        _ => usage(),
    }
}

fn loc(root: &Path) -> ExitCode {
    let counts = xtask::product_lines(root);
    print_counts(counts.map(|c| c.into_iter().collect()), 16)
}

fn loc_paths(paths: &[String]) -> ExitCode {
    let paths: Vec<PathBuf> = paths.iter().map(PathBuf::from).collect();
    let counts = xtask::path_product_lines(&paths);
    let named = |c: Vec<(PathBuf, usize)>| {
        c.into_iter()
            .map(|(path, lines)| (path.display().to_string(), lines))
            .collect()
    };
    print_counts(counts.map(named), 40)
}

/// Prints one `name lines` row per count, then their total.
fn print_counts(counts: std::io::Result<Vec<(String, usize)>>, width: usize) -> ExitCode {
    match counts {
        Ok(counts) => {
            for (name, lines) in &counts {
                println!("{name:<width$} {lines:>6}");
            }
            let total: usize = counts.iter().map(|(_, lines)| lines).sum();
            println!("{:<width$} {total:>6}", "total");
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
         cargo run -p xtask -- loc [PATH...]\n\n\
         `loc` prints each crate's product lines: its src/**/*.rs lines\n\
         before each file's first #[cfg(test)] attribute. Given paths, it\n\
         counts those files, or the .rs files under those directories.\n\n\
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
