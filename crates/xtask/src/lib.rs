//! Workspace static-analysis gate for EnviroMeter.
//!
//! `cargo run -p xtask -- lint` runs four analyses over `crates/*`:
//!
//! 1. **Layering** ([`layering`]) — each crate's `Cargo.toml` is checked
//!    against the allowed dependency DAG, and each crate must opt into
//!    `[lints] workspace = true`.
//! 2. **Panic-policy ratchet** ([`ratchet`]) — panic-prone sites in
//!    non-test code are counted per crate and may only decrease relative to
//!    `crates/xtask/panic-baseline.toml`.
//! 3. **Invariant-hook audit** ([`invariants`]) — every
//!    `check_invariants()` definition must be invoked under
//!    `debug_assertions` from its mutation paths.
//! 4. **Concurrency discipline** ([`concurrency`]) — raw `std::sync` use
//!    outside the `enviro_schedule` facade, unjustified atomic orderings,
//!    lock guards held across I/O or model rebuilds, and the declared
//!    lock-order registry (`crates/xtask/lock-order.toml`).
//!
//! `cargo run -p xtask -- loc` prints the product lines of each crate
//! ([`product_lines`]): every `crates/*/src/**/*.rs` line before the
//! file's first `#[cfg(test)]` attribute. It is the one count a change's
//! net line delta is reported in. `loc PATH…` counts the given files, or
//! the `.rs` files under the given directories, by the same rule
//! ([`path_product_lines`]).
//!
//! The tool is std-only by design: it must run in the offline build
//! environment and must never depend on the crates it polices.

#![forbid(unsafe_code)]

pub mod concurrency;
pub mod invariants;
pub mod layering;
pub mod manifest;
pub mod ratchet;
pub mod scan;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Relative location of the ratchet baseline within the workspace.
pub const BASELINE_PATH: &str = "crates/xtask/panic-baseline.toml";

/// Relative location of the declared lock-order registry.
pub const LOCK_ORDER_PATH: &str = "crates/xtask/lock-order.toml";

/// Everything one lint run produced.
#[derive(Debug, Default)]
pub struct LintOutcome {
    /// Hard failures; non-empty means the gate is red.
    pub errors: Vec<String>,
    /// Non-fatal advice (e.g. unlocked ratchet improvements).
    pub warnings: Vec<String>,
    /// Fresh per-crate panic-site counts (what `--update-baseline` writes).
    pub counts: BTreeMap<String, usize>,
}

impl LintOutcome {
    /// `true` when the gate is green.
    pub fn passed(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Runs all three analyses over the workspace at `root`.
///
/// With `update_baseline`, a below-baseline ratchet result rewrites
/// [`BASELINE_PATH`] instead of warning. I/O problems (unreadable crate
/// dirs, missing baseline) are reported as lint errors rather than aborting
/// the run, so one bad file never hides the rest of the report.
pub fn run_lint(root: &Path, update_baseline: bool) -> LintOutcome {
    let mut out = LintOutcome::default();

    let crates = match discover_crates(root) {
        Ok(c) => c,
        Err(e) => {
            out.errors
                .push(format!("cannot list {}/crates: {e}", root.display()));
            return out;
        }
    };

    // 1. Layering.
    let manifests: Vec<manifest::Manifest> = crates.iter().map(|c| c.manifest.clone()).collect();
    out.errors.extend(layering::check(&manifests));

    // 2 + 3. Source-level analyses share one pass over each crate's files.
    let mut counts: BTreeMap<String, ratchet::CrateCount> = BTreeMap::new();
    for c in &crates {
        let files = match read_sources(&c.dir) {
            Ok(f) => f,
            Err(e) => {
                out.errors
                    .push(format!("cannot read sources of `{}`: {e}", c.manifest.name));
                continue;
            }
        };
        let mut per_file = Vec::new();
        let mut audited = Vec::new();
        let mut sources = Vec::new();
        for (rel, src) in &files {
            per_file.push(ratchet::count_file(rel, src));
            let stripped = scan::strip_cfg_test(scan::mask(src));
            audited.push((rel.clone(), stripped.clone()));
            sources.push(concurrency::FileSource {
                rel: rel.clone(),
                raw: src.clone(),
                stripped,
            });
        }
        counts.insert(c.manifest.name.clone(), ratchet::merge(per_file));
        out.errors
            .extend(invariants::audit(&c.manifest.name, &audited));
        out.errors
            .extend(concurrency::check_crate(&c.manifest.name, &sources));
    }

    // 4b. The declared lock-order registry.
    let lock_order_file = root.join(LOCK_ORDER_PATH);
    match fs::read_to_string(&lock_order_file) {
        Ok(text) => out.errors.extend(concurrency::check_lock_order(&text)),
        Err(e) => out
            .errors
            .push(format!("cannot read {}: {e}", lock_order_file.display())),
    }
    out.counts = counts.iter().map(|(k, v)| (k.clone(), v.total)).collect();

    let baseline_file = root.join(BASELINE_PATH);
    let baseline = match fs::read_to_string(&baseline_file) {
        Ok(text) => ratchet::parse_baseline(&text),
        Err(e) => {
            if !update_baseline {
                out.errors
                    .push(format!("cannot read {}: {e}", baseline_file.display()));
            }
            BTreeMap::new()
        }
    };
    let report = ratchet::compare(&counts, &baseline);
    if update_baseline {
        match fs::write(&baseline_file, ratchet::render_baseline(&out.counts)) {
            Ok(()) => out.warnings.push(format!(
                "panic-ratchet: baseline rewritten at {}",
                baseline_file.display()
            )),
            Err(e) => out
                .errors
                .push(format!("cannot write {}: {e}", baseline_file.display())),
        }
    } else {
        out.warnings.extend(report.warnings);
    }
    out.errors.extend(report.errors);
    out
}

/// Product lines per crate of the workspace at `root`, keyed by package
/// name: the sum of [`scan::product_lines`] over [`read_sources`].
pub fn product_lines(root: &Path) -> std::io::Result<BTreeMap<String, usize>> {
    let mut out = BTreeMap::new();
    for c in discover_crates(root)? {
        let lines = read_sources(&c.dir)?
            .iter()
            .map(|(_, src)| scan::product_lines(src))
            .sum();
        out.insert(c.manifest.name, lines);
    }
    Ok(out)
}

/// Product lines of each of `paths`, in the order given: a file's
/// [`scan::product_lines`], or their sum over the `.rs` files under a
/// directory.
pub fn path_product_lines(paths: &[PathBuf]) -> std::io::Result<Vec<(PathBuf, usize)>> {
    let mut out = Vec::new();
    for path in paths {
        let mut files = Vec::new();
        if path.is_dir() {
            walk(path, &mut files)?;
        } else {
            files.push(path.clone());
        }
        let mut lines = 0;
        for file in files {
            lines += scan::product_lines(&fs::read_to_string(file)?);
        }
        out.push((path.clone(), lines));
    }
    Ok(out)
}

/// One workspace member under `crates/`.
#[derive(Debug, Clone)]
pub struct CrateDir {
    /// The crate's directory.
    pub dir: PathBuf,
    /// Its parsed manifest subset.
    pub manifest: manifest::Manifest,
}

/// Finds every `crates/*` directory containing a `Cargo.toml`, sorted by
/// package name for deterministic reports. Vendored shims (`vendor/*`) are
/// deliberately out of scope.
pub fn discover_crates(root: &Path) -> std::io::Result<Vec<CrateDir>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(root.join("crates"))? {
        let dir = entry?.path();
        let manifest_path = dir.join("Cargo.toml");
        if !manifest_path.is_file() {
            continue;
        }
        let text = fs::read_to_string(&manifest_path)?;
        out.push(CrateDir {
            dir,
            manifest: manifest::parse(&text),
        });
    }
    out.sort_by(|a, b| a.manifest.name.cmp(&b.manifest.name));
    Ok(out)
}

/// Reads every `.rs` file under `<crate>/src`, returning
/// `(path relative to the crate dir, contents)` sorted by path.
///
/// Only `src/` is scanned: `tests/`, `benches/`, and `examples/` are test
/// harness by definition, exactly like `#[cfg(test)]` blocks.
pub fn read_sources(crate_dir: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    let src = crate_dir.join("src");
    if src.is_dir() {
        walk(&src, &mut files)?;
    }
    let mut out = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(crate_dir)
            .unwrap_or(&path)
            .to_string_lossy()
            .into_owned();
        out.push((rel, fs::read_to_string(&path)?));
    }
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
