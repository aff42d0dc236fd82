//! End-to-end self-tests for the lint gate.
//!
//! Two directions: the real workspace must pass, and synthetic violations —
//! a layering edge, a panic-count regression, an unhooked invariant checker
//! — must each turn the gate red. The synthetic workspaces are materialized
//! under the target directory and cleaned up afterwards.

// Integration-test harness code; panicking is how it reports failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::fs;
use std::path::{Path, PathBuf};

/// Builds a throwaway mini-workspace under `target/` and hands it to `f`.
fn with_workspace(test_name: &str, files: &[(&str, &str)], f: impl FnOnce(&Path)) {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("xtask-selftest-{}-{test_name}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    for (rel, contents) in files {
        let path = root.join(rel);
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent).expect("create synthetic workspace dir");
        }
        fs::write(&path, contents).expect("write synthetic workspace file");
    }
    f(&root);
    let _ = fs::remove_dir_all(&root);
}

fn manifest(name: &str, deps: &[&str]) -> String {
    let mut out = format!("[package]\nname = \"{name}\"\n\n[dependencies]\n");
    for d in deps {
        out.push_str(&format!("{d} = {{ workspace = true }}\n"));
    }
    out.push_str("\n[lints]\nworkspace = true\n");
    out
}

const EMPTY_BASELINE: &str = "[counts]\n";
const EMPTY_LOCK_ORDER: &str = "[locks]\n";

#[test]
fn the_real_workspace_passes_the_gate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let outcome = xtask::run_lint(root, false);
    assert!(
        outcome.passed(),
        "the repository fails its own lint gate:\n{}",
        outcome.errors.join("\n")
    );
    // The burn-down this gate rode in on: storage and net library code is
    // panic-free outside tests, and may not regress.
    assert_eq!(outcome.counts.get("enviro-storage"), Some(&0));
    assert_eq!(outcome.counts.get("enviro-net"), Some(&0));
    assert_eq!(outcome.counts.get("xtask"), Some(&0));
}

#[test]
fn synthetic_layering_violation_fails_the_gate() {
    with_workspace(
        "layering",
        &[
            (
                "crates/core/Cargo.toml",
                &manifest("enviro-meter", &["enviro-geo", "enviro-cli"]),
            ),
            ("crates/core/src/lib.rs", "//! Synthetic crate.\n"),
            ("crates/xtask/panic-baseline.toml", EMPTY_BASELINE),
        ],
        |root| {
            let outcome = xtask::run_lint(root, false);
            assert!(!outcome.passed());
            assert!(
                outcome
                    .errors
                    .iter()
                    .any(|e| e.contains("`enviro-meter` -> `enviro-cli`")),
                "missing layering error: {:?}",
                outcome.errors
            );
        },
    );
}

#[test]
fn synthetic_panic_regression_fails_the_gate() {
    with_workspace(
        "ratchet",
        &[
            (
                "crates/geo/Cargo.toml",
                &manifest("enviro-geo", &["enviro-memsize"]),
            ),
            (
                "crates/geo/src/lib.rs",
                "//! Synthetic crate.\npub fn f(o: Option<u32>) -> u32 { o.unwrap() }\n",
            ),
            // The baseline says geo is clean, so one unwrap is a regression.
            (
                "crates/xtask/panic-baseline.toml",
                "[counts]\nenviro-geo = 0\n",
            ),
        ],
        |root| {
            let outcome = xtask::run_lint(root, false);
            assert!(!outcome.passed());
            assert!(
                outcome.errors.iter().any(|e| e.contains("panic-ratchet")
                    && e.contains("enviro-geo")
                    && e.contains("src/lib.rs:2")),
                "missing ratchet error: {:?}",
                outcome.errors
            );
        },
    );
}

#[test]
fn synthetic_unhooked_invariant_checker_fails_the_gate() {
    with_workspace(
        "invariants",
        &[
            ("crates/geo/Cargo.toml", &manifest("enviro-geo", &["enviro-memsize"])),
            (
                "crates/geo/src/lib.rs",
                "//! Synthetic crate.\npub struct T;\nimpl T {\n    pub fn check_invariants(&self) -> Result<(), String> { Ok(()) }\n}\n",
            ),
            ("crates/xtask/panic-baseline.toml", EMPTY_BASELINE),
        ],
        |root| {
            let outcome = xtask::run_lint(root, false);
            assert!(!outcome.passed());
            assert!(
                outcome.errors.iter().any(|e| e.contains("invariants")
                    && e.contains("never invokes it under debug_assertions")),
                "missing invariant error: {:?}",
                outcome.errors
            );
        },
    );
}

#[test]
fn synthetic_raw_std_sync_import_fails_the_gate() {
    with_workspace(
        "stdsync",
        &[
            (
                "crates/geo/Cargo.toml",
                &manifest("enviro-geo", &["enviro-memsize"]),
            ),
            (
                "crates/geo/src/lib.rs",
                "//! Synthetic crate.\nuse std::sync::Mutex;\npub static M: Mutex<u32> = Mutex::new(0);\n",
            ),
            ("crates/xtask/panic-baseline.toml", EMPTY_BASELINE),
        ],
        |root| {
            let outcome = xtask::run_lint(root, false);
            assert!(!outcome.passed());
            assert!(
                outcome.errors.iter().any(|e| e.contains("std-sync")
                    && e.contains("enviro-geo/src/lib.rs:2")
                    && e.contains("enviro_schedule::sync")),
                "missing std-sync error: {:?}",
                outcome.errors
            );
        },
    );
}

#[test]
fn synthetic_cover_read_under_a_guard_fails_the_gate() {
    with_workspace(
        "coverread",
        &[
            (
                "crates/geo/Cargo.toml",
                &manifest("enviro-geo", &["enviro-memsize"]),
            ),
            (
                "crates/geo/src/lib.rs",
                "//! Synthetic crate.\n\
                 pub fn page_in(c: &Cache) {\n\
                 \x20   let slots = c.slots.lock();\n\
                 \x20   let frame = WalStore::read_cover_frame(&c.dir, 7);\n\
                 }\n",
            ),
            ("crates/xtask/panic-baseline.toml", EMPTY_BASELINE),
        ],
        |root| {
            let outcome = xtask::run_lint(root, false);
            assert!(!outcome.passed());
            assert!(
                outcome.errors.iter().any(|e| e.contains("lock-scope")
                    && e.contains("read_cover_frame")
                    && e.contains("guard `slots`")),
                "missing lock-scope error: {:?}",
                outcome.errors
            );
        },
    );
}

#[test]
fn synthetic_lock_order_cycle_fails_the_gate() {
    with_workspace(
        "lockorder",
        &[
            (
                "crates/geo/Cargo.toml",
                &manifest("enviro-geo", &["enviro-memsize"]),
            ),
            ("crates/geo/src/lib.rs", "//! Synthetic crate.\n"),
            ("crates/xtask/panic-baseline.toml", EMPTY_BASELINE),
            (
                "crates/xtask/lock-order.toml",
                "[locks]\na = \"first\"\nb = \"second\"\n\n\
                 [[order]]\nbefore = \"a\"\nafter = \"b\"\n\n\
                 [[order]]\nbefore = \"b\"\nafter = \"a\"\n",
            ),
        ],
        |root| {
            let outcome = xtask::run_lint(root, false);
            assert!(!outcome.passed());
            assert!(
                outcome
                    .errors
                    .iter()
                    .any(|e| e.contains("lock-order") && e.contains("form a cycle")),
                "missing cycle error: {:?}",
                outcome.errors
            );
        },
    );
}

#[test]
fn ratchet_improvement_warns_until_baseline_updated() {
    with_workspace(
        "improvement",
        &[
            (
                "crates/geo/Cargo.toml",
                &manifest("enviro-geo", &["enviro-memsize"]),
            ),
            (
                "crates/geo/src/lib.rs",
                "//! Synthetic crate.\npub fn f() {}\n",
            ),
            (
                "crates/xtask/panic-baseline.toml",
                "[counts]\nenviro-geo = 4\n",
            ),
            ("crates/xtask/lock-order.toml", EMPTY_LOCK_ORDER),
        ],
        |root| {
            let outcome = xtask::run_lint(root, false);
            assert!(outcome.passed(), "{:?}", outcome.errors);
            assert!(
                outcome.warnings.iter().any(|w| w.contains("improved to 0")),
                "missing improvement warning: {:?}",
                outcome.warnings
            );
            // Locking it in rewrites the baseline and clears the warning.
            let updated = xtask::run_lint(root, true);
            assert!(updated.passed());
            let text =
                fs::read_to_string(root.join(xtask::BASELINE_PATH)).expect("baseline rewritten");
            assert!(text.contains("enviro-geo = 0"), "{text}");
            let clean = xtask::run_lint(root, false);
            assert!(clean.passed());
            assert!(clean.warnings.is_empty(), "{:?}", clean.warnings);
        },
    );
}

#[test]
fn loc_counts_product_lines_per_crate() {
    with_workspace(
        "loc",
        &[
            ("crates/geo/Cargo.toml", &manifest("enviro-geo", &[])),
            (
                "crates/geo/src/lib.rs",
                "//! Counted, though it names `#[cfg(test)]`.\npub mod a;\n\
                 pub const S: &str = \"#[cfg(test)]\";\n\n#[cfg(test)]\nmod tests {}\n",
            ),
            ("crates/geo/src/a.rs", "//! No tests.\npub fn f() {}\n"),
            ("crates/geo/tests/t.rs", "fn not_counted() {}\n"),
            ("crates/data/Cargo.toml", &manifest("enviro-data", &[])),
            ("crates/data/src/lib.rs", "#[cfg(test)]\nmod tests {}\n"),
        ],
        |root| {
            let counts = xtask::product_lines(root).unwrap();
            assert_eq!(counts.get("enviro-geo"), Some(&6));
            assert_eq!(counts.get("enviro-data"), Some(&0));
            assert_eq!(counts.len(), 2);
        },
    );
}

#[test]
fn loc_counts_product_lines_per_path() {
    with_workspace(
        "locpaths",
        &[
            (
                "crates/net/src/codec.rs",
                "//! Two lines.\npub fn f() {}\n#[cfg(test)]\nmod tests {}\n",
            ),
            ("crates/net/src/frame/a.rs", "pub fn a() {}\n"),
            (
                "crates/net/src/frame/b.rs",
                "pub fn b() {}\npub fn c() {}\n",
            ),
            ("crates/net/src/frame/notes.txt", "not rust\n"),
        ],
        |root| {
            let paths = [
                root.join("crates/net/src/codec.rs"),
                root.join("crates/net/src/frame"),
            ];
            let counts = xtask::path_product_lines(&paths).unwrap();
            let lines: Vec<usize> = counts.iter().map(|(_, n)| *n).collect();
            assert_eq!(lines, [2, 3]);
            assert_eq!(counts[0].0, paths[0]);
            assert!(xtask::path_product_lines(&[root.join("no/such.rs")]).is_err());
        },
    );
}
