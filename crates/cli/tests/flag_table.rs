//! Each command accepts exactly what its table declares, driven through
//! the `enviro` binary: an undeclared flag, a value flag without its value,
//! an unknown `store` subcommand and a surplus positional each exit 2 and
//! name the offending token before any work is done, and a switch never
//! swallows the positional after it.

// Harness code, exempt from the library panic policy: an unwrap here
// fails the run loudly, which is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::{Path, PathBuf};
use std::process::Command;

/// A scratch directory holding a six-hour simulated dataset, `day.csv`.
struct Scratch {
    root: PathBuf,
}

impl Scratch {
    fn new(name: &str) -> Self {
        let root =
            std::env::temp_dir().join(format!("enviro-flag-table-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        let scratch = Self { root };
        enviro(&[
            "simulate",
            "--hours",
            "6",
            "--out",
            &scratch.path("day.csv"),
        ])
        .expect(0);
        scratch
    }

    fn path(&self, name: &str) -> String {
        self.root.join(name).to_str().unwrap().to_string()
    }

    /// Makes a store at `name` with `ingest`, as a later command's target.
    fn store(&self, name: &str) -> String {
        let dir = self.path(name);
        let csv = self.path("day.csv");
        let argv = ["ingest", &csv, "--dir", &dir, "--rate", "1000000"];
        enviro(&[&argv[..], &["--virtual-clock"]].concat()).expect(0);
        dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// What one run of the binary printed and how it exited.
struct Run {
    argv: String,
    code: Option<i32>,
    stdout: String,
    stderr: String,
}

impl Run {
    /// Asserts the exit code and that nothing panicked; returns the run.
    fn expect(self, code: i32) -> Self {
        let what = format!(
            "{}\nstdout: {}\nstderr: {}",
            self.argv, self.stdout, self.stderr
        );
        assert!(!self.stderr.contains("panicked"), "{what}");
        assert_eq!(self.code, Some(code), "{what}");
        self
    }

    /// Asserts a usage error (exit 2) whose message names `token` and
    /// shows a usage line.
    fn refuses(self, token: &str) -> Self {
        let run = self.expect(2);
        assert!(run.stderr.contains(token), "{}: {}", run.argv, run.stderr);
        assert!(run.stderr.contains("usage: enviro"), "{}", run.stderr);
        run
    }
}

fn enviro(argv: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_enviro"))
        .args(argv)
        .output()
        .unwrap();
    Run {
        argv: argv.join(" "),
        code: out.status.code(),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

#[test]
fn a_misspelt_flag_is_refused_before_a_store_is_made() {
    let s = Scratch::new("misspelt");
    let (csv, dir) = (s.path("day.csv"), s.path("W1"));
    let argv = ["ingest", &csv, "--dir", &dir, "--window-sec", "7200"];
    enviro(&[&argv[..], &["--rate", "1000000", "--virtual-clock"]].concat())
        .refuses("unknown flag --window-sec");
    assert!(!Path::new(&dir).exists(), "a refused ingest made {dir}");
}

#[test]
fn store_stats_refuses_a_flag_it_does_not_read() {
    let s = Scratch::new("stats-tau");
    let dir = s.store("W2");
    enviro(&["store", "stats", "--dir", &dir, "--tau", "5"]).refuses("unknown flag --tau");
}

#[test]
fn ingest_refuses_tau() {
    let s = Scratch::new("ingest-tau");
    let (csv, dir) = (s.path("day.csv"), s.path("W2"));
    let argv = [
        "ingest", &csv, "--dir", &dir, "--tau", "5", "--rate", "1000000",
    ];
    enviro(&[&argv[..], &["--virtual-clock"]].concat()).refuses("unknown flag --tau");
    assert!(!Path::new(&dir).exists());
}

#[test]
fn query_refuses_a_misspelt_method_flag() {
    let s = Scratch::new("metod");
    let csv = s.path("day.csv");
    let argv = ["query", &csv, "--time", "8h", "--x", "0", "--y", "-200"];
    enviro(&[&argv[..], &["--metod", "idw"]].concat()).refuses("unknown flag --metod");
}

#[test]
fn simulate_refuses_a_misspelt_flag_without_writing() {
    let s = Scratch::new("hour");
    let two = s.path("two.csv");
    enviro(&["simulate", "--hour", "2", "--out", &two]).refuses("unknown flag --hour");
    assert!(!Path::new(&two).exists());
}

#[test]
fn a_value_flag_never_becomes_a_switch() {
    let s = Scratch::new("out-ascii");
    let csv = s.path("day.csv");
    let run = enviro(&["heatmap", &csv, "--time", "8h", "--out", "--ascii"]).refuses("--out");
    assert!(run.stdout.is_empty(), "{}", run.stdout);
}

#[test]
fn a_switch_never_takes_the_positional_after_it() {
    let s = Scratch::new("switch");
    let csv = s.path("day.csv");
    let run = enviro(&["heatmap", "--ascii", &csv, "--time", "8h"]).expect(0);
    assert!(run.stdout.lines().count() > 10, "{}", run.stdout);
    let dir = s.path("W3");
    let argv = [
        "ingest",
        "--virtual-clock",
        &csv,
        "--dir",
        &dir,
        "--rate",
        "1000000",
    ];
    let run = enviro(&argv).expect(0);
    assert!(run.stdout.contains("ingested 720 tuples"), "{}", run.stdout);
}

#[test]
fn an_unknown_store_subcommand_is_refused() {
    let s = Scratch::new("stat");
    let dir = s.store("W2");
    let run = enviro(&["store", "stat", "--dir", &dir]).expect(2);
    assert!(run.stderr.contains("\"store stat\""), "{}", run.stderr);
    assert!(run.stderr.contains("store stats"), "{}", run.stderr);
    // A bare `store` lists the subcommands and succeeds.
    let run = enviro(&["store"]).expect(0);
    assert!(run.stdout.contains("store compact"), "{}", run.stdout);
}

#[test]
fn a_surplus_positional_is_refused() {
    let s = Scratch::new("extra");
    let (csv, extra) = (s.path("day.csv"), s.path("extra.csv"));
    let run = enviro(&["info", &csv, &extra]).refuses("unexpected argument");
    assert!(run.stderr.contains(&extra), "{}", run.stderr);
}
