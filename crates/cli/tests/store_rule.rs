//! The store rule, driven through the `enviro` binary: a store keeps the
//! window length its record names, whichever command made it; a new store
//! takes `--window-secs` or the 4-h default; a `--window-secs` that
//! disagrees with the record is a usage error; and the commands that only
//! read a store never create one.

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
            std::env::temp_dir().join(format!("enviro-store-rule-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        let scratch = Self { root };
        let csv = scratch.path("day.csv");
        enviro(&["simulate", "--hours", "6", "--out", &csv]).expect(0);
        scratch
    }

    fn path(&self, name: &str) -> String {
        self.root.join(name).to_str().unwrap().to_string()
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

fn ingest(csv: &str, dir: &str, extra: &[&str]) -> Run {
    let mut argv = vec![
        "ingest",
        csv,
        "--dir",
        dir,
        "--rate",
        "1000000",
        "--virtual-clock",
    ];
    argv.extend_from_slice(extra);
    enviro(&argv)
}

fn serve_ingest(csv: &str, dir: &str, extra: &[&str]) -> Run {
    let mut argv = vec![
        "serve",
        csv,
        "--workers",
        "2",
        "--clients",
        "1",
        "--requests",
        "200",
        "--ingest",
        dir,
    ];
    argv.extend_from_slice(extra);
    enviro(&argv)
}

fn recorded_window(dir: &str) -> String {
    std::fs::read_to_string(Path::new(dir).join("WINDOW_SECS")).unwrap()
}

#[test]
fn serve_ingest_reopens_a_store_that_ingest_made() {
    let s = Scratch::new("ingest-then-serve");
    let (csv, dir) = (s.path("day.csv"), s.path("W"));
    let run = ingest(&csv, &dir, &[]).expect(0);
    assert!(
        run.stdout.contains("ingested 720 tuples (0 failed)"),
        "{}",
        run.stdout
    );
    // Six hours make two 4-h windows, both still open: the same readings
    // are appended again.
    let run = serve_ingest(&csv, &dir, &[]).expect(0);
    assert!(run.stdout.contains("served 200 queries"), "{}", run.stdout);
    assert!(
        run.stdout
            .contains("ingest: 720 tuples acked, 0 failed, 0 late, durable 1440"),
        "{}",
        run.stdout
    );
    assert_eq!(recorded_window(&dir), "14400\n");
}

#[test]
fn store_stats_reads_a_store_that_serve_ingest_made() {
    let s = Scratch::new("serve-then-stats");
    let csv = s.path("day.csv");
    for (dir, extra, window) in [
        (s.path("W4"), &[][..], "14400\n"),
        (s.path("W2"), &["--window-secs", "7200"][..], "7200\n"),
    ] {
        serve_ingest(&csv, &dir, extra).expect(0);
        assert_eq!(recorded_window(&dir), window);
        let run = enviro(&["store", "stats", "--dir", &dir]).expect(0);
        assert!(run.stdout.contains("durable tuples: 720"), "{}", run.stdout);
    }
}

#[test]
fn readers_refuse_a_path_with_no_store_and_create_nothing() {
    let s = Scratch::new("no-store");
    let nosuch = s.path("nosuch");
    let back = s.path("back.csv");
    let readers: [&[&str]; 3] = [
        &["store", "stats", "--dir", &nosuch],
        &["store", "export", "--dir", &nosuch, "--out", &back],
        &["store", "compact", "--dir", &nosuch],
    ];
    for argv in readers {
        let run = enviro(argv).expect(1);
        assert!(
            run.stderr.contains(&format!("no store at {nosuch}")),
            "{}",
            run.stderr
        );
        assert!(
            !Path::new(&nosuch).exists(),
            "{} created {nosuch}",
            run.argv
        );
        assert!(!Path::new(&back).exists(), "{} wrote {back}", run.argv);
    }
    // An existing directory that holds no store is no store either, and
    // stays as it was.
    std::fs::create_dir(&nosuch).unwrap();
    enviro(&["store", "stats", "--dir", &nosuch]).expect(1);
    assert_eq!(std::fs::read_dir(&nosuch).unwrap().count(), 0);
}

#[test]
fn a_window_that_disagrees_with_the_record_is_a_usage_error() {
    let s = Scratch::new("disagree");
    let (csv, dir) = (s.path("day.csv"), s.path("W"));
    ingest(&csv, &dir, &["--window-secs", "3600"]).expect(0);
    let attempts: [&[&str]; 3] = [
        &["ingest", &csv, "--dir", &dir, "--window-secs", "7200"],
        &["serve", &csv, "--ingest", &dir, "--window-secs", "7200"],
        &["store", "stats", "--dir", &dir, "--window-secs", "7200"],
    ];
    for argv in attempts {
        let run = enviro(argv).expect(2);
        assert!(
            run.stderr.contains("7200") && run.stderr.contains("3600"),
            "{}: {}",
            run.argv,
            run.stderr
        );
    }
    // Naming the recorded window, or none, opens the store.
    let run = enviro(&["store", "stats", "--dir", &dir, "--window-secs", "3600"]).expect(0);
    assert!(run.stdout.contains("durable tuples: 720"), "{}", run.stdout);
    // Six 1-h windows: all but the newest two were sealed, so re-sending
    // the readings drops their 480 tuples as late, and the summary says so.
    let run = ingest(&csv, &dir, &[]).expect(0);
    assert!(
        run.stdout.contains("ingested 720 tuples (0 failed)")
            && run.stdout.contains("durable 960, 480 late"),
        "{}",
        run.stdout
    );
    assert_eq!(recorded_window(&dir), "3600\n");
}
