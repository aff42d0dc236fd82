//! The `figures` binary's command line: asking for help is not an error,
//! a usage error is.

// Harness code, exempt from the library panic policy: an unwrap here
// fails the run loudly, which is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("figures runs")
}

#[test]
fn help_prints_the_usage_to_stdout_and_succeeds() {
    for flag in ["--help", "-h"] {
        let out = figures(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("usage: figures"), "{flag}: {stdout}");
        assert!(stdout.contains("fig6a"), "{flag}: {stdout}");
        assert!(out.stderr.is_empty(), "{flag}");
    }
}

#[test]
fn an_unknown_panel_is_a_usage_error() {
    let out = figures(&["nope"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment \"nope\""), "{stderr}");
    assert!(stderr.contains("usage: figures"), "{stderr}");
}
