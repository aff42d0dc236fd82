//! Every `enviro …` command line that the docs show is accepted by the
//! command's table. The lines come from README.md, CI's "Store CLI smoke
//! run" step, the `enviro-cli` module doc and the verify skill's notes.
//! Each runs through the `enviro` binary with `--help` appended: `--help`
//! answers only after the rest of the line parses, so a doc line that
//! names a flag its command does not take exits 2, and nothing is run.

// Harness code, exempt from the library panic policy: an unwrap here
// fails the run loudly, which is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_file(path: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::fs::read_to_string(root.join(path)).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Splits a shell line into words, keeping quoted spans whole. The line
/// ends at a comment, a pipe, an `||` or a redirection.
fn words(line: &str) -> Vec<String> {
    let (mut words, mut word, mut quote, mut quoted) = (Vec::new(), String::new(), None, false);
    for c in line.chars().chain([' ']) {
        match (quote, c) {
            (Some(q), c) if c == q => quote = None,
            (Some(_), c) => word.push(c),
            (None, '"' | '\'') => (quote, quoted) = (Some(c), true),
            (None, ' ') if !word.is_empty() || quoted => {
                let stop = ["#", "|", "||", ">", "2>"].contains(&word.as_str()) && !quoted;
                if stop {
                    break;
                }
                words.push(std::mem::take(&mut word));
                quoted = false;
            }
            (None, ' ') => {}
            (None, c) => word.push(c),
        }
    }
    words
}

/// The `enviro` command lines in `text`, each with the exit code its
/// `--help` run must give: 2 where the line is followed by a check that
/// its code is 2 (a line the docs show being refused), else 0.
fn command_lines(text: &str) -> Vec<(String, i32)> {
    let joined = text.replace("\\\n", " ");
    let lines: Vec<&str> = joined
        .lines()
        .map(|l| l.trim_start_matches("//!").trim())
        .collect();
    let mut found = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let program = line.split(' ').next().unwrap_or_default();
        if program == "enviro" || program.ends_with("/enviro") || program == "$enviro" {
            let refused = line.contains("|| code=$?")
                && lines[i + 1..]
                    .iter()
                    .find(|l| l.starts_with("test \"$code\""))
                    .is_some_and(|l| l.ends_with("= 2"));
            found.push((line.to_string(), if refused { 2 } else { 0 }));
        }
    }
    found
}

/// The `run:` script of the CI step named `name`.
fn ci_step(name: &str) -> String {
    let ci = repo_file(".github/workflows/ci.yml");
    let start = ci.find(&format!("- name: {name}")).unwrap();
    let rest = &ci[start..];
    let end = rest[1..].find("- name:").map_or(rest.len(), |i| i + 1);
    rest[..end].to_string()
}

fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("enviro-doc-commands-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn every_documented_command_line_parses() {
    let tmp = scratch();
    let sources = [
        ("README.md", repo_file("README.md")),
        ("ci.yml", ci_step("Store CLI smoke run")),
        ("crates/cli/src/lib.rs", repo_file("crates/cli/src/lib.rs")),
        (
            ".claude/skills/verify/SKILL.md",
            repo_file(".claude/skills/verify/SKILL.md"),
        ),
    ];
    let mut failures = Vec::new();
    for (source, text) in &sources {
        let lines = command_lines(text);
        assert!(!lines.is_empty(), "{source} shows no enviro command line");
        for (line, code) in lines {
            // `$VAR` paths point into a scratch directory; with `--help`
            // nothing is read or written there.
            let mut argv: Vec<String> = words(&line)[1..]
                .iter()
                .map(|w| match w.strip_prefix('$') {
                    Some(var) => {
                        let rest = var.find('/').map_or("", |i| &var[i..]);
                        format!("{}{rest}", tmp.display())
                    }
                    None => w.clone(),
                })
                .collect();
            argv.push("--help".to_string());
            let out = Command::new(env!("CARGO_BIN_EXE_enviro"))
                .args(&argv)
                .output()
                .unwrap();
            if out.status.code() != Some(code) {
                let stderr = String::from_utf8_lossy(&out.stderr);
                failures.push(format!(
                    "{source}: `{line}` exits {:?}, not {code}: {stderr}",
                    out.status.code()
                ));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&tmp);
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn words_split_like_the_shell() {
    assert_eq!(
        words(r#"$enviro ingest "$T/day.csv" --points "0,1;2,3" 2> "$T/err" || code=$?"#),
        ["$enviro", "ingest", "$T/day.csv", "--points", "0,1;2,3"]
    );
    assert_eq!(
        words("enviro info d.csv   # inspect it"),
        ["enviro", "info", "d.csv"]
    );
    assert_eq!(
        words("enviro store stats --dir w | tee s.txt"),
        ["enviro", "store", "stats", "--dir", "w"]
    );
}
