//! The `enviro` command-line tool.
//!
//! One binary exposing the platform's surfaces over CSV datasets and
//! segment stores:
//!
//! ```text
//! enviro simulate --hours 24 --out day.csv          # generate a dataset
//! enviro info day.csv                               # inspect it
//! enviro query day.csv --time 8h --x 0 --y -200     # point query
//! enviro heatmap day.csv --time 8h --out map.ppm    # web UI's heatmap mode
//! enviro route day.csv --start 7h --points "x,y;…"  # app's route summary
//! enviro serve day.csv --workers 4 --batch 64       # concurrent load drive
//! enviro ingest day.csv --dir ./wal --rate 500      # durable write path
//! enviro store ingest day.csv --dir ./store         # durable raw-tuple store
//! enviro store stats --dir ./wal                    # inspect an existing store
//! enviro store export --dir ./store --out back.csv
//! ```
//!
//! One rule gives a store its window length `H`: an existing store keeps
//! the one its `WINDOW_SECS` record names, and a new store takes
//! `--window-secs` or the 4-h default that the platform also uses. A
//! `--window-secs` that disagrees with the record is a usage error. `store
//! stats|export|compact` only read: a path with no store is a runtime
//! error, and nothing is created there. `ingest` and `serve --ingest`
//! stand up one ingesting server, fitted with the platform's
//! configuration, which answers from the store's covers alone.
//!
//! Exit codes: 0 on success, 2 for a usage error, 1 for a runtime error.
//! A CSV row the format refuses (a time before the epoch, a non-finite or
//! unparsable field, a missing or extra column) is a runtime error that
//! names its line. A header-only CSV is an empty dataset: `info` and
//! `query` report it and exit 0, `serve` refuses it and exits 1.
//!
//! Each command declares what it accepts once, in its table in
//! [`commands`]: positionals, flags and one help line each. The parser,
//! the usage text and `enviro <command> --help` all come from that table,
//! and anything it does not declare exits 2.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod args;
pub mod commands;

use std::fmt;

/// A CLI failure: a message and the exit code to report.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message for stderr.
    pub message: String,
    /// Process exit code (2 = usage, 1 = runtime failure).
    pub code: i32,
}

impl CliError {
    /// A usage error (exit code 2).
    pub fn usage(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            code: 2,
        }
    }

    /// A runtime error (exit code 1).
    pub fn runtime(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            code: 1,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

/// Runs the CLI with `args` (without the program name), writing normal
/// output to `out`. Returns the process exit code.
pub fn run(args: &[String], out: &mut dyn std::io::Write) -> i32 {
    match commands::dispatch(args, out) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("enviro: {}", e.message);
            e.code
        }
    }
}
