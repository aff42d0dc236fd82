//! The static entrance under dirty input: `info`, `query` and `serve` run
//! as the `enviro` binary over malformed CSVs. Each must exit with the code
//! the crate docs give for the case, never panic, and name the bad row
//! wherever it refuses one.

// Harness code, exempt from the library panic policy: an unwrap here
// fails the run loudly, which is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::process::Command;

/// One malformed input and what every command must do with it.
struct Case {
    name: &'static str,
    /// The rows after the header.
    rows: &'static str,
    /// Exit codes of `info`, `query` and `serve`.
    codes: [i32; 3],
    /// What stderr must contain when a command fails.
    error: &'static str,
}

const CASES: &[Case] = &[
    Case {
        name: "pre-epoch",
        rows: "-5,0,0,400\n-4,10,10,410\n100,20,20,420\n",
        codes: [1, 1, 1],
        error: "line 2: tuple is before the epoch (time_secs -5)",
    },
    Case {
        name: "nan-value",
        rows: "0,0,0,400\n30,5,5,NaN\n",
        codes: [1, 1, 1],
        error: "line 3: tuple has non-finite position or value",
    },
    Case {
        name: "unparsable-field",
        rows: "0,0,0,400\n30,5x,5,410\n",
        codes: [1, 1, 1],
        error: "line 3: invalid x: \"5x\"",
    },
    Case {
        name: "missing-column",
        rows: "0,0,0,400\n30,5,5\n",
        codes: [1, 1, 1],
        error: "line 3: missing field value",
    },
    // No row is refused: the dataset is empty, which `info` and `query`
    // report and `serve` cannot serve.
    Case {
        name: "header-only",
        rows: "",
        codes: [0, 0, 1],
        error: "dataset is empty",
    },
];

#[test]
fn malformed_csvs_are_refused_by_every_command_without_a_panic() {
    let dir = std::env::temp_dir().join(format!("enviro-malformed-csv-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for case in CASES {
        let csv = dir.join(format!("{}.csv", case.name));
        std::fs::write(&csv, format!("time_secs,x,y,value\n{}", case.rows)).unwrap();
        let csv = csv.to_str().unwrap();
        let commands: [&[&str]; 3] = [
            &["info", csv],
            &["query", csv, "--time", "0", "--x", "5", "--y", "5"],
            &[
                "serve",
                csv,
                "--workers",
                "1",
                "--clients",
                "1",
                "--requests",
                "10",
            ],
        ];
        for (argv, &code) in commands.iter().zip(&case.codes) {
            let run = Command::new(env!("CARGO_BIN_EXE_enviro"))
                .args(*argv)
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&run.stderr);
            let what = format!("{} {}: {stderr}", argv[0], case.name);
            assert!(!stderr.contains("panicked"), "{what}");
            assert_eq!(run.status.code(), Some(code), "{what}");
            if code != 0 {
                assert!(stderr.contains(case.error), "{what}");
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
