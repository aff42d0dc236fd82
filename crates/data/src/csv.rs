//! CSV import/export of datasets.
//!
//! The OpenSense pipeline dumps raw tuples into a relational table; this
//! module is the file-interchange equivalent. The format is deliberately
//! minimal — a header line followed by `time_secs,x,y,value` rows — so that
//! datasets round-trip between the simulator, the examples and external
//! tooling. `time_secs` is a non-negative whole number of seconds since the
//! epoch (the first duration window starts there), and `x`, `y` (meters)
//! and `value` are finite; a row that breaks this is refused with its line
//! number. Parsing is hand-rolled (no quoting is needed for numeric columns)
//! to stay inside the approved dependency set.

use crate::dataset::{check_tuple, Dataset};
use crate::pollutant::Pollutant;
use crate::tuple::{RawTuple, Timestamp};
use enviro_geo::Point;
use std::io::{self, BufRead, BufReader, Read, Write};

/// The header written (and required) by this module.
pub const HEADER: &str = "time_secs,x,y,value";

/// Errors produced while reading a dataset from CSV.
#[derive(Debug)]
pub enum CsvError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// A malformed line, with its 1-based line number and a description.
    Parse {
        /// 1-based line number (the header is line 1).
        line: usize,
        /// What was wrong.
        message: String,
    },
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "I/O error: {e}"),
            CsvError::Parse { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl std::error::Error for CsvError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CsvError::Io(e) => Some(e),
            CsvError::Parse { .. } => None,
        }
    }
}

impl From<io::Error> for CsvError {
    fn from(e: io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// Writes `dataset` as CSV to `w`.
pub fn write_csv<W: Write>(dataset: &Dataset, w: &mut W) -> io::Result<()> {
    writeln!(w, "{HEADER}")?;
    for t in dataset.tuples() {
        writeln!(
            w,
            "{},{},{},{}",
            t.time.as_secs(),
            t.pos.x,
            t.pos.y,
            t.value
        )?;
    }
    Ok(())
}

/// Reads a dataset for `pollutant` from CSV.
///
/// Requires the exact [`HEADER`]; blank lines are ignored; tuples may appear
/// in any time order (they are sorted on load).
pub fn read_csv<R: Read>(pollutant: Pollutant, r: R) -> Result<Dataset, CsvError> {
    let reader = BufReader::new(r);
    let mut tuples = Vec::new();
    let mut lines = reader.lines();
    let header = lines.next().ok_or(CsvError::Parse {
        line: 1,
        message: "empty input (missing header)".into(),
    })??;
    if header.trim() != HEADER {
        return Err(CsvError::Parse {
            line: 1,
            message: format!("bad header {header:?}, expected {HEADER:?}"),
        });
    }
    for (idx, line) in lines.enumerate() {
        let line_no = idx + 2;
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split(',');
        let mut next_field = |name: &str| -> Result<&str, CsvError> {
            fields.next().ok_or_else(|| CsvError::Parse {
                line: line_no,
                message: format!("missing field {name}"),
            })
        };
        let time: i64 = parse(next_field("time_secs")?, "time_secs", line_no)?;
        let x: f64 = parse(next_field("x")?, "x", line_no)?;
        let y: f64 = parse(next_field("y")?, "y", line_no)?;
        let value: f64 = parse(next_field("value")?, "value", line_no)?;
        if fields.next().is_some() {
            return Err(CsvError::Parse {
                line: line_no,
                message: "too many fields".into(),
            });
        }
        let tuple = RawTuple::new(Timestamp::from_secs(time), Point::new(x, y), value);
        check_tuple(&tuple).map_err(|e| CsvError::Parse {
            line: line_no,
            message: format!("tuple {e}"),
        })?;
        tuples.push(tuple);
    }
    Dataset::from_tuples(pollutant, tuples).map_err(|message| CsvError::Parse { line: 0, message })
}

fn parse<T: std::str::FromStr>(s: &str, name: &str, line: usize) -> Result<T, CsvError> {
    s.trim().parse().map_err(|_| CsvError::Parse {
        line,
        message: format!("invalid {name}: {s:?}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dataset() -> Dataset {
        Dataset::from_tuples(
            Pollutant::Co2,
            vec![
                RawTuple::new(Timestamp::from_secs(60), Point::new(1.5, -2.5), 420.25),
                RawTuple::new(Timestamp::from_secs(0), Point::new(0.0, 0.0), 400.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn roundtrip_preserves_dataset() {
        let ds = sample_dataset();
        let mut buf = Vec::new();
        write_csv(&ds, &mut buf).unwrap();
        let back = read_csv(Pollutant::Co2, buf.as_slice()).unwrap();
        assert_eq!(back, ds);
    }

    #[test]
    fn written_header_first_line() {
        let mut buf = Vec::new();
        write_csv(&sample_dataset(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("time_secs,x,y,value\n"));
    }

    #[test]
    fn read_rejects_bad_header() {
        let err = read_csv(Pollutant::Co2, "a,b,c\n".as_bytes()).unwrap_err();
        assert!(matches!(err, CsvError::Parse { line: 1, .. }));
    }

    #[test]
    fn read_rejects_empty_input() {
        assert!(read_csv(Pollutant::Co2, "".as_bytes()).is_err());
    }

    #[test]
    fn read_rejects_bad_number_with_line_info() {
        let input = format!("{HEADER}\n0,1.0,2.0,oops\n");
        let err = read_csv(Pollutant::Co2, input.as_bytes()).unwrap_err();
        match err {
            CsvError::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("value"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn read_rejects_wrong_arity() {
        let short = format!("{HEADER}\n0,1.0,2.0\n");
        assert!(read_csv(Pollutant::Co2, short.as_bytes()).is_err());
        let long = format!("{HEADER}\n0,1.0,2.0,3.0,4.0\n");
        assert!(read_csv(Pollutant::Co2, long.as_bytes()).is_err());
    }

    #[test]
    fn read_skips_blank_lines_and_sorts() {
        let input = format!("{HEADER}\n60,1,1,2\n\n0,0,0,1\n");
        let ds = read_csv(Pollutant::Co2, input.as_bytes()).unwrap();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.tuples()[0].time.as_secs(), 0);
    }

    #[test]
    fn read_rejects_non_finite_values() {
        let input = format!("{HEADER}\n0,NaN,0,1\n");
        let err = read_csv(Pollutant::Co2, input.as_bytes()).unwrap_err();
        assert!(matches!(err, CsvError::Parse { line: 2, .. }), "{err}");
    }

    #[test]
    fn read_rejects_pre_epoch_rows_with_line_info() {
        let input = format!("{HEADER}\n100,20,20,420\n\n-4,10,10,410\n");
        let err = read_csv(Pollutant::Co2, input.as_bytes()).unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 4: tuple is before the epoch (time_secs -4)"
        );
    }

    #[test]
    fn large_roundtrip_via_simulator() {
        use crate::sim::{LausanneSim, SimConfig};
        let sim = LausanneSim::lausanne(SimConfig {
            duration_secs: 3_600,
            ..SimConfig::default()
        });
        let ds = sim.generate();
        let mut buf = Vec::new();
        write_csv(&ds, &mut buf).unwrap();
        let back = read_csv(Pollutant::Co2, buf.as_slice()).unwrap();
        assert_eq!(back.len(), ds.len());
        // f64 round-trips exactly through Rust's Display/FromStr.
        assert_eq!(back, ds);
    }
}
