//! Minimal `--flag value` argument parsing.

use crate::CliError;
use enviro_data::Timestamp;
use std::collections::BTreeMap;

/// Parsed arguments of one subcommand: positionals plus `--key value` flags.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// Positional arguments in order.
    pub positional: Vec<String>,
    flags: BTreeMap<String, String>,
    /// Flags that were present without a value (e.g. `--help`).
    switches: Vec<String>,
}

impl Args {
    /// Parses a flat token list. A token starting with `--` consumes the
    /// next token as its value unless it is itself a `--switch` at the end
    /// or followed by another flag (then it is a boolean switch).
    pub fn parse(tokens: &[String]) -> Result<Args, CliError> {
        let mut args = Args::default();
        let mut i = 0;
        while i < tokens.len() {
            let tok = &tokens[i];
            if let Some(name) = tok.strip_prefix("--") {
                if name.is_empty() {
                    return Err(CliError::usage("stray `--`"));
                }
                let next_is_value = tokens
                    .get(i + 1)
                    .map(|n| !n.starts_with("--"))
                    .unwrap_or(false);
                if next_is_value {
                    if args
                        .flags
                        .insert(name.to_string(), tokens[i + 1].clone())
                        .is_some()
                    {
                        return Err(CliError::usage(format!("duplicate flag --{name}")));
                    }
                    i += 2;
                } else {
                    args.switches.push(name.to_string());
                    i += 1;
                }
            } else {
                args.positional.push(tok.clone());
                i += 1;
            }
        }
        Ok(args)
    }

    /// `true` if `--name` appeared (as a switch or with a value).
    pub fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name) || self.flags.contains_key(name)
    }

    /// The raw value of `--name`, if given.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// A required string flag.
    pub fn require(&self, name: &str) -> Result<&str, CliError> {
        self.get(name)
            .ok_or_else(|| CliError::usage(format!("missing required flag --{name}")))
    }

    /// An optional parsed flag with a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| CliError::usage(format!("invalid value for --{name}: {raw:?}"))),
        }
    }

    /// A required parsed flag.
    pub fn require_parsed<T: std::str::FromStr>(&self, name: &str) -> Result<T, CliError> {
        let raw = self.require(name)?;
        raw.parse()
            .map_err(|_| CliError::usage(format!("invalid value for --{name}: {raw:?}")))
    }

    /// Parses a `--time` style value: plain seconds (`3600`), hours (`8h`),
    /// minutes (`30m`), or days (`2d`).
    pub fn time(&self, name: &str) -> Result<Option<Timestamp>, CliError> {
        let Some(raw) = self.get(name) else {
            return Ok(None);
        };
        parse_time(raw)
            .map(Some)
            .ok_or_else(|| CliError::usage(format!("invalid time for --{name}: {raw:?}")))
    }
}

/// Parses `3600`, `90m`, `8h` or `2d` into a timestamp.
pub fn parse_time(raw: &str) -> Option<Timestamp> {
    let raw = raw.trim();
    let (num, mult) = match raw.chars().last()? {
        'd' => (&raw[..raw.len() - 1], 86_400),
        'h' => (&raw[..raw.len() - 1], 3_600),
        'm' => (&raw[..raw.len() - 1], 60),
        's' => (&raw[..raw.len() - 1], 1),
        _ => (raw, 1),
    };
    let v: i64 = num.parse().ok()?;
    v.checked_mul(mult).map(Timestamp::from_secs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &[&str]) -> Vec<String> {
        s.iter().map(|t| t.to_string()).collect()
    }

    #[test]
    fn parses_flags_and_positionals() {
        let a = Args::parse(&toks(&[
            "data.csv",
            "--time",
            "8h",
            "--x",
            "-100",
            "--verbose",
        ]))
        .unwrap();
        assert_eq!(a.positional, vec!["data.csv"]);
        assert_eq!(a.get("time"), Some("8h"));
        assert_eq!(a.get("x"), Some("-100"));
        assert!(a.has("verbose"));
        assert!(!a.has("quiet"));
    }

    #[test]
    fn negative_numbers_are_values_not_flags() {
        let a = Args::parse(&toks(&["--y", "-200.5"])).unwrap();
        assert_eq!(a.get("y"), Some("-200.5"));
    }

    #[test]
    fn duplicate_flag_rejected() {
        assert!(Args::parse(&toks(&["--x", "1", "--x", "2"])).is_err());
    }

    #[test]
    fn trailing_switch() {
        let a = Args::parse(&toks(&["--help"])).unwrap();
        assert!(a.has("help"));
    }

    #[test]
    fn flag_followed_by_flag_is_switch() {
        let a = Args::parse(&toks(&["--force", "--out", "x.csv"])).unwrap();
        assert!(a.has("force"));
        assert_eq!(a.get("out"), Some("x.csv"));
    }

    #[test]
    fn require_and_parse() {
        let a = Args::parse(&toks(&["--n", "42"])).unwrap();
        assert_eq!(a.require_parsed::<u32>("n").unwrap(), 42);
        assert!(a.require("missing").is_err());
        assert_eq!(a.get_or("m", 7u32).unwrap(), 7);
        assert!(a.get_or::<u32>("n", 0).unwrap() == 42);
    }

    #[test]
    fn time_suffixes() {
        assert_eq!(parse_time("3600"), Some(Timestamp::from_secs(3_600)));
        assert_eq!(parse_time("8h"), Some(Timestamp::from_hours(8)));
        assert_eq!(parse_time("90m"), Some(Timestamp::from_secs(5_400)));
        assert_eq!(parse_time("2d"), Some(Timestamp::from_days(2)));
        assert_eq!(parse_time("15s"), Some(Timestamp::from_secs(15)));
        assert_eq!(parse_time("abc"), None);
        assert_eq!(parse_time(""), None);
        // Out of `i64` range once scaled: invalid, not wrapped.
        assert_eq!(parse_time("200000000000000d"), None);
        assert_eq!(parse_time("9223372036854775807h"), None);
        assert_eq!(
            parse_time("9223372036854775807"),
            Some(Timestamp::from_secs(i64::MAX))
        );
    }

    #[test]
    fn stray_double_dash_rejected() {
        assert!(Args::parse(&toks(&["--"])).is_err());
    }
}
