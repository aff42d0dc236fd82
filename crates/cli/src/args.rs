//! The CLI's declared surface: each command's table of what it accepts,
//! written as the help it prints, and the parser that accepts nothing
//! else.

use crate::CliError;
use enviro_data::Timestamp;
use std::collections::BTreeMap;
use std::io::Write;

/// One command: its table, the shared groups of flag lines it also reads,
/// and the function that runs it.
///
/// A table's first line is the command's name, the metavars of its
/// positionals in capitals, a colon and a one-line summary: `store ingest
/// FILE: append a dataset to a store`. Each further line, and each line of
/// a group, declares one flag: its spelling in the usage line, two spaces
/// and one line of help. An optional flag is bracketed, and a switch has
/// no metavar: `[--ascii]  print the map as ASCII art`.
#[derive(Debug)]
pub struct Command {
    /// The command's own table.
    pub table: &'static str,
    /// Groups of flag lines that several commands read, each declared once.
    pub groups: &'static [&'static [&'static str]],
    /// Runs the command on its parsed arguments.
    pub run: fn(&Args, &mut dyn Write) -> Result<(), CliError>,
}

impl Command {
    /// The first line: the synopsis (the name, then the positionals'
    /// metavars) and the summary.
    pub fn head(&self) -> (&'static str, &'static str) {
        let head = self.table.lines().next().unwrap_or_default();
        head.split_once(": ").unwrap_or((head, ""))
    }

    /// Whether this command is called `name`: `query`, or `store stats`.
    pub fn is(&self, name: &str) -> bool {
        let words = self.head().0.split(' ');
        let called = words.take_while(|w| w.starts_with(char::is_lowercase));
        called.eq(name.split(' '))
    }

    /// Each flag's spelling and its help.
    fn flags(&self) -> impl Iterator<Item = (&'static str, &'static str)> {
        let groups = self.groups.iter().flat_map(|group| group.iter().copied());
        let lines = self.table.lines().skip(1).chain(groups).map(str::trim);
        lines.map(|line| line.split_once("  ").unwrap_or((line, "")))
    }

    /// The spelling of the flag `--name`, if the table declares it.
    fn flag(&self, name: &str) -> Option<&'static str> {
        let mut spellings = self.flags().map(|(spelling, _)| spelling);
        spellings.find(|spelling| flag_name(spelling) == name)
    }

    /// The usage line: the synopsis, then every flag.
    pub fn usage(&self) -> String {
        let flags: String = self.flags().map(|(s, _)| format!(" {s}")).collect();
        format!("usage: enviro {}{flags}", self.head().0)
    }

    /// The help: the usage line, the summary, then each flag's help.
    pub fn help(&self) -> String {
        let mut help = format!("{}\n{}\n", self.usage(), self.head().1);
        for (spelling, line) in self.flags() {
            help += &format!("\n  {spelling:<20}  {}", line.trim());
        }
        help
    }
}

/// `--name`, out of the spelling `--name METAVAR` or `[--name METAVAR]`.
fn flag_name(spelling: &str) -> &str {
    let name = spelling.trim_matches(['[', ']']).split(' ').next();
    name.unwrap_or_default()
}

/// One command's arguments, parsed against its table.
#[derive(Debug)]
pub struct Args {
    /// Positional arguments in order, no more than the command declares.
    pub positional: Vec<String>,
    /// `--help` was given: print the help instead of running.
    pub help: bool,
    /// The flags given, by name (`--x`); a switch maps to "".
    flags: BTreeMap<String, String>,
    command: &'static Command,
}

impl Args {
    /// Parses `tokens` against `command`'s table. A flag with a metavar
    /// takes the next token, unless there is none or it is another
    /// `--flag`; a switch takes none. An undeclared or repeated flag, a
    /// surplus positional and a missing required flag are usage errors
    /// that name the token and show the usage line. Every command accepts
    /// `--help`, which skips only the required-flag check.
    pub fn parse(tokens: &[String], command: &'static Command) -> Result<Args, CliError> {
        let refuse = |what: String| CliError::usage(format!("{what}\n{}", command.usage()));
        let words = command.head().0.split(' ');
        let positionals = words.filter(|w| w.starts_with(char::is_uppercase)).count();
        let mut positional = Vec::new();
        let mut flags = BTreeMap::new();
        let mut tokens = tokens.iter();
        while let Some(token) = tokens.next() {
            if !token.starts_with("--") {
                if positional.len() == positionals {
                    return Err(refuse(format!("unexpected argument {token:?}")));
                }
                positional.push(token.clone());
                continue;
            }
            let help = (token == "--help").then_some("[--help]");
            let Some(spelling) = command.flag(token).or(help) else {
                return Err(refuse(format!("unknown flag {token}")));
            };
            let value = if spelling.contains(' ') {
                match tokens.next() {
                    Some(value) if !value.starts_with("--") => value.clone(),
                    _ => return Err(refuse(format!("{token} needs a value: {spelling}"))),
                }
            } else {
                String::new()
            };
            if flags.insert(token.clone(), value).is_some() {
                return Err(refuse(format!("duplicate flag {token}")));
            }
        }
        let help = flags.contains_key("--help");
        for (spelling, _) in command.flags() {
            let name = flag_name(spelling);
            if !help && !spelling.starts_with('[') && !flags.contains_key(name) {
                return Err(refuse(format!("missing required flag {name}")));
            }
        }
        Ok(Args {
            positional,
            help,
            flags,
            command,
        })
    }

    /// The raw value of `--name`, if given. Reading a flag that the table
    /// does not declare is a bug in the command, caught by any test that
    /// runs it.
    pub fn get(&self, name: &str) -> Option<&str> {
        let flag = format!("--{name}");
        debug_assert!(
            self.command.flag(&flag).is_some(),
            "enviro {} reads {flag}, which its table does not declare",
            self.command.head().0
        );
        self.flags.get(&flag).map(String::as_str)
    }

    /// `true` if `--name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
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
            Some(_) => self.require_parsed(name),
        }
    }

    /// A required parsed flag.
    pub fn require_parsed<T: std::str::FromStr>(&self, name: &str) -> Result<T, CliError> {
        let raw = self.require(name)?;
        raw.parse()
            .map_err(|_| CliError::usage(format!("invalid value for --{name}: {raw:?}")))
    }

    /// A required time flag: plain seconds (`3600`), hours (`8h`), minutes
    /// (`30m`), or days (`2d`).
    pub fn time(&self, name: &str) -> Result<Timestamp, CliError> {
        let raw = self.require(name)?;
        parse_time(raw)
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

    static TEST: Command = Command {
        table: "test FILE: a command for the parser's tests
                --time T    a time
                [--x X]     a number
                [--y Y]     a number
                [--n N]     a count",
        groups: &[&["[--force]  a switch"]],
        run: |_, _| Ok(()),
    };

    fn parse(s: &[&str]) -> Result<Args, CliError> {
        let tokens: Vec<String> = s.iter().map(|t| t.to_string()).collect();
        Args::parse(&tokens, &TEST)
    }

    #[test]
    fn parses_flags_and_positionals() {
        let a = parse(&["data.csv", "--time", "8h", "--x", "-100", "--force"]).unwrap();
        assert_eq!(a.positional, vec!["data.csv"]);
        assert_eq!(a.get("time"), Some("8h"));
        assert_eq!(a.get("x"), Some("-100"));
        assert!(a.has("force"));
        assert!(!a.has("y"));
        assert!(!a.help);
        // An undeclared flag and a surplus positional are refused by name,
        // with the usage line.
        for line in [
            &["--time", "1", "--quiet"][..],
            &["a.csv", "b.csv", "--time", "1"],
        ] {
            let e = parse(line).unwrap_err();
            assert_eq!(e.code, 2);
            assert!(e.message.contains(line[2]), "{}", e.message);
            assert!(
                e.message.contains("usage: enviro test FILE --time T"),
                "{}",
                e.message
            );
        }
    }

    #[test]
    fn negative_numbers_are_values_not_flags() {
        let a = parse(&["--time", "1", "--y", "-200.5"]).unwrap();
        assert_eq!(a.get("y"), Some("-200.5"));
    }

    #[test]
    fn duplicate_flag_rejected() {
        assert!(parse(&["--time", "1", "--x", "1", "--x", "2"]).is_err());
        assert!(parse(&["--time", "1", "--force", "--force"]).is_err());
    }

    #[test]
    fn trailing_switch() {
        let a = parse(&["--time", "1", "--force"]).unwrap();
        assert!(a.has("force"));
        // A value flag at the end has no value.
        assert!(parse(&["--time", "1", "--x"]).is_err());
        // `--help` skips only the required-flag check.
        assert!(parse(&["--help"]).unwrap().help);
        assert!(parse(&["--help", "--quiet"]).is_err());
    }

    #[test]
    fn flag_followed_by_flag_is_switch() {
        // A switch never takes a value, so the positional after it stays one.
        let a = parse(&["--force", "data.csv", "--time", "1"]).unwrap();
        assert!(a.has("force"));
        assert_eq!(a.positional, vec!["data.csv"]);
        // A value flag followed by another flag is refused, not made a switch.
        let e = parse(&["--time", "1", "--x", "--force"]).unwrap_err();
        assert!(e.message.contains("--x needs a value"), "{}", e.message);
    }

    #[test]
    fn require_and_parse() {
        let a = parse(&["--time", "1", "--n", "42"]).unwrap();
        assert_eq!(a.require_parsed::<u32>("n").unwrap(), 42);
        assert!(a.require("x").is_err());
        assert_eq!(a.get_or("y", 7u32).unwrap(), 7);
        assert!(a.get_or::<u32>("n", 0).unwrap() == 42);
        let e = parse(&["--n", "42"]).unwrap_err();
        assert!(
            e.message.contains("missing required flag --time"),
            "{}",
            e.message
        );
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
    fn usage_and_help_are_read_off_the_table() {
        let usage = "usage: enviro test FILE --time T [--x X] [--y Y] [--n N] [--force]";
        assert_eq!(TEST.usage(), usage);
        let help = TEST.help();
        assert!(help.starts_with(&format!("{usage}\na command for the parser's tests\n")));
        assert!(
            help.contains("\n  [--force]             a switch"),
            "{help}"
        );
        assert!(TEST.is("test") && !TEST.is("test FILE"));
    }

    #[test]
    fn stray_double_dash_rejected() {
        assert!(parse(&["--time", "1", "--"]).is_err());
    }
}
