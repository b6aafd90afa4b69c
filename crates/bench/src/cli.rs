//! The one command-line parser of the bench bins.
//!
//! Each bin states its usage line once and that line *is* the grammar:
//! `--flag` alone is a switch, `--flag METAVAR` (an all-uppercase word)
//! takes a value, and every other word names a positional. Anything the
//! line does not list — a typo'd `--quik`, a `--trace` with no path, a
//! stray positional — prints the usage and exits 2 instead of silently
//! running minutes of paper scale.
//!
//! ```text
//! let cli = Cli::parse("table_adapt [--quick] [--trace PATH]");
//! let scale = cli.scale();
//! if let Some(path) = cli.value("--trace") { … }
//! ```

use std::str::FromStr;

use crate::Scale;

/// The parsed command line of one bench bin.
#[derive(Debug)]
pub struct Cli {
    usage: &'static str,
    switches: Vec<String>,
    values: Vec<(String, String)>,
    /// Positional arguments, in order (at most as many as the usage
    /// line names).
    pub positionals: Vec<String>,
}

fn is_metavar(word: &str) -> bool {
    !word.is_empty() && word.chars().all(|c| c.is_ascii_uppercase())
}

impl Cli {
    /// Parse the process arguments against `usage` (`"bin [--switch]
    /// [--flag METAVAR] [positional]"`); on any mismatch print the usage
    /// to stderr and exit with status 2.
    pub fn parse(usage: &'static str) -> Cli {
        Cli::parse_from(usage, std::env::args().skip(1)).unwrap_or_else(|e| fail(usage, &e))
    }

    fn parse_from(usage: &'static str, args: impl Iterator<Item = String>) -> Result<Cli, String> {
        // The grammar, read off the usage line.
        let words: Vec<&str> = usage
            .split(|c: char| c.is_whitespace() || c == '[' || c == ']')
            .filter(|w| !w.is_empty())
            .skip(1) // the bin name
            .collect();
        let takes_value = |flag: &str| {
            words
                .iter()
                .position(|w| *w == flag)
                .map(|i| words.get(i + 1).is_some_and(|next| is_metavar(next)))
        };
        let max_positionals = words
            .iter()
            .filter(|w| !w.starts_with("--") && !is_metavar(w))
            .count();

        let mut cli = Cli {
            usage,
            switches: Vec::new(),
            values: Vec::new(),
            positionals: Vec::new(),
        };
        let mut args = args;
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                if cli.positionals.len() == max_positionals {
                    return Err(format!("unexpected argument '{arg}'"));
                }
                cli.positionals.push(arg);
                continue;
            }
            match takes_value(&arg) {
                None => return Err(format!("unknown flag '{arg}'")),
                Some(false) => cli.switches.push(arg),
                Some(true) => match args.next() {
                    Some(v) if !v.starts_with("--") => cli.values.push((arg, v)),
                    _ => return Err(format!("'{arg}' needs a value")),
                },
            }
        }
        Ok(cli)
    }

    /// The value of `--name VALUE`, if given (last occurrence wins).
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(flag, _)| flag == name)
            .map(|(_, v)| v.as_str())
    }

    /// [`Cli::value`] parsed as `T`; an unparsable value is a usage
    /// error like any other (exit 2).
    pub fn parsed<T: FromStr>(&self, name: &str) -> Option<T> {
        self.value(name).map(|v| {
            v.parse()
                .unwrap_or_else(|_| fail(self.usage, &format!("bad value '{v}' for '{name}'")))
        })
    }

    /// `--quick` selects [`Scale::Quick`]; the default is the paper's
    /// sizes.
    pub fn scale(&self) -> Scale {
        if self.switches.iter().any(|s| s == "--quick") {
            Scale::Quick
        } else {
            Scale::Paper
        }
    }

    /// Report a usage error the grammar cannot express (an unknown study
    /// name, a figure number out of range) the same way: usage, exit 2.
    pub fn usage_error(&self, error: &str) -> ! {
        fail(self.usage, error)
    }
}

fn fail(usage: &str, error: &str) -> ! {
    eprintln!("{error}\nusage: {usage}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    const USAGE: &str = "table_x [study] [--quick] [--trace PATH] [--jobs N]";

    fn parse(args: &[&str]) -> Result<Cli, String> {
        Cli::parse_from(USAGE, args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn accepts_exactly_what_the_usage_line_lists() {
        let cli = parse(&["--quick", "scaling", "--trace", "t.json", "--jobs", "7"]).unwrap();
        assert_eq!(cli.scale(), Scale::Quick);
        assert_eq!(cli.value("--trace"), Some("t.json"));
        assert_eq!(cli.parsed::<usize>("--jobs"), Some(7));
        assert_eq!(cli.positionals, ["scaling"]);

        let bare = parse(&[]).unwrap();
        assert_eq!(bare.scale(), Scale::Paper);
        assert_eq!(bare.value("--trace"), None);
        assert!(bare.positionals.is_empty());
    }

    #[test]
    fn rejects_typos_missing_values_and_stray_positionals() {
        assert_eq!(parse(&["--quik"]).unwrap_err(), "unknown flag '--quik'");
        assert_eq!(parse(&["--trace"]).unwrap_err(), "'--trace' needs a value");
        assert_eq!(
            parse(&["--trace", "--quick"]).unwrap_err(),
            "'--trace' needs a value"
        );
        assert_eq!(parse(&["a", "b"]).unwrap_err(), "unexpected argument 'b'");
        // A metavar is not a flag, and a value flag is not a switch.
        assert_eq!(parse(&["--PATH"]).unwrap_err(), "unknown flag '--PATH'");
    }
}
