//! A tiny, dependency-free flag parser for the CLI.
//!
//! Supports `--flag value` pairs and bare positionals, with typed accessors
//! that produce uniform error messages. Deliberately minimal — the CLI has
//! four subcommands and a dozen flags, which does not justify a parser
//! dependency in an otherwise lean workspace.

use hybridmem_types::{Error, Result};

/// Parsed arguments: positionals in order plus `--key value` options.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    positionals: Vec<String>,
    /// Options in command-line order; a repeated flag's last value wins.
    options: Vec<(String, String)>,
}

impl Args {
    /// Parses raw arguments (without the program name).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] when a `--flag` has no value.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Self> {
        let mut args = Self::default();
        let mut iter = raw.into_iter();
        while let Some(token) = iter.next() {
            if let Some(name) = token.strip_prefix("--") {
                let value = iter.next().ok_or_else(|| {
                    Error::invalid_input(format!("flag --{name} requires a value"))
                })?;
                args.options.push((name.to_owned(), value));
            } else {
                args.positionals.push(token);
            }
        }
        Ok(args)
    }

    /// The `index`-th positional argument, if present.
    #[must_use]
    pub fn positional(&self, index: usize) -> Option<&str> {
        self.positionals.get(index).map(String::as_str)
    }

    /// A string option: the last value given for `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(key, _)| key == name)
            .map(|(_, value)| value.as_str())
    }

    /// A string option with a default.
    #[must_use]
    pub fn get_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.get(name).unwrap_or(default)
    }

    /// A required string option.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] naming the missing flag.
    pub fn require(&self, name: &str) -> Result<&str> {
        self.get(name)
            .ok_or_else(|| Error::invalid_input(format!("missing required flag --{name}")))
    }

    /// A boolean option: `true` or `false`, and false when absent.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] naming the flag when its value is
    /// anything else, so a typo such as `--gate yes` cannot silently turn
    /// a check off.
    pub fn get_bool(&self, name: &str) -> Result<bool> {
        match self.get(name) {
            None | Some("false") => Ok(false),
            Some("true") => Ok(true),
            Some(text) => Err(Error::invalid_input(format!(
                "flag --{name} expects true or false, got {text:?}"
            ))),
        }
    }

    /// A parsed numeric option with a default.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] when the value does not parse.
    pub fn get_parsed_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T> {
        match self.get(name) {
            None => Ok(default),
            Some(text) => text.parse().map_err(|_| {
                Error::invalid_input(format!("flag --{name} expects a number, got {text:?}"))
            }),
        }
    }

    /// Names of all provided options in command-line order, once per
    /// use (for unknown-flag validation).
    pub fn option_names(&self) -> impl Iterator<Item = &str> {
        self.options.iter().map(|(name, _)| name.as_str())
    }

    /// Validates that every provided option is in `allowed`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] naming the first unknown flag on the
    /// command line.
    pub fn reject_unknown(&self, allowed: &[&str]) -> Result<()> {
        for name in self.option_names() {
            if !allowed.contains(&name) {
                return Err(Error::invalid_input(format!(
                    "unknown flag --{name}; expected one of: {}",
                    allowed
                        .iter()
                        .map(|a| format!("--{a}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| (*s).to_owned())).unwrap()
    }

    #[test]
    fn positionals_and_options_mix() {
        let args = parse(&[
            "simulate",
            "--policy",
            "two-lru",
            "trace.bin",
            "--seed",
            "7",
        ]);
        assert_eq!(args.positional(0), Some("simulate"));
        assert_eq!(args.positional(1), Some("trace.bin"));
        assert_eq!(args.positional(2), None);
        assert_eq!(args.get("policy"), Some("two-lru"));
        assert_eq!(args.get_or("missing", "x"), "x");
    }

    #[test]
    fn missing_value_is_an_error() {
        let err = Args::parse(["--cap".to_owned()]).unwrap_err();
        assert!(err.to_string().contains("--cap"));
    }

    #[test]
    fn require_and_parse() {
        let args = parse(&["--cap", "100"]);
        assert_eq!(args.require("cap").unwrap(), "100");
        assert!(args.require("seed").is_err());
        assert_eq!(args.get_parsed_or("cap", 0u64).unwrap(), 100);
        assert_eq!(args.get_parsed_or("seed", 42u64).unwrap(), 42);
        let bad = parse(&["--cap", "ten"]);
        assert!(bad.get_parsed_or("cap", 0u64).is_err());
    }

    #[test]
    fn booleans_accept_only_true_and_false() {
        let args = parse(&["--json", "true", "--deep", "false"]);
        assert!(args.get_bool("json").unwrap());
        assert!(!args.get_bool("deep").unwrap());
        assert!(!args.get_bool("gate").unwrap(), "absent means false");
        for bad in ["yes", "1", "TRUE", "--policy"] {
            let err = parse(&["--gate", bad]).get_bool("gate").unwrap_err();
            assert!(err.to_string().contains("--gate"), "{err}");
            assert!(err.to_string().contains(bad), "{err}");
        }
    }

    #[test]
    fn unknown_flags_rejected() {
        let args = parse(&["--cap", "1", "--bogus", "2"]);
        assert!(args.reject_unknown(&["cap"]).is_err());
        assert!(args.reject_unknown(&["cap", "bogus"]).is_ok());
    }

    #[test]
    fn unknown_flag_error_names_the_first_on_the_command_line() {
        // Repeated parses: an order that hashing chose would vary among them.
        for _ in 0..64 {
            let args = parse(&[
                "generate",
                "--workload",
                "bodytrack",
                "--alpha",
                "1",
                "--beta",
                "2",
                "--gamma",
                "3",
            ]);
            let err = args
                .reject_unknown(&["workload", "output", "cap", "seed", "format"])
                .unwrap_err();
            assert!(err.to_string().contains("unknown flag --alpha;"), "{err}");
        }
    }

    #[test]
    fn repeated_flag_reads_its_last_value() {
        let args = parse(&["--cap", "1", "--seed", "7", "--cap", "2"]);
        assert_eq!(args.get("cap"), Some("2"));
        assert_eq!(args.get("seed"), Some("7"));
    }
}
