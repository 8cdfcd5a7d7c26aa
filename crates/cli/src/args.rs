//! A tiny argument parser: positionals plus `--key value` / `-k value`
//! options and a declared set of boolean `--flag`s (no external
//! dependencies).

use std::collections::{HashMap, HashSet};

/// Parsed command-line arguments.
#[derive(Debug, Default)]
pub struct Args {
    positionals: Vec<String>,
    options: HashMap<String, String>,
    flags: HashSet<String>,
}

impl Args {
    /// Parse `--key value` pairs, positionals, and the declared boolean
    /// `flag_names` (which take no value and are queried with
    /// [`Self::has`]). An undeclared `--key` without a following value —
    /// or followed by another option — is an error.
    pub fn parse_with_flags(argv: &[String], flag_names: &[&str]) -> Result<Args, String> {
        let mut out = Args::default();
        let mut it = argv.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--").or_else(|| a.strip_prefix('-')) {
                if key.is_empty() {
                    return Err("stray dash".to_string());
                }
                if flag_names.contains(&key) {
                    out.flags.insert(key.to_string());
                    continue;
                }
                // The next token is a value unless it looks like another
                // option name (`-x`/`--xyz`); `-5,0,...` style negative
                // numbers are values.
                let is_option = |v: &str| {
                    v.strip_prefix('-').is_some_and(|r| {
                        r.trim_start_matches('-')
                            .chars()
                            .next()
                            .is_some_and(|c| c.is_ascii_alphabetic())
                    })
                };
                match it.peek() {
                    Some(v) if !is_option(v) => {
                        out.options
                            .insert(key.to_string(), it.next().unwrap().clone());
                    }
                    _ => return Err(format!("option --{key} needs a value")),
                }
            } else {
                out.positionals.push(a.clone());
            }
        }
        Ok(out)
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(|s| s.as_str())
    }

    /// Whether a declared boolean flag was present.
    pub fn has(&self, key: &str) -> bool {
        self.flags.contains(key)
    }

    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    /// Refuse a removed option: naming it is an error that says `why`.
    pub fn refuse(&self, key: &str, why: &str) -> Result<(), String> {
        match self.get(key) {
            Some(_) => Err(format!("--{key} is not accepted: {why}")),
            None => Ok(()),
        }
    }

    /// The first given option or flag, in name order, that is not named
    /// in `options` or `flags` (space-separated names).
    pub fn unknown(&self, options: &[&str], flags: &str) -> Option<&str> {
        let known = |names: &[&str], key: &str| {
            names
                .iter()
                .flat_map(|n| n.split_whitespace())
                .any(|n| n == key)
        };
        self.options
            .keys()
            .filter(|k| !known(options, k))
            .chain(self.flags.iter().filter(|k| !known(&[flags], k)))
            .map(String::as_str)
            .min()
    }

    /// All positionals, in order (for commands taking a variable list).
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    pub fn positional(&self, idx: usize) -> Result<&str, String> {
        self.positionals
            .get(idx)
            .map(|s| s.as_str())
            .ok_or_else(|| format!("missing argument #{}", idx + 1))
    }

    /// Parse option `key` or fall back to `default`.
    pub fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("bad --{key}: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Result<Args, String> {
        Args::parse_with_flags(&s.iter().map(|x| x.to_string()).collect::<Vec<_>>(), &[])
    }

    #[test]
    fn mixes_positionals_and_options() {
        let a = parse(&["db.dmdb", "--keep", "0.2", "-o", "out.obj"]).unwrap();
        assert_eq!(a.positional(0).unwrap(), "db.dmdb");
        assert_eq!(a.get("keep"), Some("0.2"));
        assert_eq!(a.get("o"), Some("out.obj"));
        assert!(a.positional(1).is_err());
    }

    #[test]
    fn option_requires_value() {
        assert!(parse(&["--keep"]).is_err());
        assert!(parse(&["--keep", "--other", "x"]).is_err());
    }

    #[test]
    fn negative_numbers_are_values_not_options() {
        let a = parse(&["--roi", "-5,0,10,10"]).unwrap();
        assert_eq!(a.get("roi"), Some("-5,0,10,10"));
    }

    #[test]
    fn parse_or_defaults_and_errors() {
        let a = parse(&["--size", "64"]).unwrap();
        assert_eq!(a.parse_or("size", 10usize).unwrap(), 64);
        assert_eq!(a.parse_or("seed", 7u64).unwrap(), 7);
        let b = parse(&["--size", "abc"]).unwrap();
        assert!(b.parse_or("size", 10usize).is_err());
    }

    #[test]
    fn require_reports_missing() {
        let a = parse(&[]).unwrap();
        assert!(a.require("o").is_err());
    }

    #[test]
    fn refuse_rejects_only_a_present_option() {
        let a = parse(&["--threads", "2"]).unwrap();
        let err = a.refuse("threads", "why").unwrap_err();
        assert_eq!(err, "--threads is not accepted: why");
        assert!(a.refuse("codec", "why").is_ok());
    }

    #[test]
    fn unknown_names_an_option_or_flag_outside_the_lists() {
        let argv: Vec<String> = ["db.dmdb", "--kep", "0.05", "--cold", "-o", "m.obj"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let a = Args::parse_with_flags(&argv, &["cold"]).unwrap();
        assert_eq!(a.unknown(&["keep", "o"], "degraded"), Some("cold"));
        assert_eq!(a.unknown(&["keep o"], "cold"), Some("kep"));
        assert_eq!(a.unknown(&["kep", "o"], "cold"), None);
    }

    #[test]
    fn declared_flags_take_no_value() {
        let argv: Vec<String> = ["db.dmdb", "--degraded", "--keep", "0.2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let a = Args::parse_with_flags(&argv, &["degraded"]).unwrap();
        assert!(a.has("degraded"));
        assert!(!a.has("keep"));
        assert_eq!(a.get("keep"), Some("0.2"));
        assert_eq!(a.positional(0).unwrap(), "db.dmdb");
        // Undeclared keys still demand a value.
        assert!(Args::parse_with_flags(&argv, &[]).is_err());
    }
}
