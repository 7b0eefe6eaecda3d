//! A tiny `--key=value` command-line parser (no external dependencies).

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

/// Parsed command-line flags: `--key=value` or bare `--flag`.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
    /// Every key a caller has asked for, given or not.
    asked: RefCell<BTreeSet<String>>,
}

impl Args {
    /// Parse the process arguments.
    pub fn from_env() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parse an explicit argument list (tests).
    pub fn parse_from<I: IntoIterator<Item = String>>(iter: I) -> Self {
        let mut values = BTreeMap::new();
        for arg in iter {
            let Some(stripped) = arg.strip_prefix("--") else {
                eprintln!("warning: ignoring positional argument {arg:?}");
                continue;
            };
            match stripped.split_once('=') {
                Some((k, v)) => values.insert(k.to_string(), v.to_string()),
                None => values.insert(stripped.to_string(), "true".to_string()),
            };
        }
        Args { values, asked: RefCell::default() }
    }

    /// String value of a flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.asked.borrow_mut().insert(key.to_string());
        self.values.get(key).map(String::as_str)
    }

    /// The value `--key` names in `choices` (`default` when the flag is
    /// absent), or a message listing the accepted names.
    pub fn one_of<T: Clone>(
        &self,
        key: &str,
        default: &str,
        choices: &[(&str, T)],
    ) -> Result<T, String> {
        let given = self.get(key).unwrap_or(default);
        choices.iter().find(|(name, _)| *name == given).map(|(_, v)| v.clone()).ok_or_else(|| {
            let names: Vec<&str> = choices.iter().map(|(name, _)| *name).collect();
            format!("unknown --{key}={given} (expected {})", names.join("|"))
        })
    }

    /// The flags that were given but that nothing has asked for so far.
    pub fn unread(&self) -> Vec<&str> {
        let asked = self.asked.borrow();
        self.values.keys().filter(|k| !asked.contains(*k)).map(String::as_str).collect()
    }

    /// End of argument handling: a flag nothing has read is a typo or
    /// belongs to another mode, so say which and exit 2 instead of running
    /// the whole workload without it.
    pub fn done(&self) {
        let unread = self.unread();
        if !unread.is_empty() {
            eprintln!("unknown or unused flag(s): --{}", unread.join(", --"));
            std::process::exit(2);
        }
    }

    /// Boolean flag: present (or `=true`) means true.
    pub fn flag(&self, key: &str) -> bool {
        matches!(self.get(key), Some("true") | Some("1") | Some("yes"))
    }

    /// Typed value with a default; panics with a clear message on a
    /// malformed value (these are operator-facing binaries).
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> T
    where
        T::Err: std::fmt::Display,
    {
        match self.get(key) {
            None => default,
            Some(raw) => {
                raw.parse().unwrap_or_else(|e| panic!("invalid value for --{key}: {raw:?} ({e})"))
            }
        }
    }

    /// Comma-separated list of typed values, or the default when absent.
    pub fn list_or<T>(&self, key: &str, default: &[T]) -> Vec<T>
    where
        T: std::str::FromStr + Clone,
        T::Err: std::fmt::Display,
    {
        match self.get(key) {
            None => default.to_vec(),
            Some(raw) => raw
                .split(',')
                .map(|s| {
                    s.trim()
                        .parse()
                        .unwrap_or_else(|e| panic!("invalid element in --{key}: {s:?} ({e})"))
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::parse_from(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_key_values_and_flags() {
        let a = args(&["--size=20", "--paper-scale", "--name=foo"]);
        assert_eq!(a.get("size"), Some("20"));
        assert!(a.flag("paper-scale"));
        assert!(!a.flag("missing"));
        assert_eq!(a.get_or("size", 0u64), 20);
        assert_eq!(a.get_or("other", 7u64), 7);
    }

    #[test]
    fn parses_lists() {
        let a = args(&["--sizes=1,2, 3"]);
        assert_eq!(a.list_or("sizes", &[9u64]), vec![1, 2, 3]);
        assert_eq!(a.list_or("absent", &[9u64]), vec![9]);
    }

    #[test]
    fn a_flag_nobody_reads_is_reported() {
        let a = args(&["--helth-out=h.json", "--seed=3", "--tick-clock"]);
        assert_eq!(a.unread(), vec!["helth-out", "seed", "tick-clock"]);
        let _: u64 = a.get_or("seed", 1);
        assert!(a.flag("tick-clock"));
        assert!(a.get("health-out").is_none(), "asking for an absent flag is not a complaint");
        assert_eq!(a.unread(), vec!["helth-out"]);
    }

    #[test]
    fn one_of_names_the_accepted_values() {
        let choices = [("full", 1), ("rr", 2)];
        assert_eq!(args(&[]).one_of("policy", "rr", &choices), Ok(2));
        assert_eq!(args(&["--policy=full"]).one_of("policy", "rr", &choices), Ok(1));
        let err = args(&["--policy=ful"]).one_of("policy", "rr", &choices).unwrap_err();
        assert_eq!(err, "unknown --policy=ful (expected full|rr)");
    }

    #[test]
    #[should_panic(expected = "invalid value")]
    fn bad_value_panics() {
        let a = args(&["--n=abc"]);
        let _: u64 = a.get_or("n", 0);
    }
}
