//! The flag parser the command-line binaries share.
//!
//! A binary declares every flag it reads; each argument must be one of
//! them, carrying a value where the flag takes one. A misspelt flag, a
//! stray value, a missing value or an unparsable number goes to the
//! binary's `fail` (message, exit 2) during parsing, before any study
//! runs — never silently to a default.

use std::collections::HashMap;
use std::str::FromStr;

/// How a flag takes its value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arity {
    /// `--flag`: no value.
    Switch,
    /// `--flag VALUE`: the next argument, whatever it is.
    Value,
    /// `--flag [VALUE]`: the next argument unless it is another flag.
    Optional,
}

/// The flags of one invocation, checked against the binary's spec.
pub struct Flags {
    given: HashMap<&'static str, Option<String>>,
    fail: fn(&str) -> !,
}

impl Flags {
    /// Parses the process arguments against `spec` (flag names without
    /// their `--`); any bad argument goes to `fail`.
    pub fn from_env(spec: &[(&'static str, Arity)], fail: fn(&str) -> !) -> Flags {
        let given = parse(spec, std::env::args().skip(1)).unwrap_or_else(|e| fail(&e));
        Flags { given, fail }
    }

    /// True when `--name` was given (with or without a value).
    pub fn has(&self, name: &str) -> bool {
        self.given.contains_key(name)
    }

    /// The value given with `--name`, if any.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.given.get(name).and_then(Option::as_deref)
    }

    /// `--name`'s value parsed as a `T`, or `default` when it was not
    /// given; an unparsable value goes to `fail`.
    pub fn num<T: FromStr>(&self, name: &str, default: T) -> T {
        match self.value(name) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| (self.fail)(&format!("--{name}: cannot parse {v:?}"))),
        }
    }
}

/// Parses the process arguments of a binary that reads no flags: any
/// argument prints `{bin}: {reason}` and exits 2 before a study runs.
pub fn no_flags(bin: &str) {
    if let Err(e) = parse(&[], std::env::args().skip(1)) {
        eprintln!("{bin}: {e}\n{bin} takes no arguments (BS_QUICK=1 for smoke mode)");
        std::process::exit(2);
    }
}

/// Checks `args` against `spec`. A repeated flag keeps its last value.
fn parse(
    spec: &[(&'static str, Arity)],
    args: impl IntoIterator<Item = String>,
) -> Result<HashMap<&'static str, Option<String>>, String> {
    let mut given = HashMap::new();
    let mut args = args.into_iter().peekable();
    while let Some(arg) = args.next() {
        let Some(flag) = arg.strip_prefix("--") else {
            return Err(format!("unexpected argument {arg:?}"));
        };
        let Some(&(name, arity)) = spec.iter().find(|(n, _)| *n == flag) else {
            return Err(format!("unknown flag --{flag}"));
        };
        let value = match arity {
            Arity::Switch => None,
            Arity::Value => Some(
                args.next()
                    .ok_or_else(|| format!("--{name} needs a value"))?,
            ),
            Arity::Optional => args.next_if(|v| !v.starts_with("--")),
        };
        given.insert(name, value);
    }
    Ok(given)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &[(&str, Arity)] = &[
        ("watch", Arity::Switch),
        ("seed", Arity::Value),
        ("metrics", Arity::Optional),
    ];

    fn run(args: &[&str]) -> Result<HashMap<&'static str, Option<String>>, String> {
        parse(SPEC, args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn declared_flags_take_their_values() {
        let given = run(&[
            "--metrics",
            "--seed",
            "-3",
            "--watch",
            "--metrics",
            "m.json",
        ])
        .unwrap();
        assert_eq!(given["watch"], None);
        assert_eq!(given["seed"].as_deref(), Some("-3"));
        assert_eq!(given["metrics"].as_deref(), Some("m.json"), "last one wins");
        assert_eq!(run(&["--metrics"]).unwrap()["metrics"], None);
    }
}
