//! Shared scaffolding for the `repro` binary, which prints every table
//! and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hbbtv_study::{Ecosystem, StudyDataset, StudyHarness};

/// Default seed for reproduction runs.
pub const DEFAULT_SEED: u64 = 42;

/// Builds a world and runs all five measurement runs.
pub fn run_study(seed: u64, scale: f64) -> (Ecosystem, StudyDataset) {
    let eco = Ecosystem::with_scale(seed, scale);
    let dataset = StudyHarness::new(&eco).run_all();
    (eco, dataset)
}

/// The `[--scale <s>] [--seed <n>]` command line of `repro`, parsed
/// into typed errors instead of panics.
pub mod cli {
    use std::fmt;

    /// A parsed study command line.
    #[derive(Debug, Clone, PartialEq)]
    pub struct StudyArgs {
        /// World scale, in `(0, 1]`.
        pub scale: f64,
        /// World seed.
        pub seed: u64,
        /// Everything else, in order.
        pub positional: Vec<String>,
    }

    /// Why a command line was rejected.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum ArgError {
        /// A flag that takes a value came last.
        MissingValue(String),
        /// `--scale` was not a number in `(0, 1]`.
        BadScale(String),
        /// `--seed` was not an unsigned integer.
        BadSeed(String),
        /// An option this binary does not know.
        UnknownFlag(String),
    }

    impl fmt::Display for ArgError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                ArgError::MissingValue(flag) => write!(f, "{flag} needs a value"),
                ArgError::BadScale(v) => write!(f, "--scale needs a number in (0, 1], got {v:?}"),
                ArgError::BadSeed(v) => write!(f, "--seed needs an unsigned integer, got {v:?}"),
                ArgError::UnknownFlag(flag) => write!(f, "unknown option {flag}"),
            }
        }
    }

    impl std::error::Error for ArgError {}

    /// Parses `args` (without the program name). `scale` is the default
    /// scale; the seed defaults to [`crate::DEFAULT_SEED`].
    pub fn parse_study_args<I>(args: I, scale: f64) -> Result<StudyArgs, ArgError>
    where
        I: IntoIterator<Item = String>,
    {
        let mut parsed = StudyArgs {
            scale,
            seed: crate::DEFAULT_SEED,
            positional: Vec::new(),
        };
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                parsed.positional.push(arg);
                continue;
            }
            let value = it.next().ok_or_else(|| ArgError::MissingValue(arg.clone()));
            match arg.as_str() {
                "--scale" => {
                    let v = value?;
                    parsed.scale = v
                        .parse()
                        .ok()
                        .filter(|s: &f64| *s > 0.0 && *s <= 1.0)
                        .ok_or(ArgError::BadScale(v))?;
                }
                "--seed" => {
                    let v = value?;
                    parsed.seed = v.parse().map_err(|_| ArgError::BadSeed(v))?;
                }
                _ => return Err(ArgError::UnknownFlag(arg)),
            }
        }
        Ok(parsed)
    }

    /// [`parse_study_args`] over the process arguments. On bad input it
    /// prints `usage` and the reason to stderr and exits with status 2.
    pub fn study_args_or_exit(usage: &str, scale: f64) -> StudyArgs {
        parse_study_args(std::env::args().skip(1), scale).unwrap_or_else(|e| {
            eprintln!("usage: {usage}");
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<cli::StudyArgs, cli::ArgError> {
        cli::parse_study_args(args.iter().map(|a| a.to_string()), 1.0)
    }

    #[test]
    fn study_args_parse_flags_values_and_positionals() {
        let a = parse(&["out.json", "--scale", "0.25", "--seed", "7"]).expect("valid command line");
        assert_eq!(a.scale, 0.25);
        assert_eq!(a.seed, 7);
        assert_eq!(a.positional, vec!["out.json".to_string()]);
        let d = parse(&[]).expect("empty command line");
        assert_eq!((d.scale, d.seed), (1.0, DEFAULT_SEED));
    }

    #[test]
    fn study_args_reject_bad_input_with_typed_errors() {
        use cli::ArgError::*;
        for (args, want) in [
            (&["--scale", "0"][..], BadScale("0".into())),
            (&["--scale", "1.5"][..], BadScale("1.5".into())),
            (&["--scale", "NaN"][..], BadScale("NaN".into())),
            (&["--scale", "abc"][..], BadScale("abc".into())),
            (&["--scale"][..], MissingValue("--scale".into())),
            (&["--seed", "-1"][..], BadSeed("-1".into())),
            (&["--seed"][..], MissingValue("--seed".into())),
            (&["--bogus", "1"][..], UnknownFlag("--bogus".into())),
        ] {
            assert_eq!(parse(args), Err(want), "{args:?}");
        }
    }
}
