//! Shared scaffolding for the benchmark harness and the `repro` binary.
//!
//! Every table and figure of the paper has a criterion bench target in
//! `benches/` and a section in the `repro` binary's output; both build
//! on the helpers here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hbbtv_study::report::StudyReport;
use hbbtv_study::{Ecosystem, RunKind, StudyDataset, StudyHarness};

/// Default seed for reproduction runs.
pub const DEFAULT_SEED: u64 = 42;

/// Builds a world and runs all five measurement runs.
pub fn run_study(seed: u64, scale: f64) -> (Ecosystem, StudyDataset) {
    let eco = Ecosystem::with_scale(seed, scale);
    let dataset = StudyHarness::new(&eco).run_all();
    (eco, dataset)
}

/// Builds a world and runs a subset of runs (cheaper for benches).
pub fn run_study_subset(seed: u64, scale: f64, runs: &[RunKind]) -> (Ecosystem, StudyDataset) {
    let eco = Ecosystem::with_scale(seed, scale);
    let harness = StudyHarness::new(&eco);
    let dataset = StudyDataset {
        runs: runs.iter().map(|&r| harness.run(r)).collect(),
    };
    (eco, dataset)
}

/// Computes the full report for a study.
pub fn full_report(eco: &Ecosystem, dataset: &StudyDataset) -> StudyReport {
    StudyReport::compute(eco, dataset)
}

/// The `[--scale <s>] [--seed <n>]` command line shared by `repro` and
/// `study_telemetry`, parsed into typed errors instead of panics.
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

/// Deterministic workloads for the filter-list matcher benches.
///
/// Shared by the criterion kernels and the `matcher_bench` binary so
/// that `BENCH_matcher.json` and the criterion numbers describe the
/// same fixed-seed rule sets and URL mixes.
pub mod matcher_workload {
    use hbbtv_filterlists::FilterList;
    use hbbtv_net::Url;

    /// Tiny xorshift* generator: fixed-seed, dependency-free.
    pub struct XorShift(u64);

    impl XorShift {
        /// A generator from a non-zero-coerced seed.
        pub fn new(seed: u64) -> Self {
            XorShift(seed.max(1))
        }

        /// The next raw 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        /// A value in `0..n`.
        pub fn below(&mut self, n: u64) -> u64 {
            self.next_u64() % n.max(1)
        }
    }

    const TLDS: [&str; 4] = ["de", "com", "net", "tv"];

    fn domain(i: usize) -> String {
        format!("svc{i}.{}", TLDS[i % TLDS.len()])
    }

    /// A synthetic Adblock-style list over a universe of `n` domains,
    /// with the rule-shape distribution of the paper's five lists:
    /// `||domain^` anchors dominate (~84%, a slice of them carrying
    /// `$third-party`/`$image`/`$script` options), followed by
    /// domain-anchored path rules, then a thin residual tail of
    /// substring, wildcard, and start-anchored rules — the shapes that
    /// land in the engine's Aho–Corasick residual scan — plus rare
    /// `@@` exceptions and kind-constrained residuals. Scales to 10^5
    /// rules without the match cost scaling with it.
    pub fn synthetic_list(n: usize, seed: u64) -> FilterList {
        let mut rng = XorShift::new(seed);
        let mut text = String::new();
        for i in 0..n {
            // A hot shared domain every 50 rules (capped at 50 such
            // rules): real lists pile many path rules onto a few ad
            // CDNs (doubleclick.net et al.), which is what gives the
            // first-match distance histogram its tail — a hit on the
            // hot bucket scans candidates in rule order until its own
            // slot. The cap keeps the bucket depth (and so the indexed
            // engine's per-query cost) independent of list scale.
            if i % 50 == 17 && i < 2500 {
                text.push_str(&format!("||hot.ads.example/slot{i}^\n"));
                continue;
            }
            let d = domain(i);
            match rng.below(200) {
                // 1% exceptions.
                0..=1 => text.push_str(&format!("@@||{d}/ok^\n")),
                // 1% kind-constrained residual substrings.
                2 => text.push_str(&format!("/xframe{i}/$image\n")),
                3 => text.push_str(&format!("/xpix{i}/$script\n")),
                // 0.5% start-anchored.
                4 => text.push_str(&format!("|http://{d}/boot{i}\n")),
                // 1% substring with interior wildcard.
                5..=6 => text.push_str(&format!("/gen{i}/*/pix\n")),
                // 2% plain substrings.
                7..=10 => text.push_str(&format!("/frag{i}/\n")),
                // 2% domain-anchored wildcard paths.
                11..=14 => text.push_str(&format!("||{d}/ad*track\n")),
                // 6% domain-anchored paths.
                15..=26 => text.push_str(&format!("||{d}/track{i}\n")),
                // 9% host anchors with options.
                27..=38 => text.push_str(&format!("||{d}^$third-party\n")),
                39..=41 => text.push_str(&format!("||{d}^$image\n")),
                42..=44 => text.push_str(&format!("||{d}^$script\n")),
                // ~77% bare host anchors.
                _ => text.push_str(&format!("||{d}^\n")),
            }
        }
        FilterList::parse_adblock("synthetic", &text)
    }

    /// A URL mix over the same `universe` of domains: direct hits,
    /// subdomain hits, occasional paths that brush the residual
    /// substring tail, and out-of-universe misses (the common case in
    /// real traffic).
    pub fn url_workload(n: usize, universe: usize, seed: u64) -> Vec<Url> {
        let mut rng = XorShift::new(seed);
        (0..n)
            .map(|i| {
                let text = match rng.below(8) {
                    0 | 1 => {
                        let d = domain(rng.below(universe as u64) as usize);
                        format!("http://{d}/path/{i}?x={i}")
                    }
                    2 => {
                        let d = domain(rng.below(universe as u64) as usize);
                        format!("http://cdn{i}.{d}/asset/{i}.js")
                    }
                    3 => {
                        let k = rng.below(universe as u64);
                        format!("http://clean{i}.example/frag{k}/item")
                    }
                    4 if universe > 17 => {
                        // A guaranteed hit on the hot shared-domain
                        // bucket at a random depth (rule i%50==17
                        // exists up to the generator's 2500 cap): the
                        // first-match distance is that rule's rank
                        // among the bucket candidates.
                        let k = rng.below(universe.min(2500) as u64) as usize;
                        let hi = universe.min(2500);
                        let slot = (k - k % 50 + 17).min(hi - hi % 50 + 17);
                        let slot = if slot >= hi { slot - 50 } else { slot };
                        format!("http://hot.ads.example/slot{slot}")
                    }
                    _ => format!("http://clean{i}.example/page/{i}"),
                };
                text.parse().expect("workload URLs are well-formed")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subset_study_builds() {
        let (eco, ds) = run_study_subset(1, 0.05, &[RunKind::General]);
        assert_eq!(ds.runs.len(), 1);
        let report = full_report(&eco, &ds);
        assert!(report.tracking.pixel_total > 0);
    }

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
