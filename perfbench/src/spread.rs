//! `spread` and `compare`: run-to-run spread of the end-to-end metrics.
//!
//! `spread` runs each workload as a child process once per seed, reads
//! the result lines, and prints per metric the median, the quartiles as
//! Python's `statistics.quantiles(values, n=4)` gives them, and the
//! quartile distance as a share of the median beside the metric's bound
//! from `BENCHMARK.json`. A failed child run fails the whole set (a
//! wide spread only shows in the verdict), so `--seeds 42,7` doubles as
//! the held-out-seed check. `--out` saves the
//! set; `compare` checks two saved sets against the bounds: the second
//! median may be worse than the first by at most the bound.

use crate::json::{quote, Json};
use crate::report::WORKLOADS;
use crate::stats;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// workload → metric → one value per run.
type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

struct Bound {
    share: f64,
    lower_is_better: bool,
}

/// The `end_to_end` bounds of `BENCHMARK.json` in the working directory.
fn bounds() -> BTreeMap<String, Bound> {
    let Some(spec) = std::fs::read_to_string("BENCHMARK.json")
        .ok()
        .and_then(|t| Json::parse(&t).ok())
    else {
        eprintln!("spread: no readable BENCHMARK.json here; bounds not checked");
        return BTreeMap::new();
    };
    spec.get("end_to_end")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            let bound = Bound {
                share: m.get("bound")?.as_f64()?,
                lower_is_better: m.get("better")?.as_str()? == "lower",
            };
            Some((m.get("name")?.as_str()?.to_string(), bound))
        })
        .collect()
}

pub fn spread_main(args: &[String]) -> i32 {
    match spread(args) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("perfbench spread: {e}");
            2
        }
    }
}

fn spread(args: &[String]) -> Result<bool, String> {
    let (mut workloads, mut seeds) = (Vec::new(), Vec::new());
    let (mut runs, mut seed_base, mut seconds, mut out) = (10u64, 1u64, "10".to_string(), None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes an integer"))
        };
        match flag.as_str() {
            "--workload" if value == "all" => workloads = WORKLOADS.map(String::from).to_vec(),
            "--workload" => workloads = value.split(',').map(String::from).collect(),
            "--runs" => runs = number()?,
            "--seed-base" => seed_base = number()?,
            "--seeds" => {
                seeds = value
                    .split(',')
                    .map(|s| s.parse().map_err(|_| format!("bad seed {s:?}")))
                    .collect::<Result<_, _>>()?
            }
            "--seconds" => seconds.clone_from(value),
            "--out" => out = Some(value.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if workloads.is_empty() {
        return Err("name --workload".into());
    }
    if seeds.is_empty() {
        seeds = (seed_base..seed_base + runs).collect();
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut set = RunSet::new();
    let mut ok = true;
    for w in &workloads {
        for seed in &seeds {
            let seed = seed.to_string();
            let child = Command::new(&exe)
                .args([
                    "--workload",
                    w,
                    "--seed",
                    &seed,
                    "--seconds",
                    &seconds,
                    "--trace",
                    "0",
                ])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| e.to_string());
            match child.and_then(|o| read_result(&o)) {
                Ok(metrics) => {
                    for (name, value) in metrics {
                        set.entry(w.clone())
                            .or_default()
                            .entry(name)
                            .or_default()
                            .push(value);
                    }
                }
                Err(e) => {
                    ok = false;
                    eprintln!("spread: {w} seed {seed} failed: {e}");
                }
            }
        }
    }
    let bounds = bounds();
    for (w, metrics) in &set {
        for (name, values) in metrics {
            let (Some([q1, median, q3]), Some(bound)) =
                (stats::quartiles(values), bounds.get(name))
            else {
                println!("{w:<14} {name:<16} n={} values {values:?}", values.len());
                continue;
            };
            let spread = (q3 - q1) / median;
            let verdict = match name.as_str() {
                "setup_s" => "not gated",
                _ if spread > bound.share => "WIDER THAN THE BOUND",
                _ if spread > bound.share / 3.0 => "within the bound, above a third of it",
                _ => "ok",
            };
            println!(
                "{w:<14} {name:<16} n={:<3} median {median:<12.6} q1 {q1:<12.6} q3 {q3:<12.6} spread {spread:.4} bound {} {verdict}",
                values.len(),
                bound.share
            );
        }
    }
    if let Some(path) = out {
        std::fs::write(&path, to_json(&set)).map_err(|e| format!("writing {path}: {e}"))?;
        println!("saved to {path}");
    }
    Ok(ok)
}

/// The metric values of one child run; an error unless it exited
/// cleanly with a correct result.
fn read_result(o: &std::process::Output) -> Result<Vec<(String, f64)>, String> {
    let stdout = String::from_utf8_lossy(&o.stdout);
    let line = stdout.lines().last().unwrap_or("");
    if !o.status.success() {
        return Err(format!("{}: {line}", o.status));
    }
    let v = Json::parse(line)?;
    if v.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("incorrect result: {line}"));
    }
    Ok(v.get("metrics")
        .map(Json::as_obj)
        .unwrap_or_default()
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect())
}

fn to_json(set: &RunSet) -> String {
    let workloads: Vec<String> = set
        .iter()
        .map(|(w, metrics)| {
            let rows: Vec<String> = metrics
                .iter()
                .map(|(name, values)| {
                    let vs: Vec<String> = values.iter().map(f64::to_string).collect();
                    format!("{}: [{}]", quote(name), vs.join(", "))
                })
                .collect();
            format!("{}: {{{}}}", quote(w), rows.join(", "))
        })
        .collect();
    format!("{{{}}}\n", workloads.join(",\n"))
}

fn load(path: &str) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(v.as_obj()
        .iter()
        .map(|(w, metrics)| {
            let metrics = metrics
                .as_obj()
                .iter()
                .map(|(name, vs)| {
                    (
                        name.clone(),
                        vs.as_arr().iter().filter_map(Json::as_f64).collect(),
                    )
                })
                .collect();
            (w.clone(), metrics)
        })
        .collect())
}

pub fn compare_main(args: &[String]) -> i32 {
    let [before, after] = args else {
        eprintln!("usage: perfbench compare <before.json> <after.json>");
        return 2;
    };
    let (before, after) = match (load(before), load(after)) {
        (Ok(b), Ok(a)) => (b, a),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench compare: {e}");
            return 2;
        }
    };
    let bounds = bounds();
    let mut ok = true;
    for (w, metrics) in &before {
        for (name, values) in metrics {
            let other = after.get(w).and_then(|m| m.get(name));
            let (Some(a), Some(b), Some(bound)) = (
                stats::median(values),
                other.and_then(|v| stats::median(v)),
                bounds.get(name),
            ) else {
                continue;
            };
            let worse = if bound.lower_is_better {
                (b - a) / a
            } else {
                (a - b) / a
            };
            let verdict = if worse > bound.share {
                ok = false;
                "WORSE THAN THE BOUND"
            } else {
                "ok"
            };
            println!(
                "{w:<14} {name:<16} before {a:<12.6} after {b:<12.6} worse by {worse:+.4} bound {} {verdict}",
                bound.share
            );
        }
    }
    i32::from(!ok)
}
