//! `perfbench` — the hbbtv-lab benchmark.
//!
//! Three workloads run the pipeline (capture → proxy log → analysis →
//! Tables I–V) the two ways the repository runs it: as the batch study
//! (`paper_batch`), live through the streaming collector
//! (`fleet_ingest`), and through the incremental engine in small epochs
//! (`live_epochs`). See each module for what a workload does and why.
//!
//! `BENCHMARK.json` gates `paper_batch` and `live_epochs`. `fleet_ingest`
//! runs by name, in `all`, and inside every traced run, but it is not
//! gated yet: its report latency gets one sample per landed run, about
//! twenty-five in a 50 s run while capture decoding is quadratic, and under
//! contention from the collector's decoding those samples range from 2
//! to 25 ms, so its median spreads across seeds by about as much as the
//! widest bound allows.
//!
//! Run it from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_batch|fleet_ingest|live_epochs|all> --seed 42 --seconds 10 --trace 0
//! ... -- spread --workload all --runs 10 --seconds 10 --out before.json
//! ... -- spread --workload all --seeds 42,7 --seconds 5
//! ... -- compare before.json after.json
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of one workload (or of all
//! three, from one process). `--trace 1` is a separate run: every
//! workload and layer probe runs under in-memory spans and the
//! per-layer metrics are printed; the spans and each layer's self time
//! go to `$CARGO_TARGET_DIR/perfbench/trace-<workload>-<seed>.json`
//! (`target/` when unset). The last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. A
//! failed oracle check, an un-acked or a rejected session fails the run
//! with exit code 1.

mod bench;
mod fleet_ingest;
mod json;
mod live_epochs;
mod paper_batch;
mod report;
mod spread;
mod stats;
mod trace;

use bench::{metric, Budget, Metric, RunOut};
use report::{machine_block, ordered, result_line, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use trace::Tracer;

/// Set-ups per untraced run, spread over its timed loop; `setup_s` is
/// their median.
const SETUP_REPS: usize = 9;

const USAGE: &str = "usage: perfbench --workload <paper_batch|fleet_ingest|live_epochs|all> \
--seed <n> --seconds <s> --trace <0|1>\n       perfbench spread --workload <name,..|all> \
(--runs <n> [--seed-base <n>] | --seeds <n,..>) --seconds <s> [--out <file>]\n       \
perfbench compare <before.json> <after.json>";

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => o.workload.clone_from(value),
            "--seed" => o.seed = value.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                o.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds takes a non-negative number")?
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let known = WORKLOADS.contains(&o.workload.as_str()) || o.workload == "all";
    if !known {
        return Err(format!("unknown workload {:?}", o.workload));
    }
    if o.trace && o.workload == "all" {
        return Err("a traced run names one workload".into());
    }
    Ok(o)
}

/// Where the benchmark writes: inside the build directory of the
/// checkout it runs in.
fn out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("perfbench")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("spread") => spread::spread_main(&args[1..]),
        Some("compare") => spread::compare_main(&args[1..]),
        _ => bench_main(&args),
    };
    std::process::exit(code);
}

fn bench_main(args: &[String]) -> i32 {
    let o = match parse_opts(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return 2;
        }
    };
    // Frame-store spill files go to the temporary directory; keep them
    // inside the checkout. Set before any thread starts.
    let tmp = out_dir().join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        return 1;
    }
    std::env::set_var("TMPDIR", &tmp);

    println!(
        "machine: {}",
        machine_block(&o.workload, o.seed, o.seconds, o.trace)
    );
    let result = if o.trace {
        traced(&o)
    } else if o.workload == "all" {
        all(&o)
    } else {
        untraced(&o, &o.workload).map(|(out, metrics)| {
            let line = result_line(out.attempted, out.failed, entries(&metrics, ""));
            (out, line)
        })
    };
    match result {
        Ok((out, line)) => {
            for note in &out.notes {
                println!("{note}");
            }
            println!("{line}");
            i32::from(out.failed > 0)
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    }
}

fn entries<'a>(
    metrics: &'a [Metric],
    prefix: &'a str,
) -> impl Iterator<Item = (String, f64, &'static str)> + 'a {
    metrics
        .iter()
        .map(move |m| (format!("{prefix}{}", m.name), m.value, m.unit))
}

/// One workload with tracing off: its end-to-end metrics.
fn untraced(o: &Opts, workload: &str) -> Result<(RunOut, Vec<Metric>), String> {
    let off = Tracer::off();
    let budget = |setups| Budget {
        setups: Some(setups),
        ..Budget::new(o.seconds, 2)
    };
    let (mut out, setups) = match workload {
        "paper_batch" => {
            let (w, mut s) = paper_batch::setup_workload(o.seed, SETUP_REPS, &off);
            (w.run(budget(&mut s), &off).out, s)
        }
        "fleet_ingest" => {
            let (mut w, mut s) = fleet_ingest::setup_workload(o.seed, SETUP_REPS, &off);
            (w.run(budget(&mut s), &off)?, s)
        }
        _ => {
            let (w, mut s) = live_epochs::setup_workload(o.seed, SETUP_REPS, &off);
            (w.run(budget(&mut s), &off), s)
        }
    };
    out.notes.push(format!(
        "{workload}: set-up {}; exchanges/s {}; report {}; report_p90_ms {}",
        setups.describe(),
        out.throughput.describe("1/s"),
        out.report_ms.describe("ms"),
        out.report_ms.p90("ms")
    ));
    let metrics = [
        metric("setup_s", setups.median(), "s"),
        metric("exchanges_per_s", out.warm_rate(), "1/s"),
        metric("report_p50_ms", out.report_ms.median(), "ms"),
        metric("peak_rss_mb", out.peak_rss_mb, "MB"),
    ];
    let metrics = ordered(&metrics, &END_TO_END)?;
    Ok((out, metrics))
}

/// All three workloads from one process, each with tracing off.
fn all(o: &Opts) -> Result<(RunOut, String), String> {
    let mut total = RunOut::default();
    let mut lines = Vec::new();
    for w in WORKLOADS {
        let (out, metrics) = untraced(o, w)?;
        let prefix = format!("{w}.");
        lines.extend(entries(&metrics, &prefix));
        total.notes.push(result_line(
            out.attempted,
            out.failed,
            entries(&metrics, ""),
        ));
        total.absorb(out);
    }
    let line = result_line(total.attempted, total.failed, lines);
    Ok((total, line))
}

/// The traced run: every workload once under spans (the named one for
/// half the time, after an untraced half for `bench.trace_overhead`),
/// plus the layer probes.
fn traced(o: &Opts) -> Result<(RunOut, String), String> {
    let tracer = Tracer::on();
    let off = Tracer::off();
    let half = || Budget::new(o.seconds / 2.0, 2);
    let once = || Budget::new(0.0, 2);
    let mut total = RunOut::default();
    let mut overhead = f64::NAN;
    // The untraced half counts its checked operations; its layers are
    // the traced half's to report.
    let mut compare = |mut plain: RunOut, traced: &RunOut, total: &mut RunOut| {
        overhead = traced.iter_s.median() / plain.iter_s.median();
        plain.layers.clear();
        total.absorb(plain);
    };

    let (pb, build) = paper_batch::setup_workload(o.seed, 1, &tracer);
    total
        .layers
        .push(metric("ecosystem.build_s", build.median(), "s"));
    let mut batch = if o.workload == "paper_batch" {
        let plain = pb.run(half(), &off).out;
        let batch = pb.run(half(), &tracer);
        compare(plain, &batch.out, &mut total);
        batch
    } else {
        pb.run(once(), &tracer)
    };
    let off_wall = batch.out.iter_s.median();
    total.absorb(std::mem::take(&mut batch.out));
    total.absorb(pb.probes(batch, off_wall, &tracer));
    drop(pb);

    let (mut fleet, _) = fleet_ingest::setup_workload(o.seed, 1, &tracer);
    let out = if o.workload == "fleet_ingest" {
        let plain = fleet.run(half(), &off)?;
        let out = fleet.run(half(), &tracer)?;
        compare(plain, &out, &mut total);
        out
    } else {
        fleet.run(once(), &tracer)?
    };
    let codec = fleet.codec_probe(out.iter_s.median(), &tracer, &mut total);
    total.layers.extend(codec);
    total.absorb(out);
    drop(fleet);

    let (live, _) = live_epochs::setup_workload(o.seed, 1, &tracer);
    let out = if o.workload == "live_epochs" {
        let plain = live.run(half(), &off);
        let out = live.run(half(), &tracer);
        compare(plain, &out, &mut total);
        out
    } else {
        live.run(once(), &tracer)
    };
    total.absorb(out);
    drop(live);

    total
        .layers
        .push(metric("bench.trace_overhead", overhead, "ratio"));
    let metrics = ordered(&total.layers, &PER_LAYER)?;
    let spans = tracer.spans();
    let path = out_dir().join(format!("trace-{}-{}.json", o.workload, o.seed));
    let doc = format!(
        "{{\"machine\": {},\n\"result\": {},\n\"trace\": {}}}\n",
        machine_block(&o.workload, o.seed, o.seconds, o.trace),
        result_line(total.attempted, total.failed, entries(&metrics, "")),
        trace::to_json(&spans)
    );
    std::fs::write(&path, doc).map_err(|e| format!("writing {}: {e}", path.display()))?;
    total.notes.push(format!(
        "trace: {} spans written to {}",
        spans.len(),
        path.display()
    ));
    let line = result_line(total.attempted, total.failed, entries(&metrics, ""));
    Ok((total, line))
}
