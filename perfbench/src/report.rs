//! Metric names, the result line, and the machine block.

use crate::bench::Metric;
use crate::json::quote;

pub const WORKLOADS: [&str; 3] = ["paper_batch", "fleet_ingest", "live_epochs"];

/// What every untraced run prints: the `end_to_end` list of
/// `BENCHMARK.json`, in order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("exchanges_per_s", "1/s"),
    ("report_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// What every traced run prints: the `per_layer` list of
/// `BENCHMARK.json`, in order.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("ecosystem.build_s", "s"),
    ("harness.run_all_s", "s"),
    ("harness.visits", "count"),
    ("harness.exchanges", "count"),
    ("analysis.compute_s", "s"),
    ("analysis.frame_build_s", "s"),
    ("analysis.report_s", "s"),
    ("analysis.first_parties_s", "s"),
    ("analysis.tracking_s", "s"),
    ("analysis.cookies_s", "s"),
    ("analysis.categories_s", "s"),
    ("analysis.children_s", "s"),
    ("analysis.leakage_s", "s"),
    ("analysis.syncing_s", "s"),
    ("analysis.graph_s", "s"),
    ("analysis.consent_s", "s"),
    ("analysis.policies_s", "s"),
    ("analysis.significance_s", "s"),
    ("pool.speedup", "ratio"),
    ("tables.render_ms", "ms"),
    ("filterlists.queries", "count"),
    ("filterlists.ns_per_query", "ns"),
    ("ingest.encode_s", "s"),
    ("ingest.decode_s", "s"),
    ("ingest.decode_mb_per_s", "MB/s"),
    ("ingest.decode_share", "ratio"),
    ("ingest.decode_2x_ratio", "ratio"),
    ("ingest.frames", "count"),
    ("ingest.bytes", "bytes"),
    ("ingest.exchanges", "count"),
    ("ingest.backpressure_stalls", "count"),
    ("ingest.queue_depth_hw", "count"),
    ("ingest.sessions_completed", "count"),
    ("live.poll_s", "s"),
    ("live.render_s", "s"),
    ("incremental.append_s", "s"),
    ("incremental.report_s", "s"),
    ("incremental.segments", "count"),
    ("incremental.delta_recomputes", "count"),
    ("frame_store.spill_writes", "count"),
    ("frame_store.peak_resident_bytes", "bytes"),
    ("obs.profile_overhead", "ratio"),
    ("bench.trace_overhead", "ratio"),
];

/// `metrics` in the order of `expected`, checked to hold exactly those
/// names with those units and finite values.
pub fn ordered(metrics: &[Metric], expected: &[(&str, &str)]) -> Result<Vec<Metric>, String> {
    if metrics.len() != expected.len() {
        let names: Vec<_> = metrics.iter().map(|m| m.name).collect();
        return Err(format!(
            "measured {} metrics, expected {}: {names:?}",
            metrics.len(),
            expected.len()
        ));
    }
    expected
        .iter()
        .map(|&(name, unit)| {
            let m = metrics
                .iter()
                .find(|m| m.name == name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if m.unit != unit {
                return Err(format!("metric {name} has unit {} not {unit}", m.unit));
            }
            if !m.value.is_finite() {
                return Err(format!("metric {name} is not finite ({})", m.value));
            }
            Ok(m.clone())
        })
        .collect()
}

/// The result object: the last line of standard output.
pub fn result_line<'a>(
    attempted: u64,
    failed: u64,
    metrics: impl IntoIterator<Item = (String, f64, &'a str)>,
) -> String {
    let body: Vec<String> = metrics
        .into_iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                quote(&name),
                quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

/// The machine the numbers come from, as one JSON object.
pub fn machine_block(workload: &str, seed: u64, seconds: f64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"nproc\": {nproc}, \"profile\": {}, \"git_rev\": {}, \"rustc\": {}, \"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}}}",
        quote(profile),
        quote(&git_rev()),
        quote(env!("PERFBENCH_RUSTC")),
        quote(workload)
    )
}

/// The checked-out commit, read from `.git` in the working directory;
/// "unknown" outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))?
                .split(' ')
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn well_formed(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|&(n, _)| n)
            .chain(WORKLOADS)
            .collect();
        for n in &names {
            assert!(well_formed(n), "{n} does not match [A-Za-z0-9_.-]+");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
    }

    #[test]
    fn lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside perfbench");
        let spec = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads = listed("workloads");
        assert!(workloads.len() >= 2);
        for (name, _) in &workloads {
            assert!(
                WORKLOADS.contains(&name.as_str()),
                "unknown workload {name}"
            );
        }
    }

    #[test]
    fn result_line_reads_back() {
        let line = result_line(2, 0, [("setup_s".to_string(), 0.5, "s")]);
        let v = Json::parse(&line).expect("the result line is JSON");
        assert_eq!(v.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(Json::as_f64), Some(2.0));
    }
}
