//! Renderers for Tables I–V and Figures 5–8.
//!
//! Every renderer takes *measured* analysis outputs and prints the same
//! rows/series the paper reports, so `repro` output can be laid next to
//! the paper for comparison.

use crate::analysis::{
    CategoryAnalysis, ConsentAnalysis, CookieAnalysis, GraphAnalysis, TrackingAnalysis,
};
use crate::dataset::StudyDataset;
use crate::run::RunKind;
use hbbtv_consent::OverlayKind;
use std::fmt::Write as _;

fn header(title: &str) -> String {
    format!("{title}\n{}\n", "-".repeat(title.len()))
}

/// Width of the longest bar in Figures 5–7.
const BAR_WIDTH: usize = 60;

/// A figure bar for `value`, scaled so the series' `max` fills
/// [`BAR_WIDTH`]. Any non-zero value draws at least one `#`, and a
/// larger value never draws a shorter bar.
fn bar(value: usize, max: usize) -> String {
    if value == 0 {
        return String::new();
    }
    "#".repeat((value * BAR_WIDTH).div_ceil(max.max(value)))
}

/// Table I: per-run data overview. `protocol` holds each run's
/// (HTTP, HTTPS, HTTPS %) request split in dataset order, as
/// [`StudyDataset::protocol_splits`] computes and
/// [`crate::report::StudyReport::protocol`] carries it.
pub fn table1(
    dataset: &StudyDataset,
    cookies: &CookieAnalysis,
    protocol: &[(usize, usize, f64)],
) -> String {
    let mut s = header("Table I: Overview of the data collected for each measurement run");
    let _ = writeln!(
        s,
        "{:<8} {:>9} {:>10} {:>10} {:>7} {:>9} {:>9} {:>9} {:>7}",
        "Run", "Channels", "HTTP Req.", "HTTPS Req.", "HTTPS%", "Cookies", "1P", "3P", "LocSt"
    );
    for (run_ds, &(http, https, https_share)) in dataset.runs.iter().zip(protocol) {
        let row = cookies.per_run.get(&run_ds.run);
        let _ = writeln!(
            s,
            "{:<8} {:>9} {:>10} {:>10} {:>6.2}% {:>9} {:>9} {:>9} {:>7}",
            run_ds.run.label(),
            run_ds.channels_measured.len(),
            http,
            https,
            https_share,
            row.map(|r| r.total).unwrap_or(0),
            row.map(|r| r.first_party).unwrap_or(0),
            row.map(|r| r.third_party).unwrap_or(0),
            row.map(|r| r.local_storage).unwrap_or(0),
        );
    }
    s
}

/// Table II: cookie-setting third parties per run.
pub fn table2(cookies: &CookieAnalysis) -> String {
    let mut s = header("Table II: Use of cookie-setting third parties by measurement");
    let _ = writeln!(
        s,
        "{:<8} {:>6} {:>11} {:>7} {:>5} {:>5} {:>7}",
        "Run", "#3Ps", "#3P Cookies", "Mean", "Min", "Max", "SD"
    );
    for (run, row) in &cookies.third_party_per_run {
        let _ = writeln!(
            s,
            "{:<8} {:>6} {:>11} {:>7.2} {:>5} {:>5} {:>7.2}",
            run.label(),
            row.parties,
            row.cookies,
            row.per_party.mean,
            row.per_party.min,
            row.per_party.max,
            row.per_party.sd,
        );
    }
    s
}

/// Table III: tracking requests and filter-list effectiveness.
pub fn table3(tracking: &TrackingAnalysis) -> String {
    let mut s = header("Table III: Tracking requests and filter-list effectiveness");
    let _ = writeln!(
        s,
        "{:<8} {:>9} {:>11} {:>14} {:>11} {:>9}",
        "Run", "Pi-hole", "EasyList", "EasyPrivacy", "Track.Pxl", "Fingerp."
    );
    for (run, row) in &tracking.per_run {
        let _ = writeln!(
            s,
            "{:<8} {:>9} {:>11} {:>14} {:>11} {:>9}",
            run.label(),
            row.on_pihole,
            row.on_easylist,
            row.on_easyprivacy,
            row.tracking_pixels,
            row.fingerprints,
        );
    }
    let _ = writeln!(
        s,
        "Smart-TV lists across runs: Perflyst {} hits, Kamran {} hits (Pi-hole {})",
        tracking.perflyst_hits, tracking.kamran_hits, tracking.pihole_hits_total
    );
    s
}

/// Table IV: overlay-type distribution per run.
pub fn table4(consent: &ConsentAnalysis) -> String {
    let mut s = header("Table IV: Distribution of HbbTV overlay types on screenshots");
    let _ = write!(s, "{:<8}", "Run");
    for kind in OverlayKind::TABLE_ORDER {
        let _ = write!(s, " {:>10}", kind.label());
    }
    let _ = writeln!(s, " {:>8}", "Total");
    for (run, row) in &consent.overlays_per_run {
        let _ = write!(s, "{:<8}", run.label());
        let mut total = 0;
        for kind in OverlayKind::TABLE_ORDER {
            let n = row.get(&kind).copied().unwrap_or(0);
            total += n;
            let _ = write!(s, " {:>10}", n);
        }
        let _ = writeln!(s, " {:>8}", total);
    }
    s
}

/// Table V: prevalence of privacy-related information.
pub fn table5(consent: &ConsentAnalysis) -> String {
    let mut s = header("Table V: Prevalence of privacy-related information");
    let _ = writeln!(
        s,
        "{:<8} {:>8} {:>8} {:>7} | {:>8} {:>8} {:>7}",
        "Run", "#Shots", "#Priv.", "%", "#Chan.", "#Priv.", "%"
    );
    for (run, row) in &consent.prevalence_per_run {
        let _ = writeln!(
            s,
            "{:<8} {:>8} {:>8} {:>6.2}% | {:>8} {:>8} {:>6.2}%",
            run.label(),
            row.screenshots_total,
            row.screenshots_privacy,
            row.screenshot_share(),
            row.channels_total,
            row.channels_privacy,
            row.channel_share(),
        );
    }
    s
}

/// Figure 5: long-tail distribution of cookie-using third parties.
pub fn figure5(cookies: &CookieAnalysis) -> String {
    let mut s = header("Figure 5: Cookie-using third parties by channel count (long tail)");
    let shown = &cookies.party_channel_counts[..cookies.party_channel_counts.len().min(15)];
    let max = shown.iter().map(|(_, n)| *n).max().unwrap_or(0);
    for (party, channels) in shown {
        let bar = bar(*channels, max);
        let _ = writeln!(s, "{party:<24} {channels:>4} {bar}");
    }
    let rest = cookies.party_channel_counts.len().saturating_sub(15);
    if rest > 0 {
        let _ = writeln!(s, "... and {rest} more third parties");
    }
    let _ = writeln!(
        s,
        "single-channel parties: {}; parties on >10 channels: {}",
        cookies.single_channel_parties, cookies.parties_on_more_than_ten
    );
    // The paper characterizes this distribution as "long tail (positive
    // skew)" — print the skewness so the claim is checkable.
    let counts: Vec<f64> = cookies
        .party_channel_counts
        .iter()
        .map(|(_, n)| *n as f64)
        .collect();
    let stats = hbbtv_stats::describe(&counts);
    let _ = writeln!(
        s,
        "distribution: {} (skewness {:.2}, positive = long tail)",
        stats, stats.skewness
    );
    s
}

/// Figure 6: trackers per channel distribution.
pub fn figure6(tracking: &TrackingAnalysis) -> String {
    let mut s = header("Figure 6: Distribution of observed trackers per channel");
    let mut counts: Vec<usize> = tracking.trackers_per_channel.values().copied().collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    // Histogram of tracker counts.
    let mut hist: std::collections::BTreeMap<usize, usize> = std::collections::BTreeMap::new();
    for c in &counts {
        *hist.entry(*c).or_insert(0) += 1;
    }
    let max = hist.values().copied().max().unwrap_or(0);
    for (trackers, channels) in hist.iter().rev() {
        let bar = bar(*channels, max);
        let _ = writeln!(s, "{trackers:>3} trackers: {channels:>4} channels {bar}");
    }
    let stats = tracking.trackers_per_channel_stats();
    let _ = writeln!(s, "per-channel trackers: {stats}");
    let req = tracking.tracking_requests_stats();
    let _ = writeln!(s, "per-channel tracking requests: {req}");
    s
}

/// Figure 7: trackers by channel category.
pub fn figure7(categories: &CategoryAnalysis) -> String {
    let mut s = header("Figure 7: Tracking requests by channel category");
    let rows = categories.ordered();
    let max = rows
        .iter()
        .map(|(_, _, requests)| *requests)
        .max()
        .unwrap_or(0);
    for (category, channels, requests) in rows {
        let bar = bar(requests, max);
        let _ = writeln!(
            s,
            "{:<14} {:>4} channels {:>8} tracking requests {bar}",
            category.label(),
            channels,
            requests
        );
    }
    let _ = writeln!(
        s,
        "top-5 categories issue {:.1}% of tracking requests",
        categories.top5_request_share
    );
    if let Some(kw) = &categories.category_effect {
        let _ = writeln!(
            s,
            "category effect: H = {:.1}, p = {:.5}, eta^2 = {:.3} ({})",
            kw.h,
            kw.p_value,
            kw.eta_squared,
            kw.effect_size_class()
        );
    }
    s
}

/// Figure 8: the ecosystem graph.
pub fn figure8(graph: &GraphAnalysis) -> String {
    let mut s = header("Figure 8: The HbbTV tracking ecosystem graph");
    let _ = writeln!(
        s,
        "nodes: {}, edges: {}, components: {} (largest {})",
        graph.graph.node_count(),
        graph.graph.edge_count(),
        graph.components,
        graph.largest_component
    );
    if let Some(apl) = graph.average_path_length {
        let _ = writeln!(s, "average path length: {apl:.2}");
    }
    if let Some(and) = graph.average_neighbor_degree {
        let _ = writeln!(s, "average neighbor degree (connectivity): {and:.1}");
    }
    let _ = writeln!(s, "degree distribution: {}", graph.degree_stats);
    let _ = writeln!(s, "top hubs:");
    for (label, degree) in &graph.top_hubs {
        let _ = writeln!(s, "  {label:<24} {degree} edges");
    }
    let _ = writeln!(
        s,
        "nodes with >=10 edges: {}; single-edge domains: {}",
        graph.nodes_with_10_edges, graph.single_edge_domains
    );
    for domain in ["xiti.com", "tvping.com"] {
        if let Some(d) = graph.domain_degree(domain) {
            let _ = writeln!(s, "{domain}: {d} edges");
        }
    }
    s
}

/// All runs in Table I order (helper for reports).
pub fn run_order() -> [RunKind; 5] {
    RunKind::ALL
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::FirstPartyMap;
    use crate::{Ecosystem, StudyHarness};

    #[test]
    fn tables_render_nonempty() {
        let eco = Ecosystem::with_scale(3, 0.06);
        let harness = StudyHarness::new(&eco);
        let ds = StudyDataset {
            runs: vec![harness.run(RunKind::General), harness.run(RunKind::Red)],
        };
        let fp = FirstPartyMap::identify(&ds);
        let tracking = TrackingAnalysis::compute(&ds, &fp);
        let cookies = CookieAnalysis::compute(&ds, &fp);
        let consent = ConsentAnalysis::compute(&ds);
        let graph = GraphAnalysis::compute(&ds, &fp);
        let categories = CategoryAnalysis::compute(&eco, &tracking);

        for rendered in [
            table1(&ds, &cookies, &ds.protocol_splits()),
            table2(&cookies),
            table3(&tracking),
            table4(&consent),
            table5(&consent),
            figure5(&cookies),
            figure6(&tracking),
            figure7(&categories),
            figure8(&graph),
        ] {
            assert!(rendered.len() > 80, "short render:\n{rendered}");
            assert!(rendered.contains('\n'));
        }
    }

    #[test]
    fn table4_renders_columns_in_codebook_order() {
        let eco = Ecosystem::with_scale(3, 0.05);
        let harness = StudyHarness::new(&eco);
        let ds = StudyDataset {
            runs: vec![harness.run(RunKind::Red)],
        };
        let consent = ConsentAnalysis::compute(&ds);
        let t = table4(&consent);
        let header = t.lines().nth(2).unwrap();
        let cols: Vec<usize> = [
            "No Sign.",
            "CTM",
            "TV Only",
            "Media Lib.",
            "Privacy",
            "Other",
        ]
        .iter()
        .map(|c| {
            header
                .find(c)
                .unwrap_or_else(|| panic!("missing column {c}"))
        })
        .collect();
        assert!(
            cols.windows(2).all(|w| w[0] < w[1]),
            "column order: {header}"
        );
        // Row totals equal the screenshot count.
        let row = t.lines().nth(3).unwrap();
        let total: usize = row.split_whitespace().last().unwrap().parse().unwrap();
        assert_eq!(total, ds.runs[0].screenshots.len());
    }

    #[test]
    fn bars_are_scaled_and_monotone_in_the_value() {
        for max in [1, 7, 60, 61, 8_699, 181_610] {
            let lens: Vec<usize> = (0..=max).map(|v| bar(v, max).len()).collect();
            assert!(lens.windows(2).all(|w| w[0] <= w[1]), "max {max}");
            assert_eq!(lens[0], 0);
            assert!(lens[1..].iter().all(|&n| n >= 1), "max {max}");
            assert_eq!(lens[max], BAR_WIDTH, "max {max}");
        }
        // The Figure 7 pair that used to draw identical clamped bars.
        assert!(bar(8_699, 181_610).len() < bar(181_610, 181_610).len());
    }

    #[test]
    fn figure7_bars_follow_the_request_counts() {
        let eco = Ecosystem::with_scale(3, 0.08);
        let ds = StudyDataset {
            runs: vec![StudyHarness::new(&eco).run(RunKind::General)],
        };
        let fp = FirstPartyMap::identify(&ds);
        let categories = CategoryAnalysis::compute(&eco, &TrackingAnalysis::compute(&ds, &fp));
        let fig = figure7(&categories);
        let rows: Vec<(usize, usize)> = fig
            .lines()
            .filter_map(|line| {
                let (head, bar) = line.split_once(" tracking requests")?;
                let requests = head.split_whitespace().last()?.parse().ok()?;
                Some((requests, bar.trim().len()))
            })
            .collect();
        assert!(rows.len() > 2, "{fig}");
        assert_eq!(rows[0].1, BAR_WIDTH, "the largest category fills the width");
        for w in rows.windows(2) {
            assert!(w[0].0 >= w[1].0 && w[0].1 >= w[1].1, "{fig}");
        }
        assert!(rows.last().unwrap().1 < BAR_WIDTH, "{fig}");
    }

    #[test]
    fn figure8_mentions_key_domains() {
        let eco = Ecosystem::with_scale(3, 0.08);
        let harness = StudyHarness::new(&eco);
        let ds = StudyDataset {
            runs: vec![harness.run(RunKind::General)],
        };
        let fp = FirstPartyMap::identify(&ds);
        let graph = GraphAnalysis::compute(&ds, &fp);
        let t = figure8(&graph);
        assert!(t.contains("components"));
        assert!(t.contains("tvping.com"));
    }

    #[test]
    fn table1_contains_run_labels() {
        let eco = Ecosystem::with_scale(3, 0.05);
        let harness = StudyHarness::new(&eco);
        let ds = StudyDataset {
            runs: vec![harness.run(RunKind::General)],
        };
        let fp = FirstPartyMap::identify(&ds);
        let cookies = CookieAnalysis::compute(&ds, &fp);
        let t = table1(&ds, &cookies, &ds.protocol_splits());
        assert!(t.contains("General"));
        assert!(t.contains("HTTPS"));
    }
}
