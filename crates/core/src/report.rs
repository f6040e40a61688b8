//! The complete study report: every analysis, bundled and renderable.

use crate::analysis::incremental::FrameBuilder;
use crate::analysis::{
    CategoryAnalysis, ChildrenCaseStudy, ConsentAnalysis, CookieAnalysis, FirstPartyMap,
    GraphAnalysis, LeakageAnalysis, PolicyAnalysis, SignificanceReport, SyncingAnalysis,
    TrackingAnalysis,
};
use crate::dataset::StudyDataset;
use crate::ecosystem::Ecosystem;
use crate::tables;
use hbbtv_broadcast::ChannelId;
use hbbtv_net::CookieKey;
use hbbtv_obs::{StudyTelemetry, Telemetry};
use hbbtv_trackers::{CookieCategory, Cookiepedia};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Everything §V–§VII produce, computed in one pass.
#[derive(Debug)]
pub struct StudyReport {
    /// Table I's (HTTP, HTTPS, HTTPS %) request split per run, in
    /// dataset order.
    pub protocol: Vec<(usize, usize, f64)>,
    /// First-party identification (§V-A).
    pub first_parties: FirstPartyMap,
    /// Data leakage (§V-B).
    pub leakage: LeakageAnalysis,
    /// Cookie analysis (§V-C).
    pub cookies: CookieAnalysis,
    /// Cookie syncing (§V-C3).
    pub syncing: SyncingAnalysis,
    /// Tracking detection (§V-D).
    pub tracking: TrackingAnalysis,
    /// Category analysis (§V-D4).
    pub categories: CategoryAnalysis,
    /// Children's-TV case study (§V-D5).
    pub children: ChildrenCaseStudy,
    /// The ecosystem graph (§V-E).
    pub graph: GraphAnalysis,
    /// Consent notices (§VI).
    pub consent: ConsentAnalysis,
    /// Privacy policies (§VII).
    pub policies: PolicyAnalysis,
    /// Statistical tests (§IV-D).
    pub significance: SignificanceReport,
    /// Per-run telemetry from the harness, when the study ran with a
    /// telemetry scope attached. Never serialized and never rendered by
    /// [`StudyReport::render`], so report output stays byte-identical
    /// with telemetry on, off, or absent.
    pub telemetry: Option<StudyTelemetry>,
}

impl StudyReport {
    /// Computes every analysis from a dataset.
    pub fn compute(eco: &Ecosystem, dataset: &StudyDataset) -> Self {
        Self::compute_with_telemetry(eco, dataset, &Telemetry::disabled())
    }

    /// Computes every analysis through the analysis engine (see
    /// [`crate::analysis::incremental`]): each run of the borrowed
    /// dataset seals as one epoch, then the cached partials fold into
    /// the report, each pass timed under its `analysis.*` span on
    /// `tel` in canonical order. Profile mode also records the seal
    /// wall as `wall.frame.build`.
    ///
    /// With a disabled scope this is exactly [`StudyReport::compute`]:
    /// the spans are no-ops and the result is identical.
    pub fn compute_with_telemetry(
        eco: &Ecosystem,
        dataset: &StudyDataset,
        tel: &Telemetry,
    ) -> Self {
        let whole = tel.span("analysis.report");
        let report = FrameBuilder::seal_all(dataset, tel).report(eco, dataset, tel);
        if tel.is_enabled() {
            let corpus = &report.policies.corpus;
            tel.counter("policy_scan.documents")
                .add(corpus.documents_seen as u64);
            tel.counter("policy_scan.policies")
                .add(corpus.policies_collected as u64);
            tel.counter("policy_scan.unique")
                .add(corpus.unique.len() as u64);
        }
        drop(whole);
        report
    }

    /// The naive oracle: every pass re-derives what it needs straight
    /// from the dataset, sequentially, with the unmemoized policy
    /// pipeline (the same annotator, no per-text memo). Kept as the
    /// parity and benchmark baseline for [`StudyReport::compute`].
    pub fn compute_naive(eco: &Ecosystem, dataset: &StudyDataset) -> Self {
        let first_parties = FirstPartyMap::identify(dataset);
        let tracking = TrackingAnalysis::compute(dataset, &first_parties);
        let cookies = CookieAnalysis::compute(dataset, &first_parties);
        let categories = CategoryAnalysis::compute(eco, &tracking);

        // Targeting cookies for the children case study.
        let cookiepedia = Cookiepedia::bundled();
        let mut targeting: BTreeSet<CookieKey> = BTreeSet::new();
        let mut cookie_channels: BTreeMap<CookieKey, BTreeSet<ChannelId>> = BTreeMap::new();
        for run_ds in &dataset.runs {
            for c in &run_ds.captures {
                for sc in c.response.set_cookies() {
                    let domain = if sc.explicit_domain {
                        sc.cookie.domain.clone()
                    } else {
                        c.request.url.etld1().to_owned()
                    };
                    let key = CookieKey {
                        domain,
                        name: sc.cookie.name.clone(),
                    };
                    if let Some(ch) = c.channel {
                        cookie_channels.entry(key.clone()).or_default().insert(ch);
                    }
                    if cookiepedia.classify(&key) == Some(CookieCategory::Targeting) {
                        targeting.insert(key);
                    }
                }
            }
        }
        let children = ChildrenCaseStudy::compute(eco, &tracking, &targeting, &cookie_channels);

        StudyReport {
            protocol: dataset.protocol_splits(),
            leakage: LeakageAnalysis::compute(dataset),
            syncing: SyncingAnalysis::compute(dataset),
            graph: GraphAnalysis::compute(dataset, &first_parties),
            consent: ConsentAnalysis::compute(dataset),
            policies: PolicyAnalysis::compute_reference(dataset),
            significance: SignificanceReport::compute(dataset),
            categories,
            children,
            cookies,
            tracking,
            first_parties,
            telemetry: None,
        }
    }

    /// Attaches harness telemetry (see [`crate::StudyHarness::telemetry`])
    /// to the report for rendering via [`StudyReport::render_telemetry`].
    pub fn with_telemetry(mut self, telemetry: Option<StudyTelemetry>) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Renders the telemetry appendix: one block per run with visit and
    /// exchange totals plus named counters. Empty string when the study
    /// ran without telemetry, and deliberately *not* part of
    /// [`StudyReport::render`].
    pub fn render_telemetry(&self) -> String {
        let Some(tel) = &self.telemetry else {
            return String::new();
        };
        let mut s = String::new();
        let _ = writeln!(
            s,
            "Telemetry: {} visits, {} exchanges, {} bytes recorded\n",
            tel.total_visits(),
            tel.total_exchanges(),
            tel.total_bytes()
        );
        for run in &tel.runs {
            let _ = writeln!(
                s,
                "  run {}: {} visits, {} exchanges, {} bytes",
                run.run, run.visits, run.exchanges_recorded, run.bytes_recorded
            );
            for (name, value) in &run.counters {
                let _ = writeln!(s, "    {name} = {value}");
            }
            for (name, h) in &run.histograms {
                let _ = writeln!(
                    s,
                    "    {name}: n={} p50={} p90={} p99={} max={}",
                    h.count, h.p50, h.p90, h.p99, h.max
                );
            }
        }
        s
    }

    /// Renders the complete report (tables, figures, and §-level
    /// findings) as text.
    pub fn render(&self, dataset: &StudyDataset) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "HbbTV measurement study: {} requests, {} screenshots, {} interactions, \
             {:.0} hours watched\n",
            dataset.total_requests(),
            dataset.total_screenshots(),
            dataset.total_interactions(),
            dataset.hours_watched()
        );
        s.push_str(&tables::table1(dataset, &self.cookies, &self.protocol));
        s.push('\n');
        s.push_str(&tables::table2(&self.cookies));
        s.push('\n');
        s.push_str(&tables::table3(&self.tracking));
        s.push('\n');
        s.push_str(&tables::table4(&self.consent));
        s.push('\n');
        s.push_str(&tables::table5(&self.consent));
        s.push('\n');
        s.push_str(&tables::figure5(&self.cookies));
        s.push('\n');
        s.push_str(&tables::figure6(&self.tracking));
        s.push('\n');
        s.push_str(&tables::figure7(&self.categories));
        s.push('\n');
        s.push_str(&tables::figure8(&self.graph));
        s.push('\n');
        s.push_str(&self.render_findings());
        s
    }

    /// Renders the §-level findings beyond the tables.
    pub fn render_findings(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "Section V-B (data leakage)");
        let _ = writeln!(
            s,
            "  channels sending technical data: {} (to {} third parties)",
            self.leakage.channels_with_technical.len(),
            self.leakage.technical_receivers.len()
        );
        let _ = writeln!(
            s,
            "  channels sending the show genre: {}; personal-data requests: {}",
            self.leakage.channels_with_genre.len(),
            self.leakage.personal_data_requests
        );
        let _ = writeln!(s, "Section V-C (cookies)");
        let _ = writeln!(
            s,
            "  distinct cookies (jar+storage): {}; set by tracking: {:.1}%; parties: {}",
            self.cookies.distinct_total,
            self.cookies.set_by_tracking_share,
            self.cookies.parties_total
        );
        let _ = writeln!(
            s,
            "  cookies/channel: {}; Cookiepedia classifies {:.1}%",
            self.cookies.cookies_per_channel, self.cookies.cookiepedia_classified_share
        );
        let _ = writeln!(
            s,
            "  classified cookie categories: {:?}",
            self.cookies.category_distribution
        );
        let _ = writeln!(s, "Section V-C3 (cookie syncing)");
        let _ = writeln!(
            s,
            "  potential IDs: {}; synced values: {}; syncing domains: {}; channels: {}",
            self.syncing.potential_ids,
            self.syncing.synced_values.len(),
            self.syncing.syncing_domains.len(),
            self.syncing.channels.len()
        );
        let _ = writeln!(s, "Section V-D (tracking)");
        let _ = writeln!(
            s,
            "  pixels: {} ({:.1}% of traffic) from {} parties ({} on EasyList); channels with pixels: {}",
            self.tracking.pixel_total,
            self.tracking.pixel_traffic_share,
            self.tracking.pixel_parties.len(),
            self.tracking.pixel_parties_on_easylist,
            self.tracking.channels_with_pixels
        );
        if let Some((domain, channels)) = &self.tracking.dominant_pixel_party {
            let _ = writeln!(s, "  dominant pixel party: {domain} on {channels} channels");
        }
        let _ = writeln!(
            s,
            "  fingerprinting: {} channels, {} providers ({} first-party), {:.1}% of FP requests from first parties",
            self.tracking.channels_with_fingerprinting,
            self.tracking.fingerprint_providers.len(),
            self.tracking.fp_providers_first_party,
            self.tracking.fp_first_party_request_share
        );
        let _ = writeln!(s, "Section V-D5 (children)");
        let _ = writeln!(
            s,
            "  children channels: {}; tracking requests: {}; targeting cookies: {}; indistinguishable from other channels: {}",
            self.children.channels.len(),
            self.children.tracking_requests,
            self.children.targeting_cookies,
            self.children.indistinguishable()
        );
        let _ = writeln!(s, "Section VI (consent)");
        let _ = writeln!(
            s,
            "  channels with privacy info: {} ({:.1}%); with pointers: {} ({:.1}%)",
            self.consent.channels_with_privacy_info.len(),
            self.consent.privacy_channel_share(),
            self.consent.channels_with_pointer.len(),
            self.consent.pointer_channel_share()
        );
        let _ = writeln!(
            s,
            "  notice brandings observed: {}; all nudge toward accept: {}",
            self.consent.brandings.len(),
            self.consent.all_notices_nudge_to_accept()
        );
        let _ = writeln!(
            s,
            "  channels consenting under the blind interaction sequence: {:?}",
            self.consent.consents_per_run
        );
        let _ = writeln!(s, "Section VII (policies)");
        let _ = writeln!(
            s,
            "  collected: {}; unique: {}; SimHash groups: {}; mention HbbTV: {} ({:.0}%)",
            self.policies.corpus.policies_collected,
            self.policies.corpus.unique.len(),
            self.policies.corpus.simhash_groups.len(),
            self.policies.hbbtv_mentions,
            self.policies.corpus.hbbtv_mention_share() * 100.0
        );
        {
            let mut langs: BTreeMap<String, usize> = BTreeMap::new();
            for p in &self.policies.corpus.unique {
                *langs.entry(format!("{:?}", p.language)).or_insert(0) += 1;
            }
            let _ = writeln!(s, "  unique-policy languages: {langs:?}");
        }
        let _ = writeln!(
            s,
            "  blue-button hints: {}; legitimate interest: {}; TDDDG: {}; opt-out contradictions: {:?}",
            self.policies.blue_button_hints,
            self.policies.legitimate_interest,
            self.policies.tdddg_mentions,
            self.policies.opt_out_contradictions
        );
        let _ = writeln!(s, "  GDPR rights declared:");
        for (article, count) in &self.policies.rights_counts {
            let total = self.policies.corpus.unique.len().max(1);
            let _ = writeln!(
                s,
                "    {article}: {count} ({:.0}%)",
                *count as f64 / total as f64 * 100.0
            );
        }
        let violators = self.policies.window_violators();
        let _ = writeln!(
            s,
            "  5PM-6AM: {} window policies, violations on {:?}",
            self.policies.window_reports.len(),
            violators
        );
        let _ = writeln!(s, "Section IV-D (significance)");
        if let Ok(kw) = &self.significance.run_effect_on_requests {
            let _ = writeln!(
                s,
                "  run effect on traffic: p = {:.6}, eta^2 = {:.3} ({})",
                kw.p_value,
                kw.eta_squared,
                kw.effect_size_class()
            );
        }
        if let Ok(kw) = &self.significance.channel_effect_on_tracking {
            let _ = writeln!(
                s,
                "  channel effect on tracking: p = {:.6}, eta^2 = {:.3} ({})",
                kw.p_value,
                kw.eta_squared,
                kw.effect_size_class()
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::RunKind;
    use crate::StudyHarness;

    #[test]
    fn full_report_computes_and_renders() {
        let eco = Ecosystem::with_scale(51, 0.08);
        let harness = StudyHarness::new(&eco);
        let ds = StudyDataset {
            runs: vec![
                harness.run(RunKind::General),
                harness.run(RunKind::Red),
                harness.run(RunKind::Blue),
            ],
        };
        let report = StudyReport::compute(&eco, &ds);
        let text = report.render(&ds);
        for needle in [
            "Table I",
            "Table V",
            "Figure 5",
            "Figure 8",
            "Section V-C3",
            "Section VII",
        ] {
            assert!(text.contains(needle), "missing {needle}");
        }
        assert!(text.len() > 2000);
    }
}
