//! Privacy-policy analysis (§VII): corpus collection from traffic, the
//! preprocessing/classification pipeline, GDPR content statistics, and
//! the policy-vs-practice checks (including "5 PM to 6 AM").

use crate::analysis::frame::CaptureFrame;
use crate::analysis::tracking::{is_fingerprint_script, is_tracking_pixel};
use crate::dataset::StudyDataset;
use hbbtv_net::ContentType;
use hbbtv_policies::compliance::{
    check_opt_out_contradiction, check_profiling_window, TrackingObservation, WindowViolationReport,
};
use hbbtv_policies::{DocRef, GdprArticle, PolicyCorpus, PolicyCorpusReport};
use std::collections::BTreeMap;

/// The §VII computation.
#[derive(Debug, Clone)]
pub struct PolicyAnalysis {
    /// The §VII-A pipeline output.
    pub corpus: PolicyCorpusReport,
    /// Channels whose policies mention "HbbTV" (40 / 72% in the paper).
    pub hbbtv_mentions: usize,
    /// Policies hinting at the blue button (8).
    pub blue_button_hints: usize,
    /// Declaration rates of the GDPR data-subject rights.
    pub rights_counts: BTreeMap<GdprArticle, usize>,
    /// Policies invoking legitimate interest (10 / 18%).
    pub legitimate_interest: usize,
    /// Policies mentioning cookies together with the TDDDG (1: RTL).
    pub tdddg_mentions: usize,
    /// Policies with opt-out-where-opt-in-required contradictions
    /// (HGTV).
    pub opt_out_contradictions: Vec<String>,
    /// Policies with vague statements (Sachsen Eins).
    pub vague_policies: Vec<String>,
    /// Per-channel profiling-window findings: channel → report.
    pub window_reports: BTreeMap<String, WindowViolationReport>,
}

impl PolicyAnalysis {
    /// Extracts candidate documents from the traffic and runs the whole
    /// §VII pipeline.
    pub fn compute(dataset: &StudyDataset) -> Self {
        let documents = Self::gather_docs(dataset);
        let corpus = PolicyCorpus::run_refs(&documents, |_, d| Self::manual_override(d));
        let window_reports = Self::window_naive(dataset, &corpus);
        Self::aggregate(corpus, window_reports)
    }

    /// [`PolicyAnalysis::compute`] with the §VII-C window check answered
    /// from the shared [`CaptureFrame`]'s per-channel tracking index
    /// instead of a full capture re-scan per window-declaring policy.
    pub fn compute_from_frame(frame: &CaptureFrame<'_>) -> Self {
        let documents = Self::gather_docs(frame.dataset);
        let corpus = PolicyCorpus::run_refs(&documents, |_, d| Self::manual_override(d));
        let window_reports = Self::window_from_frame(frame, &corpus);
        Self::aggregate(corpus, window_reports)
    }

    /// The pre-optimization reference path: the linear (unmemoized,
    /// non-automaton) pipeline plus the naive per-policy capture re-scan.
    /// Kept as the differential-testing and benchmark baseline.
    pub fn compute_reference(dataset: &StudyDataset) -> Self {
        let documents = Self::gather_docs(dataset);
        let corpus = PolicyCorpus::run_refs_linear(&documents, |_, d| Self::manual_override(d));
        let window_reports = Self::window_naive(dataset, &corpus);
        Self::aggregate(corpus, window_reports)
    }

    /// §VII-A: identify policies in the recorded HTTP traffic. Any
    /// sufficiently large HTML response is a candidate document; the
    /// views borrow straight from the captures, so no body is copied.
    fn gather_docs(dataset: &StudyDataset) -> Vec<DocRef<'_>> {
        let mut documents = Vec::new();
        for run_ds in &dataset.runs {
            for c in &run_ds.captures {
                if c.response.content_type == ContentType::Html && c.response.body.len() > 300 {
                    documents.push(DocRef {
                        url: &c.request.url,
                        channel: c.channel_name.as_deref().unwrap_or("unattributed"),
                        run: &c.session,
                        raw_text: &c.response.body,
                    });
                }
            }
        }
        documents
    }

    /// The manual-correction pass (the paper rescued 18 false
    /// negatives): a human recognizes a policy heading even when the
    /// classifier stumbles over mixed content.
    pub(crate) fn manual_override(d: &DocRef<'_>) -> bool {
        d.raw_text.contains("Datenschutzerkl") || d.raw_text.contains("Privacy Policy")
    }

    /// The content-statistics tail shared by all three entry points.
    pub(crate) fn aggregate(
        corpus: PolicyCorpusReport,
        window_reports: BTreeMap<String, WindowViolationReport>,
    ) -> Self {
        let mut rights_counts: BTreeMap<GdprArticle, usize> = BTreeMap::new();
        let mut hbbtv_mentions = 0;
        let mut blue_hints = 0;
        let mut legit = 0;
        let mut tdddg = 0;
        let mut opt_out = Vec::new();
        let mut vague = Vec::new();
        for policy in &corpus.unique {
            let a = &policy.annotation;
            if a.mentions_hbbtv {
                hbbtv_mentions += 1;
            }
            if a.blue_button_hint {
                blue_hints += 1;
            }
            if a.uses_legitimate_interest() {
                legit += 1;
            }
            if a.mentions_tdddg {
                tdddg += 1;
            }
            if check_opt_out_contradiction(a) {
                opt_out.push(policy.channel.clone());
            }
            if a.vague_statements {
                vague.push(policy.channel.clone());
            }
            for r in &a.rights {
                *rights_counts.entry(*r).or_insert(0) += 1;
            }
        }

        PolicyAnalysis {
            corpus,
            hbbtv_mentions,
            blue_button_hints: blue_hints,
            rights_counts,
            legitimate_interest: legit,
            tdddg_mentions: tdddg,
            opt_out_contradictions: opt_out,
            vague_policies: vague,
            window_reports,
        }
    }

    /// §VII-C: the profiling-window check. For every policy that
    /// declares a window, collect the channel's tracking observations
    /// and test them against it.
    fn window_naive(
        dataset: &StudyDataset,
        corpus: &PolicyCorpusReport,
    ) -> BTreeMap<String, WindowViolationReport> {
        let mut window_reports = BTreeMap::new();
        for policy in &corpus.unique {
            if policy.annotation.profiling_window.is_none() {
                continue;
            }
            let mut observations = Vec::new();
            for run_ds in &dataset.runs {
                for c in &run_ds.captures {
                    if c.channel_name.as_deref() != Some(policy.channel.as_str()) {
                        continue;
                    }
                    let tracking = is_tracking_pixel(c) || is_fingerprint_script(c);
                    if !tracking {
                        continue;
                    }
                    observations.push(TrackingObservation {
                        at: c.request.timestamp,
                        tracker: c.request.url.etld1().to_string(),
                        carried_user_id: c.request.url.query_param("uid").is_some(),
                        carried_show: c.request.url.query_param("show").is_some(),
                    });
                }
            }
            let report = check_profiling_window(&policy.annotation, &observations);
            window_reports.insert(policy.channel.clone(), report);
        }
        window_reports
    }

    /// [`PolicyAnalysis::window_naive`] answered from the frame's
    /// per-channel index of pixel/fingerprint exchanges: each policy
    /// reads exactly its channel's tracking rows (already in dataset
    /// order) instead of re-scanning every capture.
    fn window_from_frame(
        frame: &CaptureFrame<'_>,
        corpus: &PolicyCorpusReport,
    ) -> BTreeMap<String, WindowViolationReport> {
        let mut window_reports = BTreeMap::new();
        for policy in &corpus.unique {
            if policy.annotation.profiling_window.is_none() {
                continue;
            }
            let indices = frame
                .tracking_by_channel_name
                .get(policy.channel.as_str())
                .map(Vec::as_slice)
                .unwrap_or(&[]);
            let observations: Vec<TrackingObservation> = indices
                .iter()
                .map(|&i| {
                    let c = frame.captures[i];
                    TrackingObservation {
                        at: c.request.timestamp,
                        tracker: frame.facts[i].class.etld1.to_string(),
                        carried_user_id: c.request.url.query_param("uid").is_some(),
                        carried_show: c.request.url.query_param("show").is_some(),
                    }
                })
                .collect();
            let report = check_profiling_window(&policy.annotation, &observations);
            window_reports.insert(policy.channel.clone(), report);
        }
        window_reports
    }

    /// Channels whose observed tracking contradicts their declared
    /// profiling window (2 of 3 in the paper).
    pub fn window_violators(&self) -> Vec<&str> {
        self.window_reports
            .iter()
            .filter(|(_, r)| r.contradicts_policy())
            .map(|(ch, _)| ch.as_str())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::RunKind;
    use crate::{Ecosystem, StudyHarness};

    fn dataset(scale: f64) -> StudyDataset {
        let eco = Ecosystem::with_scale(23, scale);
        let harness = StudyHarness::new(&eco);
        StudyDataset {
            runs: vec![
                harness.run(RunKind::General),
                harness.run(RunKind::Red),
                harness.run(RunKind::Yellow),
            ],
        }
    }

    #[test]
    fn policies_are_collected_and_deduplicated() {
        let ds = dataset(0.15);
        let p = PolicyAnalysis::compute(&ds);
        assert!(p.corpus.policies_collected > 0, "policies found in traffic");
        assert!(
            p.corpus.unique.len() < p.corpus.policies_collected,
            "dedup collapses repeated fetches ({} -> {})",
            p.corpus.policies_collected,
            p.corpus.unique.len()
        );
        assert!(p.hbbtv_mentions > 0);
    }

    #[test]
    fn rights_declarations_vary() {
        let ds = dataset(0.15);
        let p = PolicyAnalysis::compute(&ds);
        let n = p.corpus.unique.len();
        if n >= 5 {
            let art15 = p
                .rights_counts
                .get(&GdprArticle::Art15)
                .copied()
                .unwrap_or(0);
            let art20 = p
                .rights_counts
                .get(&GdprArticle::Art20)
                .copied()
                .unwrap_or(0);
            assert!(art15 >= art20, "Art15 ({art15}) >= Art20 ({art20})");
        }
    }

    #[test]
    fn super_rtl_window_check_runs_at_larger_scale() {
        let eco = Ecosystem::with_scale(23, 0.25);
        let has_super = eco.blueprints().any(|b| b.plan.name == "Super RTL");
        if !has_super {
            return;
        }
        let harness = StudyHarness::new(&eco);
        let ds = StudyDataset {
            runs: vec![harness.run(RunKind::General), harness.run(RunKind::Red)],
        };
        let p = PolicyAnalysis::compute(&ds);
        // The window-declaring policy is found…
        assert!(
            !p.window_reports.is_empty(),
            "Super RTL's window policy is in the corpus"
        );
        // …and either a daytime slot produced violations, or every
        // observation genuinely fell inside the window (slot timing is
        // stochastic at reduced scale; the full-scale reproduction in
        // EXPERIMENTS.md exercises all five runs).
        if p.window_violators().is_empty() {
            for report in p.window_reports.values() {
                assert!(report.declared_window.is_some());
                assert!(report.violations.is_empty());
            }
        }
    }
}
