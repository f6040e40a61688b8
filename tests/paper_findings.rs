//! Integration checks for the paper's qualitative findings — the
//! statements §V–§VII make that must hold in any faithful reproduction,
//! independent of exact magnitudes.

use hbbtv_study::report::StudyReport;
use hbbtv_study::{Ecosystem, RunKind, StudyHarness};
use std::sync::OnceLock;

/// The scale-0.15 study every test reads, built once per test binary.
fn report() -> &'static (Ecosystem, hbbtv_study::StudyDataset, StudyReport) {
    static STUDY: OnceLock<(Ecosystem, hbbtv_study::StudyDataset, StudyReport)> = OnceLock::new();
    STUDY.get_or_init(|| {
        let eco = Ecosystem::with_scale(99, 0.15);
        let harness = StudyHarness::new(&eco);
        let dataset = hbbtv_study::StudyDataset {
            runs: vec![
                harness.run(RunKind::General),
                harness.run(RunKind::Red),
                harness.run(RunKind::Blue),
                harness.run(RunKind::Yellow),
            ],
        };
        let report = StudyReport::compute(&eco, &dataset);
        (eco, dataset, report)
    })
}

#[test]
fn finding_tracking_pixels_dominate_traffic() {
    // §V-D1: a majority of HTTP(S) traffic is tracking pixels.
    let (_e, _d, r) = report();
    assert!(
        r.tracking.pixel_traffic_share > 50.0,
        "pixel share {}",
        r.tracking.pixel_traffic_share
    );
}

#[test]
fn finding_first_parties_host_fingerprinting() {
    // §V-D2: most fingerprinting requests come from first parties.
    let (_e, _d, r) = report();
    if r.tracking.fp_providers_first_party > 0 {
        assert!(r.tracking.fp_first_party_request_share > 50.0);
    }
}

#[test]
fn finding_cookie_syncing_exists_but_is_rare() {
    // §V-C3: syncing exists, involves two domains, and only in the
    // button runs.
    let (_e, _d, r) = report();
    assert!(!r.syncing.events.is_empty());
    assert_eq!(r.syncing.syncing_domains.len(), 2);
    assert!(!r.syncing.runs.contains(&RunKind::General));
    assert!(
        r.syncing.synced_values.len() * 10 < r.syncing.potential_ids,
        "syncing is a small fraction of potential IDs"
    );
}

#[test]
fn finding_children_are_tracked_like_everyone() {
    // §V-D5: children's channels carry trackers, and their intensity is
    // statistically indistinguishable from other channels.
    let (_e, _d, r) = report();
    assert!(!r.children.channels.is_empty());
    assert!(r.children.tracking_requests > 0);
    assert!(r.children.indistinguishable());
}

#[test]
fn finding_notices_nudge_and_policies_diverge() {
    // §VI + §VII: every notice defaults to Accept; at least one channel's
    // declared practice contradicts observation (HGTV's opt-out, or a
    // profiling-window violation when slots landed in daytime).
    let (_e, _d, r) = report();
    assert!(r.consent.all_notices_nudge_to_accept());
    let has_contradiction =
        !r.policies.opt_out_contradictions.is_empty() || !r.policies.window_violators().is_empty();
    assert!(has_contradiction, "some policy contradicts practice");
}

#[test]
fn finding_ecosystem_is_hub_centric() {
    // §V-E: a single well-connected component with broadcaster hubs.
    let (_e, _d, r) = report();
    assert_eq!(r.graph.components, 1);
    let apl = r.graph.average_path_length.unwrap();
    assert!((2.0..6.0).contains(&apl), "APL {apl}");
    assert!(
        r.graph.average_neighbor_degree.unwrap() > r.graph.degree_stats.mean * 2.0,
        "hub-and-spoke shape"
    );
}

#[test]
fn finding_first_party_guard_rejects_signal_encoded_trackers() {
    // §V-A: channels that encode tracker URLs in the AIT must not get a
    // tracker as first party.
    let (eco, dataset, r) = report();
    let encoded: Vec<_> = eco
        .blueprints()
        .filter(|b| b.plan.knobs.ait_encodes_tracker)
        .map(|b| b.descriptor.id)
        .collect();
    assert!(!encoded.is_empty(), "the cohort exists at this scale");
    let measured: std::collections::BTreeSet<_> = dataset
        .runs
        .iter()
        .flat_map(|run| run.channels_measured.iter().copied())
        .collect();
    for ch in encoded {
        if !measured.contains(&ch) {
            continue;
        }
        if let Some(fp) = r.first_parties.first_party(ch) {
            assert_ne!(fp.as_str(), "google-analytics.com", "channel {ch}");
        }
    }
}
