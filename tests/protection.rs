//! The §VIII Future-Work extension, end to end: rule derivation and
//! on-device blocking.

use hbbtv_filterlists::{bundled, FilterList};
use hbbtv_net::Etld1;
use hbbtv_study::analysis::tracking::{is_fingerprint_script, is_tracking_pixel};
use hbbtv_study::analysis::{DerivedList, FirstPartyMap};
use hbbtv_study::{Ecosystem, RunKind, StudyHarness};
use std::collections::BTreeSet;

fn tracking(ds: &hbbtv_study::RunDataset) -> usize {
    ds.captures
        .iter()
        .filter(|c| is_tracking_pixel(c) || is_fingerprint_script(c))
        .count()
}

#[test]
fn derived_list_blocks_what_web_lists_miss() {
    let eco = Ecosystem::with_scale(55, 0.1);
    let harness = StudyHarness::new(&eco);

    let unprotected = harness.run(RunKind::Red);
    let baseline = tracking(&unprotected);
    assert!(baseline > 100, "tracking exists unprotected");

    let dataset = hbbtv_study::StudyDataset {
        runs: vec![unprotected],
    };
    let fp = FirstPartyMap::identify(&dataset);
    let derived = DerivedList::derive(&dataset, &fp, bundled::pihole_ref(), 2);
    assert!(!derived.rules.is_empty());

    // Web list: barely helps. Derived list: nearly eliminates tracking.
    let with_pihole = harness.run_with_blocklist(RunKind::Red, bundled::pihole_ref());
    let with_derived = harness.run_with_blocklist(RunKind::Red, &derived.to_filter_list());
    let residual_pihole = tracking(&with_pihole);
    let residual_derived = tracking(&with_derived);
    assert!(
        residual_pihole * 2 > baseline,
        "pi-hole blocks less than half ({residual_pihole}/{baseline})"
    );
    assert!(
        residual_derived * 10 < baseline,
        "derived list blocks >90% ({residual_derived}/{baseline})"
    );
}

#[test]
fn blocking_also_suppresses_tracker_cookies() {
    let eco = Ecosystem::with_scale(55, 0.08);
    let harness = StudyHarness::new(&eco);
    let unprotected = harness.run(RunKind::General);
    let dataset = hbbtv_study::StudyDataset {
        runs: vec![unprotected.clone()],
    };
    let fp = FirstPartyMap::identify(&dataset);
    let derived = DerivedList::derive(&dataset, &fp, bundled::pihole_ref(), 1);
    let protected = harness.run_with_blocklist(RunKind::General, &derived.to_filter_list());
    let tvping_cookies = |ds: &hbbtv_study::RunDataset| {
        ds.cookies
            .iter()
            .filter(|c| c.cookie.domain.as_str() == "tvping.com")
            .count()
    };
    assert!(tvping_cookies(&unprotected) > 0);
    assert_eq!(
        tvping_cookies(&protected),
        0,
        "blocked trackers set no cookies"
    );
}

/// The ground-truth first-party eTLD+1 of every final channel.
fn first_parties(eco: &Ecosystem) -> BTreeSet<Etld1> {
    eco.final_channels()
        .iter()
        .filter_map(|&id| eco.blueprint(id))
        .map(|bp| Etld1::from_host(&bp.first_party_host))
        .collect()
}

#[test]
fn third_party_rules_spare_first_party_traffic() {
    let eco = Ecosystem::with_scale(55, 0.08);
    let harness = StudyHarness::new(&eco);
    let unprotected = harness.run(RunKind::General);

    // A channel's own app traffic, per the ground truth.
    let id = unprotected.channels_measured[0];
    let fp = Etld1::from_host(&eco.blueprint(id).unwrap().first_party_host);
    let count_fp = |ds: &hbbtv_study::RunDataset| {
        ds.captures
            .iter()
            .filter(|c| c.request.url.etld1() == fp)
            .count()
    };
    assert!(
        count_fp(&unprotected) > 0,
        "channel loads from its first party"
    );

    // A `$third-party` rule over that very domain must not touch the
    // channel's own requests to it.
    let list = FilterList::parse_adblock("tp-only", &format!("||{fp}^$third-party\n"));
    let protected = harness.run_with_blocklist(RunKind::General, &list);
    assert!(
        count_fp(&protected) > 0,
        "$third-party rules must not block the first party's own traffic"
    );
}

#[test]
fn script_rules_block_scripts() {
    let eco = Ecosystem::with_scale(55, 0.08);
    let harness = StudyHarness::new(&eco);
    let unprotected = harness.run(RunKind::General);

    // Pick a third-party domain observed serving JavaScript.
    let fps = first_parties(&eco);
    let script_domain = unprotected
        .captures
        .iter()
        .filter(|c| {
            c.request.url.path().ends_with(".js")
                && !fps.contains(&c.request.url.etld1().to_owned())
        })
        .map(|c| c.request.url.etld1().to_owned())
        .next()
        .expect("some third party serves scripts");

    let list = FilterList::parse_adblock("scripts", &format!("||{script_domain}^$script\n"));
    let protected = harness.run_with_blocklist(RunKind::General, &list);
    let surviving_js = protected
        .captures
        .iter()
        .filter(|c| c.request.url.etld1() == script_domain && c.request.url.path().ends_with(".js"))
        .count();
    assert_eq!(surviving_js, 0, "$script rules must block script fetches");
}

#[test]
fn blocked_requests_never_reach_the_capture_log() {
    let eco = Ecosystem::with_scale(55, 0.08);
    let harness = StudyHarness::new(&eco);
    let dataset = hbbtv_study::StudyDataset {
        runs: vec![harness.run(RunKind::General)],
    };
    let fp = FirstPartyMap::identify(&dataset);
    let derived = DerivedList::derive(&dataset, &fp, bundled::pihole_ref(), 1);
    let protected = harness.run_with_blocklist(RunKind::General, &derived.to_filter_list());
    for rule in &derived.rules {
        assert!(
            !protected
                .captures
                .iter()
                .any(|c| c.request.url.etld1() == rule.domain),
            "{} leaked past the block list",
            rule.domain
        );
    }
}
