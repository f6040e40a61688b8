//! Property-based tests: the generator → annotator round trip and
//! hashing invariants.

use hbbtv_policies::{
    annotate_policy, detect_language, hamming_distance, render_policy, sha1_hex, DataPractice,
    DetectedLanguage, GdprArticle, IpAnonymization, LegalBasis, PolicyLanguage, PolicyProfile,
    SimHash,
};
use proptest::prelude::*;

fn arb_rights() -> impl Strategy<Value = Vec<GdprArticle>> {
    proptest::sample::subsequence(GdprArticle::RIGHTS.to_vec(), 0..=7)
}

fn arb_bases() -> impl Strategy<Value = Vec<LegalBasis>> {
    proptest::sample::subsequence(LegalBasis::ALL.to_vec(), 1..=5)
}

prop_compose! {
    fn arb_profile()(
        rights in arb_rights(),
        bases in arb_bases(),
        hbbtv in any::<bool>(),
        blue in any::<bool>(),
        third in any::<bool>(),
        tdddg in any::<bool>(),
        optout in any::<bool>(),
        vague in any::<bool>(),
        email in any::<bool>(),
        personalization in any::<bool>(),
        coverage in any::<bool>(),
        indefinite in any::<bool>(),
        window in prop::option::of((0u8..24, 0u8..24)),
        anon in prop_oneof![
            Just(IpAnonymization::Full),
            Just(IpAnonymization::Truncated),
            Just(IpAnonymization::None)
        ],
        language in prop_oneof![
            Just(PolicyLanguage::German),
            Just(PolicyLanguage::English),
            Just(PolicyLanguage::Bilingual)
        ],
    ) -> PolicyProfile {
        let mut p = PolicyProfile::typical("Testkanal", "Test Media GmbH");
        p.rights = rights;
        p.legal_bases = bases;
        p.mentions_hbbtv = hbbtv;
        p.blue_button_hint = blue;
        p.third_party_sharing = third;
        p.mentions_tdddg = tdddg;
        p.opt_out_statements = optout;
        p.vague_statements = vague;
        p.hbbtv_email = email;
        p.personalization = personalization;
        p.coverage_analysis = coverage;
        p.indefinite_retention = indefinite;
        p.profiling_window = window.filter(|(f, t)| f != t);
        p.ip_anonymization = anon;
        p.language = language;
        p
    }
}

/// Every clause the renderer emits is recovered, and every clause it
/// leaves out stays undetected. The German text (German and bilingual
/// policies) renders every clause; the English text renders HbbTV, IP
/// anonymization, third-party sharing, coverage analysis and the
/// profiling window only.
fn assert_flags_round_trip(p: &PolicyProfile) {
    let ann = annotate_policy(&render_policy(p));
    let german = p.language != PolicyLanguage::English;
    // A dedicated HbbTV e-mail address necessarily mentions HbbTV.
    let expect_hbbtv = p.mentions_hbbtv || (p.hbbtv_email && german);
    assert_eq!(ann.mentions_hbbtv, expect_hbbtv, "{p:?}");
    assert_eq!(ann.blue_button_hint, german && p.blue_button_hint, "{p:?}");
    assert_eq!(ann.mentions_tdddg, german && p.mentions_tdddg, "{p:?}");
    assert_eq!(
        ann.opt_out_statements,
        german && p.opt_out_statements,
        "{p:?}"
    );
    assert_eq!(ann.hbbtv_email, german && p.hbbtv_email, "{p:?}");
    assert_eq!(ann.vague_statements, german && p.vague_statements, "{p:?}");
    assert_eq!(
        ann.indefinite_retention,
        german && p.indefinite_retention,
        "{p:?}"
    );
    assert_eq!(ann.profiling_window, p.profiling_window, "{p:?}");
    assert_eq!(ann.ip_anonymization, p.ip_anonymization, "{p:?}");

    // Both languages always declare first-party collection of the
    // IP address.
    let mut practices = vec![DataPractice::FirstPartyCollection];
    if p.third_party_sharing {
        practices.push(DataPractice::ThirdPartySharing);
    }
    practices.push(DataPractice::IpAddressCollection);
    // The German opt-out clause objects to "Reichweitenmessung", so
    // it declares coverage analysis too.
    if p.coverage_analysis || (german && p.opt_out_statements) {
        practices.push(DataPractice::CoverageAnalysisCookies);
    }
    // Only the window clause declares profiling. `personalization`
    // cannot round-trip: its clause ("Das Programm wird anhand des
    // individuellen Nutzungsverhaltens … angepasst") adapts the
    // programme, names no profiling needle, and the annotation has
    // no field for it. Asserting on the window alone checks that it
    // does not turn `Profiling` on.
    if p.profiling_window.is_some() {
        practices.push(DataPractice::Profiling);
    }
    assert_eq!(ann.practices, practices, "{p:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The annotator recovers exactly the rights the generator emitted.
    #[test]
    fn rights_round_trip(profile in arb_profile()) {
        let ann = annotate_policy(&render_policy(&profile));
        prop_assert_eq!(&ann.rights, &profile.rights);
    }

    /// Every clause flag round-trips (see `assert_flags_round_trip`).
    #[test]
    fn flags_round_trip(profile in arb_profile()) {
        assert_flags_round_trip(&profile);
    }

    /// Every declared legal basis is recovered (the annotator may find
    /// extra *mentions* in boilerplate, but never misses one).
    #[test]
    fn legal_bases_are_recovered(profile in arb_profile()) {
        let ann = annotate_policy(&render_policy(&profile));
        for b in &profile.legal_bases {
            prop_assert!(ann.legal_bases.contains(b), "missing {:?}", b);
        }
    }

    /// Language detection matches the rendered language.
    #[test]
    fn language_detection_matches(profile in arb_profile()) {
        let lang = detect_language(&render_policy(&profile));
        match profile.language {
            PolicyLanguage::German => prop_assert_eq!(lang, DetectedLanguage::German),
            PolicyLanguage::English => prop_assert_eq!(lang, DetectedLanguage::English),
            PolicyLanguage::Bilingual => prop_assert_eq!(lang, DetectedLanguage::Bilingual),
        }
    }

    /// SHA-1 is deterministic and content-sensitive.
    #[test]
    fn sha1_determinism(a in "[ -~]{0,200}", b in "[ -~]{0,200}") {
        prop_assert_eq!(sha1_hex(a.as_bytes()) == sha1_hex(b.as_bytes()), a == b);
        prop_assert_eq!(sha1_hex(a.as_bytes()).len(), 40);
    }

    /// Hamming distance is a metric on u64 fingerprints.
    #[test]
    fn hamming_is_a_metric(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        prop_assert_eq!(hamming_distance(a, a), 0);
        prop_assert_eq!(hamming_distance(a, b), hamming_distance(b, a));
        prop_assert!(hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c));
    }

    /// SimHash is deterministic and insensitive to leading/trailing
    /// whitespace.
    #[test]
    fn simhash_stability(text in "[a-zäöü ]{0,300}") {
        let a = SimHash::of_text(&text);
        let b = SimHash::of_text(&format!("  {text}  "));
        prop_assert_eq!(a, b);
    }
}

/// The round trip over every combination of the ten clause flags in
/// each language, with the window, IP anonymization, rights and legal
/// bases cycling alongside, so every combination is checked on every
/// run and not only the profiles a proptest run draws.
#[test]
fn every_clause_combination_round_trips() {
    let windows = [None, Some((17, 6)), Some((0, 23)), Some((9, 10))];
    let anonymizations = [
        IpAnonymization::Full,
        IpAnonymization::Truncated,
        IpAnonymization::None,
    ];
    let languages = [
        PolicyLanguage::German,
        PolicyLanguage::English,
        PolicyLanguage::Bilingual,
    ];
    for language in languages {
        for i in 0usize..1 << 10 {
            let flag = |k: usize| i >> k & 1 == 1;
            let mut p = PolicyProfile::typical("Testkanal", "Test Media GmbH");
            p.language = language;
            p.mentions_hbbtv = flag(0);
            p.blue_button_hint = flag(1);
            p.third_party_sharing = flag(2);
            p.mentions_tdddg = flag(3);
            p.opt_out_statements = flag(4);
            p.vague_statements = flag(5);
            p.hbbtv_email = flag(6);
            p.personalization = flag(7);
            p.coverage_analysis = flag(8);
            p.indefinite_retention = flag(9);
            p.profiling_window = windows[i % windows.len()];
            p.ip_anonymization = anonymizations[i % anonymizations.len()];
            // An odd multiplier walks every subset: all 128 of the seven
            // rights, and the 31 non-empty sets of the five bases.
            let rights_mask = i * 37 % 128;
            p.rights = GdprArticle::RIGHTS
                .into_iter()
                .enumerate()
                .filter(|&(k, _)| rights_mask >> k & 1 == 1)
                .map(|(_, a)| a)
                .collect();
            let bases_mask = 1 + i * 11 % 31;
            p.legal_bases = LegalBasis::ALL
                .into_iter()
                .enumerate()
                .filter(|&(k, _)| bases_mask >> k & 1 == 1)
                .map(|(_, b)| b)
                .collect();

            assert_flags_round_trip(&p);
            let ann = annotate_policy(&render_policy(&p));
            assert_eq!(ann.rights, p.rights, "{p:?}");
            for b in &p.legal_bases {
                assert!(ann.legal_bases.contains(b), "missing {b:?} in {p:?}");
            }
        }
    }
}
