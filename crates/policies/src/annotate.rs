//! Data-practice annotation (the MAPP/BERT stage).
//!
//! The paper fine-tuned BERT models on the bilingual MAPP taxonomy to
//! detect data practices, and one author read the corpus qualitatively.
//! Our annotator recovers the same practice set from the text with the
//! bilingual dictionaries — playing both roles.

use crate::gdpr::{GdprArticle, IpAnonymization, LegalBasis};
use serde::{Deserialize, Serialize};

/// Needles signalling first-party collection.
const FIRST_PARTY_NEEDLES: &[&str] = &[
    "wir erheben",
    "wir verarbeiten",
    "we collect",
    "we process",
    "erheben und verwenden",
];

/// Needles signalling third-party sharing.
const THIRD_PARTY_NEEDLES: &[&str] = &[
    "drittanbieter",
    "dritter anbieter",
    "dienste dritter",
    "an diese dritt",
    "third party",
    "third-party",
    "third parties",
];

/// Needles naming IP addresses as collected data.
const IP_COLLECTION_NEEDLES: &[&str] = &["ip-adresse", "ip adresse", "ip address"];

/// Needles for coverage/reach-analysis cookies.
const COVERAGE_NEEDLES: &[&str] = &[
    "reichweitenmessung",
    "audience measurement",
    "coverage analysis",
];

/// Needles for profiling / ad personalization.
const PROFILING_NEEDLES: &[&str] = &[
    "profilbildung",
    "personalisierung von werbung",
    "profiling",
    "ad personalization",
];

/// Needles declaring full IP anonymization.
const IP_FULL_NEEDLES: &[&str] = &[
    "vollständig anonymisiert",
    "fully anonymized",
    "fully anonymised",
];

/// Needles declaring truncated IP anonymization.
const IP_TRUNCATED_NEEDLES: &[&str] = &[
    "gekürzt",
    "letzten drei ziffern",
    "truncated",
    "last three digits",
];

/// Needles pointing viewers at the blue remote button.
const BLUE_BUTTON_NEEDLES: &[&str] = &["blaue taste", "blue button"];

/// Needles tying cookie use to the TDDDG/TTDSG.
const TDDDG_NEEDLES: &[&str] = &["tdddg", "ttdsg"];

/// Needles for opt-out statements.
const OPT_OUT_NEEDLES: &[&str] = &["opt-out", "opt out"];

/// Needles for vague hedging statements.
const VAGUE_NEEDLES: &[&str] = &[
    "gegebenenfalls",
    "soweit dies erforderlich erscheint",
    "where appropriate",
];

/// Needles declaring indefinite retention.
const INDEFINITE_NEEDLES: &[&str] = &["unbestimmte zeit", "indefinite", "unbegrenzte dauer"];

/// MAPP-style data practices the analysis looks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataPractice {
    /// First-party collection/use of personal data (all policies).
    FirstPartyCollection,
    /// Third-party collection/sharing (52% of German policies).
    ThirdPartySharing,
    /// IP addresses named as collected data.
    IpAddressCollection,
    /// Cookies used for coverage/reach analysis.
    CoverageAnalysisCookies,
    /// Ad personalization / profiling.
    Profiling,
}

/// Everything the annotator extracts from one policy text.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyAnnotation {
    /// Detected practices.
    pub practices: Vec<DataPractice>,
    /// Mentions the term "HbbTV".
    pub mentions_hbbtv: bool,
    /// Points viewers to the blue remote button for settings.
    pub blue_button_hint: bool,
    /// Detected data-subject rights.
    pub rights: Vec<GdprArticle>,
    /// Detected legal bases.
    pub legal_bases: Vec<LegalBasis>,
    /// Declared IP anonymization.
    pub ip_anonymization: IpAnonymization,
    /// Declared profiling window, if the policy limits profiling to a
    /// daily time range (from-hour, to-hour).
    pub profiling_window: Option<(u8, u8)>,
    /// Cookie use is tied to the German TDDDG.
    pub mentions_tdddg: bool,
    /// Contains opt-out statements.
    pub opt_out_statements: bool,
    /// Contains vague statements (vital interests / legal obligation
    /// hedges).
    pub vague_statements: bool,
    /// Mentions a dedicated HbbTV contact e-mail.
    pub hbbtv_email: bool,
    /// Declares indefinite retention.
    pub indefinite_retention: bool,
}

impl PolicyAnnotation {
    /// Whether the policy invokes legitimate interest (the §VII-C gray
    /// area observed in 10 policies).
    pub fn uses_legitimate_interest(&self) -> bool {
        self.legal_bases.contains(&LegalBasis::LegitimateInterest)
    }
}

/// Annotates a policy text.
///
/// Lowercases the text once, then checks each needle group with
/// `contains`. The corpus annotates each unique policy text only once,
/// so a study annotates a few dozen texts. The round-trip
/// proptests check it against [`render_policy`](crate::render_policy),
/// which shares no code with it.
///
/// # Examples
///
/// ```
/// use hbbtv_policies::{annotate_policy, render_policy, PolicyProfile};
/// let text = render_policy(&PolicyProfile::typical("ZDF", "ZDF Anstalt"));
/// let ann = annotate_policy(&text);
/// assert!(ann.mentions_hbbtv);
/// assert!(ann.rights.contains(&hbbtv_policies::GdprArticle::Art15));
/// ```
pub fn annotate_policy(text: &str) -> PolicyAnnotation {
    let lower = text.to_lowercase();
    let mut practices = Vec::new();
    if contains_any(&lower, FIRST_PARTY_NEEDLES) {
        practices.push(DataPractice::FirstPartyCollection);
    }
    if contains_any(&lower, THIRD_PARTY_NEEDLES) {
        practices.push(DataPractice::ThirdPartySharing);
    }
    if contains_any(&lower, IP_COLLECTION_NEEDLES) {
        practices.push(DataPractice::IpAddressCollection);
    }
    if contains_any(&lower, COVERAGE_NEEDLES) {
        practices.push(DataPractice::CoverageAnalysisCookies);
    }
    if contains_any(&lower, PROFILING_NEEDLES) {
        practices.push(DataPractice::Profiling);
    }

    let ip_anonymization = if contains_any(&lower, IP_FULL_NEEDLES) {
        IpAnonymization::Full
    } else if contains_any(&lower, IP_TRUNCATED_NEEDLES) {
        IpAnonymization::Truncated
    } else {
        IpAnonymization::None
    };

    PolicyAnnotation {
        practices,
        mentions_hbbtv: lower.contains("hbbtv"),
        blue_button_hint: contains_any(&lower, BLUE_BUTTON_NEEDLES),
        rights: GdprArticle::RIGHTS
            .into_iter()
            .filter(|a| a.mentioned_in(&lower))
            .collect(),
        legal_bases: LegalBasis::ALL
            .into_iter()
            .filter(|b| b.mentioned_in(&lower))
            .collect(),
        ip_anonymization,
        profiling_window: parse_profiling_window(&lower),
        mentions_tdddg: contains_any(&lower, TDDDG_NEEDLES),
        opt_out_statements: contains_any(&lower, OPT_OUT_NEEDLES),
        vague_statements: contains_any(&lower, VAGUE_NEEDLES),
        hbbtv_email: lower.contains("hbbtv-datenschutz@"),
        indefinite_retention: contains_any(&lower, INDEFINITE_NEEDLES),
    }
}

fn contains_any(haystack: &str, needles: &[&str]) -> bool {
    needles.iter().any(|n| haystack.contains(n))
}

/// Parses "von 17 Uhr bis 6 Uhr" / "between 17:00 and 6:00" windows.
fn parse_profiling_window(lower: &str) -> Option<(u8, u8)> {
    // German: "von {from} uhr bis {to} uhr".
    if let Some(pos) = lower.find(" uhr bis ") {
        let before = &lower[..pos];
        let from = before
            .rsplit(|c: char| !c.is_ascii_digit())
            .next()
            .and_then(|d| d.parse::<u8>().ok());
        let after = &lower[pos + " uhr bis ".len()..];
        let to = after
            .split(|c: char| !c.is_ascii_digit())
            .find(|s| !s.is_empty())
            .and_then(|d| d.parse::<u8>().ok());
        if let (Some(f), Some(t)) = (from, to) {
            if f < 24 && t < 24 {
                return Some((f, t));
            }
        }
    }
    // English: "between {from}:00 and {to}:00".
    if let Some(pos) = lower.find("between ") {
        let rest = &lower[pos + "between ".len()..];
        if let Some((from_part, tail)) = rest.split_once(":00 and ") {
            let from = from_part
                .rsplit(|c: char| !c.is_ascii_digit())
                .next()
                .and_then(|d| d.parse::<u8>().ok());
            let to = tail
                .split(|c: char| !c.is_ascii_digit())
                .find(|s| !s.is_empty())
                .and_then(|d| d.parse::<u8>().ok());
            if let (Some(f), Some(t)) = (from, to) {
                if f < 24 && t < 24 {
                    return Some((f, t));
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{render_policy, PolicyLanguage, PolicyProfile};

    #[test]
    fn round_trip_typical_profile() {
        let profile = PolicyProfile::typical("ZDF", "ZDF Anstalt");
        let ann = annotate_policy(&render_policy(&profile));
        assert!(ann.practices.contains(&DataPractice::FirstPartyCollection));
        assert!(ann.practices.contains(&DataPractice::ThirdPartySharing));
        assert!(ann.practices.contains(&DataPractice::IpAddressCollection));
        assert!(ann
            .practices
            .contains(&DataPractice::CoverageAnalysisCookies));
        assert_eq!(ann.rights, profile.rights);
        assert_eq!(ann.legal_bases, profile.legal_bases);
        assert_eq!(ann.ip_anonymization, IpAnonymization::Truncated);
        assert!(ann.mentions_hbbtv);
        assert!(!ann.blue_button_hint);
        assert_eq!(ann.profiling_window, None);
    }

    #[test]
    fn round_trip_profiling_window() {
        let mut p = PolicyProfile::typical("Super RTL", "RTL");
        p.profiling_window = Some((17, 6));
        let ann = annotate_policy(&render_policy(&p));
        assert_eq!(ann.profiling_window, Some((17, 6)));
        assert!(ann.practices.contains(&DataPractice::Profiling));
    }

    #[test]
    fn round_trip_english_window() {
        let mut p = PolicyProfile::typical("News", "Corp");
        p.language = PolicyLanguage::English;
        p.profiling_window = Some((17, 6));
        let ann = annotate_policy(&render_policy(&p));
        assert_eq!(ann.profiling_window, Some((17, 6)));
    }

    #[test]
    fn round_trip_special_clauses() {
        let mut p = PolicyProfile::typical("RTL", "RTL Deutschland");
        p.mentions_tdddg = true;
        p.blue_button_hint = true;
        p.opt_out_statements = true;
        p.hbbtv_email = true;
        p.vague_statements = true;
        p.indefinite_retention = true;
        p.legal_bases = vec![LegalBasis::LegitimateInterest];
        let ann = annotate_policy(&render_policy(&p));
        assert!(ann.mentions_tdddg);
        assert!(ann.blue_button_hint);
        assert!(ann.opt_out_statements);
        assert!(ann.hbbtv_email);
        assert!(ann.vague_statements);
        assert!(ann.indefinite_retention);
        assert!(ann.uses_legitimate_interest());
    }

    /// What the annotator reports for a text with no needle in it.
    fn nothing_found() -> PolicyAnnotation {
        PolicyAnnotation {
            practices: Vec::new(),
            mentions_hbbtv: false,
            blue_button_hint: false,
            rights: Vec::new(),
            legal_bases: Vec::new(),
            ip_anonymization: IpAnonymization::None,
            profiling_window: None,
            mentions_tdddg: false,
            opt_out_statements: false,
            vague_statements: false,
            hbbtv_email: false,
            indefinite_retention: false,
        }
    }

    #[test]
    fn finds_needles_case_insensitively() {
        let ann = annotate_policy("Wir ERHEBEN Ihre IP-Adresse über HbbTV.");
        assert_eq!(
            ann.practices,
            vec![
                DataPractice::FirstPartyCollection,
                DataPractice::IpAddressCollection
            ]
        );
        assert!(ann.mentions_hbbtv);
    }

    #[test]
    fn umlaut_needles_fold_uppercase_variants() {
        // "gekürzt" (IP truncation) with an uppercase Ü.
        let ann = annotate_policy("Die IP wird GEKÜRZT gespeichert.");
        assert_eq!(ann.ip_anonymization, IpAnonymization::Truncated);
    }

    #[test]
    fn overlapping_needles_all_report() {
        // "hbbtv-datenschutz@" contains "hbbtv"; both fields must fire.
        let ann = annotate_policy("Kontakt: hbbtv-datenschutz@sender.de");
        assert!(ann.mentions_hbbtv);
        assert!(ann.hbbtv_email);
    }

    /// Every needle of every group, uppercased inside unrelated words,
    /// turns on its field.
    #[test]
    fn every_needle_group_fires_its_field() {
        type Fired = fn(&PolicyAnnotation) -> bool;
        let groups: [(&[&str], Fired); 14] = [
            (FIRST_PARTY_NEEDLES, |a| {
                a.practices.contains(&DataPractice::FirstPartyCollection)
            }),
            (THIRD_PARTY_NEEDLES, |a| {
                a.practices.contains(&DataPractice::ThirdPartySharing)
            }),
            (IP_COLLECTION_NEEDLES, |a| {
                a.practices.contains(&DataPractice::IpAddressCollection)
            }),
            (COVERAGE_NEEDLES, |a| {
                a.practices.contains(&DataPractice::CoverageAnalysisCookies)
            }),
            (PROFILING_NEEDLES, |a| {
                a.practices.contains(&DataPractice::Profiling)
            }),
            (IP_FULL_NEEDLES, |a| {
                a.ip_anonymization == IpAnonymization::Full
            }),
            (IP_TRUNCATED_NEEDLES, |a| {
                a.ip_anonymization == IpAnonymization::Truncated
            }),
            (&["hbbtv"], |a| a.mentions_hbbtv),
            (BLUE_BUTTON_NEEDLES, |a| a.blue_button_hint),
            (TDDDG_NEEDLES, |a| a.mentions_tdddg),
            (OPT_OUT_NEEDLES, |a| a.opt_out_statements),
            (VAGUE_NEEDLES, |a| a.vague_statements),
            (&["hbbtv-datenschutz@"], |a| a.hbbtv_email),
            (INDEFINITE_NEEDLES, |a| a.indefinite_retention),
        ];
        for (needles, fired) in groups {
            for needle in needles {
                let text = format!("Vorab {} danach.", needle.to_uppercase());
                assert!(fired(&annotate_policy(&text)), "{text:?}");
            }
        }
    }

    #[test]
    fn full_anonymization_outranks_truncation() {
        let ann = annotate_policy("Fully anonymized, otherwise truncated.");
        assert_eq!(ann.ip_anonymization, IpAnonymization::Full);
    }

    #[test]
    fn every_right_and_basis_phrase_is_found_alone() {
        for art in GdprArticle::RIGHTS {
            for phrase in art.german_phrases().iter().chain(art.english_phrases()) {
                let ann = annotate_policy(&format!("Vorab {} danach.", phrase.to_uppercase()));
                assert_eq!(ann.rights, vec![art], "{phrase:?}");
            }
        }
        for basis in LegalBasis::ALL {
            for phrase in basis.german_phrases().iter().chain(basis.english_phrases()) {
                let ann = annotate_policy(&format!("Vorab {} danach.", phrase.to_uppercase()));
                assert_eq!(ann.legal_bases, vec![basis], "{phrase:?}");
            }
        }
    }

    #[test]
    fn window_markers_parse_in_both_languages_and_any_case() {
        let german = annotate_policy("Profilbildung VON 17 UHR BIS 6 UHR.");
        assert_eq!(german.profiling_window, Some((17, 6)));
        let english = annotate_policy("Profiling BETWEEN 23:00 AND 5:00 only.");
        assert_eq!(english.profiling_window, Some((23, 5)));
        // A marker without hours declares no window.
        assert_eq!(annotate_policy("14 Uhr bis morgen").profiling_window, None);
    }

    #[test]
    fn empty_and_unrelated_text_match_nothing() {
        assert_eq!(annotate_policy(""), nothing_found());
        assert_eq!(
            annotate_policy("Pfannenset nur 49 Euro, rufen Sie jetzt an!"),
            nothing_found()
        );
    }

    #[test]
    fn no_false_positives_on_unrelated_text() {
        let ann = annotate_policy(
            "Willkommen in unserem Teleshop. Heute im Angebot: Pfannenset, \
             nur 49 Euro. Rufen Sie jetzt an!",
        );
        assert_eq!(ann, nothing_found());
    }

    #[test]
    fn window_parser_rejects_nonsense() {
        assert_eq!(parse_profiling_window("von 99 uhr bis 6 uhr"), None);
        assert_eq!(parse_profiling_window("uhr bis"), None);
        assert_eq!(parse_profiling_window(""), None);
    }

    #[test]
    fn minimal_rights_subset_detected_exactly() {
        let mut p = PolicyProfile::typical("X", "Y");
        p.rights = vec![GdprArticle::Art20, GdprArticle::Art21];
        let ann = annotate_policy(&render_policy(&p));
        assert_eq!(ann.rights, vec![GdprArticle::Art20, GdprArticle::Art21]);
    }
}
