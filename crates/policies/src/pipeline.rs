//! The end-to-end policy pipeline of §VII-A.

use crate::annotate::{annotate_policy, PolicyAnnotation};
use crate::classifier::PolicyClassifier;
use crate::hashing::{sha1_hex, SimHash};
use crate::language::{detect_language, DetectedLanguage};
use crate::text::extract_main_text;
use hbbtv_net::Url;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};

/// SimHash Hamming threshold for "nearly identical content aside from
/// minor differences, such as channel name".
const SIMHASH_THRESHOLD: u32 = 6;

/// One document pulled from the captured traffic (an HTML response that
/// might be a policy), borrowed from the captures so that no body is
/// copied.
#[derive(Debug, Clone, Copy)]
pub struct DocRef<'a> {
    /// Where the document was served from.
    pub url: &'a Url,
    /// The channel on which it was captured.
    pub channel: &'a str,
    /// The measurement run (e.g. `"Yellow"`).
    pub run: &'a str,
    /// The raw page text.
    pub raw_text: &'a str,
}

/// One deduplicated policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UniquePolicy {
    /// Owning channel.
    pub channel: String,
    /// Detected language.
    pub language: DetectedLanguage,
    /// Main text (after boilerplate removal).
    pub text: String,
    /// SHA-1 of the main text.
    pub sha1: String,
    /// SimHash fingerprint.
    pub simhash: SimHash,
    /// Extracted data practices.
    pub annotation: PolicyAnnotation,
    /// Hosting domain (eTLD+1) of the serving URL.
    pub host_domain: String,
}

/// Aggregate output of the pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyCorpusReport {
    /// Documents examined.
    pub documents_seen: usize,
    /// Documents classified as policies (pre-dedup) per run.
    pub policies_per_run: BTreeMap<String, usize>,
    /// Total policy documents before dedup (2,656 in the paper).
    pub policies_collected: usize,
    /// Count of false negatives rescued by the manual-correction pass.
    pub manual_corrections: usize,
    /// Language distribution of collected (pre-dedup) policies.
    pub language_counts: BTreeMap<String, usize>,
    /// The deduplicated corpus (57 in the paper).
    pub unique: Vec<UniquePolicy>,
    /// Indices (into `unique`) of SimHash near-duplicate groups with at
    /// least two members (11 groups in the paper).
    pub simhash_groups: Vec<Vec<usize>>,
}

impl PolicyCorpusReport {
    /// Unique policies mentioning "HbbTV" (the 72% statistic).
    pub fn hbbtv_mention_share(&self) -> f64 {
        if self.unique.is_empty() {
            return 0.0;
        }
        let n = self
            .unique
            .iter()
            .filter(|p| p.annotation.mentions_hbbtv)
            .count();
        n as f64 / self.unique.len() as f64
    }
}

/// Per-distinct-text pipeline state: every stage is a pure function of
/// the raw text, so each stage runs at most once per text.
#[derive(Debug)]
struct Memo {
    main: String,
    classifier_policy: bool,
    language: Option<DetectedLanguage>,
    sha1: Option<String>,
    simhash: Option<SimHash>,
    annotation: Option<PolicyAnnotation>,
}

/// The §VII-A pipeline as a running fold: preprocess → classify
/// (+ manual correction) → language → dedup on every
/// [`PolicyCorpus::push`], SimHash grouping on every
/// [`PolicyCorpus::report`].
///
/// The capture corpus is heavily duplicated across the five runs (every
/// run re-fetches the same policy pages), so the per-document work —
/// text extraction, classification, language detection, hashing,
/// annotation — is memoized per *distinct* raw text. The report is
/// identical to processing each document independently: the manual
/// override still runs per rejected document (it may carry caller
/// state), and all counts, dedup decisions, and orderings are
/// unchanged. A live caller pushes each document once, as it arrives,
/// and reports whenever it likes; a report over N documents equals
/// [`PolicyCorpus::run_refs`] over those N.
#[derive(Debug)]
pub struct PolicyCorpus {
    classifier: PolicyClassifier,
    /// The reference path: no memo sharing.
    linear: bool,
    memo_of: HashMap<String, usize>,
    memos: Vec<Memo>,
    documents_seen: usize,
    policies_per_run: BTreeMap<String, usize>,
    policies_collected: usize,
    manual_corrections: usize,
    language_counts: BTreeMap<String, usize>,
    /// Dedup keys `(SHA-1, channel)`: per-channel exact duplicates
    /// across runs collapse; identical group policies on *different*
    /// channels are kept (§VII-A).
    seen: HashSet<(String, String)>,
    unique: Vec<UniquePolicy>,
}

impl PolicyCorpus {
    /// An empty corpus with the bundled classifier.
    pub fn new() -> Self {
        PolicyCorpus {
            classifier: PolicyClassifier::bundled(),
            linear: false,
            memo_of: HashMap::new(),
            memos: Vec::new(),
            documents_seen: 0,
            policies_per_run: BTreeMap::new(),
            policies_collected: 0,
            manual_corrections: 0,
            language_counts: BTreeMap::new(),
            seen: HashSet::new(),
            unique: Vec::new(),
        }
    }

    /// The unmemoized reference corpus: every document is extracted,
    /// classified, hashed and annotated on its own, with no per-text
    /// memo. That is its only difference from [`PolicyCorpus::new`].
    /// Kept to check the memo; its reports equal [`PolicyCorpus::new`]'s.
    pub fn linear() -> Self {
        PolicyCorpus {
            linear: true,
            ..Self::new()
        }
    }

    /// Pushes every document into a fresh corpus and reports it.
    ///
    /// `manual_override` plays the role of the authors' manual
    /// evaluation: it receives documents the classifier rejected (with
    /// their index) and may rescue false negatives (the paper corrected
    /// 18).
    pub fn run_refs<F>(documents: &[DocRef<'_>], manual_override: F) -> PolicyCorpusReport
    where
        F: FnMut(usize, &DocRef<'_>) -> bool,
    {
        Self::new().fold(documents, manual_override)
    }

    /// [`PolicyCorpus::run_refs`] on the unmemoized
    /// [`PolicyCorpus::linear`] reference path; the report is identical.
    pub fn run_refs_linear<F>(documents: &[DocRef<'_>], manual_override: F) -> PolicyCorpusReport
    where
        F: FnMut(usize, &DocRef<'_>) -> bool,
    {
        Self::linear().fold(documents, manual_override)
    }

    fn fold<F>(mut self, documents: &[DocRef<'_>], mut manual_override: F) -> PolicyCorpusReport
    where
        F: FnMut(usize, &DocRef<'_>) -> bool,
    {
        for (i, doc) in documents.iter().enumerate() {
            self.push(doc, |d| manual_override(i, d));
        }
        self.report()
    }

    /// Feeds one document through classification, language detection,
    /// and dedup. `manual_override` runs only if the classifier rejects
    /// the document.
    pub fn push<F>(&mut self, doc: &DocRef<'_>, manual_override: F)
    where
        F: FnOnce(&DocRef<'_>) -> bool,
    {
        self.documents_seen += 1;
        let mi = self.memo_index(doc.raw_text);
        let memo = &mut self.memos[mi];
        if memo.main.is_empty() {
            return;
        }
        if !memo.classifier_policy {
            if !manual_override(doc) {
                return;
            }
            self.manual_corrections += 1;
        }
        let language = *memo
            .language
            .get_or_insert_with(|| detect_language(&memo.main));
        *self
            .policies_per_run
            .entry(doc.run.to_string())
            .or_insert(0) += 1;
        *self
            .language_counts
            .entry(format!("{language:?}"))
            .or_insert(0) += 1;
        self.policies_collected += 1;

        let sha1 = memo
            .sha1
            .get_or_insert_with(|| sha1_hex(memo.main.as_bytes()))
            .clone();
        if !self.seen.insert((sha1.clone(), doc.channel.to_string())) {
            return;
        }
        let simhash = *memo
            .simhash
            .get_or_insert_with(|| SimHash::of_text(&memo.main));
        let annotation = memo
            .annotation
            .get_or_insert_with(|| annotate_policy(&memo.main))
            .clone();
        self.unique.push(UniquePolicy {
            channel: doc.channel.to_string(),
            language,
            sha1,
            simhash,
            annotation,
            host_domain: doc.url.etld1().to_string(),
            text: memo.main.clone(),
        });
    }

    /// The memo slot for `raw_text`, extracting and classifying the text
    /// on first sight.
    fn memo_index(&mut self, raw_text: &str) -> usize {
        if self.linear {
            // The reference path shares nothing: every document pays
            // full price, so it checks the memo as well as the stages.
            self.memos.clear();
        } else if let Some(&mi) = self.memo_of.get(raw_text) {
            return mi;
        } else {
            self.memo_of.insert(raw_text.to_string(), self.memos.len());
        }
        let main = extract_main_text(raw_text);
        let classifier_policy = !main.is_empty() && self.classifier.is_policy(&main);
        self.memos.push(Memo {
            main,
            classifier_policy,
            language: None,
            sha1: None,
            simhash: None,
            annotation: None,
        });
        self.memos.len() - 1
    }

    /// The report over every document pushed so far. SimHash grouping
    /// is redone here, over the unique policies only.
    pub fn report(&self) -> PolicyCorpusReport {
        PolicyCorpusReport {
            documents_seen: self.documents_seen,
            policies_per_run: self.policies_per_run.clone(),
            policies_collected: self.policies_collected,
            manual_corrections: self.manual_corrections,
            language_counts: self.language_counts.clone(),
            unique: self.unique.clone(),
            simhash_groups: simhash_groups(&self.unique),
        }
    }
}

impl Default for PolicyCorpus {
    fn default() -> Self {
        Self::new()
    }
}

/// Greedy SimHash grouping: each ungrouped policy collects every later
/// ungrouped near-duplicate; groups of one are dropped.
fn simhash_groups(unique: &[UniquePolicy]) -> Vec<Vec<usize>> {
    let mut grouped = vec![false; unique.len()];
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for i in 0..unique.len() {
        if grouped[i] {
            continue;
        }
        let mut members = vec![i];
        for (j, done) in grouped.iter().enumerate().skip(i + 1) {
            if !done && unique[i].simhash.near(unique[j].simhash, SIMHASH_THRESHOLD) {
                members.push(j);
            }
        }
        if members.len() > 1 {
            for &m in &members {
                grouped[m] = true;
            }
            groups.push(members);
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{render_policy, PolicyProfile};

    /// Runs the pipeline over `(channel, run, text)` documents, each
    /// served from its channel's own host.
    fn run(
        docs: &[(&str, &str, impl AsRef<str>)],
        manual_override: impl FnMut(usize, &DocRef<'_>) -> bool,
    ) -> PolicyCorpusReport {
        let urls: Vec<Url> = docs
            .iter()
            .map(|(channel, ..)| {
                format!("http://hbbtv.{}.de/datenschutz", channel.to_lowercase())
                    .parse()
                    .unwrap()
            })
            .collect();
        let refs: Vec<DocRef<'_>> = docs
            .iter()
            .zip(&urls)
            .map(|((channel, run, text), url)| DocRef {
                url,
                channel,
                run,
                raw_text: text.as_ref(),
            })
            .collect();
        PolicyCorpus::run_refs(&refs, manual_override)
    }

    #[test]
    fn dedups_per_channel_but_keeps_cross_channel_copies() {
        let shared = render_policy(&PolicyProfile::typical("Gruppe", "Gruppen Media"));
        let docs = vec![
            ("KanalA", "Red", &shared),
            ("KanalA", "Yellow", &shared), // same channel, same hash → dropped
            ("KanalB", "Red", &shared),    // different channel → kept
        ];
        let report = run(&docs, |_, _| false);
        assert_eq!(report.policies_collected, 3);
        assert_eq!(report.unique.len(), 2);
        // The two kept copies are (at least) near-duplicates.
        assert_eq!(report.simhash_groups.len(), 1);
        assert_eq!(report.simhash_groups[0].len(), 2);
    }

    #[test]
    fn non_policies_are_dropped() {
        let docs = [(
            "Teleshop",
            "General",
            "Nur heute: das grosse Pfannenset für 49,99 Euro! Rufen Sie jetzt an \
             und sichern Sie sich gratis Versand für alle Bestellungen.",
        )];
        let report = run(&docs, |_, _| false);
        assert_eq!(report.policies_collected, 0);
        assert!(report.unique.is_empty());
    }

    #[test]
    fn manual_override_rescues_false_negatives() {
        let mixed = format!(
            "{}\nGewinnspiel! Traumreise nach Teneriffa! Nur heute Pfannenset \
             Deluxe 49,99 Euro gratis Versand Bestellhotline rund um die Uhr! \
             Anruf oder SMS Teilnahme ab 18 Jahren Rechtsweg ausgeschlossen! \
             Grosse Rabatte im Teleshop heute Abend viele Angebote!",
            render_policy(&PolicyProfile::typical("Misch", "Misch Media"))
        );
        let docs = [("Misch", "Blue", mixed)];
        let strict = run(&docs, |_, _| false);
        let corrected = run(&docs, |_, d| d.channel == "Misch");
        // Whether or not the classifier already accepts the mixed text,
        // the corrected run must contain it and count corrections
        // consistently.
        assert_eq!(corrected.policies_collected, 1);
        assert_eq!(corrected.manual_corrections, 1 - strict.policies_collected);
    }

    #[test]
    fn per_run_counts_and_language() {
        let a = render_policy(&PolicyProfile::typical("Eins", "Eins Media"));
        let b = render_policy(&PolicyProfile::typical("Zwei", "Zwei Media"));
        let docs = vec![
            ("Eins", "Yellow", &a),
            ("Zwei", "Yellow", &b),
            ("Eins", "Red", &a),
        ];
        let report = run(&docs, |_, _| false);
        assert_eq!(report.policies_per_run["Yellow"], 2);
        assert_eq!(report.policies_per_run["Red"], 1);
        assert_eq!(report.language_counts["German"], 3);
        assert!(report.hbbtv_mention_share() > 0.99);
        assert_eq!(report.documents_seen, 3);
    }

    #[test]
    fn distinct_policies_do_not_group() {
        let mut p1 = PolicyProfile::typical("Eins", "Eins Media");
        p1.rights = vec![crate::gdpr::GdprArticle::Art15];
        p1.third_party_sharing = false;
        p1.coverage_analysis = false;
        let mut p2 = PolicyProfile::typical("Zwei", "Zwei Rundfunk Anstalt");
        p2.mentions_tdddg = true;
        p2.blue_button_hint = true;
        p2.opt_out_statements = true;
        p2.profiling_window = Some((17, 6));
        let docs = vec![
            ("Eins", "Red", render_policy(&p1)),
            ("Zwei", "Red", render_policy(&p2)),
        ];
        let report = run(&docs, |_, _| false);
        assert_eq!(report.unique.len(), 2);
        assert!(
            report.simhash_groups.is_empty(),
            "{:?}",
            report.simhash_groups
        );
    }

    #[test]
    fn host_domain_extracted() {
        let text = render_policy(&PolicyProfile::typical("Eins", "Eins Media"));
        let url = "http://cdn.smartclip.net/policies/eins".parse().unwrap();
        let d = DocRef {
            url: &url,
            channel: "Eins",
            run: "Red",
            raw_text: &text,
        };
        let report = PolicyCorpus::run_refs(&[d], |_, _| false);
        assert_eq!(report.unique[0].host_domain, "smartclip.net");
    }
}
