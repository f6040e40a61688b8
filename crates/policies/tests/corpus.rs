//! The running [`PolicyCorpus`] against the batch pipeline: documents
//! pushed one at a time must report exactly what a fresh batch run over
//! the same prefix reports, and the memoized corpus must end where the
//! linear reference path does.

use hbbtv_net::ContentType;
use hbbtv_policies::{render_policy, DocRef, PolicyCorpus, PolicyProfile};
use hbbtv_study::{Ecosystem, RunKind, StudyHarness};

/// The manual-correction stand-in: rescues the mixed-content fixture
/// and any document with a policy heading.
fn manual_override(d: &DocRef<'_>) -> bool {
    d.channel == "Misch" || d.raw_text.contains("Datenschutzerkl")
}

/// Pushes `docs` one at a time, checking the running report against
/// [`PolicyCorpus::run_refs`] over every prefix and against
/// [`PolicyCorpus::run_refs_linear`] at the end.
fn assert_prefix_parity(docs: &[DocRef<'_>]) {
    let mut corpus = PolicyCorpus::new();
    for (n, doc) in docs.iter().enumerate() {
        corpus.push(doc, manual_override);
        let batch = PolicyCorpus::run_refs(&docs[..=n], |_, d| manual_override(d));
        assert_eq!(corpus.report(), batch, "after {} documents", n + 1);
    }
    let linear = PolicyCorpus::run_refs_linear(docs, |_, d| manual_override(d));
    assert_eq!(
        corpus.report(),
        linear,
        "running corpus != linear reference"
    );
}

#[test]
fn fixture_pushes_match_the_batch_pipeline_at_every_prefix() {
    let shared = render_policy(&PolicyProfile::typical("Gruppe", "Gruppen Media"));
    let own = render_policy(&PolicyProfile::typical("Eins", "Eins Media"));
    let mixed = format!(
        "{}\nGewinnspiel! Traumreise nach Teneriffa! Nur heute Pfannenset \
         Deluxe 49,99 Euro gratis Versand Bestellhotline rund um die Uhr! \
         Anruf oder SMS Teilnahme ab 18 Jahren Rechtsweg ausgeschlossen!",
        render_policy(&PolicyProfile::typical("Misch", "Misch Media"))
    );
    let shop = "Nur heute: das grosse Pfannenset für 49,99 Euro! Rufen Sie jetzt \
                an und sichern Sie sich gratis Versand für alle Bestellungen.";
    let urls: Vec<hbbtv_net::Url> = ["kanala", "kanalb", "eins", "misch", "teleshop"]
        .iter()
        .map(|c| format!("http://hbbtv.{c}.de/datenschutz").parse().unwrap())
        .collect();
    // (url, channel, run, text)
    let rows: [(usize, &str, &str, &str); 9] = [
        (0, "KanalA", "Red", &shared),
        (4, "Teleshop", "Red", shop),
        (0, "KanalA", "Yellow", &shared), // same channel, same hash: dropped
        (1, "KanalB", "Red", &shared),    // cross-channel copy: kept
        (3, "Misch", "Blue", &mixed),     // rescued by the override
        (2, "Eins", "Blue", &own),
        (4, "Teleshop", "Blue", shop),
        (2, "Eins", "Green", &own),
        (1, "KanalB", "Green", &shared),
    ];
    let docs: Vec<DocRef<'_>> = rows
        .iter()
        .map(|&(u, channel, run, raw_text)| DocRef {
            url: &urls[u],
            channel,
            run,
            raw_text,
        })
        .collect();
    assert_prefix_parity(&docs);
    let report = PolicyCorpus::run_refs(&docs, |_, d| manual_override(d));
    assert_eq!(report.unique.len(), 4, "KanalA, KanalB, Misch, Eins");
    assert_eq!(report.policies_collected, 7);
}

#[test]
fn study_documents_match_the_batch_pipeline_at_every_prefix() {
    // Two runs re-fetch the same pages, so the corpus sees cross-run
    // duplicates; each prefix check re-runs the batch pipeline, so more
    // runs would only make the test slower.
    let eco = Ecosystem::with_scale(11, 0.05);
    let harness = StudyHarness::new(&eco);
    let runs = [harness.run(RunKind::General), harness.run(RunKind::Red)];
    let docs: Vec<DocRef<'_>> = runs
        .iter()
        .flat_map(|r| &r.captures)
        .filter(|c| c.response.content_type == ContentType::Html && c.response.body.len() > 300)
        .map(|c| DocRef {
            url: &c.request.url,
            channel: c.channel_name.as_deref().unwrap_or("unattributed"),
            run: &c.session,
            raw_text: &c.response.body,
        })
        .collect();
    assert!(
        docs.len() > 50,
        "the study collected {} documents",
        docs.len()
    );
    assert_prefix_parity(&docs);
}
