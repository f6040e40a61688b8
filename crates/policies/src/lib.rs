//! Privacy-policy collection, preprocessing, and content analysis.
//!
//! §VII of the paper runs an established toolchain over the captured
//! traffic: plain-text extraction (Boilerpipe), language detection by
//! majority voting, ML-based policy/other classification, SHA-1
//! deduplication, SimHash near-duplicate grouping, BERT-based
//! data-practice identification on the MAPP taxonomy, a GDPR phrase
//! dictionary, and finally a qualitative comparison of declared against
//! observed behavior — including the headline "5 PM to 6 AM" finding.
//!
//! Every stage has a faithful counterpart here:
//!
//! | Paper stage | Module |
//! |---|---|
//! | Boilerpipe text extraction | [`extract_main_text`] |
//! | Language detection (majority voting) | [`detect_language`] |
//! | Policy/other classifiers (99+% F1) | [`PolicyClassifier`] (naive Bayes, trained at runtime on the bundled corpus) |
//! | SHA-1 dedup + SimHash grouping | [`sha1_hex`], [`SimHash`], [`PolicyCorpus`] |
//! | MAPP / GDPR annotation | [`annotate_policy`] (lowercase once, one `contains` per needle group), [`GdprArticle`], [`LegalBasis`] |
//! | Policy-vs-practice comparison | [`compliance`] |
//!
//! Policy *texts* are produced by the [`generator`] module from
//! [`PolicyProfile`]s — the simulation's stand-in for the real channels'
//! documents, rich enough that the annotation stages have real work to
//! do. The generator is also the annotator's test oracle: every clause
//! it renders must be recovered, and no clause it leaves out.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compliance;
pub mod generator;

mod annotate;
mod classifier;
mod gdpr;
mod hashing;
mod language;
mod pipeline;
mod text;

pub use annotate::{annotate_policy, DataPractice, PolicyAnnotation};
pub use classifier::PolicyClassifier;
pub use gdpr::{GdprArticle, IpAnonymization, LegalBasis};
pub use generator::{render_policy, PolicyLanguage, PolicyProfile};
pub use hashing::{hamming_distance, sha1_hex, SimHash};
pub use language::{detect_language, DetectedLanguage};
pub use pipeline::{DocRef, PolicyCorpus, PolicyCorpusReport, UniquePolicy};
pub use text::extract_main_text;
