//! All analyses of §V–§VII, computed from captured traffic.
//!
//! Nothing here consults the ecosystem's ground truth (beyond what the
//! physical study also knew, e.g. channel metadata): first parties,
//! trackers, cookies, syncing, consent, and policy findings are all
//! re-derived from the [`StudyDataset`](crate::StudyDataset), exactly as
//! the paper derived them from mitmproxy captures.

pub mod category;
pub mod classify;
pub mod consent_analysis;
pub mod cookies;
pub mod ecosystem_graph;
pub mod first_party;
pub mod frame_store;
pub mod incremental;
pub mod leakage;
pub mod parallel;
pub mod policy_analysis;
pub mod rule_derivation;
pub mod significance;
pub mod syncing;
pub mod tracking;

pub use category::{CategoryAnalysis, ChildrenCaseStudy};
pub use classify::ExchangeClass;
pub use consent_analysis::ConsentAnalysis;
pub use cookies::CookieAnalysis;
pub use ecosystem_graph::GraphAnalysis;
pub use first_party::FirstPartyMap;
pub use incremental::IncrementalStudy;
pub use leakage::LeakageAnalysis;
pub use parallel::{par_chunks, par_chunks_auto, par_map, Runtime, WORKERS_ENV};
pub use policy_analysis::PolicyAnalysis;
pub use rule_derivation::{DerivedList, DerivedRule, RuleEvidence};
pub use significance::SignificanceReport;
pub use syncing::SyncingAnalysis;
pub use tracking::TrackingAnalysis;
