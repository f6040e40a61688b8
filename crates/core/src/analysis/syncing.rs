//! Cookie-syncing detection (§V-C3).
//!
//! The method of Acar et al., as adapted by the paper: a cookie value is
//! a *potential identifier* if it is 10–25 characters long and not a
//! valid Unix timestamp within the measurement period; syncing is
//! detected when a potential ID owned by one party appears in an HTTP
//! request sent to *another* party.

use crate::dataset::StudyDataset;
use crate::run::RunKind;
use hbbtv_broadcast::ChannelId;
use hbbtv_net::Etld1;
use std::collections::{BTreeMap, BTreeSet};

/// Whether a cookie value satisfies the §V-C3 potential-ID rule.
pub fn is_potential_id(value: &str) -> bool {
    let len_ok = (10..=25).contains(&value.len());
    if !len_ok {
        return false;
    }
    // Exclude plausible Unix timestamps inside the measurement window.
    if value.bytes().all(|b| b.is_ascii_digit()) {
        if let Ok(secs) = value.parse::<u64>() {
            let t = hbbtv_net::Timestamp::from_unix(secs);
            if t.in_measurement_window() {
                return false;
            }
        }
    }
    true
}

/// One detected sync event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncEvent {
    /// The party that owned the cookie.
    pub owner: Etld1,
    /// The party that received the value in a request.
    pub receiver: Etld1,
    /// The shared identifier value.
    pub value: String,
    /// The channel the receiving request was attributed to.
    pub channel: Option<ChannelId>,
    /// The run in which the transfer was observed.
    pub run: RunKind,
}

/// The complete §V-C3 computation.
#[derive(Debug, Clone)]
pub struct SyncingAnalysis {
    /// Cookie values satisfying the potential-ID rule.
    pub potential_ids: usize,
    /// Cookie values excluded by the timestamp rule.
    pub timestamp_exclusions: usize,
    /// Potential-ID values seen transferred to another party.
    pub synced_values: BTreeSet<String>,
    /// All detected transfers.
    pub events: Vec<SyncEvent>,
    /// Distinct domains participating in syncing (2 in the paper).
    pub syncing_domains: BTreeSet<Etld1>,
    /// Channels on which syncing was observed (20).
    pub channels: BTreeSet<ChannelId>,
    /// Runs in which syncing was observed (Red, Green, Blue).
    pub runs: BTreeSet<RunKind>,
}

impl SyncingAnalysis {
    /// Runs the detection over the dataset.
    pub fn compute(dataset: &StudyDataset) -> Self {
        // Pass 1: collect potential IDs with their owning party.
        let mut owners: BTreeMap<String, BTreeSet<Etld1>> = BTreeMap::new();
        let mut potential = 0usize;
        let mut excluded = 0usize;
        let mut seen_values: BTreeSet<(Etld1, String)> = BTreeSet::new();
        for c in dataset.all_captures() {
            for sc in c.response.set_cookies() {
                let domain = if sc.explicit_domain {
                    sc.cookie.domain.clone()
                } else {
                    c.request.url.etld1().to_owned()
                };
                let value = sc.cookie.value.clone();
                if !seen_values.insert((domain.clone(), value.clone())) {
                    continue;
                }
                if is_potential_id(&value) {
                    potential += 1;
                    owners.entry(value).or_default().insert(domain);
                } else if (10..=25).contains(&value.len()) {
                    excluded += 1;
                }
            }
        }

        // Pass 2: look for transfers of owned IDs to other parties.
        let mut events = Vec::new();
        let mut synced_values = BTreeSet::new();
        let mut syncing_domains = BTreeSet::new();
        let mut channels = BTreeSet::new();
        let mut runs = BTreeSet::new();
        for run_ds in &dataset.runs {
            for c in &run_ds.captures {
                let receiver = c.request.url.etld1();
                // Check URL query parameters for owned ID values.
                for (_, value) in c.request.url.query_pairs() {
                    let Some(owner_set) = owners.get(value) else {
                        continue;
                    };
                    for owner in owner_set {
                        if *owner == receiver {
                            continue;
                        }
                        synced_values.insert(value.to_string());
                        syncing_domains.insert(owner.clone());
                        syncing_domains.insert(receiver.to_owned());
                        if let Some(ch) = c.channel {
                            channels.insert(ch);
                        }
                        runs.insert(run_ds.run);
                        events.push(SyncEvent {
                            owner: owner.clone(),
                            receiver: receiver.to_owned(),
                            value: value.to_string(),
                            channel: c.channel,
                            run: run_ds.run,
                        });
                    }
                }
            }
        }

        SyncingAnalysis {
            potential_ids: potential,
            timestamp_exclusions: excluded,
            synced_values,
            events,
            syncing_domains,
            channels,
            runs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ecosystem, StudyHarness};

    #[test]
    fn potential_id_rule() {
        assert!(is_potential_id("abcdef1234"));
        assert!(is_potential_id("a".repeat(25).as_str()));
        assert!(!is_potential_id("short"));
        assert!(!is_potential_id(&"x".repeat(26)));
        // A Unix timestamp inside the window is excluded…
        assert!(!is_potential_id("1695000000"));
        // …but digits outside the window pass (e.g. a numeric ID).
        assert!(is_potential_id("99999999999"));
    }

    #[test]
    fn sync_chain_is_detected_in_button_runs() {
        let eco = Ecosystem::with_scale(3, 0.12);
        let harness = StudyHarness::new(&eco);
        let ds = StudyDataset {
            runs: vec![harness.run(RunKind::General), harness.run(RunKind::Red)],
        };
        let s = SyncingAnalysis::compute(&ds);
        assert!(s.potential_ids > 10);
        assert!(
            !s.events.is_empty(),
            "the adsync chain fires in the Red run"
        );
        // Exactly the two sync domains participate.
        let domains: Vec<&str> = s.syncing_domains.iter().map(|d| d.as_str()).collect();
        assert!(domains.contains(&"adsync-a.com"));
        assert!(domains.contains(&"adsync-b.com"));
        assert!(s.runs.contains(&RunKind::Red));
        assert!(!s.runs.contains(&RunKind::General));
        assert!(!s.channels.is_empty());
    }

    #[test]
    fn syncing_is_rare_relative_to_potential_ids() {
        let eco = Ecosystem::with_scale(3, 0.12);
        let harness = StudyHarness::new(&eco);
        let ds = StudyDataset {
            runs: vec![harness.run(RunKind::Red)],
        };
        let s = SyncingAnalysis::compute(&ds);
        assert!(
            s.synced_values.len() * 10 < s.potential_ids,
            "synced {} of {} potential IDs",
            s.synced_values.len(),
            s.potential_ids
        );
    }
}
