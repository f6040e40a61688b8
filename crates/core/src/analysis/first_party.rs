//! First-party identification (§V-A).
//!
//! HbbTV has no "visited website": the communication endpoints come out
//! of the broadcast signal. The paper defines a channel's first party as
//! the eTLD+1 of the *first content-loading request* — and, because some
//! channels encode tracker URLs directly into the signal, guards that
//! choice with the filter lists: a flagged URL cannot become a first
//! party; the next content request is used instead.

use crate::dataset::StudyDataset;
use hbbtv_broadcast::ChannelId;
use hbbtv_filterlists::{bundled, FilterList, RequestContext, ResourceKind, UrlView};
use hbbtv_net::{ContentType, Etld1};
use std::collections::BTreeMap;

/// The per-channel first-party assignment.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FirstPartyMap {
    map: BTreeMap<ChannelId, Etld1>,
}

impl FirstPartyMap {
    /// Builds a map from an already-elected assignment (the analysis
    /// engine runs the same election as [`FirstPartyMap::identify`],
    /// epoch by epoch, over its interned per-exchange facts).
    pub(crate) fn from_entries(entries: impl IntoIterator<Item = (ChannelId, Etld1)>) -> Self {
        FirstPartyMap {
            map: entries.into_iter().collect(),
        }
    }

    /// Identifies first parties across the whole dataset.
    pub fn identify(dataset: &StudyDataset) -> Self {
        let guards: [&FilterList; 2] = [bundled::easylist_ref(), bundled::easyprivacy_ref()];
        let mut candidates: BTreeMap<ChannelId, (u64, Etld1)> = BTreeMap::new();
        for capture in dataset.all_captures() {
            let Some(channel) = capture.channel else {
                continue;
            };
            // Content-bearing responses only: HTML/JS/CSS that the TV
            // renders or executes.
            if !matches!(
                capture.response.content_type,
                ContentType::Html | ContentType::JavaScript | ContentType::Css
            ) {
                continue;
            }
            // Filter-list guard: known trackers cannot be first parties.
            let ctx = RequestContext {
                third_party: true,
                kind: ResourceKind::Document,
            };
            let url = &capture.request.url;
            let view = UrlView::of_url(url);
            if guards.iter().any(|g| g.matches_view(&view, ctx)) {
                continue;
            }
            let t = capture.request.timestamp.as_unix();
            let domain = url.etld1().to_owned();
            candidates
                .entry(channel)
                .and_modify(|(best_t, best_d)| {
                    if t < *best_t {
                        *best_t = t;
                        *best_d = domain.clone();
                    }
                })
                .or_insert((t, domain));
        }
        FirstPartyMap {
            map: candidates.into_iter().map(|(ch, (_, d))| (ch, d)).collect(),
        }
    }

    /// The first party of a channel, if traffic allowed identifying one.
    pub fn first_party(&self, channel: ChannelId) -> Option<&Etld1> {
        self.map.get(&channel)
    }

    /// Whether `domain` is a third party on `channel`.
    pub fn is_third_party(&self, channel: ChannelId, domain: &Etld1) -> bool {
        match self.map.get(&channel) {
            Some(fp) => fp != domain,
            None => true,
        }
    }

    /// Number of channels with an identified first party.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no first party was identified at all.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over (channel, first party).
    pub fn iter(&self) -> impl Iterator<Item = (&ChannelId, &Etld1)> {
        self.map.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::RunKind;
    use crate::{Ecosystem, StudyHarness};

    #[test]
    fn first_parties_match_ground_truth_hubs() {
        let eco = Ecosystem::with_scale(42, 0.05);
        let harness = StudyHarness::new(&eco);
        let dataset = crate::StudyDataset {
            runs: vec![harness.run(RunKind::General)],
        };
        let fp = FirstPartyMap::identify(&dataset);
        assert!(!fp.is_empty());
        let mut checked = 0;
        for (&ch, derived) in fp.iter() {
            let truth = eco.blueprint(ch).unwrap();
            let expected = hbbtv_net::Etld1::from_host(&truth.first_party_host);
            assert_eq!(derived, &expected, "channel {} ({})", ch, truth.plan.name);
            checked += 1;
        }
        assert!(checked > 5);
    }

    #[test]
    fn signal_encoded_trackers_are_not_first_parties() {
        // Use a larger slice so the AIT-encodes-GA cohort exists.
        let eco = Ecosystem::with_scale(42, 0.2);
        let has_ga_ait = eco.blueprints().any(|b| {
            b.ait
                .autostart()
                .map(|e| e.url.host().contains("google-analytics"))
                .unwrap_or(false)
        });
        assert!(has_ga_ait, "the §V-A cohort exists at this scale");
        let harness = StudyHarness::new(&eco);
        let dataset = crate::StudyDataset {
            runs: vec![harness.run(RunKind::General)],
        };
        let fp = FirstPartyMap::identify(&dataset);
        for (_, domain) in fp.iter() {
            assert_ne!(domain.as_str(), "google-analytics.com");
        }
    }
}
