//! Channel-category analysis (§V-D4, Figure 7) and the children's-TV
//! case study (§V-D5).

use crate::analysis::tracking::TrackingAnalysis;
use crate::ecosystem::Ecosystem;
use hbbtv_broadcast::{ChannelCategory, ChannelId};
use hbbtv_net::CookieKey;
use hbbtv_stats::{kruskal_wallis, mann_whitney_u, KruskalWallis, MannWhitney};
use std::collections::{BTreeMap, BTreeSet};

/// Per-category tracking statistics (Figure 7).
#[derive(Debug, Clone)]
pub struct CategoryAnalysis {
    /// Category → (channels, total tracking requests).
    pub per_category: BTreeMap<ChannelCategory, (usize, usize)>,
    /// Share of all tracking requests issued by the top-5 categories
    /// (98.5% in the paper).
    pub top5_request_share: f64,
    /// Kruskal–Wallis over per-channel *tracker counts* grouped by
    /// category (§V-D4 tests "the impact of a channel's category on the
    /// number of trackers"; medium effect in the paper).
    pub category_effect: Option<KruskalWallis>,
}

impl CategoryAnalysis {
    /// Computes the category statistics. The category metadata comes
    /// from the satellite operators' guides (the ecosystem's channel
    /// descriptors), exactly as in §V-D4.
    pub fn compute(eco: &Ecosystem, tracking: &TrackingAnalysis) -> Self {
        let mut per_category: BTreeMap<ChannelCategory, (usize, usize)> = BTreeMap::new();
        let mut groups: BTreeMap<ChannelCategory, Vec<f64>> = BTreeMap::new();
        for (&ch, &requests) in &tracking.tracking_requests_per_channel {
            let Some(bp) = eco.blueprint(ch) else {
                continue;
            };
            let Some(category) = bp.descriptor.primary_category() else {
                continue;
            };
            let entry = per_category.entry(category).or_insert((0, 0));
            entry.0 += 1;
            entry.1 += requests;
            let trackers = tracking.trackers_per_channel.get(&ch).copied().unwrap_or(0);
            groups.entry(category).or_default().push(trackers as f64);
        }
        let mut by_requests: Vec<usize> = per_category.values().map(|(_, r)| *r).collect();
        by_requests.sort_unstable_by(|a, b| b.cmp(a));
        let total: usize = by_requests.iter().sum();
        let top5_request_share = if total == 0 {
            0.0
        } else {
            by_requests.iter().take(5).sum::<usize>() as f64 / total as f64 * 100.0
        };
        let group_vec: Vec<Vec<f64>> = groups.values().filter(|g| !g.is_empty()).cloned().collect();
        let category_effect = if group_vec.len() >= 2 {
            kruskal_wallis(&group_vec).ok()
        } else {
            None
        };
        CategoryAnalysis {
            per_category,
            top5_request_share,
            category_effect,
        }
    }

    /// Categories ordered by total tracking requests, descending
    /// (Figure 7's x-axis order).
    pub fn ordered(&self) -> Vec<(ChannelCategory, usize, usize)> {
        let mut v: Vec<(ChannelCategory, usize, usize)> = self
            .per_category
            .iter()
            .map(|(&c, &(n, r))| (c, n, r))
            .collect();
        v.sort_by_key(|&(_, _, requests)| std::cmp::Reverse(requests));
        v
    }
}

/// The §V-D5 children case study.
#[derive(Debug, Clone)]
pub struct ChildrenCaseStudy {
    /// Channels exclusively targeting children (12 in the paper).
    pub channels: BTreeSet<ChannelId>,
    /// Tracking requests observed on them (1,946).
    pub tracking_requests: usize,
    /// Third-party Targeting/Advertising cookies on them (97).
    pub targeting_cookies: usize,
    /// Mann–Whitney comparison of per-channel tracker counts, children
    /// vs all other channels (p > 0.3 in the paper: no difference).
    pub children_vs_rest: Option<MannWhitney>,
}

impl ChildrenCaseStudy {
    /// Computes the case study.
    pub fn compute(
        eco: &Ecosystem,
        tracking: &TrackingAnalysis,
        classified_targeting: &BTreeSet<CookieKey>,
        cookie_channels: &BTreeMap<CookieKey, BTreeSet<ChannelId>>,
    ) -> Self {
        let children: BTreeSet<ChannelId> = eco
            .blueprints()
            .filter(|b| b.descriptor.targets_children())
            .map(|b| b.descriptor.id)
            .collect();
        let tracking_requests = tracking
            .tracking_requests_per_channel
            .iter()
            .filter(|(ch, _)| children.contains(ch))
            .map(|(_, &n)| n)
            .sum();
        // Counted as (channel, cookie) observations, matching how the
        // paper tallies 97 targeting cookies across the 12 channels.
        let targeting_cookies = classified_targeting
            .iter()
            .filter_map(|key| cookie_channels.get(key))
            .map(|chs| chs.iter().filter(|c| children.contains(c)).count())
            .sum();
        let (mut kids, mut rest) = (Vec::new(), Vec::new());
        for (ch, &n) in &tracking.trackers_per_channel {
            if children.contains(ch) {
                kids.push(n as f64);
            } else {
                rest.push(n as f64);
            }
        }
        let children_vs_rest = mann_whitney_u(&kids, &rest).ok();
        ChildrenCaseStudy {
            channels: children,
            tracking_requests,
            targeting_cookies,
            children_vs_rest,
        }
    }

    /// Whether tracking on children's channels is statistically
    /// indistinguishable from other channels (the paper's conclusion).
    pub fn indistinguishable(&self) -> bool {
        self.children_vs_rest
            .map(|r| !r.significant())
            .unwrap_or(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::first_party::FirstPartyMap;
    use crate::run::RunKind;
    use crate::{Ecosystem, StudyDataset, StudyHarness};

    fn world() -> (Ecosystem, StudyDataset) {
        let eco = Ecosystem::with_scale(13, 0.15);
        let harness = StudyHarness::new(&eco);
        let ds = StudyDataset {
            runs: vec![harness.run(RunKind::General), harness.run(RunKind::Red)],
        };
        (eco, ds)
    }

    #[test]
    fn categories_are_populated_and_ordered() {
        let (eco, ds) = world();
        let fp = FirstPartyMap::identify(&ds);
        let tracking = TrackingAnalysis::compute(&ds, &fp);
        let cats = CategoryAnalysis::compute(&eco, &tracking);
        assert!(cats.per_category.len() >= 3);
        let ordered = cats.ordered();
        assert!(ordered.windows(2).all(|w| w[0].2 >= w[1].2));
        assert!(cats.top5_request_share > 50.0);
    }

    #[test]
    fn children_channels_are_tracked_like_the_rest() {
        let (eco, ds) = world();
        let fp = FirstPartyMap::identify(&ds);
        let tracking = TrackingAnalysis::compute(&ds, &fp);
        let study = ChildrenCaseStudy::compute(&eco, &tracking, &BTreeSet::new(), &BTreeMap::new());
        assert!(!study.channels.is_empty());
        assert!(study.tracking_requests > 0, "children are tracked");
    }
}
