//! Deriving HbbTV filter rules from observed traffic (§VIII Future
//! Work).
//!
//! The paper closes by noting that web filter lists "cannot be applied
//! to the HbbTV ecosystems without adjustment" and proposes deriving
//! additional rules from observed traffic. This module implements that
//! proposal: it inspects a captured dataset, finds the tracker domains
//! the bundled lists miss (pixel issuers, fingerprint providers, and
//! identifier-cookie setters seen across multiple channels), and emits a
//! hosts-format extension list.

use crate::analysis::first_party::FirstPartyMap;
use crate::analysis::syncing::is_potential_id;
use crate::analysis::tracking::{is_fingerprint_script, is_tracking_pixel};
use crate::dataset::StudyDataset;
use hbbtv_broadcast::ChannelId;
use hbbtv_filterlists::{FilterList, RequestContext, ResourceKind};
use hbbtv_net::Etld1;
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};

/// Why a domain was added to the derived list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum RuleEvidence {
    /// Served tracking pixels.
    Pixel,
    /// Served fingerprinting scripts.
    Fingerprint,
    /// Set identifier-shaped cookies as a third party on several
    /// channels.
    IdCookie,
}

/// One derived rule.
#[derive(Debug, Clone, Serialize)]
pub struct DerivedRule {
    /// The tracker domain to block.
    pub domain: Etld1,
    /// What the domain was observed doing.
    pub evidence: RuleEvidence,
    /// Channels the behavior was observed on.
    pub channels: usize,
    /// Requests the behavior produced.
    pub requests: usize,
}

/// The derived extension list plus its evaluation.
#[derive(Debug, Clone)]
pub struct DerivedList {
    /// Rules, highest-volume first.
    pub rules: Vec<DerivedRule>,
    /// Tracking requests (pixels + fingerprints) the baseline list
    /// already catches.
    pub baseline_coverage: usize,
    /// Tracking requests caught after adding the derived rules.
    pub extended_coverage: usize,
    /// All tracking requests observed.
    pub tracking_total: usize,
}

impl DerivedList {
    /// Derives rules from a dataset, against a baseline list (typically
    /// the Pi-hole snapshot). A third-party domain qualifies when it was
    /// seen tracking on at least `min_channels` channels and the
    /// baseline does not already block it.
    pub fn derive(
        dataset: &StudyDataset,
        fp_map: &FirstPartyMap,
        baseline: &FilterList,
        min_channels: usize,
    ) -> Self {
        #[derive(Default)]
        struct Tally {
            channels: BTreeSet<ChannelId>,
            requests: usize,
            evidence: Option<RuleEvidence>,
        }
        let mut tallies: BTreeMap<Etld1, Tally> = BTreeMap::new();
        let (mut baseline_hits, mut tracking_total) = (0usize, 0usize);

        for c in dataset.all_captures() {
            let domain = c.request.url.etld1().to_owned();
            let third = c
                .channel
                .map(|ch| fp_map.is_third_party(ch, &domain))
                .unwrap_or(true);
            let pixel = is_tracking_pixel(c);
            let fingerprint = is_fingerprint_script(c);
            let id_cookie = third
                && c.response
                    .set_cookies()
                    .iter()
                    .any(|sc| is_potential_id(&sc.cookie.value));
            let tracking = pixel || fingerprint || (third && id_cookie);
            if !tracking {
                continue;
            }
            tracking_total += 1;
            let covered = baseline.matches(
                &c.request.url,
                RequestContext {
                    third_party: third,
                    kind: ResourceKind::Image,
                },
            );
            if covered {
                baseline_hits += 1;
                continue;
            }
            let t = tallies.entry(domain).or_default();
            t.requests += 1;
            if let Some(ch) = c.channel {
                t.channels.insert(ch);
            }
            let evidence = if fingerprint {
                RuleEvidence::Fingerprint
            } else if pixel {
                RuleEvidence::Pixel
            } else {
                RuleEvidence::IdCookie
            };
            // Fingerprint evidence outranks pixel outranks cookies.
            t.evidence = Some(match (t.evidence, evidence) {
                (Some(RuleEvidence::Fingerprint), _) | (_, RuleEvidence::Fingerprint) => {
                    RuleEvidence::Fingerprint
                }
                (Some(RuleEvidence::Pixel), _) | (_, RuleEvidence::Pixel) => RuleEvidence::Pixel,
                _ => RuleEvidence::IdCookie,
            });
        }

        let mut rules: Vec<DerivedRule> = tallies
            .into_iter()
            .filter(|(_, t)| t.channels.len() >= min_channels)
            .map(|(domain, t)| DerivedRule {
                domain,
                evidence: t.evidence.unwrap_or(RuleEvidence::IdCookie),
                channels: t.channels.len(),
                requests: t.requests,
            })
            .collect();
        rules.sort_by(|a, b| {
            b.requests
                .cmp(&a.requests)
                .then_with(|| a.domain.cmp(&b.domain))
        });

        // Evaluate: how much tracking would baseline + derived catch?
        let derived_domains: BTreeSet<&Etld1> = rules.iter().map(|r| &r.domain).collect();
        let mut extended_hits = baseline_hits;
        for c in dataset.all_captures() {
            let domain = c.request.url.etld1().to_owned();
            let third = c
                .channel
                .map(|ch| fp_map.is_third_party(ch, &domain))
                .unwrap_or(true);
            let id_cookie = third
                && c.response
                    .set_cookies()
                    .iter()
                    .any(|sc| is_potential_id(&sc.cookie.value));
            let tracking = is_tracking_pixel(c) || is_fingerprint_script(c) || id_cookie;
            if !tracking {
                continue;
            }
            let covered = baseline.matches(
                &c.request.url,
                RequestContext {
                    third_party: third,
                    kind: ResourceKind::Image,
                },
            );
            if !covered && derived_domains.contains(&domain) {
                extended_hits += 1;
            }
        }

        DerivedList {
            rules,
            baseline_coverage: baseline_hits,
            extended_coverage: extended_hits,
            tracking_total,
        }
    }

    /// Renders the rules as a hosts-format block list (Pi-hole
    /// compatible).
    pub fn to_hosts_format(&self) -> String {
        let mut s = String::from("# hbbtv-lab derived HbbTV tracker list\n");
        for rule in &self.rules {
            s.push_str(&format!(
                "0.0.0.0 {}  # {:?}, {} channels, {} requests\n",
                rule.domain, rule.evidence, rule.channels, rule.requests
            ));
        }
        s
    }

    /// Parses the derived rules into a matchable [`FilterList`].
    pub fn to_filter_list(&self) -> FilterList {
        FilterList::parse_hosts_list("derived-hbbtv", &self.to_hosts_format())
    }

    /// Coverage of all observed tracking, in percent, before extension.
    pub fn baseline_share(&self) -> f64 {
        if self.tracking_total == 0 {
            0.0
        } else {
            self.baseline_coverage as f64 / self.tracking_total as f64 * 100.0
        }
    }

    /// Coverage after extension.
    pub fn extended_share(&self) -> f64 {
        if self.tracking_total == 0 {
            0.0
        } else {
            self.extended_coverage as f64 / self.tracking_total as f64 * 100.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::RunKind;
    use crate::{Ecosystem, StudyHarness};
    use hbbtv_filterlists::bundled;

    fn derived() -> DerivedList {
        let eco = Ecosystem::with_scale(19, 0.1);
        let harness = StudyHarness::new(&eco);
        let ds = crate::StudyDataset {
            runs: vec![harness.run(RunKind::General), harness.run(RunKind::Red)],
        };
        let fp = FirstPartyMap::identify(&ds);
        DerivedList::derive(&ds, &fp, bundled::pihole_ref(), 2)
    }

    #[test]
    fn derivation_finds_the_invisible_trackers() {
        let d = derived();
        let domains: Vec<&str> = d.rules.iter().map(|r| r.domain.as_str()).collect();
        assert!(domains.contains(&"tvping.com"), "found {domains:?}");
        assert!(domains.contains(&"programstats.tv"));
        // Already-listed domains must not be re-derived.
        assert!(!domains.contains(&"doubleclick.net"));
    }

    #[test]
    fn extension_massively_improves_coverage() {
        let d = derived();
        assert!(
            d.baseline_share() < 10.0,
            "baseline covers {:.1}%",
            d.baseline_share()
        );
        assert!(
            d.extended_share() > 80.0,
            "extended covers {:.1}%",
            d.extended_share()
        );
        assert!(d.extended_coverage > d.baseline_coverage * 5);
    }

    #[test]
    fn hosts_format_round_trips_through_the_matcher() {
        let d = derived();
        let list = d.to_filter_list();
        assert!(!list.is_empty());
        let url: hbbtv_net::Url = "http://tvping.com/ping".parse().unwrap();
        assert!(list.matches(&url, RequestContext::third_party_image()));
    }

    #[test]
    fn rules_are_sorted_by_volume() {
        let d = derived();
        let volumes: Vec<usize> = d.rules.iter().map(|r| r.requests).collect();
        assert!(volumes.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn min_channel_threshold_prunes_boutique_trackers() {
        let eco = Ecosystem::with_scale(19, 0.1);
        let harness = StudyHarness::new(&eco);
        let ds = crate::StudyDataset {
            runs: vec![harness.run(RunKind::General)],
        };
        let fp = FirstPartyMap::identify(&ds);
        let loose = DerivedList::derive(&ds, &fp, bundled::pihole_ref(), 1);
        let strict = DerivedList::derive(&ds, &fp, bundled::pihole_ref(), 5);
        assert!(loose.rules.len() > strict.rules.len());
    }
}
