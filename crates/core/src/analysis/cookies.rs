//! Cookie analysis (§V-C): per-run counts (Table I's cookie columns),
//! third-party cookie usage (Table II), the long-tail distribution of
//! cookie-setting third parties (Figure 5), and Cookiepedia
//! classification.

use crate::analysis::first_party::FirstPartyMap;
use crate::analysis::tracking::{is_fingerprint_script, is_tracking_pixel};
use crate::dataset::StudyDataset;
use crate::run::RunKind;
use hbbtv_broadcast::ChannelId;
use hbbtv_net::{CookieKey, Etld1};
use hbbtv_stats::{describe, Describe};
use hbbtv_trackers::{CookieCategory, Cookiepedia};
use std::collections::{BTreeMap, BTreeSet};

/// One run's (or, merged, the whole study's) §V-C capture scan. Every
/// field is a set (or map of sets), so merging two partials is a union.
#[derive(Default)]
pub(crate) struct CookiePartial {
    /// Distinct jar keys observed in the scanned captures.
    keys: BTreeSet<CookieKey>,
    /// Keys first-party on at least one channel.
    fp_keys: BTreeSet<CookieKey>,
    /// Keys third-party on at least one channel.
    tp_keys: BTreeSet<CookieKey>,
    /// Third-party cookie keys grouped by setting party.
    tp_parties: BTreeMap<Etld1, BTreeSet<CookieKey>>,
    /// Keys set by tracking requests (§V-D definition).
    keys_by_tracking: BTreeSet<CookieKey>,
    /// All cookie-setting parties, first and third.
    parties: BTreeSet<Etld1>,
    /// Distinct keys per channel.
    per_channel_keys: BTreeMap<ChannelId, BTreeSet<CookieKey>>,
    /// Distinct third-party keys per channel.
    per_channel_3p_keys: BTreeMap<ChannelId, BTreeSet<CookieKey>>,
    /// Channels on which each third party set cookies (Figure 5).
    party_channels: BTreeMap<Etld1, BTreeSet<ChannelId>>,
}

impl CookiePartial {
    pub(crate) fn merge(&mut self, other: CookiePartial) {
        self.keys.extend(other.keys);
        self.fp_keys.extend(other.fp_keys);
        self.tp_keys.extend(other.tp_keys);
        for (party, keys) in other.tp_parties {
            self.tp_parties.entry(party).or_default().extend(keys);
        }
        self.keys_by_tracking.extend(other.keys_by_tracking);
        self.parties.extend(other.parties);
        for (ch, keys) in other.per_channel_keys {
            self.per_channel_keys.entry(ch).or_default().extend(keys);
        }
        for (ch, keys) in other.per_channel_3p_keys {
            self.per_channel_3p_keys.entry(ch).or_default().extend(keys);
        }
        for (party, chs) in other.party_channels {
            self.party_channels.entry(party).or_default().extend(chs);
        }
    }
}

/// The symbol-space twin of [`CookiePartial`], collecting the analysis
/// engine's interned cookie-key and domain symbols instead of cloned
/// strings.
/// Symbols are bijective with their strings, so every set and grouping
/// has exactly the cardinality of its string counterpart;
/// [`SymCookiePartial::resolve`] maps back for the shared tail.
#[derive(Default, Clone)]
pub(crate) struct SymCookiePartial {
    pub(crate) keys: BTreeSet<u32>,
    pub(crate) fp_keys: BTreeSet<u32>,
    pub(crate) tp_keys: BTreeSet<u32>,
    pub(crate) tp_parties: BTreeMap<u32, BTreeSet<u32>>,
    pub(crate) keys_by_tracking: BTreeSet<u32>,
    pub(crate) parties: BTreeSet<u32>,
    pub(crate) per_channel_keys: BTreeMap<ChannelId, BTreeSet<u32>>,
    pub(crate) per_channel_3p_keys: BTreeMap<ChannelId, BTreeSet<u32>>,
    pub(crate) party_channels: BTreeMap<u32, BTreeSet<ChannelId>>,
}

impl SymCookiePartial {
    pub(crate) fn merge(&mut self, other: &SymCookiePartial) {
        self.keys.extend(&other.keys);
        self.fp_keys.extend(&other.fp_keys);
        self.tp_keys.extend(&other.tp_keys);
        for (party, keys) in &other.tp_parties {
            self.tp_parties.entry(*party).or_default().extend(keys);
        }
        self.keys_by_tracking.extend(&other.keys_by_tracking);
        self.parties.extend(&other.parties);
        for (ch, keys) in &other.per_channel_keys {
            self.per_channel_keys.entry(*ch).or_default().extend(keys);
        }
        for (ch, keys) in &other.per_channel_3p_keys {
            self.per_channel_3p_keys
                .entry(*ch)
                .or_default()
                .extend(keys);
        }
        for (party, chs) in &other.party_channels {
            self.party_channels.entry(*party).or_default().extend(chs);
        }
    }

    /// Resolves symbols back to the strings [`CookieAnalysis::finish`]
    /// aggregates over, given the engine's interning tables.
    pub(crate) fn resolve(&self, cookie_keys: &[CookieKey], etld1s: &[Etld1]) -> CookiePartial {
        let key = |s: &u32| cookie_keys[*s as usize].clone();
        let dom = |s: &u32| etld1s[*s as usize].clone();
        CookiePartial {
            keys: self.keys.iter().map(key).collect(),
            fp_keys: self.fp_keys.iter().map(key).collect(),
            tp_keys: self.tp_keys.iter().map(key).collect(),
            tp_parties: self
                .tp_parties
                .iter()
                .map(|(p, ks)| (dom(p), ks.iter().map(key).collect()))
                .collect(),
            keys_by_tracking: self.keys_by_tracking.iter().map(key).collect(),
            parties: self.parties.iter().map(dom).collect(),
            per_channel_keys: self
                .per_channel_keys
                .iter()
                .map(|(ch, ks)| (*ch, ks.iter().map(key).collect()))
                .collect(),
            per_channel_3p_keys: self
                .per_channel_3p_keys
                .iter()
                .map(|(ch, ks)| (*ch, ks.iter().map(key).collect()))
                .collect(),
            party_channels: self
                .party_channels
                .iter()
                .map(|(p, chs)| (dom(p), chs.clone()))
                .collect(),
        }
    }
}

/// Per-run cookie counts (the cookie columns of Table I).
#[derive(Debug, Clone, Default)]
pub struct CookieRow {
    /// Distinct cookies observed in the run (jar keys).
    pub total: usize,
    /// Keys that were first-party on at least one channel.
    pub first_party: usize,
    /// Keys that were third-party on at least one channel (the two
    /// counts overlap — see the Table I caption).
    pub third_party: usize,
    /// Local-storage objects extracted after the run.
    pub local_storage: usize,
}

/// Table II row: cookie-setting third parties in one run.
#[derive(Debug, Clone)]
pub struct ThirdPartyRow {
    /// Distinct third parties that set cookies.
    pub parties: usize,
    /// Distinct third-party cookies.
    pub cookies: usize,
    /// Distribution of cookies per third party.
    pub per_party: Describe,
}

/// The complete §V-C computation.
#[derive(Debug, Clone)]
pub struct CookieAnalysis {
    /// Per-run Table I cookie columns.
    pub per_run: BTreeMap<RunKind, CookieRow>,
    /// Per-run Table II rows.
    pub third_party_per_run: BTreeMap<RunKind, ThirdPartyRow>,
    /// Distinct cookies across all runs, jar + local storage (1,705 in
    /// the paper).
    pub distinct_total: usize,
    /// Share of distinct cookies set by tracking requests (92%).
    pub set_by_tracking_share: f64,
    /// Distinct parties (first and third) setting cookies (166).
    pub parties_total: usize,
    /// Cookies per channel distribution (mean 4.1).
    pub cookies_per_channel: Describe,
    /// Third-party cookies per channel (mean 3.1).
    pub third_party_cookies_per_channel: Describe,
    /// Figure 5: for each cookie-using third party, how many channels it
    /// appears on, sorted descending.
    pub party_channel_counts: Vec<(Etld1, usize)>,
    /// Third parties observed on exactly one channel (38 in the paper).
    pub single_channel_parties: usize,
    /// Third parties used by more than ten channels (25).
    pub parties_on_more_than_ten: usize,
    /// Share of cookies classifiable by Cookiepedia (20.5% vs 57% on the
    /// Web).
    pub cookiepedia_classified_share: f64,
    /// Share of classified multi-channel third-party cookies that are
    /// Targeting/Advertising (11%).
    pub targeting_share_multichannel: f64,
    /// Distribution of classified cookies over Cookiepedia's categories
    /// (the supplementary-material table; button runs skew toward
    /// Targeting).
    pub category_distribution: BTreeMap<String, usize>,
}

impl CookieAnalysis {
    /// Runs the §V-C computation.
    pub fn compute(dataset: &StudyDataset, fp_map: &FirstPartyMap) -> Self {
        let lists = hbbtv_filterlists::bundled::all_refs();

        let mut per_run = BTreeMap::new();
        let mut third_party_per_run = BTreeMap::new();
        let mut global = CookiePartial::default();
        let mut ls_total = 0usize;

        for run_ds in &dataset.runs {
            // Observed Set-Cookie events attributed to channels, in one
            // plain loop over the run's captures.
            let mut run = CookiePartial::default();
            for c in &run_ds.captures {
                // A "tracking request" per §V-D: pixel, fingerprint, or
                // known (filter-list-flagged) tracker.
                // §V-D probes every list with the canonical
                // third-party-image context here (not the exchange's
                // real context), through one view for all five.
                let view = hbbtv_filterlists::UrlView::of_url(&c.request.url);
                let tracking = is_tracking_pixel(c)
                    || is_fingerprint_script(c)
                    || lists.iter().any(|l| {
                        l.matches_view(
                            &view,
                            hbbtv_filterlists::RequestContext::third_party_image(),
                        )
                    });
                for sc in c.response.set_cookies() {
                    let domain = if sc.explicit_domain {
                        sc.cookie.domain.clone()
                    } else {
                        c.request.url.etld1().to_owned()
                    };
                    let key = CookieKey {
                        domain: domain.clone(),
                        name: sc.cookie.name.clone(),
                    };
                    run.keys.insert(key.clone());
                    run.parties.insert(domain.clone());
                    if tracking {
                        run.keys_by_tracking.insert(key.clone());
                    }
                    if let Some(ch) = c.channel {
                        run.per_channel_keys
                            .entry(ch)
                            .or_default()
                            .insert(key.clone());
                        if fp_map.is_third_party(ch, &domain) {
                            run.tp_keys.insert(key.clone());
                            run.per_channel_3p_keys
                                .entry(ch)
                                .or_default()
                                .insert(key.clone());
                            run.tp_parties
                                .entry(domain.clone())
                                .or_default()
                                .insert(key.clone());
                            run.party_channels
                                .entry(domain.clone())
                                .or_default()
                                .insert(ch);
                        } else {
                            run.fp_keys.insert(key.clone());
                        }
                    }
                }
            }
            per_run.insert(
                run_ds.run,
                CookieRow {
                    total: run.keys.len(),
                    first_party: run.fp_keys.len(),
                    third_party: run.tp_keys.len(),
                    local_storage: run_ds.local_storage.len(),
                },
            );
            ls_total += run_ds.local_storage.len();
            let counts: Vec<f64> = run.tp_parties.values().map(|k| k.len() as f64).collect();
            third_party_per_run.insert(
                run_ds.run,
                ThirdPartyRow {
                    parties: run.tp_parties.len(),
                    cookies: run.tp_parties.values().map(BTreeSet::len).sum(),
                    per_party: describe(&counts),
                },
            );
            global.merge(run);
        }
        Self::finish(per_run, third_party_per_run, global, ls_total)
    }

    /// The order-independent tail shared by both scan paths:
    /// Cookiepedia classification and all aggregate statistics.
    pub(crate) fn finish(
        per_run: BTreeMap<RunKind, CookieRow>,
        third_party_per_run: BTreeMap<RunKind, ThirdPartyRow>,
        global: CookiePartial,
        ls_total: usize,
    ) -> Self {
        let cookiepedia = Cookiepedia::bundled();
        let mut multichannel_classified: Vec<CookieCategory> = Vec::new();
        let CookiePartial {
            keys: all_keys,
            keys_by_tracking,
            parties,
            per_channel_keys,
            per_channel_3p_keys,
            party_channels,
            ..
        } = global;

        // Cookiepedia classification of all distinct keys.
        let classified: Vec<(&CookieKey, CookieCategory)> = all_keys
            .iter()
            .filter_map(|k| cookiepedia.classify(k).map(|c| (k, c)))
            .collect();
        // Multi-channel third parties and their classified cookies.
        for (party, chs) in &party_channels {
            if chs.len() > 1 {
                for (key, cat) in &classified {
                    if &key.domain == party {
                        multichannel_classified.push(*cat);
                    }
                }
            }
        }
        let targeting_share_multichannel = if multichannel_classified.is_empty() {
            0.0
        } else {
            multichannel_classified
                .iter()
                .filter(|c| matches!(c, CookieCategory::Targeting))
                .count() as f64
                / multichannel_classified.len() as f64
                * 100.0
        };

        let mut category_distribution: BTreeMap<String, usize> = BTreeMap::new();
        for (_, cat) in &classified {
            *category_distribution.entry(cat.to_string()).or_insert(0) += 1;
        }

        let mut party_channel_counts: Vec<(Etld1, usize)> = party_channels
            .iter()
            .map(|(p, chs)| (p.clone(), chs.len()))
            .collect();
        party_channel_counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

        let per_channel: Vec<f64> = per_channel_keys.values().map(|s| s.len() as f64).collect();
        let per_channel_3p: Vec<f64> = per_channel_3p_keys
            .values()
            .map(|s| s.len() as f64)
            .collect();
        let distinct_total = all_keys.len() + ls_total;

        CookieAnalysis {
            per_run,
            third_party_per_run,
            distinct_total,
            set_by_tracking_share: if all_keys.is_empty() {
                0.0
            } else {
                keys_by_tracking.len() as f64 / all_keys.len() as f64 * 100.0
            },
            parties_total: parties.len(),
            cookies_per_channel: describe(&per_channel),
            third_party_cookies_per_channel: describe(&per_channel_3p),
            single_channel_parties: party_channel_counts.iter().filter(|(_, n)| *n == 1).count(),
            parties_on_more_than_ten: party_channel_counts.iter().filter(|(_, n)| *n > 10).count(),
            party_channel_counts,
            cookiepedia_classified_share: if all_keys.is_empty() {
                0.0
            } else {
                classified.len() as f64 / all_keys.len() as f64 * 100.0
            },
            targeting_share_multichannel,
            category_distribution,
        }
    }

    /// The most widespread cookie-using third party (xiti.com on 119
    /// channels in the paper).
    pub fn most_widespread_party(&self) -> Option<&(Etld1, usize)> {
        self.party_channel_counts.first()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ecosystem, StudyHarness};

    fn dataset() -> StudyDataset {
        let eco = Ecosystem::with_scale(11, 0.08);
        let harness = StudyHarness::new(&eco);
        StudyDataset {
            runs: vec![
                harness.run(RunKind::General),
                harness.run(RunKind::Red),
                harness.run(RunKind::Blue),
            ],
        }
    }

    #[test]
    fn red_run_sets_more_cookies_than_general() {
        let ds = dataset();
        let fp = FirstPartyMap::identify(&ds);
        let c = CookieAnalysis::compute(&ds, &fp);
        assert!(
            c.per_run[&RunKind::Red].total > c.per_run[&RunKind::General].total,
            "red {} vs general {}",
            c.per_run[&RunKind::Red].total,
            c.per_run[&RunKind::General].total
        );
    }

    #[test]
    fn cookiepedia_classifies_a_minority() {
        let ds = dataset();
        let fp = FirstPartyMap::identify(&ds);
        let c = CookieAnalysis::compute(&ds, &fp);
        assert!(
            c.cookiepedia_classified_share < 50.0,
            "HbbTV cookies are mostly unknown to Cookiepedia ({}%)",
            c.cookiepedia_classified_share
        );
        assert!(c.distinct_total > 0);
    }

    #[test]
    fn long_tail_of_third_parties() {
        let ds = dataset();
        let fp = FirstPartyMap::identify(&ds);
        let c = CookieAnalysis::compute(&ds, &fp);
        assert!(c.single_channel_parties > 0, "boutique trackers exist");
        let top = c.most_widespread_party().unwrap();
        assert!(top.1 > 1, "some party spans channels");
        // Sorted descending.
        let counts: Vec<usize> = c.party_channel_counts.iter().map(|(_, n)| *n).collect();
        assert!(counts.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn most_cookies_come_from_tracking_requests() {
        let ds = dataset();
        let fp = FirstPartyMap::identify(&ds);
        let c = CookieAnalysis::compute(&ds, &fp);
        assert!(
            c.set_by_tracking_share > 30.0,
            "{}",
            c.set_by_tracking_share
        );
    }

    #[test]
    fn local_storage_counted_per_run() {
        let ds = dataset();
        let fp = FirstPartyMap::identify(&ds);
        let c = CookieAnalysis::compute(&ds, &fp);
        assert!(c.per_run[&RunKind::General].local_storage > 0);
    }
}
