//! Tracking detection (§V-D): filter lists, tracking pixels,
//! fingerprinting, and per-channel tracker statistics.

use crate::analysis::classify::ExchangeClass;
use crate::analysis::first_party::FirstPartyMap;
use crate::dataset::StudyDataset;
use crate::run::RunKind;
use hbbtv_broadcast::ChannelId;
use hbbtv_filterlists::{bundled, RequestContext};
use hbbtv_net::{Etld1, Status};
use hbbtv_proxy::CapturedExchange;
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};

/// The §V-D1 pixel heuristic: image content type, < 45 bytes, 200 OK.
pub fn is_tracking_pixel(c: &CapturedExchange) -> bool {
    c.response.content_type.is_image()
        && c.response.body_len < 45
        && c.response.status == Status::OK
}

/// Fingerprinting-script markers (§V-D2): Canvas/WebGL APIs and the
/// FingerprintJS library.
pub const FP_MARKERS: [&str; 4] = [
    "getContext('2d')",
    "toDataURL",
    "WebGLRenderingContext",
    "Fingerprint2",
];

/// The §V-D2 fingerprinting heuristic: a JavaScript response whose code
/// uses fingerprinting APIs or libraries.
pub fn is_fingerprint_script(c: &CapturedExchange) -> bool {
    c.response.content_type.is_javascript()
        && FP_MARKERS.iter().any(|m| c.response.body.contains(m))
}

/// Per-run row of Table III.
#[derive(Debug, Clone, Default, Serialize)]
pub struct TrackingRow {
    /// Requests flagged by the Pi-hole hosts list.
    pub on_pihole: usize,
    /// Requests flagged by EasyList.
    pub on_easylist: usize,
    /// Requests flagged by EasyPrivacy.
    pub on_easyprivacy: usize,
    /// Tracking pixels (the §V-D1 heuristic).
    pub tracking_pixels: usize,
    /// Fingerprint-script responses (the §V-D2 heuristic).
    pub fingerprints: usize,
}

/// The complete §V-D computation.
#[derive(Debug, Clone)]
pub struct TrackingAnalysis {
    /// Table III rows by run.
    pub per_run: BTreeMap<RunKind, TrackingRow>,
    /// Total URLs checked against the lists.
    pub total_urls: usize,
    /// Smart-TV list hits (Perflyst, Kamran) across all runs.
    pub perflyst_hits: usize,
    /// Kamran list hits.
    pub kamran_hits: usize,
    /// Pi-hole hits across all runs (the smart-TV comparison baseline).
    pub pihole_hits_total: usize,
    /// Total pixel requests across runs.
    pub pixel_total: usize,
    /// Distinct eTLD+1s issuing pixels (47 in the paper).
    pub pixel_parties: BTreeSet<Etld1>,
    /// Pixel parties known to EasyList (8 / 17% in the paper).
    pub pixel_parties_on_easylist: usize,
    /// Channels that used a pixel at least once (350 / 89.5%).
    pub channels_with_pixels: usize,
    /// Pixel share of the *entire* traffic (60.7% in the paper).
    pub pixel_traffic_share: f64,
    /// Channels the dominant pixel tracker appears on (141 in the
    /// paper), with its domain.
    pub dominant_pixel_party: Option<(Etld1, usize)>,
    /// Channels with fingerprinting (60 / 15%).
    pub channels_with_fingerprinting: usize,
    /// Distinct fingerprint-script providers (21).
    pub fingerprint_providers: BTreeSet<Etld1>,
    /// Fingerprint providers that are first parties (7).
    pub fp_providers_first_party: usize,
    /// Share of fingerprint requests issued by first parties (88%).
    pub fp_first_party_request_share: f64,
    /// Fingerprint requests flagged by EasyList / EasyPrivacy.
    pub fp_easylist_flagged: usize,
    /// Fingerprint requests flagged by EasyPrivacy.
    pub fp_easyprivacy_flagged: usize,
    /// Per-channel tracking-request counts (Figure 6 / §V-D3).
    pub tracking_requests_per_channel: BTreeMap<ChannelId, usize>,
    /// Per-channel distinct-tracker counts (mean 7.25, max 33).
    pub trackers_per_channel: BTreeMap<ChannelId, usize>,
}

/// The whole-study accumulator of the §V-D scan, the input of
/// [`TrackingAnalysis::finish`].
#[derive(Debug, Default)]
pub(crate) struct TrackingPartial {
    row: TrackingRow,
    total: usize,
    perflyst_hits: usize,
    kamran_hits: usize,
    pixel_parties: BTreeSet<Etld1>,
    channels_with_pixels: BTreeSet<ChannelId>,
    pixel_party_channels: BTreeMap<Etld1, BTreeSet<ChannelId>>,
    pixel_party_requests: BTreeMap<Etld1, usize>,
    fp_channels: BTreeSet<ChannelId>,
    fp_providers: BTreeSet<Etld1>,
    fp_provider_is_fp: BTreeSet<Etld1>,
    fp_requests_first_party: usize,
    fp_el: usize,
    fp_ep: usize,
    req_per_channel: BTreeMap<ChannelId, usize>,
    trackers_per_channel: BTreeMap<ChannelId, BTreeSet<Etld1>>,
}

impl TrackingRow {
    /// Adds `other`'s counts to this row.
    pub(crate) fn add_row(&mut self, other: &TrackingRow) {
        self.on_pihole += other.on_pihole;
        self.on_easylist += other.on_easylist;
        self.on_easyprivacy += other.on_easyprivacy;
        self.tracking_pixels += other.tracking_pixels;
        self.fingerprints += other.fingerprints;
    }
}

/// [`TrackingPartial`] with interned eTLD+1 domain keys — the per-segment
/// shape the analysis engine caches for every sealed epoch.
/// [`SymTrackingPartial::resolve`] re-keys the symbol maps by the
/// domains they intern before the shared tail; distinct symbols mean
/// distinct domains, so the rebuilt BTree orderings match the naive
/// partial exactly.
#[derive(Debug, Default, Clone)]
pub(crate) struct SymTrackingPartial {
    pub(crate) row: TrackingRow,
    pub(crate) total: usize,
    pub(crate) perflyst_hits: usize,
    pub(crate) kamran_hits: usize,
    pub(crate) pixel_parties: BTreeSet<u32>,
    pub(crate) channels_with_pixels: BTreeSet<ChannelId>,
    pub(crate) pixel_party_channels: BTreeMap<u32, BTreeSet<ChannelId>>,
    pub(crate) pixel_party_requests: BTreeMap<u32, usize>,
    pub(crate) fp_channels: BTreeSet<ChannelId>,
    pub(crate) fp_providers: BTreeSet<u32>,
    pub(crate) fp_provider_is_fp: BTreeSet<u32>,
    pub(crate) fp_requests_first_party: usize,
    pub(crate) fp_el: usize,
    pub(crate) fp_ep: usize,
    pub(crate) req_per_channel: BTreeMap<ChannelId, usize>,
    pub(crate) trackers_per_channel: BTreeMap<ChannelId, BTreeSet<u32>>,
}

impl SymTrackingPartial {
    pub(crate) fn merge(&mut self, other: &SymTrackingPartial) {
        self.row.add_row(&other.row);
        self.total += other.total;
        self.perflyst_hits += other.perflyst_hits;
        self.kamran_hits += other.kamran_hits;
        self.pixel_parties.extend(&other.pixel_parties);
        self.channels_with_pixels
            .extend(&other.channels_with_pixels);
        for (d, chs) in &other.pixel_party_channels {
            self.pixel_party_channels.entry(*d).or_default().extend(chs);
        }
        for (d, n) in &other.pixel_party_requests {
            *self.pixel_party_requests.entry(*d).or_insert(0) += n;
        }
        self.fp_channels.extend(&other.fp_channels);
        self.fp_providers.extend(&other.fp_providers);
        self.fp_provider_is_fp.extend(&other.fp_provider_is_fp);
        self.fp_requests_first_party += other.fp_requests_first_party;
        self.fp_el += other.fp_el;
        self.fp_ep += other.fp_ep;
        for (ch, n) in &other.req_per_channel {
            *self.req_per_channel.entry(*ch).or_insert(0) += n;
        }
        for (ch, set) in &other.trackers_per_channel {
            self.trackers_per_channel
                .entry(*ch)
                .or_default()
                .extend(set);
        }
    }

    /// Resolves symbol keys back to `Etld1` strings for
    /// [`TrackingAnalysis::finish`].
    pub(crate) fn resolve(&self, etld1s: &[Etld1]) -> TrackingPartial {
        let domain = |s: &u32| etld1s[*s as usize].clone();
        let domain_set = |s: &BTreeSet<u32>| -> BTreeSet<Etld1> { s.iter().map(domain).collect() };
        TrackingPartial {
            row: self.row.clone(),
            total: self.total,
            perflyst_hits: self.perflyst_hits,
            kamran_hits: self.kamran_hits,
            pixel_parties: domain_set(&self.pixel_parties),
            channels_with_pixels: self.channels_with_pixels.clone(),
            pixel_party_channels: self
                .pixel_party_channels
                .iter()
                .map(|(s, chs)| (domain(s), chs.clone()))
                .collect(),
            pixel_party_requests: self
                .pixel_party_requests
                .iter()
                .map(|(s, n)| (domain(s), *n))
                .collect(),
            fp_channels: self.fp_channels.clone(),
            fp_providers: domain_set(&self.fp_providers),
            fp_provider_is_fp: domain_set(&self.fp_provider_is_fp),
            fp_requests_first_party: self.fp_requests_first_party,
            fp_el: self.fp_el,
            fp_ep: self.fp_ep,
            req_per_channel: self.req_per_channel.clone(),
            trackers_per_channel: self
                .trackers_per_channel
                .iter()
                .map(|(ch, set)| (*ch, domain_set(set)))
                .collect(),
        }
    }
}

impl TrackingAnalysis {
    /// Runs the full §V-D computation: one plain loop over each run's
    /// captures, writing the run's Table III row and the whole-study
    /// accumulator directly.
    pub fn compute(dataset: &StudyDataset, fp_map: &FirstPartyMap) -> Self {
        let mut per_run: BTreeMap<RunKind, TrackingRow> = BTreeMap::new();
        let mut p = TrackingPartial::default();
        for run_ds in &dataset.runs {
            let row = per_run.entry(run_ds.run).or_default();
            for c in &run_ds.captures {
                p.total += 1;
                // One fused classification per exchange: eTLD+1, party
                // relationship, resource kind, and all five list
                // verdicts over a single serialized URL.
                let cls = ExchangeClass::classify(c, fp_map);
                let domain = cls.etld1;
                let (on_el, on_ep, on_ph) = (cls.on_easylist, cls.on_easyprivacy, cls.on_pihole);
                if on_el {
                    row.on_easylist += 1;
                }
                if on_ep {
                    row.on_easyprivacy += 1;
                }
                if on_ph {
                    row.on_pihole += 1;
                }
                if cls.on_perflyst {
                    p.perflyst_hits += 1;
                }
                if cls.on_kamran {
                    p.kamran_hits += 1;
                }

                let pixel = is_tracking_pixel(c);
                let fingerprint = is_fingerprint_script(c);
                if pixel {
                    row.tracking_pixels += 1;
                    p.pixel_parties.insert(domain.clone());
                    *p.pixel_party_requests.entry(domain.clone()).or_insert(0) += 1;
                    if let Some(ch) = c.channel {
                        p.channels_with_pixels.insert(ch);
                        p.pixel_party_channels
                            .entry(domain.clone())
                            .or_default()
                            .insert(ch);
                    }
                }
                if fingerprint {
                    row.fingerprints += 1;
                    p.fp_providers.insert(domain.clone());
                    if let Some(ch) = c.channel {
                        p.fp_channels.insert(ch);
                        if !fp_map.is_third_party(ch, &domain) {
                            p.fp_requests_first_party += 1;
                            p.fp_provider_is_fp.insert(domain.clone());
                        }
                    }
                    if on_el {
                        p.fp_el += 1;
                    }
                    if on_ep {
                        p.fp_ep += 1;
                    }
                }

                // A "tracking request" for the channel-level analysis:
                // pixel, fingerprint, or known (list-flagged) tracker.
                if pixel || fingerprint || on_el || on_ep || on_ph {
                    if let Some(ch) = c.channel {
                        *p.req_per_channel.entry(ch).or_insert(0) += 1;
                        p.trackers_per_channel.entry(ch).or_default().insert(domain);
                    }
                }
            }
        }
        for row in per_run.values() {
            p.row.add_row(row);
        }
        Self::finish(per_run, p)
    }

    /// The order-independent tail shared by both scan paths.
    pub(crate) fn finish(per_run: BTreeMap<RunKind, TrackingRow>, global: TrackingPartial) -> Self {
        // Dominance by channel reach, request volume breaking ties — at
        // full scale tvping leads on both axes.
        let dominant_pixel_party = global
            .pixel_party_channels
            .iter()
            .max_by_key(|(d, chs)| {
                (
                    chs.len(),
                    global.pixel_party_requests.get(*d).copied().unwrap_or(0),
                )
            })
            .map(|(d, chs)| (d.clone(), chs.len()));
        let pixel_parties_on_easylist = global
            .pixel_parties
            .iter()
            .filter(|d| {
                let url: hbbtv_net::Url = format!("http://{d}/p").parse().expect("valid");
                bundled::easylist_ref().matches(&url, RequestContext::third_party_image())
            })
            .count();

        let pixel_total = global.row.tracking_pixels;
        let fp_requests = global.row.fingerprints;
        TrackingAnalysis {
            per_run,
            total_urls: global.total,
            perflyst_hits: global.perflyst_hits,
            kamran_hits: global.kamran_hits,
            pihole_hits_total: global.row.on_pihole,
            pixel_total,
            pixel_parties_on_easylist,
            pixel_parties: global.pixel_parties,
            channels_with_pixels: global.channels_with_pixels.len(),
            pixel_traffic_share: if global.total == 0 {
                0.0
            } else {
                pixel_total as f64 / global.total as f64 * 100.0
            },
            dominant_pixel_party,
            channels_with_fingerprinting: global.fp_channels.len(),
            fp_providers_first_party: global.fp_provider_is_fp.len(),
            fingerprint_providers: global.fp_providers,
            fp_first_party_request_share: if fp_requests == 0 {
                0.0
            } else {
                global.fp_requests_first_party as f64 / fp_requests as f64 * 100.0
            },
            fp_easylist_flagged: global.fp_el,
            fp_easyprivacy_flagged: global.fp_ep,
            tracking_requests_per_channel: global.req_per_channel,
            trackers_per_channel: global
                .trackers_per_channel
                .into_iter()
                .map(|(ch, set)| (ch, set.len()))
                .collect(),
        }
    }

    /// Descriptive stats of distinct trackers per channel (Figure 6).
    pub fn trackers_per_channel_stats(&self) -> hbbtv_stats::Describe {
        let v: Vec<f64> = self
            .trackers_per_channel
            .values()
            .map(|&n| n as f64)
            .collect();
        hbbtv_stats::describe(&v)
    }

    /// Descriptive stats of tracking requests per channel (§V-D3).
    pub fn tracking_requests_stats(&self) -> hbbtv_stats::Describe {
        let v: Vec<f64> = self
            .tracking_requests_per_channel
            .values()
            .map(|&n| n as f64)
            .collect();
        hbbtv_stats::describe(&v)
    }

    /// Share of total tracking requests issued by the top-N channels.
    pub fn top_channel_share(&self, n: usize) -> f64 {
        let mut counts: Vec<usize> = self
            .tracking_requests_per_channel
            .values()
            .copied()
            .collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: usize = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        counts.iter().take(n).sum::<usize>() as f64 / total as f64 * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ecosystem, StudyHarness};

    fn dataset() -> (Ecosystem, StudyDataset) {
        let eco = Ecosystem::with_scale(7, 0.06);
        let harness = StudyHarness::new(&eco);
        let runs = vec![harness.run(RunKind::General), harness.run(RunKind::Red)];
        (eco, StudyDataset { runs })
    }

    #[test]
    fn pixels_dominate_and_lists_miss_them() {
        let (_eco, ds) = dataset();
        let fp = FirstPartyMap::identify(&ds);
        let t = TrackingAnalysis::compute(&ds, &fp);
        assert!(t.pixel_total > 100, "pixels = {}", t.pixel_total);
        // The central §V-D finding: the lists flag a tiny share.
        let el: usize = t.per_run.values().map(|r| r.on_easylist).sum();
        assert!(
            el * 5 < t.pixel_total,
            "EasyList hits ({el}) should be far below pixels ({})",
            t.pixel_total
        );
        // An HbbTV-native (filter-list-invisible) tracker dominates. At
        // full scale this is tvping.com on ~140 channels (see
        // EXPERIMENTS.md); at the reduced test scale the program beacon
        // can edge ahead.
        let (dom, _) = t.dominant_pixel_party.clone().unwrap();
        assert!(
            dom.as_str() == "tvping.com" || dom.as_str() == "programstats.tv",
            "dominant was {dom}"
        );
        // Pixel traffic dominates overall traffic.
        assert!(t.pixel_traffic_share > 30.0, "{}", t.pixel_traffic_share);
    }

    #[test]
    fn red_run_has_more_list_hits_than_general() {
        let (_eco, ds) = dataset();
        let fp = FirstPartyMap::identify(&ds);
        let t = TrackingAnalysis::compute(&ds, &fp);
        let gen = &t.per_run[&RunKind::General];
        let red = &t.per_run[&RunKind::Red];
        assert!(red.on_easylist > gen.on_easylist);
        assert!(red.on_pihole >= gen.on_pihole);
    }

    #[test]
    fn fingerprints_detected_with_providers() {
        // Larger slice so both first-party and third-party fingerprint
        // cohorts exist.
        let eco = Ecosystem::with_scale(7, 0.18);
        let harness = StudyHarness::new(&eco);
        let ds = StudyDataset {
            runs: vec![harness.run(RunKind::General), harness.run(RunKind::Red)],
        };
        let fp = FirstPartyMap::identify(&ds);
        let t = TrackingAnalysis::compute(&ds, &fp);
        assert!(t.channels_with_fingerprinting > 0);
        assert!(!t.fingerprint_providers.is_empty());
        if t.fp_providers_first_party > 0 {
            // First-party hosted scripts re-probe periodically, so first
            // parties dominate fingerprint requests (§V-D2's 88%).
            assert!(t.fp_first_party_request_share > 50.0);
        }
    }

    #[test]
    fn smarttv_lists_block_less_than_pihole() {
        let (_eco, ds) = dataset();
        let fp = FirstPartyMap::identify(&ds);
        let t = TrackingAnalysis::compute(&ds, &fp);
        assert!(t.perflyst_hits <= t.pihole_hits_total);
        assert!(t.kamran_hits <= t.perflyst_hits);
    }

    #[test]
    fn per_channel_stats_have_a_long_tail() {
        let (_eco, ds) = dataset();
        let fp = FirstPartyMap::identify(&ds);
        let t = TrackingAnalysis::compute(&ds, &fp);
        let stats = t.tracking_requests_stats();
        assert!(stats.max > stats.mean * 3.0, "outlier channel dominates");
        assert!(t.top_channel_share(1) > 10.0);
    }

    #[test]
    fn pixel_heuristic_rejects_large_images_and_errors() {
        use hbbtv_net::{ContentType, Request, Response};
        let mk = |len: usize, status: Status, ct: ContentType| CapturedExchange {
            session: "t".into(),
            visit: None,
            channel: None,
            channel_name: None,
            request: Request::get("http://x.de/p".parse().unwrap()).build(),
            response: Response::builder(status)
                .content_type(ct)
                .body_len(len)
                .build(),
        };
        assert!(is_tracking_pixel(&mk(43, Status::OK, ContentType::Image)));
        assert!(!is_tracking_pixel(&mk(45, Status::OK, ContentType::Image)));
        assert!(!is_tracking_pixel(&mk(
            43,
            Status::NOT_FOUND,
            ContentType::Image
        )));
        assert!(!is_tracking_pixel(&mk(43, Status::OK, ContentType::Json)));
    }
}
