//! Bundled synthetic filter-list snapshots.
//!
//! The real study used EasyList (2023-03-23), EasyPrivacy (2024-07-22),
//! the StevenBlack Pi-hole hosts list (2023-11-01), Perflyst's
//! PiHoleBlocklist, and Kamran's Smart-TV list. We cannot redistribute
//! those lists, and our traffic is synthetic anyway — what matters for
//! reproducing §V-D is each list's *coverage profile*:
//!
//! * Web-centric lists know the classic ad/analytics domains (which HbbTV
//!   apps embed only occasionally) but miss HbbTV-native trackers —
//!   `tvping.com`, the ecosystem's highest-volume pixel tracker, is on
//!   **no** list, exactly as the paper observed.
//! * The Pi-hole hosts list is broader than EasyList/EasyPrivacy
//!   (1.17% vs 0.5% vs 0.15% of URLs flagged).
//! * Smart-TV lists (Perflyst, Kamran) know platform telemetry domains
//!   but even fewer HbbTV trackers, blocking 27% / 64% fewer requests
//!   than Pi-hole.
//!
//! Domain names of simulated trackers are shared with the
//! `hbbtv-trackers` crate; the constants below are the single source of
//! truth for which of them each list covers.

use crate::matcher::FilterList;
use std::sync::OnceLock;

/// Synthetic EasyList snapshot (Adblock syntax): classic ad-serving
/// domains plus a handful of generic pixel paths.
pub const EASYLIST_TEXT: &str = "\
[Adblock Plus 2.0]
! Title: EasyList (synthetic snapshot for hbbtv-lab)
||doubleclick.net^
||adform.net^$third-party
||criteo.com^
||adition.com^$third-party
||theadex.com^
||yieldlab.net^$third-party
||taboola.com^
||outbrain.com^
||amazon-adsystem.com^
||flashtalking.com^
||smartadserver.com^
||adnxs.com^$third-party
||rubiconproject.com^
||pubmatic.com^
/adframe/*$third-party
/ad-banner/
/adserver/*/impression
@@||ard.de/static/ad-free^
";

/// Synthetic EasyPrivacy snapshot (Adblock syntax): analytics and
/// measurement domains, including the European TV-measurement providers.
pub const EASYPRIVACY_TEXT: &str = "\
! Title: EasyPrivacy (synthetic snapshot for hbbtv-lab)
||google-analytics.com^
||googletagmanager.com^
||xiti.com^$third-party
||webtrekk.net^
||etracker.com^
||scorecardresearch.com^
||chartbeat.com^
||hotjar.com^
||quantserve.com^
/collect?tid=
/piwik.php
";

/// Synthetic Pi-hole (StevenBlack-style) hosts snapshot: the broadest
/// list — ad domains, analytics domains, and a few CDN-hosted trackers
/// including `smartclip.net` (which §VII finds flagged on Super RTL).
pub const PIHOLE_TEXT: &str = "\
# StevenBlack unified hosts (synthetic snapshot for hbbtv-lab)
127.0.0.1 localhost
0.0.0.0 doubleclick.net
0.0.0.0 ad.doubleclick.net
0.0.0.0 adform.net
0.0.0.0 criteo.com
0.0.0.0 adition.com
0.0.0.0 theadex.com
0.0.0.0 yieldlab.net
0.0.0.0 taboola.com
0.0.0.0 outbrain.com
0.0.0.0 amazon-adsystem.com
0.0.0.0 flashtalking.com
0.0.0.0 smartadserver.com
0.0.0.0 adnxs.com
0.0.0.0 rubiconproject.com
0.0.0.0 pubmatic.com
0.0.0.0 google-analytics.com
0.0.0.0 googletagmanager.com
0.0.0.0 xiti.com
0.0.0.0 ioam.de
0.0.0.0 webtrekk.net
0.0.0.0 etracker.com
0.0.0.0 scorecardresearch.com
0.0.0.0 chartbeat.com
0.0.0.0 smartclip.net
0.0.0.0 emetriq.de
0.0.0.0 adalliance.io
0.0.0.0 samsungads.com
";

/// Synthetic Perflyst PiHoleBlocklist (Smart-TV) snapshot: platform
/// telemetry plus the analytics domains TV firmware talks to. Knows some
/// web analytics but fewer ad domains than Pi-hole.
pub const PERFLYST_TEXT: &str = "\
# Perflyst PiHoleBlocklist SmartTV (synthetic snapshot for hbbtv-lab)
samsungads.com
samsungacr.com
lgsmartad.com
lgtvsdp.com
vizio-metrics.com
smarttv-telemetry.net
ioam.de
scorecardresearch.com
smartclip.net
google-analytics.com
googletagmanager.com
doubleclick.net
xiti.com
emetriq.de
";

/// Synthetic Kamran Smart-TV blocklist snapshot: the narrowest list —
/// platform telemetry only.
pub const KAMRAN_TEXT: &str = "\
# hkamran80/blocklists smart-tv (synthetic snapshot for hbbtv-lab)
samsungads.com
samsungacr.com
lgsmartad.com
lgtvsdp.com
vizio-metrics.com
roku-analytics.com
doubleclick.net
google-analytics.com
";

/// Process-wide registry: each bundled list is materialized once, on
/// first use, then shared by reference from every analysis pass and
/// worker thread. (`FilterList` is `Sync`; the matcher holds no
/// interior mutability.)
static EASYLIST: OnceLock<FilterList> = OnceLock::new();
static EASYPRIVACY: OnceLock<FilterList> = OnceLock::new();
static PIHOLE: OnceLock<FilterList> = OnceLock::new();
static PERFLYST: OnceLock<FilterList> = OnceLock::new();
static KAMRAN: OnceLock<FilterList> = OnceLock::new();

/// The shared synthetic EasyList.
pub fn easylist_ref() -> &'static FilterList {
    EASYLIST.get_or_init(|| FilterList::parse_adblock("EasyList", EASYLIST_TEXT))
}

/// The shared synthetic EasyPrivacy.
pub fn easyprivacy_ref() -> &'static FilterList {
    EASYPRIVACY.get_or_init(|| FilterList::parse_adblock("EasyPrivacy", EASYPRIVACY_TEXT))
}

/// The shared synthetic Pi-hole hosts list.
pub fn pihole_ref() -> &'static FilterList {
    PIHOLE.get_or_init(|| FilterList::parse_hosts_list("Pi-hole", PIHOLE_TEXT))
}

/// The shared synthetic Perflyst Smart-TV list.
pub fn perflyst_ref() -> &'static FilterList {
    PERFLYST.get_or_init(|| FilterList::parse_hosts_list("Perflyst SmartTV", PERFLYST_TEXT))
}

/// The shared synthetic Kamran Smart-TV list.
pub fn kamran_ref() -> &'static FilterList {
    KAMRAN.get_or_init(|| FilterList::parse_hosts_list("Kamran SmartTV", KAMRAN_TEXT))
}

/// All five shared lists in the order Table III reports them.
pub fn all_refs() -> [&'static FilterList; 5] {
    [
        pihole_ref(),
        easylist_ref(),
        easyprivacy_ref(),
        perflyst_ref(),
        kamran_ref(),
    ]
}

/// The parsed synthetic EasyList (owned; prefer [`easylist_ref`]).
pub fn easylist() -> FilterList {
    easylist_ref().clone()
}

/// The parsed synthetic EasyPrivacy (owned; prefer [`easyprivacy_ref`]).
pub fn easyprivacy() -> FilterList {
    easyprivacy_ref().clone()
}

/// The parsed synthetic Pi-hole hosts list (owned; prefer
/// [`pihole_ref`]).
pub fn pihole() -> FilterList {
    pihole_ref().clone()
}

/// The parsed synthetic Perflyst Smart-TV list (owned; prefer
/// [`perflyst_ref`]).
pub fn perflyst() -> FilterList {
    perflyst_ref().clone()
}

/// The parsed synthetic Kamran Smart-TV list (owned; prefer
/// [`kamran_ref`]).
pub fn kamran() -> FilterList {
    kamran_ref().clone()
}

/// All five lists in Table III order (owned; prefer [`all_refs`]).
pub fn all() -> Vec<FilterList> {
    vec![pihole(), easylist(), easyprivacy(), perflyst(), kamran()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::RequestContext;
    use hbbtv_net::Url;

    fn u(s: &str) -> Url {
        s.parse().unwrap()
    }

    #[test]
    fn lists_parse_nonempty() {
        for list in all() {
            assert!(!list.is_empty(), "{} parsed empty", list.name());
        }
    }

    #[test]
    fn tvping_is_on_no_list() {
        // The paper's central filter-list finding: the highest-volume
        // HbbTV pixel tracker is invisible to every list.
        let url = u("http://tvping.com/ping?c=1&s=2&u=3");
        for list in all() {
            assert!(
                !list.matches(&url, RequestContext::third_party_image()),
                "{} unexpectedly covers tvping.com",
                list.name()
            );
        }
    }

    #[test]
    fn easylist_knows_web_ads_but_not_analytics() {
        let el = easylist();
        assert!(el.matches(
            &u("http://ad.doubleclick.net/impression"),
            RequestContext::third_party_image()
        ));
        assert!(!el.matches(
            &u("http://google-analytics.com/collect?tid=UA-1"),
            RequestContext::third_party_image()
        ));
    }

    #[test]
    fn easyprivacy_knows_analytics() {
        let ep = easyprivacy();
        assert!(ep.matches(
            &u("http://an.xiti.com/hit.xiti?s=1"),
            RequestContext::third_party_image()
        ));
        assert!(ep.matches(
            &u("http://google-analytics.com/collect?tid=UA-1"),
            RequestContext::third_party_image()
        ));
    }

    #[test]
    fn xiti_first_party_hit_is_not_flagged_by_easyprivacy() {
        // `||xiti.com^$third-party` must not fire on a first-party fetch.
        let ep = easyprivacy();
        assert!(!ep.matches(
            &u("http://xiti.com/self"),
            RequestContext {
                third_party: false,
                kind: crate::ResourceKind::Image
            }
        ));
    }

    #[test]
    fn pihole_is_broadest_on_reference_urls() {
        let reference = [
            "http://ad.doubleclick.net/x",
            "http://google-analytics.com/collect",
            "http://an.xiti.com/hit",
            "http://cdn.smartclip.net/policy.js",
            "http://emetriq.de/t.gif",
            "http://tvping.com/ping",
            "http://samsungads.com/t",
        ];
        let counts: Vec<usize> = all()
            .iter()
            .map(|list| {
                reference
                    .iter()
                    .filter(|s| list.matches(&u(s), RequestContext::third_party_image()))
                    .count()
            })
            .collect();
        // Order: pihole, easylist, easyprivacy, perflyst, kamran.
        assert!(counts[0] >= counts[1], "pihole >= easylist");
        assert!(counts[0] >= counts[2], "pihole >= easyprivacy");
        assert!(counts[0] >= counts[3], "pihole >= perflyst");
        assert!(counts[3] >= counts[4], "perflyst >= kamran");
    }

    #[test]
    fn smarttv_lists_know_platform_telemetry() {
        let ctx = RequestContext::third_party_image();
        assert!(perflyst().matches(&u("http://samsungads.com/t"), ctx));
        assert!(kamran().matches(&u("http://lgsmartad.com/t"), ctx));
        assert!(!kamran().matches(&u("http://smartclip.net/t"), ctx));
    }
}
