//! Fused per-exchange classification for the naive §V-D tracking scan.
//!
//! [`ExchangeClass::classify`] derives an exchange's eTLD+1, party
//! relationship, and resource kind, and probes each bundled filter list,
//! in one pass: the URL is serialized exactly once and all five list
//! probes run over the same borrowed [`UrlView`]. The analysis engine
//! memoizes the same five verdicts per distinct (URL, party relation,
//! content type) key instead.

use crate::analysis::first_party::FirstPartyMap;
use hbbtv_filterlists::{bundled, RequestContext, ResourceKind, UrlView};
use hbbtv_net::{ContentType, Etld1};
use hbbtv_proxy::CapturedExchange;

/// Everything the tracking scan needs to know about one exchange.
#[derive(Debug, Clone)]
pub struct ExchangeClass {
    /// The request URL's eTLD+1.
    pub etld1: Etld1,
    /// Whether the request crossed the channel's first-party boundary
    /// (requests outside any channel count as third-party).
    pub third_party: bool,
    /// Resource kind derived from the *response* content type, as §V-D
    /// classifies exchanges.
    pub kind: ResourceKind,
    /// Flagged by the Pi-hole hosts list.
    pub on_pihole: bool,
    /// Flagged by EasyList.
    pub on_easylist: bool,
    /// Flagged by EasyPrivacy.
    pub on_easyprivacy: bool,
    /// Flagged by the Perflyst Smart-TV list.
    pub on_perflyst: bool,
    /// Flagged by the Kamran Smart-TV list.
    pub on_kamran: bool,
}

/// Maps a response content type to the resource kind the filter-list
/// options see (§V-D's classification).
pub fn resource_kind_of_content(content_type: ContentType) -> ResourceKind {
    match content_type {
        ContentType::Image => ResourceKind::Image,
        ContentType::JavaScript => ResourceKind::Script,
        ContentType::Html => ResourceKind::Document,
        _ => ResourceKind::Other,
    }
}

impl ExchangeClass {
    /// Classifies one exchange: eTLD+1, party relationship, resource
    /// kind, and all five bundled-list verdicts, with a single URL
    /// serialization.
    pub fn classify(c: &CapturedExchange, fp_map: &FirstPartyMap) -> Self {
        let etld1 = c.request.url.etld1().clone();
        let third_party = c
            .channel
            .map(|ch| fp_map.is_third_party(ch, &etld1))
            .unwrap_or(true);
        let kind = resource_kind_of_content(c.response.content_type);
        let ctx = RequestContext { third_party, kind };
        let text = c.request.url.to_text();
        let view = UrlView::new(&text, c.request.url.host(), etld1.as_str());
        ExchangeClass {
            on_pihole: bundled::pihole_ref().matches_view(&view, ctx),
            on_easylist: bundled::easylist_ref().matches_view(&view, ctx),
            on_easyprivacy: bundled::easyprivacy_ref().matches_view(&view, ctx),
            on_perflyst: bundled::perflyst_ref().matches_view(&view, ctx),
            on_kamran: bundled::kamran_ref().matches_view(&view, ctx),
            etld1,
            third_party,
            kind,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::first_party::FirstPartyMap;
    use hbbtv_net::{Request, Response, Status};

    fn exchange(url: &str, ct: ContentType) -> CapturedExchange {
        CapturedExchange {
            session: "t".into(),
            visit: None,
            channel: None,
            channel_name: None,
            request: Request::get(url.parse().unwrap()).build(),
            response: Response::builder(Status::OK).content_type(ct).build(),
        }
    }

    #[test]
    fn classification_agrees_with_per_list_matching() {
        let fp = FirstPartyMap::default();
        let c = exchange("http://ad.doubleclick.net/imp", ContentType::Image);
        let cls = ExchangeClass::classify(&c, &fp);
        assert!(cls.third_party, "no channel means third-party");
        assert_eq!(cls.kind, ResourceKind::Image);
        assert_eq!(cls.etld1.as_str(), "doubleclick.net");
        assert!(cls.on_pihole && cls.on_easylist);
        assert!(!cls.on_easyprivacy);
        // Cross-check each flag against the one-list API.
        let ctx = RequestContext {
            third_party: cls.third_party,
            kind: cls.kind,
        };
        for (flag, list) in [
            (cls.on_pihole, bundled::pihole_ref()),
            (cls.on_easylist, bundled::easylist_ref()),
            (cls.on_easyprivacy, bundled::easyprivacy_ref()),
            (cls.on_perflyst, bundled::perflyst_ref()),
            (cls.on_kamran, bundled::kamran_ref()),
        ] {
            assert_eq!(flag, list.matches(&c.request.url, ctx), "{}", list.name());
        }
    }

    #[test]
    fn tvping_stays_invisible_to_every_list() {
        let fp = FirstPartyMap::default();
        let c = exchange("http://tvping.com/ping?c=1", ContentType::Image);
        let cls = ExchangeClass::classify(&c, &fp);
        assert!(
            !(cls.on_pihole
                || cls.on_easylist
                || cls.on_easyprivacy
                || cls.on_perflyst
                || cls.on_kamran),
            "the paper's central finding: no list knows tvping.com"
        );
    }

    #[test]
    fn resource_kinds_follow_content_types() {
        assert_eq!(
            resource_kind_of_content(ContentType::Image),
            ResourceKind::Image
        );
        assert_eq!(
            resource_kind_of_content(ContentType::JavaScript),
            ResourceKind::Script
        );
        assert_eq!(
            resource_kind_of_content(ContentType::Html),
            ResourceKind::Document
        );
        assert_eq!(
            resource_kind_of_content(ContentType::Json),
            ResourceKind::Other
        );
    }
}
