//! Property-based tests for tracker-service behavior.

use hbbtv_net::{Request, Timestamp};
use hbbtv_trackers::{ResponderContext, TrackerKind, TrackerService};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

prop_compose! {
    fn arb_site()(s in "[a-z][a-z0-9-]{0,12}") -> String { s }
}

proptest! {
    /// Pixel responses always satisfy the §V-D1 heuristic, for any site.
    #[test]
    fn pixels_always_satisfy_the_heuristic(site in arb_site(), seed in any::<u64>()) {
        let svc = TrackerService::new("tvping.com", TrackerKind::PixelBeacon)
            .with_cookie("tvp_uid", 16);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ctx = ResponderContext { now: Timestamp::MEASUREMENT_START, rng: &mut rng };
        let req = Request::get(format!("http://tvping.com/ping?site={site}").parse().unwrap())
            .build();
        let resp = svc.respond(&req, &mut ctx);
        prop_assert!(resp.content_type.is_image());
        prop_assert!(resp.body_len < 45);
        prop_assert!(resp.status.is_success());
    }

    /// A presented cookie is always echoed back unchanged (the tracker
    /// re-identifies instead of re-minting).
    #[test]
    fn presented_ids_are_stable(value in "[a-z0-9]{10,25}", seed in any::<u64>()) {
        let svc = TrackerService::new("an.xiti.com", TrackerKind::Analytics)
            .with_cookie("atuserid", 20);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ctx = ResponderContext { now: Timestamp::MEASUREMENT_START, rng: &mut rng };
        let req = Request::get("http://an.xiti.com/hit".parse().unwrap())
            .header("Cookie", &format!("atuserid={value}"))
            .build();
        let resp = svc.respond(&req, &mut ctx);
        let set = resp.set_cookies();
        prop_assert_eq!(&set[0].cookie.value, &value);
    }

    /// Per-site cookies never collide across sites (distinct names).
    #[test]
    fn per_site_cookies_are_namespaced(a in arb_site(), b in arb_site()) {
        prop_assume!(a != b);
        let svc = TrackerService::new("xiti.com", TrackerKind::Analytics)
            .with_per_site_cookie("xtvrn", 20);
        let req_a = Request::get(format!("http://xiti.com/h?site={a}").parse().unwrap()).build();
        let req_b = Request::get(format!("http://xiti.com/h?site={b}").parse().unwrap()).build();
        prop_assert_ne!(
            svc.effective_cookie_name(&req_a),
            svc.effective_cookie_name(&req_b)
        );
    }

    /// Sync redirects always carry the presented uid to the partner.
    #[test]
    fn sync_source_forwards_presented_uid(value in "[a-z0-9]{10,25}", seed in any::<u64>()) {
        let svc = TrackerService::new(
            "adsync-a.com",
            TrackerKind::CookieSyncSource { partner_host: "adsync-b.com".into() },
        )
        .with_cookie("sync_uid", 18);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ctx = ResponderContext { now: Timestamp::MEASUREMENT_START, rng: &mut rng };
        let req = Request::get("http://adsync-a.com/pix".parse().unwrap())
            .header("Cookie", &format!("sync_uid={value}"))
            .build();
        let resp = svc.respond(&req, &mut ctx);
        let loc = resp.location().unwrap();
        prop_assert_eq!(loc.query_param("uid"), Some(value.as_str()));
        prop_assert_eq!(loc.host(), "adsync-b.com");
    }
}
