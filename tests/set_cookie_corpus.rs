//! One `Set-Cookie` writer and one parser, checked on a generated
//! corpus: the borrowed view agrees with the owned parse and with the
//! `Display` round trip, a jar updated from the header text equals one
//! updated from the parsed cookie, and every tracker kind writes the
//! header its parts spell out, byte for byte.

use hbbtv_net::{Etld1, Request, SameSite, SetCookie, SetCookieView, Timestamp};
use hbbtv_trackers::{ResponderContext, TrackerKind, TrackerService};
use hbbtv_tv::CookieJar;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// SplitMix64, so each generated header is a pure function of its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) as usize
    }

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.next() % from.len()]
    }

    fn chance(&mut self, in_four: usize) -> bool {
        self.next() % 4 < in_four
    }

    /// `word` in a random mix of upper and lower case.
    fn case(&mut self, word: &str) -> String {
        word.chars()
            .map(|c| {
                if self.chance(2) {
                    c.to_ascii_uppercase()
                } else {
                    c.to_ascii_lowercase()
                }
            })
            .collect()
    }
}

/// Padding the parser must trim: ASCII and Unicode whitespace.
const SPACE: &[&str] = &["", "", " ", "  ", "\t", "\u{a0}", " \u{3000}"];

fn header(rng: &mut Rng) -> String {
    let name = rng.pick(&["uid", "xtvrn_rtl", "_ga", "a", "", "sid", "ü"]);
    let value = rng.pick(&["", "abcdef1234567890", "a=b=c", "v", "1700000000", "ä ö"]);
    let mut text = format!("{}{name}{}", rng.pick(SPACE), rng.pick(SPACE),);
    // One header in eight lacks the pair's `=`.
    if !rng.next().is_multiple_of(8) {
        text.push('=');
    }
    text.push_str(rng.pick(SPACE));
    text.push_str(value);
    text.push_str(rng.pick(SPACE));
    for _ in 0..rng.next() % 6 {
        let attr = match rng.next() % 9 {
            0 | 1 => format!(
                "{}={}",
                rng.case("Domain"),
                rng.pick(&[
                    "xiti.com",
                    ".an.xiti.com",
                    "TVPING.com",
                    "",
                    "bbc.co.uk",
                    "..a.de"
                ])
            ),
            2 => format!(
                "{}={}",
                rng.case("Expires"),
                rng.pick(&["1700000000", "0", "x", "", "+5"])
            ),
            3 => format!(
                "{}={}",
                rng.case("Max-Age"),
                rng.pick(&["60", "1722384000", "-1", ""])
            ),
            4 => rng.case("Secure"),
            5 => rng.case("HttpOnly"),
            6 => format!(
                "{}={}",
                rng.case("SameSite"),
                rng.pick(&["Lax", "strict", "None", "bogus"])
            ),
            7 => rng.pick(&["", "Path=/", "novalue", "=x"]).to_string(),
            _ => format!("{}{}", rng.case("domain"), rng.pick(&["", "="])),
        };
        text.push(';');
        text.push_str(rng.pick(SPACE));
        text.push_str(&attr);
        text.push_str(rng.pick(SPACE));
    }
    text
}

/// The view and the owned parse read the same cookie from every header,
/// and the owned cookie's `Display` text reads back as itself.
#[test]
fn view_agrees_with_parse_and_display_round_trip() {
    let mut rng = Rng(0x5e7c_001e);
    let mut accepted = 0;
    for _ in 0..20_000 {
        let text = header(&mut rng);
        let (view, parsed) = match (SetCookieView::parse(&text), SetCookie::parse(&text)) {
            (Ok(view), Ok(parsed)) => (view, parsed),
            (Err(a), Err(b)) => {
                assert_eq!(a, b, "{text:?}");
                continue;
            }
            (view, parsed) => panic!("{text:?}: view {view:?}, parse {parsed:?}"),
        };
        accepted += 1;
        let attrs = view.attributes();
        assert_eq!(view.name, parsed.cookie.name, "{text:?}");
        assert_eq!(view.value, parsed.cookie.value, "{text:?}");
        assert_eq!(attrs.domain, view.domain(), "{text:?}");
        assert_eq!(attrs.domain.is_some(), parsed.explicit_domain, "{text:?}");
        if let Some(host) = attrs.domain {
            assert_eq!(Etld1::from_host(host), parsed.cookie.domain, "{text:?}");
        }
        assert_eq!(attrs.expires, parsed.expires, "{text:?}");
        assert_eq!(attrs.secure, parsed.secure, "{text:?}");
        assert_eq!(attrs.http_only, parsed.http_only, "{text:?}");
        assert_eq!(attrs.same_site, parsed.same_site, "{text:?}");

        let written = parsed.to_string();
        assert_eq!(parsed.parts().text_len(), written.len(), "{written:?}");
        assert_eq!(SetCookie::parse(&written).as_ref(), Ok(&parsed), "{text:?}");
        let again = SetCookieView::parse(&written).expect("written text parses");
        assert_eq!((again.name, again.value), (view.name, view.value));
    }
    assert!(accepted > 5_000, "only {accepted} headers parsed");
}

/// Updating a jar from header text leaves the same jar as updating it
/// from the parsed cookie: the first write creates the entry, the
/// second keeps `created`, bumps `updated` and replaces value and
/// expiry.
#[test]
fn jar_updated_from_text_equals_jar_updated_from_parsed_cookie() {
    const T0: Timestamp = Timestamp::from_unix(1_700_000_000);
    const T1: Timestamp = Timestamp::from_unix(1_700_000_100);
    let responder = Etld1::new("rtl.de");
    let mut rng = Rng(0x7a_2024);
    let mut updated = 0;
    for _ in 0..5_000 {
        let first = header(&mut rng);
        let Ok(sc) = SetCookie::parse(&first) else {
            continue;
        };
        // The same cookie again, with a new value and expiry.
        let domain = SetCookieView::parse(&first).unwrap().domain();
        let expiry = rng.pick(&["", "; Expires=1700000050", "; Max-Age=1800000000"]);
        let second = format!(
            "{}=v{}{}{expiry}",
            sc.cookie.name,
            rng.next() % 100,
            domain.map_or(String::new(), |d| format!("; Domain={d}")),
        );
        let (mut by_text, mut by_parse) = (CookieJar::new(), CookieJar::new());
        for (text, at) in [(first.as_str(), T0), (second.as_str(), T1)] {
            let view = SetCookieView::parse(text).expect("accepted above");
            by_text.apply_view(view, responder.view(), at);
            by_parse.apply(&SetCookie::parse(text).unwrap(), responder.view(), at);
        }
        assert_eq!(by_text, by_parse, "{first:?} then {second:?}");
        let stored: Vec<_> = by_text.all().collect();
        assert_eq!(stored.len(), 1, "{first:?} then {second:?}");
        let again = SetCookie::parse(&second).unwrap();
        assert_eq!(stored[0].created, T0);
        assert_eq!(stored[0].updated, T1);
        assert_eq!(stored[0].cookie.value, again.cookie.value);
        assert_eq!(stored[0].expires, again.expires, "{second:?}");
        updated += 1;
    }
    assert!(updated > 1_000, "only {updated} updates");
}

/// Every tracker kind writes the header its parts spell out, in the
/// `SetCookie` `Display` form: the ID cookie is
/// `name=value; Domain=<eTLD+1>; Expires=<now + 365 days>`, with the
/// per-site suffix, the presented ID, the partner `uid` or a minted ID.
#[test]
fn every_tracker_kind_writes_the_header_of_its_parts() {
    let now = Timestamp::from_unix(1_700_000_000);
    let expires = now.as_unix() + 365 * 24 * 3600;
    let kinds = [
        TrackerKind::PixelBeacon,
        TrackerKind::Analytics,
        TrackerKind::Fingerprinter { uses_library: true },
        TrackerKind::AdServer,
        TrackerKind::CookieSyncSource {
            partner_host: "adsync-b.com".to_string(),
        },
        TrackerKind::CookieSyncTarget,
        TrackerKind::Cdn,
    ];
    let mut rng = StdRng::seed_from_u64(3);
    let mut checked = 0;
    for kind in kinds {
        for per_site in [false, true] {
            let svc = TrackerService::new("an.tracker.de", kind.clone());
            let svc = if per_site {
                svc.with_per_site_cookie("xtvrn", 18)
            } else {
                svc.with_cookie("uid", 18)
            };
            for (query, cookie) in [
                ("", None),
                ("?site=rtl", None),
                (
                    "?site=",
                    Some("uid=presented1234567; xtvrn_rtl=siteid12345678"),
                ),
                (
                    "?site=rtl&uid=partner12345678",
                    Some("xtvrn=bare1234567890"),
                ),
                ("?uid=partner12345678", Some("uid=presented1234567")),
            ] {
                let url = format!("http://an.tracker.de/p{query}").parse().unwrap();
                let mut req = Request::get(url);
                if let Some(c) = cookie {
                    req = req.header("Cookie", c);
                }
                let req = req.build();
                let mut ctx = ResponderContext { now, rng: &mut rng };
                let resp = svc.respond(&req, &mut ctx);
                let headers: Vec<&str> = resp.headers.get_all("Set-Cookie").collect();
                if kind == TrackerKind::Cdn {
                    assert!(headers.is_empty());
                    continue;
                }
                let [text] = headers[..] else {
                    panic!("{kind:?} {query}: {headers:?}");
                };
                let site = req
                    .url
                    .query_param("site")
                    .filter(|s| per_site && !s.is_empty());
                let name = match site {
                    Some(site) => format!("xtvrn_{site}"),
                    None if per_site => "xtvrn".to_string(),
                    None => "uid".to_string(),
                };
                let presented = cookie.and_then(|c| {
                    c.split("; ")
                        .find_map(|kv| kv.strip_prefix(&format!("{name}=")))
                });
                let partner = req.url.query_param("uid");
                let value = match kind {
                    TrackerKind::CookieSyncTarget => partner.or(presented),
                    _ => presented,
                };
                let value = value.map_or_else(
                    || {
                        // Minted: read it back, then check its shape.
                        let minted = SetCookie::parse(text).unwrap().cookie.value;
                        assert_eq!(minted.len(), 18, "{text}");
                        assert!(minted.bytes().all(|b| b.is_ascii_alphanumeric()));
                        minted
                    },
                    str::to_string,
                );
                let want = format!("{name}={value}; Domain=tracker.de; Expires={expires}");
                assert_eq!(*text, want, "{kind:?} {query} {cookie:?}");
                let owned = SetCookie::persistent(
                    name,
                    value,
                    Etld1::new("tracker.de"),
                    Timestamp::from_unix(expires),
                );
                assert_eq!(owned.to_string(), want);
                assert_eq!(owned.same_site, SameSite::None);
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 6 * 2 * 5);
}
