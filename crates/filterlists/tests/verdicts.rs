//! `FilterList` verdicts against the reference matcher in
//! `reference/mod.rs`, which shares no code with the crate's matcher:
//! generated rules and URLs, then every bundled rule and list against
//! every unique URL of a study.

mod reference;

use hbbtv_filterlists::{bundled, parse_hosts, FilterList, RequestContext, ResourceKind, UrlView};
use hbbtv_net::Url;
use hbbtv_study::{Ecosystem, StudyHarness};
use proptest::prelude::*;
use reference::{list_matches, under_domain, RefRule};
use std::collections::HashSet;

/// Every request context the options can tell apart.
fn contexts() -> impl Iterator<Item = RequestContext> {
    let kinds = [
        ResourceKind::Document,
        ResourceKind::Script,
        ResourceKind::Image,
        ResourceKind::Other,
    ];
    [false, true]
        .into_iter()
        .flat_map(move |third_party| kinds.map(|kind| RequestContext { third_party, kind }))
}

/// Pattern and URL pieces: separators at either end, non-ASCII
/// literals, and short literals that repeat when drawn twice.
const PIECES: &[&str] = &[
    "a", "b", "ab", "ä", "日本", "/", "?", "=", "&", ":", ".", "-", "%", "_", "^", "*", "|", "$",
];

/// SplitMix64, so each generated case is a pure function of its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) as usize
    }

    fn pick(&mut self, from: &[&'static str]) -> &'static str {
        from[self.next() % from.len()]
    }

    /// Up to `max` pieces, concatenated.
    fn pieces(&mut self, max: usize) -> String {
        let n = self.next() % (max + 1);
        (0..n).map(|_| self.pick(PIECES)).collect()
    }
}

fn rule_line(rng: &mut Rng) -> String {
    let prefix = rng.pick(&["", "|", "||", "@@", "@@|", "@@||"]);
    let lead = rng.pick(&["", "*", "^", "/", "a.de", "x.a.de", "a.de/", "http://"]);
    let body = rng.pieces(4);
    let caret = rng.pick(&["", "^"]);
    let options = rng.pick(&[
        "",
        "$third-party",
        "$~third-party",
        "$image",
        "$script",
        "$image,third-party",
        "$script, ~third-party",
        "$xmlhttprequest",
        "$bogus",
        "$",
    ]);
    format!("{prefix}{lead}{body}{caret}{options}")
}

fn url(rng: &mut Rng) -> Url {
    let host = rng.pick(&["a.de", "x.a.de", "xa.de", "b.x.a.de", "a.com"]);
    let port = rng.pick(&["", ":8080"]);
    let path = rng.pieces(6).replace(['?', '#'], "");
    let query = rng.pieces(3);
    let text = format!("http://{host}{port}/{path}?{query}");
    text.parse().expect("generated URLs parse")
}

proptest! {
    /// Generated Adblock lists give the reference verdict for generated
    /// URLs in every request context. Each seed drives 2,000 lists.
    #[test]
    fn matches_equals_reference(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        for _ in 0..2_000 {
            let lines: Vec<String> = (0..1 + rng.next() % 3).map(|_| rule_line(&mut rng)).collect();
            let list = FilterList::parse_adblock("generated", &lines.join("\n"));
            let rules: Vec<RefRule> = lines.iter().filter_map(|l| RefRule::parse(l)).collect();
            for _ in 0..4 {
                let url = url(&mut rng);
                for ctx in contexts() {
                    prop_assert_eq!(
                        list.matches(&url, ctx),
                        list_matches(&rules, url.as_str(), url.host(), ctx),
                        "{:?} on {} in {:?}", lines, url.as_str(), ctx
                    );
                }
            }
        }
    }
}

/// Every bundled rule on its own, and every bundled list whole, agree
/// with the reference on every unique URL of a seed-42, scale-0.1
/// study, in every request context.
#[test]
fn bundled_lists_agree_with_reference_on_a_study() {
    let eco = Ecosystem::with_scale(42, 0.1);
    let ds = StudyHarness::new(&eco).run_all();
    let mut seen = HashSet::new();
    let urls: Vec<&Url> = ds
        .all_captures()
        .map(|c| &c.request.url)
        .filter(|u| seen.insert(u.as_str()))
        .collect();
    assert!(urls.len() > 1_000, "{} unique URLs", urls.len());

    let adblock = [
        (bundled::easylist_ref(), bundled::EASYLIST_TEXT),
        (bundled::easyprivacy_ref(), bundled::EASYPRIVACY_TEXT),
    ];
    let hosts = [
        (bundled::pihole_ref(), bundled::PIHOLE_TEXT),
        (bundled::perflyst_ref(), bundled::PERFLYST_TEXT),
        (bundled::kamran_ref(), bundled::KAMRAN_TEXT),
    ];
    // Each rule as a one-rule list; an exception is checked through its
    // block twin, since an exception alone never flags anything.
    let mut singles: Vec<(FilterList, RefRule)> = Vec::new();
    for (_, text) in adblock {
        for line in text.lines() {
            let line = line.trim();
            let line = line.strip_prefix("@@").unwrap_or(line);
            if let Some(rule) = RefRule::parse(line) {
                singles.push((FilterList::parse_adblock(line, line), rule));
            }
        }
    }
    let domains: Vec<(FilterList, String)> = hosts
        .iter()
        .flat_map(|(_, text)| parse_hosts(text))
        .map(|d| (FilterList::parse_hosts_list(&d, &format!("0.0.0.0 {d}")), d))
        .collect();
    let lists: Vec<Vec<RefRule>> = adblock
        .iter()
        .map(|(_, text)| text.lines().filter_map(RefRule::parse).collect())
        .collect();
    let host_sets: Vec<Vec<String>> = hosts
        .iter()
        .map(|(_, text)| parse_hosts(text).into_iter().collect())
        .collect();

    let mut flagged = 0;
    for url in urls {
        let (text, host) = (url.as_str(), url.host());
        let view = UrlView::of_url(url);
        let patterns: Vec<bool> = singles
            .iter()
            .map(|(_, r)| r.pattern_matches(text, host))
            .collect();
        for (list, domain) in &domains {
            let want = under_domain(host, domain);
            assert_eq!(
                list.matches(url, RequestContext::third_party_image()),
                want,
                "{domain} on {text}"
            );
        }
        for ((list, _), set) in hosts.iter().zip(&host_sets) {
            let want = set.iter().any(|d| under_domain(host, d));
            flagged += usize::from(want);
            assert_eq!(
                list.matches_view(&view, RequestContext::third_party_image()),
                want,
                "{} on {text}",
                list.name()
            );
        }
        for ctx in contexts() {
            for ((list, rule), &pattern) in singles.iter().zip(&patterns) {
                let want = pattern && rule.allows(ctx);
                assert_eq!(
                    list.matches(url, ctx),
                    want,
                    "{} on {text} in {ctx:?}",
                    list.name()
                );
            }
            for ((list, _), rules) in adblock.iter().zip(&lists) {
                let want = list_matches(rules, text, host, ctx);
                flagged += usize::from(want);
                assert_eq!(
                    list.matches_view(&view, ctx),
                    want,
                    "{} on {text} in {ctx:?}",
                    list.name()
                );
            }
        }
    }
    assert!(flagged > 0, "no bundled list flags any URL of the study");
}
