//! Property-based tests for the filter-list matcher.

use hbbtv_filterlists::{
    parse_adblock_line, parse_hosts, FilterList, RequestContext, ResourceKind,
};
use hbbtv_net::Url;
use proptest::prelude::*;

fn domain() -> impl Strategy<Value = String> {
    (
        "[a-z]{2,8}",
        prop_oneof![Just("de"), Just("com"), Just("net"), Just("tv")],
    )
        .prop_map(|(name, tld)| format!("{name}.{tld}"))
}

fn any_ctx() -> RequestContext {
    RequestContext {
        third_party: true,
        kind: ResourceKind::Other,
    }
}

proptest! {
    /// `||domain^` always blocks that domain and all subdomains, never a
    /// lookalike suffix domain.
    #[test]
    fn domain_anchor_soundness(d in domain(), sub in "[a-z]{1,6}") {
        let list = FilterList::parse_adblock("t", &format!("||{d}^"));
        let direct: Url = format!("http://{d}/x").parse().unwrap();
        let subdomain: Url = format!("http://{sub}.{d}/x").parse().unwrap();
        let lookalike: Url = format!("http://{sub}{d}/x").parse().unwrap();
        prop_assert!(list.matches(&direct, any_ctx()));
        prop_assert!(list.matches(&subdomain, any_ctx()));
        prop_assert!(!list.matches(&lookalike, any_ctx()));
    }

    /// Hosts-list blocking agrees with the Adblock domain anchor on plain
    /// domains.
    #[test]
    fn hosts_and_adblock_agree_on_domains(d in domain(), other in domain()) {
        let hosts = FilterList::parse_hosts_list("h", &format!("0.0.0.0 {d}\n"));
        let adblock = FilterList::parse_adblock("a", &format!("||{d}^\n"));
        for target in [&d, &other] {
            let u: Url = format!("http://{target}/p").parse().unwrap();
            prop_assert_eq!(
                hosts.matches(&u, any_ctx()),
                adblock.matches(&u, any_ctx()),
                "lists disagree on {}", target
            );
        }
    }

    /// Every line of a hosts file contributes at most one domain, and
    /// parsing is idempotent under duplication.
    #[test]
    fn hosts_parse_is_set_like(domains in prop::collection::vec(domain(), 1..10)) {
        let text: String = domains.iter().map(|d| format!("0.0.0.0 {d}\n")).collect();
        let doubled = format!("{text}{text}");
        prop_assert_eq!(parse_hosts(&text), parse_hosts(&doubled));
    }

    /// An exception rule with the same body as a block rule always wins.
    #[test]
    fn exceptions_override_blocks(d in domain()) {
        let list = FilterList::parse_adblock("t", &format!("||{d}^\n@@||{d}^\n"));
        let u: Url = format!("http://{d}/x").parse().unwrap();
        prop_assert!(!list.matches(&u, any_ctx()));
    }

    /// Parsing never panics on arbitrary printable input lines.
    #[test]
    fn parse_is_total(line in "[ -~]{0,60}") {
        let _ = parse_adblock_line(&line);
        let _ = parse_hosts(&line);
    }

    /// A substring rule matches iff the URL text contains the literal
    /// (for wildcard-free, separator-free patterns).
    #[test]
    fn substring_rule_equals_contains(pat in "/[a-z]{3,8}", path in "/[a-z0-9/]{0,12}") {
        let rule = parse_adblock_line(&pat).unwrap();
        let url_text = format!("http://site.de{path}");
        let url: Url = url_text.parse().unwrap();
        prop_assert_eq!(
            rule.pattern_matches(&url.to_string(), url.host()),
            url.to_string().contains(&pat)
        );
    }
}
