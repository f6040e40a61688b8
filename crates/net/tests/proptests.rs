//! Property-based tests for URL, host, and cookie parsing.

use hbbtv_net::{registrable_domain, Etld1, Host, SetCookie, Timestamp, Url};
use proptest::prelude::*;

/// Strategy producing syntactically valid DNS labels.
fn label() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9]{0,8}".prop_map(|s| s)
}

/// Strategy producing valid hosts with 1..=4 labels over known TLDs.
fn host() -> impl Strategy<Value = String> {
    (
        prop::collection::vec(label(), 1..=3),
        prop_oneof![
            Just("de".to_string()),
            Just("com".to_string()),
            Just("co.uk".to_string()),
            Just("at".to_string()),
            Just("tv".to_string()),
        ],
    )
        .prop_map(|(labels, tld)| format!("{}.{}", labels.join("."), tld))
}

/// The two-label public suffixes `registrable_domain` knows.
const TWO_LABEL_SUFFIXES: &[&str] = &[
    "co.uk", "org.uk", "gov.uk", "ac.uk", "com.au", "net.au", "org.au", "co.at", "or.at", "ac.at",
    "gv.at", "co.nz", "com.tr", "com.br", "co.jp",
];

/// The label-splitting `registrable_domain`, kept as an oracle for the
/// slicing one.
fn registrable_domain_oracle(host: &str) -> String {
    let labels: Vec<&str> = host.split('.').collect();
    if labels.len() >= 3 {
        let two = format!("{}.{}", labels[labels.len() - 2], labels[labels.len() - 1]);
        if TWO_LABEL_SUFFIXES.contains(&two.as_str()) {
            return format!("{}.{two}", labels[labels.len() - 3]);
        }
    }
    if labels.len() >= 2 {
        let two = format!("{}.{}", labels[labels.len() - 2], labels[labels.len() - 1]);
        if TWO_LABEL_SUFFIXES.contains(&two.as_str()) {
            return host.to_string();
        }
        return two;
    }
    host.to_string()
}

/// Hosts of 1–5 labels: every 1–3 label host over an alphabet that
/// covers the parts of each two-label suffix, generic and unknown TLDs,
/// upper case and the empty label, under zero to two more labels from a
/// short list; each host also with a trailing dot.
fn oracle_hosts() -> Vec<String> {
    let mut alphabet: Vec<&str> = vec!["", "a", "bbc", "de", "com", "zz", "CO", "Uk"];
    for suffix in TWO_LABEL_SUFFIXES {
        for part in suffix.split('.') {
            if !alphabet.contains(&part) {
                alphabet.push(part);
            }
        }
    }
    let extend = |hosts: &[String], labels: &[&str]| -> Vec<String> {
        hosts
            .iter()
            .flat_map(|h| labels.iter().map(move |l| format!("{l}.{h}")))
            .collect()
    };
    let one: Vec<String> = alphabet.iter().map(|l| l.to_string()).collect();
    let two = extend(&one, &alphabet);
    let three = extend(&two, &alphabet);
    let four = extend(&three, &["", "x", "Www"]);
    let five = extend(&four, &["", "x", "Www"]);
    let mut hosts: Vec<String> = [one, two, three, four, five].concat();
    let dotted: Vec<String> = hosts.iter().map(|h| format!("{h}.")).collect();
    hosts.extend(dotted);
    hosts
}

#[test]
fn registrable_domain_agrees_with_the_label_splitting_oracle() {
    let hosts = oracle_hosts();
    assert!(hosts.len() > 10_000, "{} hosts", hosts.len());
    for suffix in TWO_LABEL_SUFFIXES {
        for host in [
            suffix.to_string(),
            format!("bbc.{suffix}"),
            format!("x.bbc.{suffix}."),
            format!("Www.x.bbc.{suffix}"),
        ] {
            assert!(hosts.contains(&host), "{host} is covered");
        }
    }
    for host in &hosts {
        assert_eq!(
            registrable_domain(host),
            registrable_domain_oracle(host),
            "host {host:?}"
        );
    }
}

proptest! {
    /// The slicing eTLD+1 matches the label-splitting oracle.
    #[test]
    fn etld1_matches_the_oracle(h in host()) {
        prop_assert_eq!(registrable_domain(&h), registrable_domain_oracle(&h));
        let upper = h.to_ascii_uppercase();
        prop_assert_eq!(registrable_domain(&upper), registrable_domain_oracle(&upper));
        prop_assert_eq!(Etld1::from_host(&upper).as_str(), registrable_domain_oracle(&h));
    }

    /// eTLD+1 is idempotent: applying it twice gives the same result.
    #[test]
    fn etld1_is_idempotent(h in host()) {
        let once = registrable_domain(&h);
        let twice = registrable_domain(&once);
        prop_assert_eq!(once, twice);
    }

    /// The registrable domain is always a suffix of the host.
    #[test]
    fn etld1_is_suffix_of_host(h in host()) {
        let d = registrable_domain(&h);
        prop_assert!(h.ends_with(&d), "{} should end with {}", h, d);
    }

    /// Valid hosts parse, lower-case, and display unchanged.
    #[test]
    fn host_parse_display_round_trip(h in host()) {
        let parsed: Host = h.parse().unwrap();
        prop_assert_eq!(parsed.to_string(), h);
    }

    /// URLs built from components survive a display/parse round trip.
    #[test]
    fn url_round_trip(
        h in host(),
        path in prop::collection::vec("[a-z0-9]{1,6}", 0..3),
        params in prop::collection::vec(("[a-z]{1,5}", "[a-zA-Z0-9]{0,10}"), 0..4),
        https in any::<bool>(),
    ) {
        let scheme = if https { "https" } else { "http" };
        let path_str = if path.is_empty() { "/".to_string() } else { format!("/{}", path.join("/")) };
        let query = params
            .iter()
            .map(|(k, v)| if v.is_empty() { k.clone() } else { format!("{k}={v}") })
            .collect::<Vec<_>>()
            .join("&");
        let s = if query.is_empty() {
            format!("{scheme}://{h}{path_str}")
        } else {
            format!("{scheme}://{h}{path_str}?{query}")
        };
        let u: Url = s.parse().unwrap();
        let round: Url = u.to_string().parse().unwrap();
        prop_assert_eq!(&round, &u);
        prop_assert_eq!(u.is_https(), https);
    }

    /// Set-Cookie display/parse is a lossless round trip.
    #[test]
    fn set_cookie_round_trip(
        name in "[a-zA-Z][a-zA-Z0-9_]{0,12}",
        value in "[a-zA-Z0-9]{0,24}",
        domain in host(),
        expires in prop::option::of(1u64..2_000_000_000),
        secure in any::<bool>(),
        http_only in any::<bool>(),
    ) {
        let mut sc = SetCookie::persistent(
            name,
            value,
            Etld1::from_host(&domain),
            Timestamp::from_unix(expires.unwrap_or(1)),
        );
        if expires.is_none() {
            sc.expires = None;
        }
        sc.secure = secure;
        sc.http_only = http_only;
        let reparsed = SetCookie::parse(&sc.to_string()).unwrap();
        prop_assert_eq!(reparsed, sc);
    }

    /// The URL query accessor returns exactly what was appended.
    #[test]
    fn with_param_is_observable(v in "[a-zA-Z0-9]{1,20}") {
        let u: Url = "http://example.de/p".parse().unwrap();
        let u = u.with_param("uid", &v);
        prop_assert_eq!(u.query_param("uid"), Some(v.as_str()));
    }
}
