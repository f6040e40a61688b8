//! Property-based tests for URL, host, header, and cookie parsing.

use hbbtv_net::{
    registrable_domain, Etld1, Headers, Host, ParseUrlError, Scheme, SetCookie, Timestamp, Url,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

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

/// The struct-of-`String`s URL that the text-backed [`Url`] replaced,
/// kept as its oracle: the same parser, with every part owned apart.
#[derive(Debug, Clone, PartialEq, Serialize)]
struct OracleUrl {
    scheme: Scheme,
    host: String,
    etld1: String,
    port: Option<u16>,
    path: String,
    query: Vec<(String, String)>,
}

impl OracleUrl {
    fn parse(s: &str) -> Result<Self, ParseUrlError> {
        let (scheme, rest) = match s.split_once("://") {
            Some(("http", rest)) => (Scheme::Http, rest),
            Some(("https", rest)) => (Scheme::Https, rest),
            Some((other, _)) => return Err(ParseUrlError::UnsupportedScheme(other.to_string())),
            None => return Err(ParseUrlError::MissingScheme),
        };
        let rest = rest.split('#').next().unwrap_or(rest);
        let (authority, path_query) = match rest.find('/') {
            Some(i) => (&rest[..i], &rest[i..]),
            None => match rest.find('?') {
                Some(i) => (&rest[..i], &rest[i..]),
                None => (rest, ""),
            },
        };
        let (host_str, port) = match authority.rsplit_once(':') {
            Some((h, p)) if !p.is_empty() && p.bytes().all(|b| b.is_ascii_digit()) => {
                let port: u16 = p
                    .parse()
                    .map_err(|_| ParseUrlError::InvalidPort(p.to_string()))?;
                (h, Some(port))
            }
            Some((_, p)) if p.bytes().any(|b| !b.is_ascii_digit()) && !p.is_empty() => {
                return Err(ParseUrlError::InvalidPort(p.to_string()))
            }
            _ => (authority, None),
        };
        let host = Host::parse(host_str)?.as_str().to_string();
        let etld1 = registrable_domain(&host);
        let (path, query_str) = path_query.split_once('?').unwrap_or((path_query, ""));
        let path = if path.is_empty() { "/" } else { path }.to_string();
        let query = query_str
            .split('&')
            .filter(|kv| !kv.is_empty())
            .map(|kv| {
                let (k, v) = kv.split_once('=').unwrap_or((kv, ""));
                (k.to_string(), v.to_string())
            })
            .collect();
        Ok(OracleUrl {
            scheme,
            host,
            etld1,
            port,
            path,
            query,
        })
    }

    fn push_param(&mut self, name: &str, value: &str) {
        self.query.push((name.to_string(), value.to_string()));
    }

    fn path_and_query(&self) -> String {
        let mut s = self.path.clone();
        for (i, (k, v)) in self.query.iter().enumerate() {
            s.push(if i == 0 { '?' } else { '&' });
            s.push_str(k);
            if !v.is_empty() {
                s.push('=');
                s.push_str(v);
            }
        }
        s
    }

    fn to_text(&self) -> String {
        let port = self.port.map(|p| format!(":{p}")).unwrap_or_default();
        format!(
            "{}://{}{port}{}",
            self.scheme.as_str(),
            self.host,
            self.path_and_query()
        )
    }
}

/// Asserts that `url` and its oracle agree on every accessor, the text,
/// and the serde value.
fn assert_agrees(url: &Url, oracle: &OracleUrl) {
    assert_eq!(url.scheme(), oracle.scheme);
    assert_eq!(url.is_https(), oracle.scheme == Scheme::Https);
    assert_eq!(url.host(), oracle.host);
    assert_eq!(url.etld1().as_str(), oracle.etld1);
    assert_eq!(url.etld1(), Etld1::new(&oracle.etld1));
    assert_eq!(
        url.port(),
        oracle.port.unwrap_or(oracle.scheme.default_port())
    );
    assert_eq!(url.path(), oracle.path);
    let pairs: Vec<(&str, &str)> = url.query_pairs().collect();
    let expected: Vec<(&str, &str)> = oracle
        .query
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    assert_eq!(pairs, expected);
    for (k, _) in &oracle.query {
        let first = oracle
            .query
            .iter()
            .find(|(q, _)| q == k)
            .map(|(_, v)| v.as_str());
        assert_eq!(url.query_param(k), first);
    }
    assert_eq!(url.query_param("never-a-key"), None);
    assert_eq!(url.path_and_query(), oracle.path_and_query());
    assert_eq!(url.to_text(), oracle.to_text());
    assert_eq!(url.as_str(), oracle.to_text());
    assert_eq!(url.to_string(), oracle.to_text());
    assert_eq!(url.to_value(), oracle.to_value());
}

/// Parses `s` with both parsers and checks they agree, returning the
/// pair when it parses.
fn check_parse(s: &str) -> Option<(Url, OracleUrl)> {
    match (Url::parse(s), OracleUrl::parse(s)) {
        (Ok(url), Ok(oracle)) => {
            assert_agrees(&url, &oracle);
            Some((url, oracle))
        }
        (Err(e), Err(o)) => {
            assert_eq!(e, o, "for {s:?}");
            None
        }
        (url, oracle) => panic!("{s:?}: {url:?} but the oracle says {oracle:?}"),
    }
}

fn pick<'a>(rng: &mut StdRng, options: &[&'a str]) -> &'a str {
    options[rng.gen_range(0..options.len())]
}

/// A URL-shaped string: valid and invalid schemes, hosts in mixed case,
/// ports, paths, queries with empty, bare and `=`-holding pairs, and
/// fragments.
fn arbitrary_url_text(rng: &mut StdRng) -> String {
    let scheme = pick(
        rng,
        &[
            "http://", "https://", "http://", "ftp://", "http:/", "HTTP://",
        ],
    );
    let labels = rng.gen_range(1..5usize);
    let host: Vec<&str> = (0..labels)
        .map(|_| {
            pick(
                rng,
                &[
                    "a", "cdn", "TvPing", "co", "uk", "de", "x-1", "9", "b_c", "",
                ],
            )
        })
        .collect();
    let port = pick(
        rng,
        &["", "", ":80", ":8080", ":0", ":", ":65535", ":65536", ":8a"],
    );
    let path = pick(
        rng,
        &["", "", "/", "/p", "/a/b.js", "/A%20b", "/?", "/x:y", "/ü"],
    );
    let pairs = rng.gen_range(0..4usize);
    let mut query = String::new();
    if pairs > 0 || rng.gen_bool(0.2) {
        query.push('?');
    }
    for i in 0..pairs {
        if i > 0 {
            query.push('&');
        }
        query.push_str(pick(
            rng,
            &["uid=1", "k", "k=", "=v", "a=b=c", "", "c=rtl", "q?=/"],
        ));
    }
    let fragment = pick(rng, &["", "", "#f", "#a?b=c"]);
    format!("{scheme}{}{port}{path}{query}{fragment}", host.join("."))
}

/// A pair `push_param` accepts: no `&`, `=` or `#` in the name, no `&`
/// or `#` in the value, and not both empty.
fn arbitrary_pair(rng: &mut StdRng) -> (&'static str, &'static str) {
    loop {
        let name = pick(rng, &["uid", "", "K", "a.b", "q?", "x/y", "%26"]);
        let value = pick(rng, &["", "1", "a=b", "LGE 43UK", "ü", "?"]);
        if !(name.is_empty() && value.is_empty()) {
            return (name, value);
        }
    }
}

#[test]
fn url_agrees_with_the_struct_of_strings_oracle() {
    let mut rng = StdRng::seed_from_u64(20);
    let mut parsed = Vec::new();
    for _ in 0..20_000 {
        let text = arbitrary_url_text(&mut rng);
        if let Some(pair) = check_parse(&text) {
            parsed.push(pair);
        }
    }
    assert!(parsed.len() > 2_000, "{} parsed", parsed.len());
    for (i, (url, oracle)) in parsed.iter().enumerate().take(500) {
        for (other, other_oracle) in &parsed[i..i + 40.min(parsed.len() - i)] {
            assert_eq!(url == other, oracle == other_oracle, "{url:?} vs {other:?}");
        }
        assert_eq!(
            &Url::parse(url.as_str()).unwrap(),
            url,
            "the text is complete"
        );
    }
}

#[test]
fn push_param_sequences_agree_with_the_oracle() {
    let mut rng = StdRng::seed_from_u64(21);
    for _ in 0..5_000 {
        let text = arbitrary_url_text(&mut rng);
        let Some((mut url, mut oracle)) = check_parse(&text) else {
            continue;
        };
        let pairs: Vec<_> = (0..rng.gen_range(0..5usize))
            .map(|_| arbitrary_pair(&mut rng))
            .collect();
        let appended = url.with_params(pairs.iter().copied());
        for &(k, v) in &pairs {
            url.push_param(k, v);
            oracle.push_param(k, v);
            assert_agrees(&url, &oracle);
        }
        assert_eq!(appended, url);
        assert_eq!(
            Url::parse(url.as_str()).unwrap(),
            url,
            "the text is complete"
        );
    }
}

/// A JSON string literal as the serializer writes it, for the plain
/// strings the generators use.
fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Picks from `valid` four times in five, else from `invalid`.
fn mostly<'a>(rng: &mut StdRng, valid: &[&'a str], invalid: &[&'a str]) -> &'a str {
    if rng.gen_range(0..5u8) == 0 {
        pick(rng, invalid)
    } else {
        pick(rng, valid)
    }
}

/// A JSON object of a URL's wire shape whose fields range over valid
/// and invalid values.
fn arbitrary_url_json(rng: &mut StdRng) -> String {
    let scheme = mostly(rng, &["\"Http\"", "\"Https\""], &["\"Ftp\"", "1", "null"]);
    let host = mostly(
        rng,
        &["a.tvping.com", "bbc.co.uk", "x", "co.uk", "9.de"],
        &["A.de", "a..b", "", "a_b.com", "a.de/x", "a.de:80"],
    );
    let etld1 = if rng.gen_range(0..5u8) == 0 {
        pick(rng, &["tvping.com", "co.uk", "de", ""]).to_string()
    } else {
        registrable_domain(host)
    };
    let port = mostly(
        rng,
        &["null", "80", "65535", "0"],
        &["65536", "\"80\"", "80.0", "-1", "[]"],
    );
    let path = mostly(
        rng,
        &["/", "/p", "/a/b.js", "/ü", "/\\\"q", "/a=b&c"],
        &["", "p", "/a?b", "/a#b"],
    );
    let query: Vec<&str> = (0..rng.gen_range(0..4usize))
        .map(|_| {
            mostly(
                rng,
                &[
                    "[\"uid\",\"1\"]",
                    "[\"k\",\"\"]",
                    "[\"\",\"v\"]",
                    "[\"a\",\"b=c\"]",
                    "[\"q?\",\"/\"]",
                ],
                &[
                    "[\"\",\"\"]",
                    "[\"a&b\",\"1\"]",
                    "[\"a=b\",\"1\"]",
                    "[\"a\",\"1#2\"]",
                    "[\"a\"]",
                    "[\"a\",\"1\",\"2\"]",
                    "{\"a\":\"1\"}",
                ],
            )
        })
        .collect();
    format!(
        "{{\"scheme\":{scheme},\"host\":{},\"etld1\":{},\"port\":{port},\"path\":{},\"query\":[{}]}}",
        json_str(host),
        json_str(&etld1),
        json_str(path),
        query.join(",")
    )
}

#[test]
fn json_urls_round_trip_byte_identically_or_are_rejected() {
    let mut rng = StdRng::seed_from_u64(22);
    let mut accepted = 0;
    for _ in 0..20_000 {
        let json = arbitrary_url_json(&mut rng);
        if let Ok(url) = serde_json::from_str::<Url>(&json) {
            accepted += 1;
            assert_eq!(serde_json::to_string(&url).unwrap(), json);
            assert_eq!(Url::parse(url.as_str()).as_ref(), Ok(&url), "{json}");
        }
    }
    assert!(accepted > 2_000, "{accepted} accepted");
}

/// The `Vec<Header>` the one-buffer [`Headers`] replaced, kept as its
/// oracle.
#[derive(Debug, Clone, PartialEq, Serialize)]
struct OracleHeader {
    name: String,
    value: String,
}

#[test]
fn headers_agree_with_the_vec_of_headers_oracle() {
    let mut rng = StdRng::seed_from_u64(23);
    let names = [
        "Set-Cookie",
        "set-cookie",
        "SET-COOKIE",
        "Referer",
        "X-a",
        "",
    ];
    let values = ["", "a=1", "uid=2; Domain=x.de", "ü", "Set-Cookie"];
    for _ in 0..5_000 {
        let oracle: Vec<OracleHeader> = (0..rng.gen_range(0..6usize))
            .map(|_| OracleHeader {
                name: pick(&mut rng, &names).to_string(),
                value: pick(&mut rng, &values).to_string(),
            })
            .collect();
        let mut headers = Headers::new();
        for h in &oracle {
            headers.push(&h.name, &h.value);
        }
        let pairs = || oracle.iter().map(|h| (h.name.as_str(), h.value.as_str()));
        assert_eq!(Headers::from_pairs(pairs()), headers);
        assert_eq!(headers.len(), oracle.len());
        assert_eq!(headers.is_empty(), oracle.is_empty());
        assert!(headers.iter().eq(pairs()));
        for name in names.iter().chain(&["missing", "cookie"]) {
            let all = || {
                oracle
                    .iter()
                    .filter(|h| h.name.eq_ignore_ascii_case(name))
                    .map(|h| h.value.as_str())
            };
            assert_eq!(headers.get(name), all().next());
            assert!(headers.get_all(name).eq(all()));
        }
        let value = headers.to_value();
        assert_eq!(value, oracle.to_value());
        let json = serde_json::to_string(&headers).unwrap();
        assert_eq!(serde_json::from_str::<Headers>(&json).unwrap(), headers);
    }
}

proptest! {
    /// Component-built URLs agree with the oracle, before and after
    /// appending a parameter.
    #[test]
    fn built_urls_agree_with_the_oracle(
        h in host(),
        path in prop::collection::vec("[a-z0-9]{1,6}", 0..3),
        params in prop::collection::vec(("[a-z]{1,5}", "[a-zA-Z0-9=]{0,10}"), 0..4),
        port in prop::option::of(1u16..65535),
    ) {
        let path_str = format!("/{}", path.join("/"));
        let port = port.map(|p| format!(":{p}")).unwrap_or_default();
        let query: Vec<String> = params.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let s = format!("http://{}{port}{path_str}?{}#x", h.to_ascii_uppercase(), query.join("&"));
        let (mut url, mut oracle) = check_parse(&s).expect("a built URL parses");
        url.push_param("uid", "a=b");
        oracle.push_param("uid", "a=b");
        assert_agrees(&url, &oracle);
    }
}

/// The URL text before the query is addressed by `u16` offsets; past
/// them, parsing fails with a typed error where the oracle had none.
#[test]
fn url_text_past_the_offsets_is_rejected() {
    let fits = format!("http://x.de/{}", "p".repeat(usize::from(u16::MAX) - 12));
    assert_eq!(fits.len(), usize::from(u16::MAX));
    check_parse(&fits).expect("parses");
    let long = format!("{fits}p?a=1");
    assert!(matches!(Url::parse(&long), Err(ParseUrlError::TooLong(_))));
    assert!(OracleUrl::parse(&long).is_ok());
    let mut url = Url::parse(&fits).unwrap();
    url.push_param("a", &"v".repeat(100_000));
    assert_eq!(url.query_param("a").map(str::len), Some(100_000));
}
