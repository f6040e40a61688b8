//! Hosts-file and bare-domain list parsing (Pi-hole style).

use std::collections::HashSet;

/// Parses a hosts-style block list into the set of blocked domains.
///
/// Accepts both classic hosts syntax (`0.0.0.0 tracker.example` /
/// `127.0.0.1 tracker.example`) and bare-domain-per-line lists, with `#`
/// comments. Entries for `localhost` and the bare redirect addresses are
/// ignored, as Pi-hole does.
///
/// # Examples
///
/// ```
/// use hbbtv_filterlists::parse_hosts;
/// let domains = parse_hosts("0.0.0.0 ads.example.de\n# comment\ntracker.tv\n");
/// assert!(domains.contains("ads.example.de"));
/// assert!(domains.contains("tracker.tv"));
/// assert_eq!(domains.len(), 2);
/// ```
pub fn parse_hosts(text: &str) -> HashSet<String> {
    let mut out = HashSet::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split_whitespace();
        let first = match fields.next() {
            Some(f) => f,
            None => continue,
        };
        let domain = if first == "0.0.0.0" || first == "127.0.0.1" || first == "::1" {
            match fields.next() {
                Some(d) => d,
                None => continue,
            }
        } else {
            first
        };
        let domain = domain.to_ascii_lowercase();
        if domain == "localhost" || domain == "0.0.0.0" || domain == "localhost.localdomain" {
            continue;
        }
        out.insert(domain);
    }
    out
}

/// Whether `host` is blocked by a parsed domain set: an exact match or a
/// subdomain of a listed domain. A list matches by scanning its domains
/// with `host_matches_domain`; this label walk over the set is the
/// independent reference the tests pin those semantics with.
#[cfg(test)]
pub(crate) fn host_blocked<S: std::hash::BuildHasher>(
    domains: &HashSet<String, S>,
    host: &str,
) -> bool {
    if domains.is_empty() {
        return false;
    }
    if domains.contains(host) {
        return true;
    }
    // Walk up the label chain: a.b.c → b.c → c.
    let mut rest = host;
    while let Some(i) = rest.find('.') {
        rest = &rest[i + 1..];
        if domains.contains(rest) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_mixed_syntax() {
        let text = "\
# StevenBlack-style header
127.0.0.1 localhost
0.0.0.0 0.0.0.0
0.0.0.0 ad.doubleclick.net
0.0.0.0 metrics.example.de # inline comment
bare-domain.tv
";
        let d = parse_hosts(text);
        assert_eq!(d.len(), 3);
        assert!(d.contains("ad.doubleclick.net"));
        assert!(d.contains("metrics.example.de"));
        assert!(d.contains("bare-domain.tv"));
    }

    #[test]
    fn localhost_entries_ignored() {
        let d = parse_hosts("127.0.0.1 localhost\n::1 localhost\n");
        assert!(d.is_empty());
    }

    #[test]
    fn subdomain_blocking() {
        let d = parse_hosts("tracker.de\n");
        assert!(host_blocked(&d, "tracker.de"));
        assert!(host_blocked(&d, "a.tracker.de"));
        assert!(host_blocked(&d, "a.b.tracker.de"));
        assert!(!host_blocked(&d, "nottracker.de"));
        assert!(!host_blocked(&d, "tracker.de.evil.com"));
        // The list's domain scan agrees with the label walk.
        let list = crate::FilterList::parse_hosts_list("h", "tracker.de\n");
        for host in [
            "tracker.de",
            "a.tracker.de",
            "a.b.tracker.de",
            "nottracker.de",
            "tracker.de.evil.com",
        ] {
            let url: hbbtv_net::Url = format!("http://{host}/x").parse().unwrap();
            let ctx = crate::RequestContext::third_party_image();
            assert_eq!(list.matches(&url, ctx), host_blocked(&d, host), "{host}");
        }
    }

    #[test]
    fn case_is_normalized() {
        let d = parse_hosts("0.0.0.0 MiXeD.Example.DE\n");
        assert!(host_blocked(&d, "mixed.example.de"));
    }
}
