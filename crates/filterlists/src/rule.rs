//! Adblock-syntax rule parsing.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The resource type of a request, used by `$image`/`$script` options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ResourceKind {
    /// A document / HTML page.
    Document,
    /// A script resource.
    Script,
    /// An image resource (tracking pixels are images).
    Image,
    /// Anything else (XHR, media, …).
    Other,
}

/// How a pattern is anchored within the URL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Anchor {
    /// `||pattern` — matches at a domain-label boundary of the host.
    Domain,
    /// `|pattern` — matches at the very start of the URL.
    Start,
    /// Unanchored substring match.
    None,
}

/// Parsed `$option` list of a rule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RuleOptions {
    /// `$third-party` — only match third-party requests.
    pub third_party_only: bool,
    /// `$~third-party` — only match first-party requests.
    pub first_party_only: bool,
    /// `$image` — only match image resources.
    pub image_only: bool,
    /// `$script` — only match script resources.
    pub script_only: bool,
}

/// A single parsed network-filter rule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Rule {
    /// The raw pattern with anchors stripped; `*` wildcards remain.
    pub pattern: String,
    /// Anchoring mode.
    pub anchor: Anchor,
    /// Whether the pattern ends with `^` (separator or end-of-URL).
    pub end_separator: bool,
    /// Whether this is an `@@` exception (allow) rule.
    pub exception: bool,
    /// Parsed options.
    pub options: RuleOptions,
    /// The original line, for reporting which rule fired.
    pub source: String,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.source)
    }
}

/// Parses one line of Adblock filter syntax.
///
/// Returns `None` for comments (`!`), empty lines, and cosmetic rules
/// (`##`, `#@#`), which do not affect network requests.
pub fn parse_adblock_line(line: &str) -> Option<Rule> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('!') || line.starts_with('[') {
        return None;
    }
    // Cosmetic filtering rules are not network rules.
    if line.contains("##") || line.contains("#@#") || line.contains("#?#") {
        return None;
    }
    let source = line.to_string();
    let (exception, rest) = match line.strip_prefix("@@") {
        Some(r) => (true, r),
        None => (false, line),
    };
    let (body, opts_str) = match rest.rsplit_once('$') {
        // A `$` inside a path could be a literal, but EasyList treats the
        // last `$` as the option separator when the suffix looks like
        // options; we accept simple comma-separated option tokens only.
        Some((b, o)) if o.split(',').all(is_option_token) && !o.is_empty() => (b, Some(o)),
        _ => (rest, None),
    };
    let mut options = RuleOptions::default();
    if let Some(o) = opts_str {
        for token in o.split(',') {
            match token.trim() {
                "third-party" => options.third_party_only = true,
                "~third-party" => options.first_party_only = true,
                "image" => options.image_only = true,
                "script" => options.script_only = true,
                _ => {} // Unknown options are tolerated (treated as no-op).
            }
        }
    }
    let (anchor, body) = if let Some(b) = body.strip_prefix("||") {
        (Anchor::Domain, b)
    } else if let Some(b) = body.strip_prefix('|') {
        (Anchor::Start, b)
    } else {
        (Anchor::None, body)
    };
    let (body, end_separator) = match body.strip_suffix('^') {
        Some(b) => (b, true),
        None => (body, false),
    };
    if body.is_empty() {
        return None;
    }
    Some(Rule {
        pattern: body.to_string(),
        anchor,
        end_separator,
        exception,
        options,
        source,
    })
}

fn is_option_token(t: &str) -> bool {
    matches!(
        t.trim(),
        "third-party" | "~third-party" | "image" | "script" | "xmlhttprequest" | "subdocument"
    )
}

impl Rule {
    /// Whether this rule's pattern (ignoring options) matches the URL
    /// text. `url_text` must be the full absolute URL; `host` its host.
    pub fn pattern_matches(&self, url_text: &str, host: &str) -> bool {
        self.pattern_matches_at(url_text, host, after_host(url_text, host))
    }

    /// [`Rule::pattern_matches`] with the post-host slice already
    /// computed — the zero-alloc entry point
    /// [`FilterList::matches_view`](crate::FilterList::matches_view)
    /// uses.
    pub(crate) fn pattern_matches_at(&self, url_text: &str, host: &str, after: &str) -> bool {
        match self.anchor {
            Anchor::Domain => {
                // `||example.com^` (optionally with a path after the
                // domain). Split the pattern into domain part and path
                // remainder.
                let (dom, path) = split_domain_pattern(&self.pattern);
                if !host_matches_domain(host, dom) {
                    return false;
                }
                if path.is_empty() {
                    // With or without a trailing `^`: the host boundary
                    // is already guaranteed by the domain check.
                    return true;
                }
                // Match the path remainder against the URL after the
                // host (`[:port]/path?query`).
                wildcard_match(after, path, self.end_separator)
            }
            Anchor::Start => wildcard_match(url_text, &self.pattern, self.end_separator),
            Anchor::None => wildcard_find(url_text, &self.pattern, self.end_separator),
        }
    }
}

/// Splits a `||` pattern into its domain part and path remainder
/// (`tracker.de/pixel` → `("tracker.de", "/pixel")`).
fn split_domain_pattern(pattern: &str) -> (&str, &str) {
    match pattern.find('/') {
        Some(i) => (&pattern[..i], &pattern[i..]),
        None => (pattern, ""),
    }
}

/// Whether `host` is `dom` or a subdomain of it, without allocating.
///
/// An empty domain pattern (a rule like `||/pixel`) anchors on nothing
/// and never matches a host — made explicit here; an earlier version hid
/// this outcome behind `==`/`&&` operator precedence.
pub(crate) fn host_matches_domain(host: &str, dom: &str) -> bool {
    if dom.is_empty() {
        return false;
    }
    if host == dom {
        return true;
    }
    // `.dom` suffix check via byte compare instead of `format!(".{dom}")`.
    host.len() > dom.len()
        && host.ends_with(dom)
        && host.as_bytes()[host.len() - dom.len() - 1] == b'.'
}

/// The URL text after the host: `[:port]/path[?query]`.
///
/// Computed from the serialized layout (`scheme://host…`) rather than a
/// substring search: `url_text.find(host)` can land before the authority
/// for dotless hosts (`http://tt/x` finds `tt` inside `http`), skewing
/// the path offset for `||host/path` rules.
pub(crate) fn after_host<'a>(url_text: &'a str, host: &str) -> &'a str {
    let authority = url_text.find("://").map_or(0, |i| i + 3);
    url_text.get(authority + host.len()..).unwrap_or("")
}

/// Is `c` an Adblock "separator" character (for `^`)?
fn is_separator(c: char) -> bool {
    !(c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.' | '%'))
}

/// Splits off the first non-empty `*`-separated literal part of
/// `pattern`, returning it and the rest of the pattern; `None` when
/// nothing but `*`s is left. Consecutive, leading and trailing stars
/// yield no empty parts, and nothing is allocated.
fn next_part(pattern: &str) -> Option<(&str, &str)> {
    let pattern = pattern.trim_start_matches('*');
    if pattern.is_empty() {
        return None;
    }
    Some(pattern.split_at(pattern.find('*').unwrap_or(pattern.len())))
}

/// Recursive matcher over the `*`-separated literal parts of `pattern`
/// with backtracking.
///
/// `anchored` requires the first part to match at the very start of
/// `text`; every later part may match anywhere after the previous one
/// (that is what the `*` between them means). When `end_sep` is set, the
/// character right after the final matched part must be a separator (or
/// the end of the text).
fn parts_match(text: &str, pattern: &str, anchored: bool, end_sep: bool) -> bool {
    match next_part(pattern) {
        None => !end_sep || text.is_empty() || text.chars().next().map(is_separator) == Some(true),
        Some((p, rest)) => {
            if anchored {
                match text.strip_prefix(p) {
                    Some(t) => parts_match(t, rest, false, end_sep),
                    None => false,
                }
            } else {
                // `contains` takes a vectorized path that `find` does
                // not, and almost every URL lacks the literal.
                if !text.contains(p) {
                    return false;
                }
                // Backtrack over every occurrence of `p`, stepping past
                // its first character (not byte) to stay on a boundary.
                let step = p.chars().next().map_or(1, char::len_utf8);
                let mut start = 0;
                while let Some(i) = text[start..].find(p) {
                    let abs = start + i;
                    if parts_match(&text[abs + p.len()..], rest, false, end_sep) {
                        return true;
                    }
                    start = abs + step;
                }
                false
            }
        }
    }
}

/// Matches `pattern` (with `*` wildcards) against the start of `text`.
fn wildcard_match(text: &str, pattern: &str, end_separator: bool) -> bool {
    let anchored = !pattern.starts_with('*');
    // A trailing `*` swallows the end-separator requirement.
    let end_sep = end_separator && !pattern.ends_with('*');
    parts_match(text, pattern, anchored, end_sep)
}

/// Finds `pattern` anywhere inside `text`.
fn wildcard_find(text: &str, pattern: &str, end_separator: bool) -> bool {
    let end_sep = end_separator && !pattern.ends_with('*');
    // Unanchored throughout: the first part may start anywhere.
    parts_match(text, pattern, false, end_sep)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(line: &str) -> Rule {
        parse_adblock_line(line).expect("rule should parse")
    }

    #[test]
    fn comments_and_cosmetics_are_skipped() {
        assert!(parse_adblock_line("! a comment").is_none());
        assert!(parse_adblock_line("").is_none());
        assert!(parse_adblock_line("[Adblock Plus 2.0]").is_none());
        assert!(parse_adblock_line("example.com##.ad-banner").is_none());
    }

    #[test]
    fn domain_anchor_matches_host_and_subdomains() {
        let r = rule("||doubleclick.net^");
        assert!(r.pattern_matches("http://doubleclick.net/x", "doubleclick.net"));
        assert!(r.pattern_matches("http://ad.doubleclick.net/x", "ad.doubleclick.net"));
        assert!(!r.pattern_matches("http://notdoubleclick.net/x", "notdoubleclick.net"));
        assert!(!r.pattern_matches(
            "http://doubleclick.net.evil.com/x",
            "doubleclick.net.evil.com"
        ));
    }

    #[test]
    fn domain_anchor_with_path() {
        let r = rule("||tracker.de/pixel");
        assert!(r.pattern_matches("http://tracker.de/pixel.gif", "tracker.de"));
        assert!(!r.pattern_matches("http://tracker.de/other", "tracker.de"));
    }

    #[test]
    fn empty_domain_pattern_never_matches_a_host() {
        // `||/pixel` parses to a Domain-anchored rule with an empty
        // domain part. It must match nothing: there is no host to
        // anchor on. (An earlier implementation only got this right
        // through `==`/`&&` operator precedence; `host_matches_domain`
        // now rejects the empty domain explicitly.)
        let r = rule("||/pixel");
        assert_eq!(r.anchor, Anchor::Domain);
        assert!(!r.pattern_matches("http://x.de/pixel", "x.de"));
        assert!(!r.pattern_matches("http://pixel/pixel", "pixel"));
        assert!(!host_matches_domain("x.de", ""));
        assert!(!host_matches_domain("", ""));
        // A `*` in the domain part never equals a real host's labels.
        let r = rule("||a*b.de^");
        assert_eq!(r.anchor, Anchor::Domain);
        assert!(!r.pattern_matches("http://axb.de/", "axb.de"));
        assert!(!r.pattern_matches("http://ab.de/", "ab.de"));
        assert!(!r.pattern_matches("http://a.b.de/", "a.b.de"));
    }

    #[test]
    fn domain_path_offset_survives_dotless_and_echoed_hosts() {
        // The post-host slice is computed from the URL layout, not a
        // substring search. Two regressions guard that:
        // 1. A dotless host also occurs inside the scheme
        //    (`http://tt/x` — `find("tt")` lands in "http").
        let r = rule("||tt/x");
        assert!(r.pattern_matches("http://tt/x", "tt"));
        assert_eq!(after_host("http://tt/x", "tt"), "/x");
        // 2. The host echoed earlier in the text (e.g. inside a proxy
        //    URL's path) must not shift the offset.
        assert_eq!(
            after_host("http://a.de/p?u=a.de/pixel", "a.de"),
            "/p?u=a.de/pixel"
        );
        let r = rule("||a.de/pixel");
        assert!(!r.pattern_matches("http://a.de/p?u=a.de/pixel", "a.de"));
    }

    #[test]
    fn substring_rule_matches_anywhere() {
        let r = rule("/beacon?");
        assert!(r.pattern_matches("http://x.de/api/beacon?id=1", "x.de"));
        assert!(!r.pattern_matches("http://x.de/beacons", "x.de"));
    }

    #[test]
    fn wildcard_patterns() {
        let r = rule("/track/*/pixel");
        assert!(r.pattern_matches("http://x.de/track/v2/pixel.gif", "x.de"));
        assert!(!r.pattern_matches("http://x.de/track/pixel", "x.de"));
        // The first `/a` is not directly followed by `b`, a later one
        // is. With `^`, the first `b` after `/a` is followed by `-`, not
        // a separator, so the matcher must go on to a later `b`.
        let r = rule("/a*b");
        assert!(r.pattern_matches("http://x.de/ax/ab", "x.de"));
        assert!(!r.pattern_matches("http://x.de/ax/a", "x.de"));
        let r = rule("/a*b^");
        assert!(r.pattern_matches("http://x.de/ab-c/ab?x=1", "x.de"));
        assert!(!r.pattern_matches("http://x.de/ab-c/abc", "x.de"));
        // Backtracking past a non-ASCII literal stays on char
        // boundaries.
        let r = rule("ü*x");
        assert!(!r.pattern_matches("http://x.de/üy", "x.de"));
        assert!(r.pattern_matches("http://x.de/üyüx", "x.de"));
        // An all-wildcard rule matches every URL.
        let r = rule("*");
        assert!(r.pattern_matches("http://x.de/", "x.de"));
        assert!(r.pattern_matches("https://other.tv/p?q=1", "other.tv"));
        // Leading, trailing and doubled stars add no empty parts.
        let r = rule("|http://**x.de/*");
        assert!(r.pattern_matches("http://ads.x.de/p", "ads.x.de"));
        assert!(!r.pattern_matches("https://x.de/p", "x.de"));
    }

    #[test]
    fn start_anchor() {
        let r = rule("|http://ads.");
        assert!(r.pattern_matches("http://ads.example.de/x", "ads.example.de"));
        assert!(!r.pattern_matches("https://ads.example.de/x", "ads.example.de"));
    }

    #[test]
    fn end_separator_semantics() {
        let r = rule("/pixel^");
        assert!(r.pattern_matches("http://x.de/pixel?u=1", "x.de"));
        assert!(
            r.pattern_matches("http://x.de/pixel", "x.de"),
            "end of URL counts"
        );
        assert!(!r.pattern_matches("http://x.de/pixels", "x.de"));
    }

    #[test]
    fn options_parse() {
        let r = rule("||adform.net^$third-party,image");
        assert!(r.options.third_party_only);
        assert!(r.options.image_only);
        assert!(!r.options.script_only);
        let r = rule("||x.de^$~third-party");
        assert!(r.options.first_party_only);
    }

    #[test]
    fn exception_rules() {
        let r = rule("@@||good.de^");
        assert!(r.exception);
        assert!(r.pattern_matches("http://good.de/", "good.de"));
    }

    #[test]
    fn dollar_in_path_is_not_an_option() {
        let r = rule("/p$ath");
        assert_eq!(r.pattern, "/p$ath");
        assert!(!r.options.third_party_only);
    }
}
