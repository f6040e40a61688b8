//! Filter-list matching over captured URLs.

use crate::rule::{after_host, host_matches_domain, parse_adblock_line, ResourceKind, Rule};
use hbbtv_net::Url;
use serde::{Deserialize, Serialize};

/// Per-request context the `$third-party` and `$image`/`$script` options
/// need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestContext {
    /// Whether the request goes to a different eTLD+1 than the page that
    /// issued it.
    pub third_party: bool,
    /// The resource type being fetched.
    pub kind: ResourceKind,
}

impl RequestContext {
    /// A third-party image request — the most common tracking shape.
    pub fn third_party_image() -> Self {
        RequestContext {
            third_party: true,
            kind: ResourceKind::Image,
        }
    }
}

/// A borrowed view of one serialized URL: everything the matcher reads,
/// with the post-host slice precomputed, so a match call does no
/// allocation at all. Serialize the URL once per exchange, build the
/// view, and probe as many lists as needed.
///
/// `host` must be the URL's actual hostname (as a parsed
/// [`Url`](hbbtv_net::Url) guarantees): `||` rules and hosts-list
/// domains are compared against it label by label.
///
/// # Examples
///
/// ```
/// use hbbtv_filterlists::{bundled, RequestContext, UrlView};
///
/// let text = "http://an.xiti.com/hit?x=1";
/// let view = UrlView::new(text, "an.xiti.com", "xiti.com");
/// assert!(bundled::easyprivacy_ref().matches_view(&view, RequestContext::third_party_image()));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct UrlView<'a> {
    /// The full absolute URL text.
    pub text: &'a str,
    /// The URL's hostname.
    pub host: &'a str,
    /// The host's eTLD+1 — not consulted by the matcher itself, but
    /// carried so per-exchange classification can share one view.
    pub etld1: &'a str,
    /// `text` after the host: `[:port]/path[?query]`.
    after_host: &'a str,
}

impl<'a> UrlView<'a> {
    /// Builds a view over an already-serialized URL.
    pub fn new(text: &'a str, host: &'a str, etld1: &'a str) -> Self {
        UrlView {
            text,
            host,
            etld1,
            after_host: after_host(text, host),
        }
    }

    /// Views `url` through its own text; nothing is copied.
    pub fn of_url(url: &'a Url) -> Self {
        UrlView::new(url.as_str(), url.host(), url.etld1().as_str())
    }
}

/// Aggregate statistics from matching a URL set against a list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ListStats {
    /// URLs checked.
    pub total: usize,
    /// URLs flagged by the list.
    pub flagged: usize,
}

impl ListStats {
    /// Flagged share in percent (0 when `total` is 0).
    pub fn share_percent(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.flagged as f64 / self.total as f64 * 100.0
        }
    }
}

/// A named filter list in either Adblock or hosts syntax.
///
/// Matching is one linear scan: the bundled lists hold 77 rules in all,
/// so a query costs tens to hundreds of nanoseconds (DESIGN §6).
///
/// # Examples
///
/// ```
/// use hbbtv_filterlists::{FilterList, RequestContext};
/// use hbbtv_net::Url;
///
/// let list = FilterList::parse_hosts_list("pihole-mini", "0.0.0.0 an.xiti.com");
/// let url: Url = "http://an.xiti.com/hit?x=1".parse()?;
/// assert!(list.matches(&url, RequestContext::third_party_image()));
/// # Ok::<(), hbbtv_net::ParseUrlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FilterList {
    name: String,
    rules: Vec<Rule>,
    exceptions: Vec<Rule>,
    /// Hosts-list domains, sorted.
    domains: Vec<String>,
}

impl FilterList {
    /// Parses an Adblock-syntax list.
    pub fn parse_adblock(name: &str, text: &str) -> Self {
        let (exceptions, rules) = text
            .lines()
            .filter_map(parse_adblock_line)
            .partition(|rule| rule.exception);
        FilterList {
            name: name.to_string(),
            rules,
            exceptions,
            domains: Vec::new(),
        }
    }

    /// Parses a hosts-syntax (domain) list.
    pub fn parse_hosts_list(name: &str, text: &str) -> Self {
        let mut domains: Vec<String> = crate::hosts::parse_hosts(text).into_iter().collect();
        domains.sort();
        FilterList {
            name: name.to_string(),
            rules: Vec::new(),
            exceptions: Vec::new(),
            domains,
        }
    }

    /// The list's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of active (non-exception) rules plus blocked domains.
    pub fn len(&self) -> usize {
        self.rules.len() + self.domains.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the list flags this request.
    ///
    /// Exception (`@@`) rules override block rules, as in Adblock Plus.
    pub fn matches(&self, url: &Url, ctx: RequestContext) -> bool {
        self.matches_view(&UrlView::of_url(url), ctx)
    }

    /// [`FilterList::matches`] over a caller-built view — the zero-alloc
    /// steady-state path. Scans the hosts-list domains, then the block
    /// rules in list order; the exceptions are scanned only after a
    /// block rule fired.
    pub fn matches_view(&self, view: &UrlView<'_>, ctx: RequestContext) -> bool {
        if self
            .domains
            .iter()
            .any(|d| host_matches_domain(view.host, d))
        {
            return true;
        }
        let applies = |rule: &Rule| {
            options_allow(rule, ctx)
                && rule.pattern_matches_at(view.text, view.host, view.after_host)
        };
        self.rules.iter().any(applies) && !self.exceptions.iter().any(applies)
    }

    /// The same verdict as [`FilterList::matches`]: there is only one
    /// match path. Kept under this name because the repository
    /// benchmark's replay oracle calls it.
    pub fn matches_linear(&self, url: &Url, ctx: RequestContext) -> bool {
        self.matches(url, ctx)
    }
}

/// The `$third-party`/`$image`/`$script` option gate.
fn options_allow(rule: &Rule, ctx: RequestContext) -> bool {
    if rule.options.third_party_only && !ctx.third_party {
        return false;
    }
    if rule.options.first_party_only && ctx.third_party {
        return false;
    }
    if rule.options.image_only && ctx.kind != ResourceKind::Image {
        return false;
    }
    if rule.options.script_only && ctx.kind != ResourceKind::Script {
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn url(s: &str) -> Url {
        s.parse().unwrap()
    }

    /// The study harness shares one borrowed list across all run worker
    /// threads; a non-`Sync` field sneaking in must fail compilation.
    #[test]
    fn filter_lists_are_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FilterList>();
    }

    fn any_ctx() -> RequestContext {
        RequestContext {
            third_party: true,
            kind: ResourceKind::Other,
        }
    }

    #[test]
    fn adblock_list_blocks_and_excepts() {
        let list = FilterList::parse_adblock(
            "t",
            "||ads.example.de^\n@@||ads.example.de/ok^\n! comment\n",
        );
        assert!(list.matches(&url("http://ads.example.de/x"), any_ctx()));
        assert!(!list.matches(&url("http://ads.example.de/ok"), any_ctx()));
        assert!(!list.matches(&url("http://clean.de/page"), any_ctx()));
        assert_eq!(list.len(), 1);
        // Rules that can never anchor on a host sit beside one that can.
        let list = FilterList::parse_adblock(
            "t",
            "||/path-only
||a*b.de^
||real.de^
",
        );
        assert_eq!(list.len(), 3);
        assert!(list.matches(&url("http://cdn.real.de/path-only"), any_ctx()));
        assert!(!list.matches(&url("http://fake.de/path-only"), any_ctx()));
        assert!(!list.matches(&url("http://axb.de/"), any_ctx()));
        // Many substring rules: only the one the URL carries fires.
        let lines: Vec<String> = (0..200).map(|i| format!("/frag{i}/")).collect();
        let list = FilterList::parse_adblock("t", &lines.join("\n"));
        assert!(list.matches(&url("http://x.de/frag123/pixel"), any_ctx()));
        assert!(!list.matches(&url("http://x.de/clean/path"), any_ctx()));
        assert!(!list.matches(&url("http://x.de/frag200/pixel"), any_ctx()));
    }

    #[test]
    fn third_party_option_respected() {
        let list = FilterList::parse_adblock("t", "||metrics.de^$third-party\n");
        let u = url("http://metrics.de/t.gif");
        assert!(list.matches(
            &u,
            RequestContext {
                third_party: true,
                kind: ResourceKind::Image
            }
        ));
        assert!(!list.matches(
            &u,
            RequestContext {
                third_party: false,
                kind: ResourceKind::Image
            }
        ));
    }

    #[test]
    fn resource_kind_options_respected() {
        let list = FilterList::parse_adblock("t", "/pixel^$image\n/lib.js$script\n");
        assert!(list.matches(
            &url("http://x.de/pixel"),
            RequestContext {
                third_party: true,
                kind: ResourceKind::Image
            }
        ));
        assert!(!list.matches(
            &url("http://x.de/pixel"),
            RequestContext {
                third_party: true,
                kind: ResourceKind::Script
            }
        ));
        assert!(list.matches(
            &url("http://x.de/lib.js"),
            RequestContext {
                third_party: true,
                kind: ResourceKind::Script
            }
        ));
        // Each kind-constrained rule fires for its own kind only.
        for kind in [
            ResourceKind::Document,
            ResourceKind::Image,
            ResourceKind::Other,
        ] {
            let ctx = RequestContext {
                third_party: true,
                kind,
            };
            assert!(!list.matches(&url("http://x.de/lib.js"), ctx), "{kind:?}");
        }
        for kind in [ResourceKind::Document, ResourceKind::Other] {
            let ctx = RequestContext {
                third_party: true,
                kind,
            };
            assert!(!list.matches(&url("http://x.de/pixel"), ctx), "{kind:?}");
        }
        // A kind-neutral rule beside them fires for every kind.
        let list = FilterList::parse_adblock("t", "||pix.de^$image\n||neutral.de^\n");
        for kind in [
            ResourceKind::Document,
            ResourceKind::Script,
            ResourceKind::Image,
            ResourceKind::Other,
        ] {
            let ctx = RequestContext {
                third_party: true,
                kind,
            };
            assert!(list.matches(&url("http://neutral.de/x"), ctx));
            assert_eq!(
                list.matches(&url("http://pix.de/x"), ctx),
                kind == ResourceKind::Image
            );
        }
    }

    #[test]
    fn hosts_list_blocks_subdomains() {
        let list = FilterList::parse_hosts_list("pihole", "0.0.0.0 tracker.tv\n");
        assert!(list.matches(&url("http://cdn.tracker.tv/x"), any_ctx()));
        assert!(!list.matches(&url("http://other.tv/x"), any_ctx()));
        assert_eq!(list.name(), "pihole");
        let list = FilterList::parse_hosts_list("h", "0.0.0.0 tracker.de\nads.example.com\n");
        assert_eq!(list.len(), 2);
        assert!(list.matches(&url("http://a.b.tracker.de/x"), any_ctx()));
        assert!(list.matches(&url("http://ads.example.com/x"), any_ctx()));
        assert!(!list.matches(&url("http://example.com/x"), any_ctx()));
        assert!(!list.matches(&url("http://nottracker.de/x"), any_ctx()));
    }

    #[test]
    fn list_stats_share() {
        let s = ListStats {
            total: 340_643,
            flagged: 2_512,
        };
        assert!((s.share_percent() - 0.737).abs() < 0.01);
        assert_eq!(ListStats::default().share_percent(), 0.0);
    }

    #[test]
    fn empty_list_matches_nothing() {
        let list = FilterList::parse_adblock("empty", "! only comments\n");
        assert!(list.is_empty());
        assert!(!list.matches(&url("http://anything.de/"), any_ctx()));
    }
}
