//! Filter-list matching over captured URLs.

use crate::engine::{DomainSet, RuleIndex};
use crate::rule::{after_host, parse_adblock_line, ResourceKind, Rule};
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

/// A borrowed view of one serialized URL: everything the match engine
/// reads, with the post-host slice precomputed, so a match call does no
/// allocation at all. Serialize the URL once per exchange, build the
/// view, and probe as many lists as needed.
///
/// `host` must be the URL's actual hostname (as a parsed
/// [`Url`](hbbtv_net::Url) guarantees); the engine's domain buckets key
/// on host labels and assume hosts contain no `*`.
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

    pub(crate) fn after_host(&self) -> &'a str {
        self.after_host
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
    hosts: DomainSet,
    index: RuleIndex,
    exception_index: RuleIndex,
}

impl FilterList {
    /// Parses an Adblock-syntax list and builds its match index.
    pub fn parse_adblock(name: &str, text: &str) -> Self {
        let mut rules = Vec::new();
        let mut exceptions = Vec::new();
        for line in text.lines() {
            if let Some(rule) = parse_adblock_line(line) {
                if rule.exception {
                    exceptions.push(rule);
                } else {
                    rules.push(rule);
                }
            }
        }
        let index = RuleIndex::build(&rules);
        let exception_index = RuleIndex::build(&exceptions);
        crate::stats::note_engine(index.automaton_states() + exception_index.automaton_states());
        FilterList {
            name: name.to_string(),
            rules,
            exceptions,
            hosts: DomainSet::default(),
            index,
            exception_index,
        }
    }

    /// Parses a hosts-syntax (domain) list.
    pub fn parse_hosts_list(name: &str, text: &str) -> Self {
        let mut domains: Vec<String> = crate::hosts::parse_hosts(text).into_iter().collect();
        domains.sort();
        crate::stats::note_engine(0);
        FilterList {
            name: name.to_string(),
            rules: Vec::new(),
            exceptions: Vec::new(),
            hosts: DomainSet::build(&domains),
            index: RuleIndex::default(),
            exception_index: RuleIndex::default(),
        }
    }

    /// The list's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of active (non-exception) rules plus blocked domains.
    pub fn len(&self) -> usize {
        self.rules.len() + self.hosts.len()
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

    /// Detailed match outcome, exposing which rule fired.
    pub fn matching_rule(&self, url: &Url, ctx: RequestContext) -> MatchOutcome<'_> {
        self.matching_rule_view(&UrlView::of_url(url), ctx)
    }

    /// [`FilterList::matches`] over a caller-built view — the zero-alloc
    /// steady-state path. Runs entirely on the compiled index: no
    /// `Rule` value is touched.
    pub fn matches_view(&self, view: &UrlView<'_>, ctx: RequestContext) -> bool {
        if self.hosts.blocks_host(view.host) {
            return true;
        }
        self.index.any_match(view, ctx) && !self.exception_index.any_match(view, ctx)
    }

    /// [`FilterList::matching_rule`] over a caller-built view. The indexed
    /// lookup reports the same first-in-list-order rule as the linear
    /// scan (see [`FilterList::matching_rule_linear`]).
    pub fn matching_rule_view(&self, view: &UrlView<'_>, ctx: RequestContext) -> MatchOutcome<'_> {
        if self.hosts.blocks_host(view.host) {
            return MatchOutcome::HostBlocked;
        }
        match self.index.first_match(view, ctx) {
            None => MatchOutcome::NoMatch,
            Some(i) => {
                if self.exception_index.any_match(view, ctx) {
                    MatchOutcome::Allowed
                } else {
                    MatchOutcome::Blocked(&self.rules[i as usize])
                }
            }
        }
    }

    /// Reference implementation: the naive O(rules) scan the indexed
    /// engine replaced, kept verbatim for differential tests and the
    /// `kernels` benchmark baseline.
    pub fn matches_linear(&self, url: &Url, ctx: RequestContext) -> bool {
        match self.matching_rule_linear(url, ctx) {
            MatchOutcome::Blocked(_) | MatchOutcome::HostBlocked => true,
            MatchOutcome::Allowed | MatchOutcome::NoMatch => false,
        }
    }

    /// Reference implementation of [`FilterList::matching_rule`]: a
    /// linear first-match scan over the rule vector.
    pub fn matching_rule_linear(&self, url: &Url, ctx: RequestContext) -> MatchOutcome<'_> {
        if self.hosts.blocks_host(url.host()) {
            return MatchOutcome::HostBlocked;
        }
        let text = url.as_str();
        let host = url.host();
        let hit = self.rules.iter().find(|r| rule_applies(r, text, host, ctx));
        match hit {
            None => MatchOutcome::NoMatch,
            Some(rule) => {
                let excepted = self
                    .exceptions
                    .iter()
                    .any(|e| rule_applies(e, text, host, ctx));
                if excepted {
                    MatchOutcome::Allowed
                } else {
                    MatchOutcome::Blocked(rule)
                }
            }
        }
    }
}

/// The result of matching one URL against a list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchOutcome<'a> {
    /// A block rule fired (and no exception overrode it).
    Blocked(&'a Rule),
    /// The host appears in the hosts/domain table.
    HostBlocked,
    /// A block rule fired but an `@@` exception allowed the request.
    Allowed,
    /// Nothing matched.
    NoMatch,
}

/// The `$third-party`/`$image`/`$script` option gate, shared by the
/// linear scan and the indexed engine.
pub(crate) fn options_allow(rule: &Rule, ctx: RequestContext) -> bool {
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

fn rule_applies(rule: &Rule, url_text: &str, host: &str, ctx: RequestContext) -> bool {
    options_allow(rule, ctx) && rule.pattern_matches(url_text, host)
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
        assert_eq!(list.len(), 1);
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
    }

    #[test]
    fn hosts_list_blocks_subdomains() {
        let list = FilterList::parse_hosts_list("pihole", "0.0.0.0 tracker.tv\n");
        assert!(list.matches(&url("http://cdn.tracker.tv/x"), any_ctx()));
        assert!(!list.matches(&url("http://other.tv/x"), any_ctx()));
        assert_eq!(list.name(), "pihole");
    }

    #[test]
    fn matching_rule_reports_source() {
        let list = FilterList::parse_adblock("t", "||flagged.de^\n");
        match list.matching_rule(&url("http://flagged.de/"), any_ctx()) {
            MatchOutcome::Blocked(r) => assert_eq!(r.source, "||flagged.de^"),
            other => panic!("expected block, got {other:?}"),
        }
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

    /// The indexed engine must report exactly what the linear scan
    /// reports — same outcome variant *and* same firing rule — for all
    /// four [`MatchOutcome`] shapes.
    #[test]
    fn indexed_outcomes_mirror_linear_scan() {
        let list = FilterList::parse_adblock(
            "t",
            // Two rules that could both fire on flagged.de URLs: list
            // order decides which one is reported.
            "||flagged.de^\n/banner\n@@||flagged.de/ok^\n",
        );
        let hosts = FilterList::parse_hosts_list("h", "0.0.0.0 pinned.tv\n");
        let cases = [
            // Blocked by the first rule in list order, not the substring
            // rule that also matches.
            url("http://flagged.de/banner"),
            // Blocked by the residual substring rule only.
            url("http://clean.de/banner.gif"),
            // Exception-allowed.
            url("http://flagged.de/ok"),
            // No match at all.
            url("http://clean.de/page"),
        ];
        for u in &cases {
            assert_eq!(
                list.matching_rule(u, any_ctx()),
                list.matching_rule_linear(u, any_ctx()),
                "outcome diverged for {u}"
            );
            assert_eq!(
                list.matches(u, any_ctx()),
                list.matches_linear(u, any_ctx())
            );
        }
        match list.matching_rule(&url("http://flagged.de/banner"), any_ctx()) {
            MatchOutcome::Blocked(r) => assert_eq!(r.source, "||flagged.de^"),
            other => panic!("expected first-rule block, got {other:?}"),
        }
        assert_eq!(
            list.matching_rule(&url("http://flagged.de/ok"), any_ctx()),
            MatchOutcome::Allowed
        );
        // Host-table blocks go through the same fused path.
        let u = url("http://cdn.pinned.tv/x");
        assert_eq!(
            hosts.matching_rule(&u, any_ctx()),
            MatchOutcome::HostBlocked
        );
        assert_eq!(
            hosts.matching_rule(&u, any_ctx()),
            hosts.matching_rule_linear(&u, any_ctx())
        );
    }
}
