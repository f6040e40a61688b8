//! Filter-list parsing and matching (EasyList, EasyPrivacy, Pi-hole,
//! Perflyst, Kamran).
//!
//! §V-D of the paper compares every observed URL against popular filter
//! lists and finds that they miss most HbbTV trackers: only 0.5% of URLs
//! were flagged by EasyList, 0.15% by EasyPrivacy, and 1.17% by Pi-hole;
//! smart-TV-specific lists blocked even fewer requests.
//!
//! This crate implements the two rule syntaxes involved:
//!
//! * **Adblock Plus filter syntax** (EasyList/EasyPrivacy) — the subset
//!   exercised by network-request matching: `||domain^` anchors, plain
//!   substring patterns, `|` start anchors, `^` separators, `*` wildcards,
//!   `@@` exceptions, and the `$third-party`/`$image`/`$script` options.
//! * **Hosts/domain lists** (Pi-hole, Perflyst, Kamran) — `0.0.0.0 domain`
//!   or bare-domain lines matching a host and its subdomains.
//!
//! Bundled synthetic snapshots live in [`bundled`]; their *coverage* of
//! the simulated tracker roster mirrors the real lists' coverage of the
//! real HbbTV ecosystem (dense on web trackers, sparse on HbbTV-only
//! trackers such as `tvping.com`).
//!
//! # Examples
//!
//! ```
//! use hbbtv_filterlists::{FilterList, RequestContext, ResourceKind};
//! use hbbtv_net::Url;
//!
//! let list = FilterList::parse_adblock("easylist-mini", "||doubleclick.net^\n! comment");
//! let url: Url = "http://ad.doubleclick.net/pixel".parse()?;
//! let ctx = RequestContext { third_party: true, kind: ResourceKind::Image };
//! assert!(list.matches(&url, ctx));
//! # Ok::<(), hbbtv_net::ParseUrlError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bundled;
mod hosts;
mod matcher;
mod rule;

pub use hosts::parse_hosts;
pub use matcher::{FilterList, ListStats, RequestContext, UrlView};
pub use rule::{parse_adblock_line, Anchor, ResourceKind, Rule, RuleOptions};
