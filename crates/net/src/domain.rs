//! Host names and registrable domains (eTLD+1).
//!
//! The paper classifies communication endpoints by their eTLD+1 ("effective
//! top-level domain plus one label"), e.g. both `hbbtv.ard.de` and
//! `www.ard.de` map to `ard.de`. We embed the slice of the public-suffix
//! list that the European HbbTV ecosystem actually exercises: the
//! two-level suffixes like `co.uk`. Every other TLD — generic, a
//! country code of the broadcast region, or unknown — is a single-label
//! suffix.

use crate::error::ParseUrlError;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::fmt;

/// Public suffixes with two labels; every other host registers its
/// last two labels (see [`registrable_domain`]).
///
/// A host `a.b.sfx1.sfx2` with `sfx1.sfx2` in this table has the
/// registrable domain `b.sfx1.sfx2`.
const TWO_LABEL_SUFFIXES: &[&str] = &[
    "co.uk", "org.uk", "gov.uk", "ac.uk", "com.au", "net.au", "org.au", "co.at", "or.at", "ac.at",
    "gv.at", "co.nz", "com.tr", "com.br", "co.jp",
];

/// A syntactically valid DNS host name (lower-cased).
///
/// # Examples
///
/// ```
/// use hbbtv_net::Host;
/// let host: Host = "HbbTV.ARD.de".parse()?;
/// assert_eq!(host.as_str(), "hbbtv.ard.de");
/// assert_eq!(host.labels().count(), 3);
/// # Ok::<(), hbbtv_net::ParseUrlError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Host(String);

impl Host {
    /// Parses and validates a host name, lower-casing it.
    ///
    /// # Errors
    ///
    /// Returns [`ParseUrlError::EmptyHost`] for an empty string and
    /// [`ParseUrlError::InvalidHost`] for hosts with empty labels or
    /// characters outside `[a-z0-9.-]`.
    pub fn parse(s: &str) -> Result<Self, ParseUrlError> {
        check_host(s)?;
        Ok(Host(s.to_ascii_lowercase()))
    }

    /// The host as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Iterates over the dot-separated labels, left to right.
    pub fn labels(&self) -> impl DoubleEndedIterator<Item = &str> {
        self.0.split('.')
    }

    /// The registrable domain (eTLD+1) of this host.
    ///
    /// Hosts that *are* a public suffix (or a bare single label) map to
    /// themselves, mirroring how measurement tooling treats unmatched
    /// hosts.
    pub fn etld1(&self) -> Etld1 {
        Etld1(registrable_domain(&self.0))
    }
}

/// Checks that `s` is a host [`Host::parse`] accepts, without copying
/// it: non-empty, with non-empty labels of `[a-zA-Z0-9-]`.
pub(crate) fn check_host(s: &str) -> Result<(), ParseUrlError> {
    if s.is_empty() {
        return Err(ParseUrlError::EmptyHost);
    }
    let valid = s.split('.').all(|label| {
        !label.is_empty()
            && label
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'-')
    });
    if !valid {
        return Err(ParseUrlError::InvalidHost(s.to_string()));
    }
    Ok(())
}

impl fmt::Display for Host {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::str::FromStr for Host {
    type Err = ParseUrlError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Host::parse(s)
    }
}

impl AsRef<str> for Host {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

/// A registrable domain — "effective TLD plus one label".
///
/// This is the unit of party identification throughout the paper: first
/// parties, third parties, trackers, and graph nodes are all eTLD+1s.
///
/// # Examples
///
/// ```
/// use hbbtv_net::Etld1;
/// assert_eq!(Etld1::from_host("cdn.tracker.co.uk").as_str(), "tracker.co.uk");
/// assert_eq!(Etld1::from_host("hbbtv.ard.de").as_str(), "ard.de");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Etld1(String);

impl Etld1 {
    /// Wraps an already-registrable domain without re-deriving it.
    ///
    /// Intended for literals (`Etld1::new("ard.de")`); prefer
    /// [`Etld1::from_host`] when the input may carry subdomains.
    pub fn new(domain: impl Into<String>) -> Self {
        Etld1(domain.into().to_ascii_lowercase())
    }

    /// Derives the registrable domain of an arbitrary host string. A
    /// host that is already lower case is not copied first.
    pub fn from_host(host: &str) -> Self {
        Etld1Ref::of_host(host).map_or_else(
            || Etld1(registrable_domain(&host.to_ascii_lowercase())),
            Etld1Ref::to_owned,
        )
    }

    /// The domain as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The domain as a borrowed [`Etld1Ref`].
    pub fn view(&self) -> Etld1Ref<'_> {
        Etld1Ref(&self.0)
    }
}

impl fmt::Display for Etld1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Lets a map keyed by `Etld1` be searched with a borrowed domain.
impl Borrow<str> for Etld1 {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Etld1 {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl From<&Host> for Etld1 {
    fn from(h: &Host) -> Etld1 {
        h.etld1()
    }
}

impl PartialEq<Etld1Ref<'_>> for Etld1 {
    fn eq(&self, other: &Etld1Ref<'_>) -> bool {
        self.0 == other.0
    }
}

/// A borrowed registrable domain, such as the eTLD+1 slice of a
/// [`Url`](crate::Url)'s text. Comparing it with an [`Etld1`] or reading
/// it costs nothing; [`Etld1Ref::to_owned`] copies it out.
///
/// # Examples
///
/// ```
/// use hbbtv_net::{Etld1, Url};
/// let url: Url = "http://cdn.tracker.co.uk/p.gif".parse()?;
/// assert_eq!(url.etld1().as_str(), "tracker.co.uk");
/// assert_eq!(url.etld1(), Etld1::new("tracker.co.uk"));
/// assert_eq!(url.etld1().to_owned(), Etld1::new("tracker.co.uk"));
/// # Ok::<(), hbbtv_net::ParseUrlError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Etld1Ref<'a>(&'a str);

impl<'a> Etld1Ref<'a> {
    /// Wraps a slice already known to be a registrable domain.
    pub(crate) fn new(domain: &'a str) -> Self {
        Etld1Ref(domain)
    }

    /// The registrable domain of `host`, sliced out of it; `None` when
    /// the host has an upper-case letter, whose domain
    /// [`Etld1::from_host`] lower-cases into a string of its own.
    pub fn of_host(host: &'a str) -> Option<Self> {
        (!host.bytes().any(|b| b.is_ascii_uppercase()))
            .then(|| Etld1Ref(&host[registrable_start(host)..]))
    }

    /// The domain as a string slice.
    pub fn as_str(self) -> &'a str {
        self.0
    }

    /// Copies the domain into an owned [`Etld1`].
    pub fn to_owned(self) -> Etld1 {
        Etld1(self.0.to_string())
    }
}

impl PartialEq<Etld1> for Etld1Ref<'_> {
    fn eq(&self, other: &Etld1) -> bool {
        self.0 == other.0
    }
}

impl fmt::Display for Etld1Ref<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

/// Computes the registrable domain (eTLD+1) of a lower-cased host string.
///
/// A host whose last two labels are in the two-label suffix table
/// registers one more label (`x.bbc.co.uk` → `bbc.co.uk`); a host that
/// *is* such a suffix maps to itself. Every other host registers its
/// last two labels: the public-suffix answer under the generic and
/// European ccTLDs, and what common measurement tooling (e.g. the
/// tldextract fallback) does under an unknown TLD. A host with no dot
/// is returned unchanged.
pub fn registrable_domain(host: &str) -> String {
    host[registrable_start(host)..].to_string()
}

/// Where the registrable domain of a lower-cased host starts: the
/// slicing core of [`registrable_domain`].
pub(crate) fn registrable_start(host: &str) -> usize {
    let Some(last_dot) = host.rfind('.') else {
        return 0;
    };
    let two = label_start(host, last_dot);
    match two.checked_sub(1) {
        Some(dot) if TWO_LABEL_SUFFIXES.contains(&&host[two..]) => label_start(host, dot),
        _ => two,
    }
}

/// Where the label that ends at the dot at byte `dot` starts.
fn label_start(host: &str, dot: usize) -> usize {
    host[..dot].rfind('.').map_or(0, |prev| prev + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn etld1_handles_generic_tlds() {
        assert_eq!(registrable_domain("www.tvping.com"), "tvping.com");
        assert_eq!(registrable_domain("a.b.c.xiti.com"), "xiti.com");
        assert_eq!(registrable_domain("redbutton.de"), "redbutton.de");
    }

    #[test]
    fn etld1_handles_two_label_suffixes() {
        assert_eq!(registrable_domain("stats.bbc.co.uk"), "bbc.co.uk");
        assert_eq!(registrable_domain("orf.co.at"), "orf.co.at");
        assert_eq!(registrable_domain("x.y.orf.co.at"), "orf.co.at");
    }

    #[test]
    fn etld1_of_suffix_or_bare_label_is_identity() {
        assert_eq!(registrable_domain("localhost"), "localhost");
        assert_eq!(registrable_domain("co.uk"), "co.uk");
    }

    #[test]
    fn unknown_tld_falls_back_to_last_two_labels() {
        assert_eq!(registrable_domain("a.b.example.zz"), "example.zz");
    }

    #[test]
    fn host_parse_rejects_garbage() {
        assert!(Host::parse("").is_err());
        assert!(Host::parse("a..b").is_err());
        assert!(Host::parse("spaces here.com").is_err());
        assert!(Host::parse("under_score.com").is_err());
    }

    #[test]
    fn host_parse_lowercases() {
        let h = Host::parse("Hbb.ARD.De").unwrap();
        assert_eq!(h.as_str(), "hbb.ard.de");
        assert_eq!(h.etld1(), Etld1::new("ard.de"));
    }

    #[test]
    fn etld1_display_and_conversions() {
        let h: Host = "cdn.smartclip.net".parse().unwrap();
        let d: Etld1 = (&h).into();
        assert_eq!(d.to_string(), "smartclip.net");
        assert_eq!(d.as_ref(), "smartclip.net");
    }
}
