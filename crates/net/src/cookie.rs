//! Cookies and `Set-Cookie` parsing.
//!
//! Cookie observations are central to the paper: Table I counts cookies per
//! measurement run, Table II third-party cookie use, §V-C3 detects cookie
//! syncing from cookie *values*, and first- vs third-party classification
//! compares the cookie's owning domain with the channel's first party.

use crate::domain::Etld1;
use crate::error::ParseCookieError;
use crate::time::Timestamp;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The `SameSite` attribute of a cookie.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum SameSite {
    /// No attribute given (the HbbTV browser treats this permissively,
    /// matching the 2018-era Chromium in webOS).
    #[default]
    None,
    /// `SameSite=Lax`.
    Lax,
    /// `SameSite=Strict`.
    Strict,
}

/// A cookie as a name/value pair plus the domain that owns it.
///
/// # Examples
///
/// ```
/// use hbbtv_net::{Cookie, Etld1};
/// let c = Cookie::new("uid", "a1b2c3d4e5f6", Etld1::new("xiti.com"));
/// assert_eq!(c.key().to_string(), "xiti.com/uid");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Cookie {
    /// Cookie name.
    pub name: String,
    /// Cookie value.
    pub value: String,
    /// The registrable domain the cookie is scoped to.
    pub domain: Etld1,
}

impl Cookie {
    /// Creates a cookie.
    pub fn new(name: impl Into<String>, value: impl Into<String>, domain: Etld1) -> Self {
        Cookie {
            name: name.into(),
            value: value.into(),
            domain,
        }
    }

    /// The identity of this cookie (domain + name), which is what the
    /// "distinct cookies" counts in §V-C are keyed on.
    pub fn key(&self) -> CookieKey {
        CookieKey {
            domain: self.domain.clone(),
            name: self.name.clone(),
        }
    }
}

impl fmt::Display for Cookie {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={} ({})", self.name, self.value, self.domain)
    }
}

/// The identity of a cookie: owning domain plus name.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CookieKey {
    /// Owning registrable domain.
    pub domain: Etld1,
    /// Cookie name.
    pub name: String,
}

impl fmt::Display for CookieKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.domain, self.name)
    }
}

/// A parsed `Set-Cookie` header.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SetCookie {
    /// The cookie being set. `domain` holds the explicit `Domain=`
    /// attribute when present; callers scope host-only cookies to the
    /// responding host's eTLD+1.
    pub cookie: Cookie,
    /// Whether a `Domain=` attribute was explicitly present.
    pub explicit_domain: bool,
    /// Expiry instant; `None` makes it a session cookie.
    pub expires: Option<Timestamp>,
    /// `Secure` attribute.
    pub secure: bool,
    /// `HttpOnly` attribute.
    pub http_only: bool,
    /// `SameSite` attribute.
    pub same_site: SameSite,
}

impl SetCookie {
    /// Creates a plain session cookie with no attributes; the domain is
    /// filled in by the receiver from the response context.
    pub fn session(name: impl Into<String>, value: impl Into<String>) -> Self {
        SetCookie {
            cookie: Cookie::new(name, value, Etld1::new("")),
            explicit_domain: false,
            expires: None,
            secure: false,
            http_only: false,
            same_site: SameSite::None,
        }
    }

    /// Creates a persistent cookie with an explicit domain and expiry.
    pub fn persistent(
        name: impl Into<String>,
        value: impl Into<String>,
        domain: Etld1,
        expires: Timestamp,
    ) -> Self {
        SetCookie {
            cookie: Cookie::new(name, value, domain),
            explicit_domain: true,
            expires: Some(expires),
            secure: false,
            http_only: false,
            same_site: SameSite::None,
        }
    }

    /// Parses a `Set-Cookie` header value: a [`SetCookieView`] copied
    /// out.
    ///
    /// # Errors
    ///
    /// Returns [`ParseCookieError`] when the leading `name=value` pair is
    /// missing or the name is empty.
    ///
    /// # Examples
    ///
    /// ```
    /// use hbbtv_net::SetCookie;
    /// let sc = SetCookie::parse("uid=abc123; Domain=xiti.com; Secure")?;
    /// assert_eq!(sc.cookie.name, "uid");
    /// assert!(sc.secure);
    /// assert_eq!(sc.cookie.domain.as_str(), "xiti.com");
    /// # Ok::<(), hbbtv_net::ParseCookieError>(())
    /// ```
    pub fn parse(s: &str) -> Result<Self, ParseCookieError> {
        let view = SetCookieView::parse(s)?;
        let attrs = view.attributes();
        Ok(SetCookie {
            cookie: Cookie::new(
                view.name,
                view.value,
                attrs
                    .domain
                    .map_or_else(|| Etld1::new(""), Etld1::from_host),
            ),
            explicit_domain: attrs.domain.is_some(),
            expires: attrs.expires,
            secure: attrs.secure,
            http_only: attrs.http_only,
            same_site: attrs.same_site,
        })
    }

    /// Whether the cookie has an expiry (a "persistent" cookie).
    pub fn is_persistent(&self) -> bool {
        self.expires.is_some()
    }

    /// The header's parts, borrowed from this cookie.
    pub fn parts(&self) -> SetCookieParts<'_> {
        SetCookieParts {
            name: [&self.cookie.name, "", ""],
            value: &self.cookie.value,
            domain: self.explicit_domain.then_some(self.cookie.domain.as_str()),
            expires: self.expires,
            secure: self.secure,
            http_only: self.http_only,
            same_site: self.same_site,
        }
    }
}

/// The `Set-Cookie` header text, written by [`SetCookieParts::write`].
impl fmt::Display for SetCookie {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.parts().write(f)
    }
}

/// The parts of a `Set-Cookie` header, borrowed, and the one writer of
/// its text: `name=value`, then `; Domain=`, `; Expires=` (unix
/// seconds), `; Secure`, `; HttpOnly` and `; SameSite=` as present.
/// [`SetCookieParts::text_len`] gives the text's length up front, so a
/// response header buffer is sized once and written in place.
///
/// # Examples
///
/// ```
/// use hbbtv_net::{SetCookieParts, Timestamp};
/// let parts = SetCookieParts {
///     name: ["xtvrn", "_", "rtl"],
///     value: "a1b2c3",
///     domain: Some("xiti.com"),
///     expires: Some(Timestamp::from_unix(1_700_000_000)),
///     ..SetCookieParts::default()
/// };
/// let mut text = String::new();
/// parts.write(&mut text).unwrap();
/// assert_eq!(text, "xtvrn_rtl=a1b2c3; Domain=xiti.com; Expires=1700000000");
/// assert_eq!(parts.text_len(), text.len());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SetCookieParts<'a> {
    /// The cookie name as pieces written back to back, so a derived
    /// name (a tracker's per-site `base_site`) is never built on its own.
    pub name: [&'a str; 3],
    /// The cookie value.
    pub value: &'a str,
    /// The `Domain` attribute, if any.
    pub domain: Option<&'a str>,
    /// The `Expires` attribute, if any.
    pub expires: Option<Timestamp>,
    /// `Secure` attribute.
    pub secure: bool,
    /// `HttpOnly` attribute.
    pub http_only: bool,
    /// `SameSite` attribute.
    pub same_site: SameSite,
}

impl SetCookieParts<'_> {
    /// The length of the header text [`SetCookieParts::write`] writes.
    pub fn text_len(&self) -> usize {
        let name: usize = self.name.iter().map(|piece| piece.len()).sum();
        name + 1
            + self.value.len()
            + self.domain.map_or(0, |d| "; Domain=".len() + d.len())
            + self
                .expires
                .map_or(0, |e| "; Expires=".len() + e.unix_text().as_str().len())
            + usize::from(self.secure) * "; Secure".len()
            + usize::from(self.http_only) * "; HttpOnly".len()
            + self.same_site.attribute().len()
    }

    /// Writes the header text to `out`.
    ///
    /// # Errors
    ///
    /// Only when `out` fails; writing to a `String` cannot.
    pub fn write(&self, out: &mut impl fmt::Write) -> fmt::Result {
        for piece in self.name {
            out.write_str(piece)?;
        }
        out.write_str("=")?;
        out.write_str(self.value)?;
        if let Some(domain) = self.domain {
            out.write_str("; Domain=")?;
            out.write_str(domain)?;
        }
        if let Some(e) = self.expires {
            out.write_str("; Expires=")?;
            out.write_str(e.unix_text().as_str())?;
        }
        if self.secure {
            out.write_str("; Secure")?;
        }
        if self.http_only {
            out.write_str("; HttpOnly")?;
        }
        out.write_str(self.same_site.attribute())
    }
}

impl SameSite {
    /// The attribute as written after the pair (empty for `None`).
    fn attribute(self) -> &'static str {
        match self {
            SameSite::None => "",
            SameSite::Lax => "; SameSite=Lax",
            SameSite::Strict => "; SameSite=Strict",
        }
    }
}

/// A `Set-Cookie` header read in place: the one parser of the header.
/// [`SetCookieView::parse`] slices out the trimmed name and value; the
/// attributes stay unparsed text until [`SetCookieView::attributes`] or
/// [`SetCookieView::domain`] reads them, so a reader that needs only
/// the pair and the owner pays for nothing else.
///
/// # Examples
///
/// ```
/// use hbbtv_net::{SetCookieView, Timestamp};
/// let v = SetCookieView::parse("uid = abc ; Domain=.xiti.com; Max-Age=60; Expires=1")?;
/// assert_eq!((v.name, v.value), ("uid", "abc"));
/// assert_eq!(v.domain(), Some("xiti.com"));
/// assert_eq!(v.attributes().expires, Some(Timestamp::from_unix(60)));
/// # Ok::<(), hbbtv_net::ParseCookieError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetCookieView<'a> {
    /// The cookie name, trimmed and never empty.
    pub name: &'a str,
    /// The cookie value, trimmed.
    pub value: &'a str,
    /// The text from the pair's closing `;` on (empty without one),
    /// attributes unparsed.
    attrs: &'a str,
}

/// The position of the first `byte` (ASCII) in `s`: a plain loop, which
/// beats a searcher's set-up on header-sized text.
pub(crate) fn find_byte(s: &str, byte: u8) -> Option<usize> {
    s.bytes().position(|b| b == byte)
}

/// [`str::trim`], without decoding an ASCII end: cookie text is ASCII
/// but for the rare byte the full trim then handles.
pub(crate) fn trim(s: &str) -> &str {
    let ws = |b: &u8| matches!(b, b' ' | b'\t' | b'\n' | 0x0b | 0x0c | b'\r');
    let bytes = s.as_bytes();
    let start = bytes.iter().position(|b| !ws(b)).unwrap_or(bytes.len());
    let end = bytes.iter().rposition(|b| !ws(b)).map_or(start, |i| i + 1);
    let inner = &s[start..end];
    match (inner.bytes().next(), inner.bytes().last()) {
        (Some(first), Some(last)) if !first.is_ascii() || !last.is_ascii() => inner.trim(),
        _ => inner,
    }
}

/// The attributes of a `Set-Cookie` header, as
/// [`SetCookieView::attributes`] reads them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CookieAttributes<'a> {
    /// The host named by the last `Domain` attribute, leading dots
    /// stripped.
    pub domain: Option<&'a str>,
    /// The expiry: `Max-Age` when given, else `Expires` (RFC 6265
    /// §4.1.2.2, whatever their order), both read as unix seconds.
    pub expires: Option<Timestamp>,
    /// `Secure` attribute.
    pub secure: bool,
    /// `HttpOnly` attribute.
    pub http_only: bool,
    /// `SameSite` attribute.
    pub same_site: SameSite,
}

impl<'a> SetCookieView<'a> {
    /// Reads the `name=value` pair of a `Set-Cookie` header value.
    ///
    /// # Errors
    ///
    /// Returns [`ParseCookieError`] when the leading `name=value` pair is
    /// missing or the name is empty.
    pub fn parse(s: &'a str) -> Result<Self, ParseCookieError> {
        let (pair, attrs) = s.split_at(find_byte(s, b';').unwrap_or(s.len()));
        let eq = find_byte(pair, b'=').ok_or(ParseCookieError::MissingPair)?;
        let name = trim(&pair[..eq]);
        if name.is_empty() {
            return Err(ParseCookieError::EmptyName);
        }
        Ok(SetCookieView {
            name,
            value: trim(&pair[eq + 1..]),
            attrs,
        })
    }

    /// The `;`-separated attributes as trimmed `(key, value)` pairs; a
    /// key without `=` has an empty value.
    fn attribute_pairs(&self) -> impl Iterator<Item = (&'a str, &'a str)> {
        let mut rest = self.attrs;
        std::iter::from_fn(move || {
            let tail = rest.strip_prefix(';')?;
            let (attr, next) = tail.split_at(find_byte(tail, b';').unwrap_or(tail.len()));
            rest = next;
            Some(match find_byte(attr, b'=') {
                Some(eq) => (trim(&attr[..eq]), trim(&attr[eq + 1..])),
                None => (trim(attr), ""),
            })
        })
    }

    /// The host named by the last `Domain` attribute, leading dots
    /// stripped: the one attribute the analysis reads.
    pub fn domain(&self) -> Option<&'a str> {
        self.attribute_pairs()
            .filter(|(key, _)| key.eq_ignore_ascii_case("domain"))
            .last()
            .map(|(_, host)| host.trim_start_matches('.'))
    }

    /// Every attribute, read in one pass.
    pub fn attributes(&self) -> CookieAttributes<'a> {
        let mut a = CookieAttributes::default();
        let (mut expires, mut max_age) = (None, None);
        for (key, val) in self.attribute_pairs() {
            if key.eq_ignore_ascii_case("domain") {
                a.domain = Some(val.trim_start_matches('.'));
            } else if key.eq_ignore_ascii_case("expires") {
                expires = val.parse().ok().or(expires);
            } else if key.eq_ignore_ascii_case("max-age") {
                max_age = val.parse().ok().or(max_age);
            } else if key.eq_ignore_ascii_case("secure") {
                a.secure = true;
            } else if key.eq_ignore_ascii_case("httponly") {
                a.http_only = true;
            } else if key.eq_ignore_ascii_case("samesite") {
                a.same_site = if val.eq_ignore_ascii_case("lax") {
                    SameSite::Lax
                } else if val.eq_ignore_ascii_case("strict") {
                    SameSite::Strict
                } else {
                    SameSite::None
                };
            }
        }
        a.expires = max_age.or(expires).map(Timestamp::from_unix);
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_through_display() {
        let original = SetCookie::persistent(
            "uid",
            "a1b2c3d4e5",
            Etld1::new("tvping.com"),
            Timestamp::from_unix(1_700_000_000),
        );
        let reparsed = SetCookie::parse(&original.to_string()).unwrap();
        assert_eq!(reparsed, original);
    }

    #[test]
    fn parse_attributes() {
        let sc =
            SetCookie::parse("s=1; Domain=.xiti.com; Secure; HttpOnly; SameSite=Strict").unwrap();
        assert_eq!(sc.cookie.domain.as_str(), "xiti.com");
        assert!(sc.secure && sc.http_only);
        assert_eq!(sc.same_site, SameSite::Strict);
        assert!(!sc.is_persistent());
    }

    #[test]
    fn parse_rejects_malformed() {
        assert_eq!(
            SetCookie::parse("noequals"),
            Err(ParseCookieError::MissingPair)
        );
        assert_eq!(SetCookie::parse("=v"), Err(ParseCookieError::EmptyName));
    }

    #[test]
    fn value_may_contain_equals() {
        let sc = SetCookie::parse("data=a=b=c").unwrap();
        assert_eq!(sc.cookie.value, "a=b=c");
    }

    #[test]
    fn cookie_key_identity() {
        let a = Cookie::new("uid", "1", Etld1::new("x.de"));
        let b = Cookie::new("uid", "2", Etld1::new("x.de"));
        assert_eq!(a.key(), b.key(), "identity ignores the value");
        let c = Cookie::new("uid", "1", Etld1::new("y.de"));
        assert_ne!(a.key(), c.key());
        assert_eq!(a.key().to_string(), "x.de/uid");
    }

    #[test]
    fn max_age_takes_precedence_over_expires() {
        // RFC 6265: Max-Age wins no matter which attribute comes last.
        let sc = SetCookie::parse("a=1; Expires=1000; Max-Age=2000").unwrap();
        assert_eq!(sc.expires, Some(Timestamp::from_unix(2000)));
        let sc = SetCookie::parse("a=1; Max-Age=2000; Expires=1000").unwrap();
        assert_eq!(sc.expires, Some(Timestamp::from_unix(2000)));
    }

    #[test]
    fn expires_alone_still_applies() {
        let sc = SetCookie::parse("a=1; Expires=1234").unwrap();
        assert_eq!(sc.expires, Some(Timestamp::from_unix(1234)));
        let sc = SetCookie::parse("a=1; Max-Age=4321").unwrap();
        assert_eq!(sc.expires, Some(Timestamp::from_unix(4321)));
    }

    #[test]
    fn header_value_is_the_display_text_without_slack() {
        let mut sc = SetCookie::persistent(
            "uid",
            "a1b2c3d4e5",
            Etld1::new("tvping.com"),
            Timestamp::from_unix(1_700_000_000),
        );
        let mut variants = vec![SetCookie::session("s", ""), sc.clone()];
        sc.expires = Some(Timestamp::from_unix(0));
        sc.secure = true;
        sc.http_only = true;
        for same_site in [SameSite::None, SameSite::Lax, SameSite::Strict] {
            sc.same_site = same_site;
            variants.push(sc.clone());
        }
        for sc in variants {
            let response = crate::Response::builder(crate::Status::OK)
                .set_cookie(&sc)
                .build();
            let text = response.headers.get("Set-Cookie").expect("one header");
            assert_eq!(text, sc.to_string());
            assert_eq!(sc.parts().text_len(), text.len(), "{text}");
            assert_eq!(
                response.headers.text_capacity(),
                "Set-Cookie".len() + text.len()
            );
        }
    }

    #[test]
    fn view_reads_the_pair_eagerly_and_attributes_on_demand() {
        let v = SetCookieView::parse(" n = v=1 ;Domain=a.de; domain=..b.de;Max-Age=x; Expires=7")
            .unwrap();
        assert_eq!((v.name, v.value), ("n", "v=1"));
        assert_eq!(v.domain(), Some("b.de"), "the last Domain wins");
        let a = v.attributes();
        assert_eq!(a.domain, v.domain());
        assert_eq!(
            a.expires,
            Some(Timestamp::from_unix(7)),
            "bad Max-Age is skipped"
        );
        assert!(!a.secure && !a.http_only);
        assert_eq!(SetCookieView::parse("a=1").unwrap().domain(), None);
    }

    #[test]
    fn samesite_lax_parses() {
        let sc = SetCookie::parse("a=1; SameSite=lax").unwrap();
        assert_eq!(sc.same_site, SameSite::Lax);
    }
}
