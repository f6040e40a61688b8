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

    /// Parses a `Set-Cookie` header value.
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
        let mut parts = s.split(';').map(str::trim);
        let pair = parts.next().ok_or(ParseCookieError::MissingPair)?;
        let (name, value) = pair.split_once('=').ok_or(ParseCookieError::MissingPair)?;
        let name = name.trim();
        if name.is_empty() {
            return Err(ParseCookieError::EmptyName);
        }
        let mut sc = SetCookie::session(name, value.trim());
        // RFC 6265 §4.1.2.2: when both attributes are present, `Max-Age`
        // takes precedence over `Expires` regardless of order.
        let mut expires_attr = None;
        let mut max_age_attr = None;
        for attr in parts {
            let (key, val) = match attr.split_once('=') {
                Some((k, v)) => (k.trim(), v.trim()),
                None => (attr, ""),
            };
            if key.eq_ignore_ascii_case("domain") {
                sc.cookie.domain = Etld1::from_host(val.trim_start_matches('.'));
                sc.explicit_domain = true;
            } else if key.eq_ignore_ascii_case("expires") {
                // We serialize expiry as unix seconds in both attributes.
                if let Ok(secs) = val.parse::<u64>() {
                    expires_attr = Some(Timestamp::from_unix(secs));
                }
            } else if key.eq_ignore_ascii_case("max-age") {
                if let Ok(secs) = val.parse::<u64>() {
                    max_age_attr = Some(Timestamp::from_unix(secs));
                }
            } else if key.eq_ignore_ascii_case("secure") {
                sc.secure = true;
            } else if key.eq_ignore_ascii_case("httponly") {
                sc.http_only = true;
            } else if key.eq_ignore_ascii_case("samesite") {
                sc.same_site = if val.eq_ignore_ascii_case("lax") {
                    SameSite::Lax
                } else if val.eq_ignore_ascii_case("strict") {
                    SameSite::Strict
                } else {
                    SameSite::None
                };
            }
        }
        sc.expires = max_age_attr.or(expires_attr);
        Ok(sc)
    }

    /// Whether the cookie has an expiry (a "persistent" cookie).
    pub fn is_persistent(&self) -> bool {
        self.expires.is_some()
    }

    /// The `Set-Cookie` header value (the [`fmt::Display`] text), written
    /// into a string of exactly its length: a captured response keeps
    /// the header for the whole study.
    pub(crate) fn header_value(&self) -> String {
        use fmt::Write;
        let mut len = self.cookie.name.len() + 1 + self.cookie.value.len();
        if self.explicit_domain {
            len += "; Domain=".len() + self.cookie.domain.as_str().len();
        }
        if let Some(e) = self.expires {
            len += "; Expires=".len() + e.as_unix().checked_ilog10().map_or(1, |d| d as usize + 1);
        }
        len += usize::from(self.secure) * "; Secure".len()
            + usize::from(self.http_only) * "; HttpOnly".len()
            + match self.same_site {
                SameSite::None => 0,
                SameSite::Lax => "; SameSite=Lax".len(),
                SameSite::Strict => "; SameSite=Strict".len(),
            };
        let mut text = String::with_capacity(len);
        write!(text, "{self}").expect("writing to a String cannot fail");
        debug_assert_eq!(text.len(), len, "header length for {text}");
        text
    }
}

impl fmt::Display for SetCookie {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}", self.cookie.name, self.cookie.value)?;
        if self.explicit_domain {
            write!(f, "; Domain={}", self.cookie.domain)?;
        }
        if let Some(e) = self.expires {
            write!(f, "; Expires={}", e.as_unix())?;
        }
        if self.secure {
            f.write_str("; Secure")?;
        }
        if self.http_only {
            f.write_str("; HttpOnly")?;
        }
        match self.same_site {
            SameSite::None => {}
            SameSite::Lax => f.write_str("; SameSite=Lax")?,
            SameSite::Strict => f.write_str("; SameSite=Strict")?,
        }
        Ok(())
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
            let text = sc.header_value();
            assert_eq!(text, sc.to_string());
            assert_eq!(text.capacity(), text.len(), "{text}");
        }
    }

    #[test]
    fn samesite_lax_parses() {
        let sc = SetCookie::parse("a=1; SameSite=lax").unwrap();
        assert_eq!(sc.same_site, SameSite::Lax);
    }
}
