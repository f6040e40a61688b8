//! URL parsing and manipulation.
//!
//! A deliberately small URL model covering exactly what HbbTV traffic
//! analysis needs: scheme, host, optional port, path, and query parameters.
//! Fragments are accepted and discarded (they never reach the network).

use crate::domain::{Etld1, Host};
use crate::error::ParseUrlError;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// The transport scheme of a [`Url`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scheme {
    /// Plain-text HTTP. The vast majority of HbbTV traffic in the paper
    /// (Table I reports HTTPS shares between 0.61% and 7.47%).
    Http,
    /// TLS-protected HTTP.
    Https,
}

impl Scheme {
    /// The default port for the scheme (80 or 443).
    pub fn default_port(self) -> u16 {
        match self {
            Scheme::Http => 80,
            Scheme::Https => 443,
        }
    }

    /// The scheme name without the `://` separator.
    pub fn as_str(self) -> &'static str {
        match self {
            Scheme::Http => "http",
            Scheme::Https => "https",
        }
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A parsed absolute URL.
///
/// # Examples
///
/// ```
/// use hbbtv_net::{Url, Scheme};
///
/// let url: Url = "http://hbbtv.rtl.de/start?cid=rtl&uid=abc123".parse()?;
/// assert_eq!(url.scheme(), Scheme::Http);
/// assert_eq!(url.path(), "/start");
/// assert_eq!(url.query_param("uid"), Some("abc123"));
/// assert_eq!(url.etld1().as_str(), "rtl.de");
/// # Ok::<(), hbbtv_net::ParseUrlError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Url {
    scheme: Scheme,
    host: Host,
    etld1: Etld1,
    port: Option<u16>,
    path: String,
    query: Vec<(String, String)>,
}

impl Url {
    /// Parses an absolute `http`/`https` URL.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseUrlError`] when the scheme is missing or
    /// unsupported, or the host/port are malformed.
    pub fn parse(s: &str) -> Result<Self, ParseUrlError> {
        let (scheme, rest) = match s.split_once("://") {
            Some(("http", rest)) => (Scheme::Http, rest),
            Some(("https", rest)) => (Scheme::Https, rest),
            Some((other, _)) => return Err(ParseUrlError::UnsupportedScheme(other.to_string())),
            None => return Err(ParseUrlError::MissingScheme),
        };
        // Strip fragment first; it never reaches the wire.
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
        let host = Host::parse(host_str)?;
        let etld1 = host.etld1();
        let (path, query_str) = match path_query.split_once('?') {
            Some((p, q)) => (p, q),
            None => (path_query, ""),
        };
        let path = if path.is_empty() { "/" } else { path }.to_string();
        let query = parse_query(query_str);
        Ok(Url {
            scheme,
            host,
            etld1,
            port,
            path,
            query,
        })
    }

    /// The transport scheme.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// `true` when the scheme is HTTPS.
    pub fn is_https(&self) -> bool {
        self.scheme == Scheme::Https
    }

    /// The host name.
    pub fn host(&self) -> &str {
        self.host.as_str()
    }

    /// The registrable domain of the host.
    pub fn etld1(&self) -> &Etld1 {
        &self.etld1
    }

    /// The effective port (explicit, or the scheme default).
    pub fn port(&self) -> u16 {
        self.port.unwrap_or_else(|| self.scheme.default_port())
    }

    /// The path component, always starting with `/`.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Query parameters, in order of appearance.
    pub fn query_pairs(&self) -> &[(String, String)] {
        &self.query
    }

    /// The first value of a named query parameter, if present.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Returns a copy of this URL with one query parameter appended.
    pub fn with_param(&self, name: &str, value: &str) -> Url {
        let mut u = self.clone();
        u.push_param(name, value);
        u
    }

    /// Appends one query parameter in place; the owned form of
    /// [`Url::with_param`] for callers that build up a URL they own. An
    /// owned `value` moves into the query without a copy.
    pub fn push_param(&mut self, name: &str, value: impl Into<String>) {
        self.query.push((name.to_string(), value.into()));
    }

    /// Releases the query list's spare capacity (see
    /// [`crate::Request::shrink_to_fit`]).
    pub(crate) fn shrink_to_fit(&mut self) {
        self.query.shrink_to_fit();
    }

    /// The path plus serialized query string (`/p?a=b`). Useful for
    /// filter-list matching, which operates on the full URL text.
    pub fn path_and_query(&self) -> String {
        if self.query.is_empty() {
            self.path.clone()
        } else {
            format!("{}?{}", self.path, serialize_query(&self.query))
        }
    }

    /// Appends the serialized URL to `buf` by direct string pushes,
    /// bypassing the `fmt` machinery. This is the hot path for
    /// filter-list matching, where a URL is serialized once per
    /// exchange; output is identical to [`fmt::Display`].
    pub fn write_into(&self, buf: &mut String) {
        buf.push_str(self.scheme.as_str());
        buf.push_str("://");
        buf.push_str(self.host.as_str());
        if let Some(p) = self.port {
            buf.push(':');
            push_u16(buf, p);
        }
        buf.push_str(&self.path);
        let mut sep = '?';
        for (k, v) in &self.query {
            buf.push(sep);
            sep = '&';
            buf.push_str(k);
            if !v.is_empty() {
                buf.push('=');
                buf.push_str(v);
            }
        }
    }

    /// The serialized URL as a fresh string; equivalent to
    /// `to_string()` but without per-pair allocations.
    pub fn to_text(&self) -> String {
        let mut s = String::with_capacity(self.path.len() + self.host.as_str().len() + 24);
        self.write_into(&mut s);
        s
    }
}

fn push_u16(buf: &mut String, n: u16) {
    let mut digits = [0u8; 5];
    let mut i = digits.len();
    let mut n = u32::from(n);
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    buf.push_str(std::str::from_utf8(&digits[i..]).expect("ASCII digits"));
}

fn parse_query(q: &str) -> Vec<(String, String)> {
    if q.is_empty() {
        return Vec::new();
    }
    q.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (kv.to_string(), String::new()),
        })
        .collect()
}

fn serialize_query(pairs: &[(String, String)]) -> String {
    pairs
        .iter()
        .map(|(k, v)| {
            if v.is_empty() {
                k.clone()
            } else {
                format!("{k}={v}")
            }
        })
        .collect::<Vec<_>>()
        .join("&")
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}://{}", self.scheme, self.host)?;
        if let Some(p) = self.port {
            write!(f, ":{p}")?;
        }
        f.write_str(&self.path)?;
        if !self.query.is_empty() {
            write!(f, "?{}", serialize_query(&self.query))?;
        }
        Ok(())
    }
}

impl FromStr for Url {
    type Err = ParseUrlError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Url::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_url() {
        let u = Url::parse("https://a.b.example.de:8443/x/y?k=v&flag&n=2#frag").unwrap();
        assert_eq!(u.scheme(), Scheme::Https);
        assert_eq!(u.host(), "a.b.example.de");
        assert_eq!(u.port(), 8443);
        assert_eq!(u.path(), "/x/y");
        assert_eq!(u.query_param("k"), Some("v"));
        assert_eq!(u.query_param("flag"), Some(""));
        assert_eq!(u.query_param("n"), Some("2"));
        assert_eq!(u.query_param("frag"), None, "fragment is dropped");
    }

    #[test]
    fn defaults_for_bare_authority() {
        let u = Url::parse("http://tvping.com").unwrap();
        assert_eq!(u.path(), "/");
        assert_eq!(u.port(), 80);
        assert!(!u.is_https());
        assert_eq!(u.to_string(), "http://tvping.com/");
    }

    #[test]
    fn query_without_path() {
        let u = Url::parse("http://x.de?a=1").unwrap();
        assert_eq!(u.path(), "/");
        assert_eq!(u.query_param("a"), Some("1"));
    }

    #[test]
    fn rejects_bad_inputs() {
        assert_eq!(
            Url::parse("ftp://x.de"),
            Err(ParseUrlError::UnsupportedScheme("ftp".into()))
        );
        assert_eq!(
            Url::parse("no-scheme.de"),
            Err(ParseUrlError::MissingScheme)
        );
        assert!(matches!(
            Url::parse("http://"),
            Err(ParseUrlError::EmptyHost)
        ));
        assert!(matches!(
            Url::parse("http://h.de:70000/"),
            Err(ParseUrlError::InvalidPort(_))
        ));
    }

    #[test]
    fn write_into_agrees_with_display() {
        for s in [
            "http://tvping.com/ping?c=rtl&s=1&u=abc",
            "https://hbbtv.ard.de/app/index.html",
            "http://x.de:8080/",
            "http://x.de/p?flag&n=2",
            "http://x.de",
        ] {
            let u = Url::parse(s).unwrap();
            assert_eq!(u.to_text(), u.to_string(), "for {s}");
        }
    }

    #[test]
    fn push_param_agrees_with_chained_with_param() {
        let base = Url::parse("http://tvping.com/ping?c=rtl").unwrap();
        let chained = base.with_param("s", "1").with_param("flag", "");
        let mut pushed = base.clone();
        pushed.push_param("s", "1");
        pushed.push_param("flag", "");
        assert_eq!(pushed, chained);
        assert_eq!(pushed.to_text(), chained.to_text());
        assert_eq!(pushed.to_string(), chained.to_string());
        assert_eq!(pushed.to_text(), "http://tvping.com/ping?c=rtl&s=1&flag");
    }

    #[test]
    fn display_round_trips() {
        for s in [
            "http://tvping.com/ping?c=rtl&s=1&u=abc",
            "https://hbbtv.ard.de/app/index.html",
            "http://x.de:8080/",
        ] {
            let u = Url::parse(s).unwrap();
            assert_eq!(Url::parse(&u.to_string()).unwrap(), u);
        }
    }

    #[test]
    fn with_param_appends() {
        let u = Url::parse("http://x.de/p").unwrap().with_param("uid", "42");
        assert_eq!(u.to_string(), "http://x.de/p?uid=42");
        assert_eq!(u.path_and_query(), "/p?uid=42");
    }
}
