//! URL parsing and manipulation.
//!
//! A deliberately small URL model covering exactly what HbbTV traffic
//! analysis needs: scheme, host, optional port, path, and query parameters.
//! Fragments are accepted and discarded (they never reach the network).

use crate::domain::{check_host, registrable_start, Etld1Ref};
use crate::error::ParseUrlError;
use serde::{value, Deserialize, Serialize, Value};
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

/// A parsed absolute URL, kept as its canonical text plus the offsets
/// of its parts.
///
/// The text is `scheme://host[:port]path[?query]`: the host is lower
/// case, the path is never empty, the fragment is dropped, and the query
/// has no empty pairs and writes a pair with an empty value as its bare
/// name. Every accessor slices that one string, so a URL costs one heap
/// block however many query parameters it carries, and borrowing its
/// text ([`Url::as_str`]) costs nothing.
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
/// assert_eq!(url.as_str(), "http://hbbtv.rtl.de/start?cid=rtl&uid=abc123");
/// # Ok::<(), hbbtv_net::ParseUrlError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Url {
    text: String,
    scheme: Scheme,
    /// The port as written; `None` means the scheme default.
    port: Option<u16>,
    /// Where the eTLD+1 starts; it ends where the host does.
    etld1_start: u16,
    host_end: u16,
    path_start: u16,
    /// The query's `?`, or the end of the text while the query is empty.
    path_end: u16,
}

impl Url {
    /// Parses an absolute `http`/`https` URL.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseUrlError`] when the scheme is missing or
    /// unsupported, the host/port are malformed, or the URL up to its
    /// query is longer than [`u16::MAX`] bytes.
    pub fn parse(s: &str) -> Result<Self, ParseUrlError> {
        // A byte window, not a `&str` pattern: that costs a searcher.
        let sep = s.as_bytes().windows(3).position(|w| w == b"://");
        let (scheme, rest) = match sep.map(|i| (&s[..i], &s[i + 3..])) {
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
        let (host, port) = match authority.rsplit_once(':') {
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
        check_host(host)?;
        let (path, query) = match path_query.split_once('?') {
            Some((p, q)) => (p, q),
            None => (path_query, ""),
        };
        let path = if path.is_empty() { "/" } else { path };
        Url::build(scheme, host, port, path, split_query(query))
    }

    /// Writes the canonical text of the given parts at its exact length.
    /// `host` must pass [`check_host`].
    fn build<'a>(
        scheme: Scheme,
        host: &str,
        port: Option<u16>,
        path: &str,
        pairs: impl Iterator<Item = (&'a str, &'a str)> + Clone,
    ) -> Result<Self, ParseUrlError> {
        let host_start = scheme.as_str().len() + 3;
        let host_end = host_start + host.len();
        let path_start = host_end + port.map_or(0, |p| 1 + decimal_len(p));
        let path_end = path_start + path.len();
        let offset = |n: usize| u16::try_from(n).map_err(|_| ParseUrlError::TooLong(path_end));
        let (host_end16, path_start16, path_end16) =
            (offset(host_end)?, offset(path_start)?, offset(path_end)?);
        let mut text = String::with_capacity(path_end + query_len(pairs.clone()));
        text.push_str(scheme.as_str());
        text.push_str("://");
        text.push_str(host);
        text[host_start..].make_ascii_lowercase();
        if let Some(p) = port {
            text.push(':');
            push_u16(&mut text, p);
        }
        text.push_str(path);
        let etld1_start = host_start + registrable_start(&text[host_start..host_end]);
        let mut url = Url {
            text,
            scheme,
            port,
            etld1_start: offset(etld1_start)?,
            host_end: host_end16,
            path_start: path_start16,
            path_end: path_end16,
        };
        for (k, v) in pairs {
            url.append_pair(k, v);
        }
        Ok(url)
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
        &self.text[self.scheme.as_str().len() + 3..usize::from(self.host_end)]
    }

    /// The registrable domain of the host, borrowed from the URL text.
    pub fn etld1(&self) -> Etld1Ref<'_> {
        Etld1Ref::new(&self.text[usize::from(self.etld1_start)..usize::from(self.host_end)])
    }

    /// The effective port (explicit, or the scheme default).
    pub fn port(&self) -> u16 {
        self.port.unwrap_or_else(|| self.scheme.default_port())
    }

    /// The path component, always starting with `/`.
    pub fn path(&self) -> &str {
        &self.text[usize::from(self.path_start)..usize::from(self.path_end)]
    }

    /// Query parameters, in order of appearance, split out of the text.
    pub fn query_pairs(&self) -> impl Iterator<Item = (&str, &str)> + Clone {
        split_query(
            self.text
                .get(usize::from(self.path_end) + 1..)
                .unwrap_or(""),
        )
    }

    /// The first value of a named query parameter, if present.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query_pairs().find(|&(k, _)| k == name).map(|(_, v)| v)
    }

    /// Returns a copy of this URL with one query parameter appended.
    /// Panics like [`Url::push_param`].
    pub fn with_param(&self, name: &str, value: &str) -> Url {
        self.with_params([(name, value)])
    }

    /// Returns a copy of this URL with `pairs` appended to its query,
    /// allocated once at its final length. Panics like
    /// [`Url::push_param`].
    pub fn with_params<'a>(
        &self,
        pairs: impl IntoIterator<Item = (&'a str, &'a str), IntoIter: Clone>,
    ) -> Url {
        let pairs = pairs.into_iter();
        let mut text = String::with_capacity(self.text.len() + query_len(pairs.clone()));
        text.push_str(&self.text);
        let mut url = Url { text, ..*self };
        for (k, v) in pairs {
            url.push_param(k, v);
        }
        url
    }

    /// Appends one query parameter in place. The text grows to its exact
    /// new length unless room was made for it before, so a URL kept in a
    /// capture log carries no spare capacity.
    ///
    /// # Panics
    ///
    /// If the pair would not read back from the text as written: it must
    /// be non-empty, with a name without `&`, `=` or `#` and a value
    /// without `&` or `#`. Every URL the simulation builds satisfies this.
    pub fn push_param(&mut self, name: &str, value: &str) {
        assert!(
            representable_pair(name, value),
            "query pair {name:?}={value:?} does not survive its text"
        );
        self.text
            .reserve_exact(query_len([(name, value)].into_iter()));
        self.append_pair(name, value);
    }

    fn append_pair(&mut self, name: &str, value: &str) {
        let sep = if self.text.len() == usize::from(self.path_end) {
            '?'
        } else {
            '&'
        };
        self.text.push(sep);
        self.text.push_str(name);
        if !value.is_empty() {
            self.text.push('=');
            self.text.push_str(value);
        }
    }

    /// The path plus serialized query string (`/p?a=b`). Useful for
    /// filter-list matching, which operates on the full URL text.
    pub fn path_and_query(&self) -> &str {
        &self.text[usize::from(self.path_start)..]
    }

    /// The serialized URL, borrowed; identical to [`fmt::Display`].
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// The serialized URL as a fresh string.
    pub fn to_text(&self) -> String {
        self.text.clone()
    }
}

/// The non-empty `&`-separated pairs of a query string, each split at
/// its first `=`.
fn split_query(query: &str) -> impl Iterator<Item = (&str, &str)> + Clone {
    query
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| kv.split_once('=').unwrap_or((kv, "")))
}

/// Bytes that appending `pairs` adds to a URL's text.
fn query_len<'a>(pairs: impl Iterator<Item = (&'a str, &'a str)>) -> usize {
    pairs
        .map(|(k, v)| 1 + k.len() + if v.is_empty() { 0 } else { 1 + v.len() })
        .sum()
}

/// Whether appending `name`/`value` to a query reads back as exactly
/// that pair (see [`split_query`]).
fn representable_pair(name: &str, value: &str) -> bool {
    let empty = name.is_empty() && value.is_empty();
    !empty
        && !name.bytes().any(|b| matches!(b, b'&' | b'=' | b'#'))
        && !value.bytes().any(|b| matches!(b, b'&' | b'#'))
}

fn decimal_len(n: u16) -> usize {
    match n {
        0..=9 => 1,
        10..=99 => 2,
        100..=999 => 3,
        1000..=9999 => 4,
        _ => 5,
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

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

impl fmt::Debug for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Url").field(&self.text).finish()
    }
}

impl FromStr for Url {
    type Err = ParseUrlError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Url::parse(s)
    }
}

/// The wire form is the parts object
/// `{"scheme","host","etld1","port","path","query":[[k,v]…]}`.
impl Serialize for Url {
    fn to_value(&self) -> Value {
        let str_value = |s: &str| Value::Str(s.to_string());
        let query = self
            .query_pairs()
            .map(|(k, v)| Value::Array(vec![str_value(k), str_value(v)]))
            .collect();
        Value::Object(vec![
            ("scheme".to_string(), self.scheme.to_value()),
            ("host".to_string(), str_value(self.host())),
            ("etld1".to_string(), str_value(self.etld1().as_str())),
            ("port".to_string(), self.port.to_value()),
            ("path".to_string(), str_value(self.path())),
            ("query".to_string(), Value::Array(query)),
        ])
    }
}

/// Reads the parts object back, rejecting parts the text cannot carry:
/// a host [`Host::parse`](crate::Host::parse) would reject or change, an `etld1` that is not
/// the host's registrable domain, a port outside `u16`, a path that does
/// not start with `/` or holds `?` or `#`, a query pair that would not
/// split back out of the text, or a URL longer than its offsets address.
/// Every check is one pass over its part.
impl Deserialize for Url {
    fn from_value(v: &Value) -> Result<Self, String> {
        let field = |name| value::get_field(v, name, "Url");
        let text = |name| {
            field(name)?
                .as_str()
                .ok_or_else(|| format!("Url.{name}: expected a string"))
        };
        let scheme = Scheme::from_value(field("scheme")?)?;
        let host = text("host")?;
        let etld1 = text("etld1")?;
        let path = text("path")?;
        let port = match field("port")? {
            Value::Null => None,
            Value::U64(p) => {
                Some(u16::try_from(*p).map_err(|_| format!("Url.port {p} is out of range"))?)
            }
            other => return Err(format!("Url.port: expected a port number, got {other:?}")),
        };
        let query = field("query")?
            .as_array()
            .ok_or("Url.query: expected an array of pairs")?;

        check_host(host).map_err(|e| format!("Url.host: {e}"))?;
        if host.bytes().any(|b| b.is_ascii_uppercase()) {
            return Err(format!("Url.host `{host}` is not lower case"));
        }
        if etld1 != &host[registrable_start(host)..] {
            return Err(format!(
                "Url.etld1 `{etld1}` is not the registrable domain of `{host}`"
            ));
        }
        if !path.starts_with('/') || path.contains(['?', '#']) {
            return Err(format!("Url.path `{path}` is not a URL path"));
        }
        for pair in query {
            match pair.as_array().map(Vec::as_slice) {
                Some([Value::Str(k), Value::Str(v)]) if representable_pair(k, v) => {}
                Some([Value::Str(k), Value::Str(v)]) => {
                    return Err(format!(
                        "Url.query pair {k:?}={v:?} does not survive its text"
                    ))
                }
                _ => {
                    return Err(format!(
                        "Url.query: expected a [name, value] pair, got {pair:?}"
                    ))
                }
            }
        }
        let pairs = query.iter().map(|pair| {
            (
                pair[0].as_str().unwrap_or(""),
                pair[1].as_str().unwrap_or(""),
            )
        });
        Url::build(scheme, host, port, path, pairs).map_err(|e| format!("Url: {e}"))
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
    #[should_panic(expected = "does not survive its text")]
    fn push_param_rejects_a_pair_its_text_cannot_carry() {
        Url::parse("http://x.de/p").unwrap().push_param("a&b", "1");
    }

    #[test]
    fn with_param_appends() {
        let u = Url::parse("http://x.de/p").unwrap().with_param("uid", "42");
        assert_eq!(u.to_string(), "http://x.de/p?uid=42");
        assert_eq!(u.path_and_query(), "/p?uid=42");
    }
}
