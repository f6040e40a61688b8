//! HTTP message types.
//!
//! These model exactly the observables mitmproxy handed to the paper's
//! analysis pipeline: method, URL, headers (notably `Referer`, `Cookie`,
//! `Set-Cookie`, `Content-Type`), status, body bytes, and timestamps.

use crate::cookie::{find_byte, trim, SetCookie, SetCookieParts, SetCookieView};
use crate::time::Timestamp;
use crate::url::Url;
use serde::{value, Deserialize, Serialize, Value};
use std::fmt;

/// An HTTP request method. HbbTV traffic is GET-dominated with POST
/// beacons; the remaining methods exist for completeness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Method {
    /// Resource fetch (pages, scripts, pixels).
    Get,
    /// Data upload (analytics beacons).
    Post,
    /// Header-only probe.
    Head,
    /// CORS preflight.
    Options,
}

impl Method {
    /// The canonical upper-case token.
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Head => "HEAD",
            Method::Options => "OPTIONS",
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An HTTP status code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Status(pub u16);

impl Status {
    /// 200 OK — required by the tracking-pixel heuristic (§V-D1).
    pub const OK: Status = Status(200);
    /// 302 Found — the redirect used by cookie syncing (§V-C3).
    pub const FOUND: Status = Status(302);
    /// 204 No Content — common for beacons.
    pub const NO_CONTENT: Status = Status(204);
    /// 404 Not Found.
    pub const NOT_FOUND: Status = Status(404);

    /// Whether this is a 3xx redirect.
    pub fn is_redirect(self) -> bool {
        (300..400).contains(&self.0)
    }

    /// Whether this is a 2xx success.
    pub fn is_success(self) -> bool {
        (200..300).contains(&self.0)
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The response content type, as carried in the `Content-Type` header.
///
/// The tracking heuristics of §V-D dispatch on this: the pixel heuristic
/// requires an image type, the fingerprinting heuristic a JavaScript type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ContentType {
    /// `text/html` — application pages.
    Html,
    /// `application/javascript` — scripts (fingerprinting lives here).
    JavaScript,
    /// `image/gif`, `image/png`, … — images (tracking pixels live here).
    Image,
    /// `application/json` — API/beacon responses.
    Json,
    /// `text/css`.
    Css,
    /// `video/mp4` and streaming manifests.
    Video,
    /// `text/plain` or anything else.
    Other,
}

impl ContentType {
    /// Whether the HTTP `Content-Type` indicates an image.
    pub fn is_image(self) -> bool {
        self == ContentType::Image
    }

    /// Whether the HTTP `Content-Type` indicates JavaScript.
    pub fn is_javascript(self) -> bool {
        self == ContentType::JavaScript
    }

    /// A representative MIME string.
    pub fn mime(self) -> &'static str {
        match self {
            ContentType::Html => "text/html",
            ContentType::JavaScript => "application/javascript",
            ContentType::Image => "image/gif",
            ContentType::Json => "application/json",
            ContentType::Css => "text/css",
            ContentType::Video => "video/mp4",
            ContentType::Other => "application/octet-stream",
        }
    }
}

impl fmt::Display for ContentType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mime())
    }
}

/// An ordered header collection with case-insensitive lookup.
///
/// The names and values sit back to back in one text buffer; `ends`
/// holds where each name and each value ends, two entries per header.
/// Both grow to their exact length on every push, so a captured message
/// carries no spare capacity: header lists are short, and a capture log
/// keeps each one for the whole study.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Headers {
    text: String,
    ends: Vec<u32>,
}

impl Headers {
    /// Creates an empty header collection.
    pub fn new() -> Self {
        Headers::default()
    }

    /// Collects `(name, value)` pairs, allocating the text and the
    /// offsets once each at their final length.
    ///
    /// # Panics
    ///
    /// If the names and values exceed `u32::MAX` bytes in all.
    pub fn from_pairs<'a>(
        pairs: impl IntoIterator<Item = (&'a str, &'a str), IntoIter: Clone>,
    ) -> Self {
        let pairs = pairs.into_iter();
        let mut h = Headers::with_capacity(
            pairs.clone().map(|(n, v)| n.len() + v.len()).sum(),
            pairs.clone().count(),
        );
        for (n, v) in pairs {
            h.push(n, v);
        }
        h
    }

    /// An empty collection with room for `text` bytes of names and
    /// values and for `headers` headers, so pushing exactly that much
    /// allocates nothing more.
    pub fn with_capacity(text: usize, headers: usize) -> Self {
        Headers {
            text: String::with_capacity(text),
            ends: Vec::with_capacity(2 * headers),
        }
    }

    /// Appends a header.
    ///
    /// # Panics
    ///
    /// If the collection's text would exceed `u32::MAX` bytes.
    pub fn push(&mut self, name: &str, value: &str) {
        self.push_with(name, value.len(), |text| text.push_str(value));
    }

    /// Appends a header whose value `write` appends to the collection's
    /// text, after room for `value_len` more bytes is made: a value
    /// written from parts is never built on its own first.
    ///
    /// # Panics
    ///
    /// If the collection's text would exceed `u32::MAX` bytes.
    pub fn push_with(&mut self, name: &str, value_len: usize, write: impl FnOnce(&mut String)) {
        self.text.reserve_exact(name.len() + value_len);
        self.ends.reserve_exact(2);
        self.text.push_str(name);
        self.end_part();
        write(&mut self.text);
        self.end_part();
    }

    fn end_part(&mut self) {
        let end = u32::try_from(self.text.len()).expect("header text fits u32 offsets");
        self.ends.push(end);
    }

    /// The text buffer's capacity, for the exact-length checks.
    #[cfg(test)]
    pub(crate) fn text_capacity(&self) -> usize {
        self.text.capacity()
    }

    /// First value of a header, case-insensitively.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v)
    }

    /// All values of a header, case-insensitively (e.g. repeated
    /// `Set-Cookie`).
    pub fn get_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.iter()
            .filter(move |(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v)
    }

    /// Number of headers.
    pub fn len(&self) -> usize {
        self.ends.len() / 2
    }

    /// Whether the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Iterates over all `(name, value)` pairs in insertion order; names
    /// keep the case they were pushed with.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> + Clone {
        let mut start = 0;
        self.ends.chunks_exact(2).map(move |ends| {
            let (name_end, value_end) = (ends[0] as usize, ends[1] as usize);
            let header = (&self.text[start..name_end], &self.text[name_end..value_end]);
            start = value_end;
            header
        })
    }
}

impl fmt::Debug for Headers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The wire form is a list of `{"name","value"}` objects.
impl Serialize for Headers {
    fn to_value(&self) -> Value {
        let str_value = |s: &str| Value::Str(s.to_string());
        Value::Array(
            self.iter()
                .map(|(n, v)| {
                    Value::Object(vec![
                        ("name".to_string(), str_value(n)),
                        ("value".to_string(), str_value(v)),
                    ])
                })
                .collect(),
        )
    }
}

impl Deserialize for Headers {
    fn from_value(v: &Value) -> Result<Self, String> {
        let list = v.as_array().ok_or("Headers: expected an array")?;
        let mut parts = Vec::with_capacity(list.len());
        for header in list {
            let part = |name| {
                value::get_field(header, name, "Header")?
                    .as_str()
                    .ok_or_else(|| format!("Header.{name}: expected a string"))
            };
            parts.push((part("name")?, part("value")?));
        }
        let bytes: usize = parts.iter().map(|(n, v)| n.len() + v.len()).sum();
        if u32::try_from(bytes).is_err() {
            return Err(format!("Headers: {bytes} bytes exceed the u32 offsets"));
        }
        Ok(Headers::from_pairs(parts))
    }
}

/// A captured HTTP request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Absolute request URL.
    pub url: Url,
    /// Request headers.
    pub headers: Headers,
    /// Request body (POST beacons carry key/value payloads here).
    pub body: String,
    /// Instant the request left the TV.
    pub timestamp: Timestamp,
}

impl Request {
    /// Starts building a GET request for `url`.
    pub fn get(url: Url) -> RequestBuilder {
        RequestBuilder::new(Method::Get, url)
    }

    /// Starts building a POST request for `url`.
    pub fn post(url: Url) -> RequestBuilder {
        RequestBuilder::new(Method::Post, url)
    }

    /// The `Referer` header, parsed as a URL, if present and valid.
    pub fn referer(&self) -> Option<Url> {
        self.headers.get("Referer").and_then(|v| Url::parse(v).ok())
    }

    /// The `Cookie` header raw value, if present.
    pub fn cookie_header(&self) -> Option<&str> {
        self.headers.get("Cookie")
    }

    /// The `name=value` pairs of the `Cookie` header: each `;`-separated
    /// item trimmed and split at its first `=`; an item without `=` is
    /// skipped.
    pub fn cookies(&self) -> impl Iterator<Item = (&str, &str)> {
        let mut rest = self.cookie_header();
        std::iter::from_fn(move || loop {
            let text = rest?;
            let item = match find_byte(text, b';') {
                Some(i) => {
                    rest = Some(&text[i + 1..]);
                    &text[..i]
                }
                None => {
                    rest = None;
                    text
                }
            };
            let item = trim(item);
            if let Some(eq) = find_byte(item, b'=') {
                return Some((&item[..eq], &item[eq + 1..]));
            }
        })
    }

    /// All text the analysis searches for leaked data: URL + body.
    pub fn searchable_text(&self) -> String {
        format!("{} {}", self.url, self.body)
    }
}

/// Builder for [`Request`].
#[derive(Debug)]
pub struct RequestBuilder {
    method: Method,
    url: Url,
    headers: Headers,
    body: String,
    timestamp: Timestamp,
}

impl RequestBuilder {
    fn new(method: Method, url: Url) -> Self {
        RequestBuilder {
            method,
            url,
            headers: Headers::new(),
            body: String::new(),
            timestamp: Timestamp::default(),
        }
    }

    /// Adds a header.
    pub fn header(mut self, name: &str, value: &str) -> Self {
        self.headers.push(name, value);
        self
    }

    /// Sets the body.
    pub fn body(mut self, body: impl Into<String>) -> Self {
        self.body = body.into();
        self
    }

    /// Sets the capture timestamp.
    pub fn at(mut self, t: Timestamp) -> Self {
        self.timestamp = t;
        self
    }

    /// Finalizes the request.
    pub fn build(self) -> Request {
        Request {
            method: self.method,
            url: self.url,
            headers: self.headers,
            body: self.body,
            timestamp: self.timestamp,
        }
    }
}

/// A captured HTTP response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// Status code.
    pub status: Status,
    /// Declared content type.
    pub content_type: ContentType,
    /// Response headers (including any `Set-Cookie` / `Location`).
    pub headers: Headers,
    /// Body size in bytes (the pixel heuristic needs only the size).
    pub body_len: usize,
    /// Body text for content inspection (scripts, policies). Empty for
    /// binary payloads; `body_len` still reflects the binary size.
    pub body: String,
}

impl Response {
    /// Starts building a response with `status`.
    pub fn builder(status: Status) -> ResponseBuilder {
        ResponseBuilder::new(status)
    }

    /// All `Set-Cookie` headers, parsed; invalid ones are skipped.
    pub fn set_cookies(&self) -> Vec<SetCookie> {
        self.headers
            .get_all("Set-Cookie")
            .filter_map(|v| SetCookie::parse(v).ok())
            .collect()
    }

    /// All `Set-Cookie` headers, read in place; invalid ones are skipped.
    pub fn set_cookie_views(&self) -> impl Iterator<Item = SetCookieView<'_>> {
        self.headers
            .get_all("Set-Cookie")
            .filter_map(|v| SetCookieView::parse(v).ok())
    }

    /// The `Location` redirect target, if present and valid.
    pub fn location(&self) -> Option<Url> {
        self.headers
            .get("Location")
            .and_then(|v| Url::parse(v).ok())
    }
}

/// Builder for [`Response`].
#[derive(Debug)]
pub struct ResponseBuilder {
    status: Status,
    content_type: ContentType,
    headers: Headers,
    body_len: Option<usize>,
    body: String,
}

impl ResponseBuilder {
    fn new(status: Status) -> Self {
        ResponseBuilder {
            status,
            content_type: ContentType::Other,
            headers: Headers::new(),
            body_len: None,
            body: String::new(),
        }
    }

    /// Sets the content type.
    pub fn content_type(mut self, ct: ContentType) -> Self {
        self.content_type = ct;
        self
    }

    /// Adds a header.
    pub fn header(mut self, name: &str, value: &str) -> Self {
        self.headers.push(name, value);
        self
    }

    /// Adds a `Set-Cookie` header.
    pub fn set_cookie(self, sc: &SetCookie) -> Self {
        self.set_cookie_parts(&sc.parts())
    }

    /// Adds a `Set-Cookie` header written from borrowed parts straight
    /// into the header text.
    pub fn set_cookie_parts(mut self, parts: &SetCookieParts<'_>) -> Self {
        self.headers
            .push_with("Set-Cookie", parts.text_len(), |text| {
                parts.write(text).expect("writing to a String cannot fail");
            });
        self
    }

    /// Sets a textual body (also sets `body_len` unless overridden).
    pub fn body(mut self, body: impl Into<String>) -> Self {
        self.body = body.into();
        self
    }

    /// Overrides the body length in bytes (for binary payloads such as a
    /// 43-byte 1×1 GIF whose bytes we do not materialize).
    pub fn body_len(mut self, len: usize) -> Self {
        self.body_len = Some(len);
        self
    }

    /// Finalizes the response.
    pub fn build(self) -> Response {
        let body_len = self.body_len.unwrap_or(self.body.len());
        Response {
            status: self.status,
            content_type: self.content_type,
            headers: self.headers,
            body_len,
            body: self.body,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cookie::SetCookie;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn headers_are_built_at_their_exact_length() {
        let req = Request::get(url("http://tvping.com/p?c=rtl"))
            .header("User-Agent", "tv")
            .header("Referer", "http://hbbtv.rtl.de/app")
            .build();
        assert_eq!(req.headers.text.capacity(), req.headers.text.len());
        assert_eq!(req.headers.ends.capacity(), req.headers.ends.len());
        let pairs: Vec<_> = req.headers.iter().collect();
        assert_eq!(
            pairs,
            [("User-Agent", "tv"), ("Referer", "http://hbbtv.rtl.de/app")]
        );
    }

    #[test]
    fn header_lookup_is_case_insensitive() {
        let mut h = Headers::new();
        h.push("Content-Type", "image/gif");
        assert_eq!(h.get("content-type"), Some("image/gif"));
        assert_eq!(h.get("CONTENT-TYPE"), Some("image/gif"));
        assert_eq!(h.get("missing"), None);
        assert_eq!(h.len(), 1);
        assert!(!h.is_empty());
    }

    #[test]
    fn repeated_set_cookie_headers_are_all_visible() {
        let r = Response::builder(Status::OK)
            .set_cookie(&SetCookie::session("a", "1"))
            .set_cookie(&SetCookie::session("b", "2"))
            .build();
        let cookies = r.set_cookies();
        assert_eq!(cookies.len(), 2);
        assert_eq!(cookies[0].cookie.name, "a");
        assert_eq!(cookies[1].cookie.name, "b");
    }

    #[test]
    fn request_referer_parses() {
        let req = Request::get(url("http://tvping.com/ping"))
            .header("Referer", "http://hbbtv.rtl.de/start")
            .at(Timestamp::from_unix(7))
            .build();
        assert_eq!(req.referer().unwrap().host(), "hbbtv.rtl.de");
        assert_eq!(req.timestamp, Timestamp::from_unix(7));
    }

    #[test]
    fn searchable_text_includes_url_and_body() {
        let req = Request::post(url("http://an.xiti.com/hit"))
            .body("genre=Children&show=PawPatrol")
            .build();
        let text = req.searchable_text();
        assert!(text.contains("an.xiti.com"));
        assert!(text.contains("PawPatrol"));
    }

    #[test]
    fn body_len_override_models_binary_bodies() {
        let r = Response::builder(Status::OK)
            .content_type(ContentType::Image)
            .body_len(43)
            .build();
        assert_eq!(r.body_len, 43);
        assert!(r.body.is_empty());
        assert!(r.status.is_success());
    }

    #[test]
    fn status_classes() {
        assert!(Status::FOUND.is_redirect());
        assert!(!Status::OK.is_redirect());
        assert!(Status::NO_CONTENT.is_success());
        assert!(!Status::NOT_FOUND.is_success());
    }

    #[test]
    fn redirect_location_parses() {
        let r = Response::builder(Status::FOUND)
            .header("Location", "http://partner.com/sync?uid=xyz")
            .build();
        assert_eq!(r.location().unwrap().host(), "partner.com");
    }
}
