//! Error types for parsing network artifacts.

use std::error::Error;
use std::fmt;

/// Error returned when parsing a [`Url`](crate::Url) or
/// [`Host`](crate::Host) fails.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseUrlError {
    /// The URL has no `scheme://` separator.
    MissingScheme,
    /// The scheme is neither `http` nor `https`.
    UnsupportedScheme(String),
    /// The host portion is empty.
    EmptyHost,
    /// The host contains invalid characters or empty labels.
    InvalidHost(String),
    /// The port is not a valid `u16`.
    InvalidPort(String),
    /// The URL up to its query is this many bytes, more than a [`Url`]'s
    /// `u16` offsets address.
    ///
    /// [`Url`]: crate::Url
    TooLong(usize),
}

impl fmt::Display for ParseUrlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseUrlError::MissingScheme => write!(f, "missing scheme separator"),
            ParseUrlError::UnsupportedScheme(s) => write!(f, "unsupported scheme `{s}`"),
            ParseUrlError::EmptyHost => write!(f, "empty host"),
            ParseUrlError::InvalidHost(h) => write!(f, "invalid host `{h}`"),
            ParseUrlError::InvalidPort(p) => write!(f, "invalid port `{p}`"),
            ParseUrlError::TooLong(n) => write!(f, "{n} bytes before the query is too long"),
        }
    }
}

impl Error for ParseUrlError {}

/// Error returned when parsing a `Set-Cookie` header fails.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseCookieError {
    /// The header has no `name=value` pair.
    MissingPair,
    /// The cookie name is empty.
    EmptyName,
}

impl fmt::Display for ParseCookieError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseCookieError::MissingPair => write!(f, "missing name=value pair"),
            ParseCookieError::EmptyName => write!(f, "empty cookie name"),
        }
    }
}

impl Error for ParseCookieError {}
