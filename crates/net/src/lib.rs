//! Network primitives for the `hbbtv-lab` workspace.
//!
//! This crate provides the vocabulary types shared by every other crate in
//! the workspace: URLs and registrable domains ([`Url`], [`Etld1`]), HTTP
//! messages ([`Request`], [`Response`]), cookies ([`Cookie`],
//! [`SetCookie`]), and a deterministic simulated clock ([`SimClock`]).
//!
//! The paper's measurement framework intercepts HTTP(S) traffic between a
//! TV and the Internet with mitmproxy and later analyzes it offline. Our
//! reproduction keeps the same shape: the TV runtime emits [`Request`]s,
//! tracker services answer with [`Response`]s, and the proxy records both
//! together with [`Timestamp`]s from the shared [`SimClock`].
//!
//! # Examples
//!
//! ```
//! use hbbtv_net::{Url, Etld1};
//!
//! # fn main() -> Result<(), hbbtv_net::ParseUrlError> {
//! let url: Url = "https://hbbtv.ard.de/app/index.html?ch=daserste".parse()?;
//! assert_eq!(url.host(), "hbbtv.ard.de");
//! assert_eq!(url.etld1(), Etld1::new("ard.de"));
//! assert!(url.is_https());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cookie;
mod domain;
mod error;
mod http;
mod time;
mod url;

pub use cookie::{
    Cookie, CookieAttributes, CookieKey, SameSite, SetCookie, SetCookieParts, SetCookieView,
};
pub use domain::{registrable_domain, Etld1, Etld1Ref, Host};
pub use error::{ParseCookieError, ParseUrlError};
pub use http::{
    ContentType, Headers, Method, Request, RequestBuilder, Response, ResponseBuilder, Status,
};
pub use time::{Duration, SimClock, Timestamp, UnixText};
pub use url::{Scheme, Url};
