//! The TV runtime: a simulated HbbTV 2.0 television.
//!
//! The study's TV was a rooted LG 43UK6300LLB running webOS 05.40.26 with
//! a Chromium-based HbbTV browser. The analysis touched the device
//! through three interfaces, all of which this crate reproduces:
//!
//! * the **HbbTV browser environment** — tunes channels, loads the AIT
//!   application, executes its resource loads and beacons, renders
//!   consent notices, and follows redirects (see [`Tv`]);
//! * the **cookie jar and local storage** — extracted via SSH from the
//!   Chromium profile in the real study (see [`CookieJar`],
//!   [`LocalStorage`]);
//! * the **webOS developer API** — remote-control key injection,
//!   screenshots, and channel metadata (see [`Tv::press`],
//!   [`Tv::screenshot`]).
//!
//! The runtime is deliberately deterministic: all randomness flows from
//! the seeded RNG handed to [`Tv::new`], and all time from the shared
//! [`SimClock`](hbbtv_net::SimClock).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod device;
mod runtime;
mod screen;
mod storage;

pub use backend::NetworkBackend;
pub use device::{DeviceProfile, ProgramInfo};
pub use runtime::{ChannelContext, RcButton, Tv};
pub use screen::Screenshot;
pub use storage::{CookieHeader, CookieJar, LocalStorage, StoredCookie};
