//! The intercepting proxy: traffic capture and per-visit attribution.
//!
//! The study routed all TV traffic through mitmproxy on an analysis
//! machine. Since no channel validated certificates, *all* HTTP(S)
//! traffic could be decrypted and recorded. §IV-C tags every captured
//! request with the channel being watched; two details of that tagging
//! are reproduced here:
//!
//! 1. **Visit attribution.** The remote-control script opens a
//!    [`VisitLog`] on every channel switch, carrying the session label,
//!    the [`VisitId`], the [`ChannelId`] and the visit's open time.
//!    Every visit runs on a fresh TV that records into its own log, so
//!    an exchange is tagged with exactly the visit that issued it, and
//!    visits are safe to run in parallel. The paper also moved a request
//!    whose `Referer` pointed back at the previous channel shortly after
//!    a switch to that channel ("accounting for delays during
//!    switching"); a visit's log holds no previous channel for a late
//!    request to belong to, so that correction has nothing to act on
//!    and is not modelled.
//! 2. **The 15-minute window.** Only requests from a bounded window of a
//!    visit's watch time are attributed, bounding stale matches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hbbtv_broadcast::ChannelId;
use hbbtv_net::{Duration, Request, Response, Timestamp};
use serde::{value, Deserialize, Serialize, Value};
use std::sync::Arc;

/// Attribution horizon (§IV-C speaks of a 15-minute window; ours is
/// sized to cover the study's longest per-channel watch time of 1000 s
/// plus switching slack, so legitimate in-watch traffic stays
/// attributed — see EXPERIMENTS.md).
const ATTRIBUTION_WINDOW: Duration = Duration::from_secs(17 * 60);

/// Identifier of one channel visit within a measurement session.
///
/// The study harness numbers each visit by its position in the run's
/// channel order, so concatenated visit logs carry the canonical visit
/// sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VisitId(pub u32);

/// One recorded request/response pair with its attribution.
///
/// The session label and channel name are shared with every other
/// exchange of the same visit; the wire form still carries them as
/// plain `"session"` and `"channel_name"` strings.
#[derive(Debug, Clone, PartialEq)]
pub struct CapturedExchange {
    /// Label of the measurement session (e.g. `"Red"`).
    pub session: Arc<str>,
    /// The visit this exchange is attributed to, if any: the visit that
    /// recorded it, and set exactly when `channel` is set.
    pub visit: Option<VisitId>,
    /// The channel this exchange is attributed to, if any.
    pub channel: Option<ChannelId>,
    /// Name of the attributed channel (for reports).
    pub channel_name: Option<Arc<str>>,
    /// The request as sent by the TV.
    pub request: Request,
    /// The response as delivered to the TV.
    pub response: Response,
}

impl CapturedExchange {
    /// Whether the exchange used TLS.
    pub fn is_https(&self) -> bool {
        self.request.url.is_https()
    }
}

impl Serialize for CapturedExchange {
    fn to_value(&self) -> Value {
        let label = |s: &str| Value::Str(s.to_string());
        Value::Object(vec![
            ("session".to_string(), label(&self.session)),
            ("visit".to_string(), self.visit.to_value()),
            ("channel".to_string(), self.channel.to_value()),
            (
                "channel_name".to_string(),
                self.channel_name.as_deref().map_or(Value::Null, label),
            ),
            ("request".to_string(), self.request.to_value()),
            ("response".to_string(), self.response.to_value()),
        ])
    }
}

impl Deserialize for CapturedExchange {
    fn from_value(v: &Value) -> Result<Self, String> {
        let field = |name| value::get_field(v, name, "CapturedExchange");
        Ok(CapturedExchange {
            session: String::from_value(field("session")?)?.into(),
            visit: Deserialize::from_value(field("visit")?)?,
            channel: Deserialize::from_value(field("channel")?)?,
            channel_name: Option::<String>::from_value(field("channel_name")?)?.map(Arc::from),
            request: Deserialize::from_value(field("request")?)?,
            response: Deserialize::from_value(field("response")?)?,
        })
    }
}

/// Telemetry counters a visit log increments as it records.
///
/// The study harness gives every visit log the counters of that
/// visit's telemetry scope, so summing the per-visit `exchanges`
/// counters reconciles exactly with the run's capture log.
#[derive(Debug, Clone, Default)]
pub struct ProxyMetrics {
    /// One increment per recorded exchange.
    pub exchanges: hbbtv_obs::Counter,
    /// Approximate captured bytes (host + path + request body +
    /// response body) per exchange.
    pub bytes: hbbtv_obs::Counter,
}

/// The capture log of one channel visit.
///
/// The harness opens one per channel switch and lends it to the TV's
/// network backend; every exchange recorded into it carries the
/// session label and, inside the attribution window, the visit's tag.
///
/// # Examples
///
/// ```
/// use hbbtv_proxy::{VisitId, VisitLog};
/// use hbbtv_broadcast::ChannelId;
/// use hbbtv_net::{Request, Response, Status, Timestamp};
///
/// let start = Timestamp::MEASUREMENT_START;
/// let mut log = VisitLog::open("General", VisitId(0), ChannelId(7), "ZDF", start, None);
/// let req = Request::get("http://hbbtv.zdf.de/app".parse()?).at(start).build();
/// log.record(req, Response::builder(Status::OK).build());
/// let captures = log.into_captures();
/// assert_eq!(captures.len(), 1);
/// assert_eq!(captures[0].channel, Some(ChannelId(7)));
/// assert_eq!(captures[0].visit, Some(VisitId(0)));
/// # Ok::<(), hbbtv_net::ParseUrlError>(())
/// ```
#[derive(Debug)]
pub struct VisitLog {
    session: Arc<str>,
    id: VisitId,
    channel: ChannelId,
    name: Arc<str>,
    opened: Timestamp,
    metrics: Option<ProxyMetrics>,
    log: Vec<CapturedExchange>,
}

impl VisitLog {
    /// Opens the log of visit `id` of `channel` (named `name`), opened
    /// at `opened` in the session labelled `session`. When `metrics` is
    /// set, every recorded exchange increments its counters; the log is
    /// byte-identical with or without them.
    pub fn open(
        session: &str,
        id: VisitId,
        channel: ChannelId,
        name: &str,
        opened: Timestamp,
        metrics: Option<ProxyMetrics>,
    ) -> Self {
        VisitLog {
            session: session.into(),
            id,
            channel,
            name: name.into(),
            opened,
            metrics,
            log: Vec::new(),
        }
    }

    /// Records one exchange, tagged with this visit when the request
    /// falls inside the attribution window and untagged otherwise.
    pub fn record(&mut self, request: Request, response: Response) {
        let t = request.timestamp;
        let attributed = t >= self.opened && t.since(self.opened) <= ATTRIBUTION_WINDOW;
        if let Some(metrics) = &self.metrics {
            metrics.exchanges.inc();
            metrics.bytes.add(
                (request.url.host().len()
                    + request.url.path().len()
                    + request.body.len()
                    + response.body_len) as u64,
            );
        }
        self.log.push(CapturedExchange {
            session: self.session.clone(),
            visit: attributed.then_some(self.id),
            channel: attributed.then_some(self.channel),
            channel_name: attributed.then(|| self.name.clone()),
            request,
            response,
        });
    }

    /// Hands the recorded exchanges over, in recording order.
    pub fn into_captures(self) -> Vec<CapturedExchange> {
        self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbbtv_net::Status;

    /// A visit log fills on its visit's worker thread, and its captures
    /// cross threads when the run is assembled.
    #[test]
    fn proxy_and_captures_cross_thread_boundaries() {
        fn assert_send<T: Send>() {}
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send::<VisitLog>();
        assert_send_sync::<CapturedExchange>();
    }

    fn req(url: &str, at: u64) -> Request {
        Request::get(url.parse().unwrap())
            .at(Timestamp::from_unix(at))
            .build()
    }

    fn ok() -> Response {
        Response::builder(Status::OK).build()
    }

    const T0: u64 = 1_700_000_000;

    fn zdf(session: &str) -> VisitLog {
        VisitLog::open(
            session,
            VisitId(0),
            ChannelId(1),
            "ZDF",
            Timestamp::from_unix(T0),
            None,
        )
    }

    #[test]
    fn attributes_to_active_channel() {
        let mut log = zdf("General");
        log.record(req("http://hbbtv.zdf.de/a", T0 + 5), ok());
        let log = log.into_captures();
        assert_eq!(log[0].channel, Some(ChannelId(1)));
        assert_eq!(log[0].channel_name.as_deref(), Some("ZDF"));
        assert_eq!(&*log[0].session, "General");
        assert_eq!(log[0].visit, Some(VisitId(0)));
    }

    /// Traffic timestamped before the switch that opened the visit stays
    /// untagged, but keeps its session label.
    #[test]
    fn unattributed_before_any_switch() {
        let mut log = zdf("General");
        log.record(req("http://lge.com/firmware", T0 - 1), ok());
        let log = log.into_captures();
        assert_eq!(log[0].channel, None);
        assert_eq!(log[0].channel_name, None);
        assert_eq!(log[0].visit, None);
        assert_eq!(&*log[0].session, "General");
    }

    #[test]
    fn requests_past_the_window_are_unattributed() {
        let mut log = zdf("General");
        log.record(req("http://hbbtv.zdf.de/a", T0 + 17 * 60), ok());
        log.record(req("http://hbbtv.zdf.de/a", T0 + 17 * 60 + 1), ok());
        let log = log.into_captures();
        assert_eq!(log[0].visit, Some(VisitId(0)), "the window's last second");
        assert_eq!(log[1].channel, None);
        assert_eq!(log[1].visit, None);
    }

    /// Regression: whatever the timestamp says, an exchange recorded in
    /// a visit's log is tagged with that visit or not at all. Timestamp
    /// skew can only ever *unattribute* a capture.
    #[test]
    fn timestamp_skew_never_moves_attribution_to_another_visit() {
        let mut log = VisitLog::open(
            "Red",
            VisitId(1),
            ChannelId(2),
            "B",
            Timestamp::from_unix(T0 + 900),
            None,
        );
        // Skewed timestamps landing squarely inside where the visits
        // before and after this one would be.
        for skew in [0u64, 5, 300, 900, 1000, 1805, 2700] {
            log.record(req("http://hbbtv-b.de/r", T0 + skew), ok());
        }
        let visits: Vec<_> = log.into_captures().iter().map(|c| c.visit).collect();
        let b = Some(VisitId(1));
        assert_eq!(visits, [None, None, None, b, b, b, None]);
    }

    /// The log tags with the id it was opened with: the harness numbers
    /// each visit by its position in the run.
    #[test]
    fn sharded_visit_ids_start_where_told() {
        let mut log = VisitLog::open(
            "Red",
            VisitId(7),
            ChannelId(9),
            "Ch9",
            Timestamp::from_unix(T0),
            None,
        );
        log.record(req("http://hbbtv-ch9.de/r", T0 + 1), ok());
        let log = log.into_captures();
        assert_eq!(log[0].visit, Some(VisitId(7)));
        assert_eq!(&*log[0].session, "Red");
    }

    #[test]
    fn https_flag_is_recorded() {
        let mut log = zdf("General");
        log.record(req("https://secure.zdf.de/a", T0 + 1), ok());
        log.record(req("http://hbbtv.zdf.de/a", T0 + 2), ok());
        let log = log.into_captures();
        assert!(log[0].is_https());
        assert!(!log[1].is_https());
    }

    /// Every exchange increments the counters, tagged or not, and the
    /// log is the same with or without them.
    #[test]
    fn metrics_count_every_exchange() {
        let metrics = ProxyMetrics::default();
        let opened = Timestamp::from_unix(T0);
        let mut counted = VisitLog::open(
            "Red",
            VisitId(0),
            ChannelId(1),
            "ZDF",
            opened,
            Some(metrics.clone()),
        );
        let mut plain = zdf("Red");
        let body = Response::builder(Status::OK).body_len(43).build();
        for log in [&mut counted, &mut plain] {
            log.record(req("http://hbbtv.zdf.de/app", T0 + 1), body.clone());
            log.record(req("http://lge.com/fw", T0 + 5_000), ok());
        }
        assert_eq!(metrics.exchanges.get(), 2);
        let bytes = ("hbbtv.zdf.de".len() + "/app".len() + 43) + ("lge.com".len() + "/fw".len());
        assert_eq!(metrics.bytes.get(), bytes as u64);
        assert_eq!(counted.into_captures(), plain.into_captures());
    }
}
