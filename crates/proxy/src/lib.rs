//! The intercepting proxy: traffic capture and per-visit attribution.
//!
//! The study routed all TV traffic through mitmproxy on an analysis
//! machine. Since no channel validated certificates, *all* HTTP(S)
//! traffic could be decrypted and recorded. Two details of §IV-C matter
//! for correctness and are reproduced exactly:
//!
//! 1. **Visit attribution.** The remote-control script opens an explicit
//!    *visit* on every channel switch ([`Proxy::begin_visit`] returns a
//!    [`VisitHandle`] carrying the [`ChannelId`], session label, and the
//!    visit-local start time). Exchanges recorded through a handle are
//!    tagged with that visit — attribution is a property of *which visit
//!    recorded the exchange*, not of wall-clock arrival windows, which is
//!    what makes channel visits safe to run in parallel. The one
//!    timestamp rule kept from the physical setup is the visit-boundary
//!    referer correction: a request arriving within [`SWITCH_GRACE`] of
//!    a visit's start whose `Referer` points at a host seen only during
//!    the *immediately preceding* visit of the same session is
//!    re-attributed to that previous visit ("accounting for delays
//!    during switching").
//! 2. **The 15-minute window.** Only requests from a bounded window of a
//!    visit's watch time are attributed, bounding stale matches.
//!
//! The [`Proxy`] is cheaply cloneable; the TV runtime records through a
//! [`VisitHandle`] while the study harness reads through the proxy,
//! mirroring the separate capture and analysis processes of the physical
//! setup. The legacy switch-notification API
//! ([`Proxy::notify_channel_switch`] + [`Proxy::record`]) is kept as a
//! thin layer over visits: a switch notification opens a visit, and a
//! plain `record` targets the most recently opened visit of the current
//! session.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hbbtv_broadcast::ChannelId;
use hbbtv_net::{Duration, Request, Response, Timestamp, Url};
use parking_lot::Mutex;
use serde::{value, Deserialize, Serialize, Value};
use std::collections::HashSet;
use std::sync::Arc;

/// Grace period after a visit opens in which a stale `Referer` moves a
/// request back to the immediately preceding visit of the same session.
const SWITCH_GRACE: Duration = Duration::from_secs(15);

/// Attribution horizon (§IV-C speaks of a 15-minute window; ours is
/// sized to cover the study's longest per-channel watch time of 1000 s
/// plus switching slack, so legitimate in-watch traffic stays
/// attributed — see EXPERIMENTS.md).
const ATTRIBUTION_WINDOW: Duration = Duration::from_secs(17 * 60);

/// Identifier of one channel visit within a measurement session.
///
/// Visit ids are assigned by [`Proxy::begin_visit`] in open order;
/// sharded harness runs seed each shard's counter via
/// [`Proxy::start_session_at`] so that merged capture logs carry the
/// canonical visit sequence.
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
    /// The visit this exchange is attributed to, if any. Set exactly
    /// when `channel` is set; the grace rule can move an exchange to the
    /// preceding visit, never anywhere else.
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

#[derive(Debug)]
struct VisitState {
    id: VisitId,
    channel: ChannelId,
    name: Arc<str>,
    session: Arc<str>,
    opened: Timestamp,
    hosts: HashSet<String>,
}

#[derive(Debug, Default)]
struct ProxyState {
    session: Arc<str>,
    /// Index into `visits` where the current session began; plain
    /// `record` calls and the grace rule never look behind it.
    session_start: usize,
    next_visit: u32,
    visits: Vec<VisitState>,
    log: Vec<CapturedExchange>,
    metrics: Option<ProxyMetrics>,
    /// The last `Referer` header text and the host it parses to (`None`
    /// when it does not parse). Nearly every referer of a visit is the
    /// app's entry URL, so this one-entry memo spares a full URL parse
    /// per exchange; a miss runs the same [`Url::parse`].
    referer: Option<(String, Option<String>)>,
}

/// Telemetry counters a proxy shard increments as it records.
///
/// The study harness gives every per-visit shard the counters of that
/// visit's telemetry scope, so summing the per-visit
/// `exchanges` counters reconciles exactly with the merged capture log.
#[derive(Debug, Clone, Default)]
pub struct ProxyMetrics {
    /// One increment per recorded exchange.
    pub exchanges: hbbtv_obs::Counter,
    /// Approximate captured bytes (host + path + request body +
    /// response body) per exchange.
    pub bytes: hbbtv_obs::Counter,
}

/// The intercepting proxy.
///
/// # Examples
///
/// ```
/// use hbbtv_proxy::{Proxy, VisitId};
/// use hbbtv_broadcast::ChannelId;
/// use hbbtv_net::{Request, Response, Status, Timestamp};
///
/// let proxy = Proxy::new();
/// proxy.start_session("General");
/// let visit = proxy.begin_visit(ChannelId(7), "ZDF", Timestamp::MEASUREMENT_START);
/// let req = Request::get("http://hbbtv.zdf.de/app".parse()?)
///     .at(Timestamp::MEASUREMENT_START)
///     .build();
/// visit.record(req, Response::builder(Status::OK).build());
/// assert_eq!(proxy.captures().len(), 1);
/// assert_eq!(proxy.captures()[0].channel, Some(ChannelId(7)));
/// assert_eq!(proxy.captures()[0].visit, Some(VisitId(0)));
/// # Ok::<(), hbbtv_net::ParseUrlError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Proxy {
    state: Arc<Mutex<ProxyState>>,
}

/// A handle on one open channel visit.
///
/// The harness opens one per channel switch and hands it to the TV's
/// network backend; every exchange recorded through it is tagged with
/// this visit (subject to the window and grace rules). Handles are
/// cheaply cloneable and `Send + Sync`, so a visit can run on its own
/// worker thread against its own proxy shard.
#[derive(Debug, Clone)]
pub struct VisitHandle {
    proxy: Proxy,
    id: VisitId,
    channel: ChannelId,
}

impl VisitHandle {
    /// The visit's id.
    pub fn id(&self) -> VisitId {
        self.id
    }

    /// The channel being visited.
    pub fn channel(&self) -> ChannelId {
        self.channel
    }

    /// Records one exchange against this visit, applying the window and
    /// visit-boundary grace rules.
    pub fn record(&self, request: Request, response: Response) {
        let mut s = self.proxy.state.lock();
        let target = s.visits.iter().rposition(|v| v.id == self.id);
        record_at(&mut s, target, request, response);
    }

    /// The proxy this visit records into.
    pub fn proxy(&self) -> &Proxy {
        &self.proxy
    }
}

impl Proxy {
    /// Creates a proxy with an empty capture log.
    pub fn new() -> Self {
        Proxy::default()
    }

    /// Starts (or renames) the current measurement session; subsequent
    /// captures carry this label. Visits of earlier sessions are sealed:
    /// neither plain [`Proxy::record`] calls nor the grace rule reach
    /// back across a session boundary.
    pub fn start_session(&self, label: &str) {
        let mut s = self.state.lock();
        s.session = label.into();
        s.session_start = s.visits.len();
    }

    /// Like [`Proxy::start_session`], but also seeds the visit-id
    /// counter. Sharded harness runs give each per-channel proxy shard
    /// its canonical visit sequence number so merged logs are identical
    /// to a single sequential proxy's.
    pub fn start_session_at(&self, label: &str, first_visit: u32) {
        let mut s = self.state.lock();
        s.session = label.into();
        s.session_start = s.visits.len();
        s.next_visit = first_visit;
    }

    /// Attaches telemetry counters to this shard; every subsequently
    /// recorded exchange increments them. Purely observational — the
    /// capture log is byte-identical with or without metrics.
    pub fn set_metrics(&self, metrics: ProxyMetrics) {
        self.state.lock().metrics = Some(metrics);
    }

    /// Opens a visit of `channel` at `at` and returns its handle (the
    /// remote-control script does this on every switch).
    pub fn begin_visit(&self, channel: ChannelId, name: &str, at: Timestamp) -> VisitHandle {
        let mut s = self.state.lock();
        let id = VisitId(s.next_visit);
        s.next_visit += 1;
        let session = s.session.clone();
        s.visits.push(VisitState {
            id,
            channel,
            name: name.into(),
            session,
            opened: at,
            hosts: HashSet::new(),
        });
        VisitHandle {
            proxy: self.clone(),
            id,
            channel,
        }
    }

    /// Notifies the proxy of a channel switch — the legacy spelling of
    /// [`Proxy::begin_visit`] for callers that record through the proxy
    /// itself rather than a handle.
    pub fn notify_channel_switch(&self, id: ChannelId, name: &str, at: Timestamp) {
        let _ = self.begin_visit(id, name, at);
    }

    /// Records one exchange against the most recently opened visit of
    /// the current session (unattributed if the session has none).
    pub fn record(&self, request: Request, response: Response) {
        let mut s = self.state.lock();
        let target = if s.visits.len() > s.session_start {
            Some(s.visits.len() - 1)
        } else {
            None
        };
        record_at(&mut s, target, request, response);
    }

    /// A snapshot of all captured exchanges.
    pub fn captures(&self) -> Vec<CapturedExchange> {
        self.state.lock().log.clone()
    }

    /// Moves the capture log out, leaving it empty. Visits stay open, so
    /// later records still attribute as before; the owner of a proxy
    /// shard uses this to hand its log on without copying it.
    pub fn take_captures(&self) -> Vec<CapturedExchange> {
        std::mem::take(&mut self.state.lock().log)
    }

    /// Runs `f` over the capture log without cloning it.
    pub fn with_captures<T>(&self, f: impl FnOnce(&[CapturedExchange]) -> T) -> T {
        f(&self.state.lock().log)
    }

    /// Number of captured exchanges.
    pub fn len(&self) -> usize {
        self.state.lock().log.len()
    }

    /// Whether nothing was captured yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clears the log (between experiments; the paper pushed each run's
    /// data to BigQuery and started fresh).
    pub fn clear(&self) {
        self.state.lock().log.clear();
    }
}

/// Attributes and logs one exchange. `target` is the index of the visit
/// the exchange was recorded through, or `None` for traffic outside any
/// visit (boot traffic, sealed sessions).
fn record_at(s: &mut ProxyState, target: Option<usize>, request: Request, response: Response) {
    let t = request.timestamp;
    let referer_host = match request.headers.get("Referer") {
        None => None,
        Some(text) => {
            if s.referer.as_ref().map(|(memo, _)| memo.as_str()) != Some(text) {
                let host = Url::parse(text).ok().map(|u| u.host().to_string());
                s.referer = Some((text.to_string(), host));
            }
            s.referer.as_ref().and_then(|(_, host)| host.as_deref())
        }
    };

    // Default attribution: the recording visit, if the request falls
    // within its attribution window.
    let mut attributed = target.filter(|&i| {
        let opened = s.visits[i].opened;
        t >= opened && t.since(opened) <= ATTRIBUTION_WINDOW
    });

    // Referer correction at the visit boundary: shortly after a visit
    // opens, a request whose referer points at a host seen only during
    // the immediately preceding visit of the same session belongs to
    // that previous visit. This is the only rule that can move an
    // exchange, and it can only move it one visit back — never forward,
    // never further, never across sessions.
    if let (Some(ref_host), Some(i)) = (referer_host, target) {
        if i > 0 {
            let cur = &s.visits[i];
            let prev = &s.visits[i - 1];
            let within_grace = t >= cur.opened && t.since(cur.opened) <= SWITCH_GRACE;
            if within_grace
                && prev.session == cur.session
                && prev.hosts.contains(ref_host)
                && !cur.hosts.contains(ref_host)
            {
                attributed = Some(i - 1);
            }
        }
    }

    let (visit, channel, channel_name) = match attributed {
        Some(j) => {
            let v = &mut s.visits[j];
            if !v.hosts.contains(request.url.host()) {
                v.hosts.insert(request.url.host().to_string());
            }
            (Some(v.id), Some(v.channel), Some(v.name.clone()))
        }
        None => (None, None, None),
    };
    // The session label travels with the recording visit, so handle
    // recording stays correctly labeled even after another session
    // started on the same proxy.
    let session = match target {
        Some(i) => s.visits[i].session.clone(),
        None => s.session.clone(),
    };
    if let Some(metrics) = &s.metrics {
        metrics.exchanges.inc();
        metrics.bytes.add(
            (request.url.host().len()
                + request.url.path().len()
                + request.body.len()
                + response.body_len) as u64,
        );
    }
    s.log.push(CapturedExchange {
        session,
        visit,
        channel,
        channel_name,
        request,
        response,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbbtv_net::Status;

    /// Each parallel visit owns its proxy shard, but handles and capture
    /// logs cross thread boundaries when runs are assembled — all of
    /// them must stay `Send + Sync`.
    #[test]
    fn proxy_and_captures_cross_thread_boundaries() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Proxy>();
        assert_send_sync::<VisitHandle>();
        assert_send_sync::<CapturedExchange>();
    }

    fn req(url: &str, at: u64) -> Request {
        Request::get(url.parse().unwrap())
            .at(Timestamp::from_unix(at))
            .build()
    }

    fn req_ref(url: &str, referer: &str, at: u64) -> Request {
        Request::get(url.parse().unwrap())
            .header("Referer", referer)
            .at(Timestamp::from_unix(at))
            .build()
    }

    fn ok() -> Response {
        Response::builder(Status::OK).build()
    }

    const T0: u64 = 1_700_000_000;

    #[test]
    fn attributes_to_active_channel() {
        let p = Proxy::new();
        p.start_session("General");
        p.notify_channel_switch(ChannelId(1), "ZDF", Timestamp::from_unix(T0));
        p.record(req("http://hbbtv.zdf.de/a", T0 + 5), ok());
        let log = p.captures();
        assert_eq!(log[0].channel, Some(ChannelId(1)));
        assert_eq!(log[0].channel_name.as_deref(), Some("ZDF"));
        assert_eq!(&*log[0].session, "General");
        assert_eq!(log[0].visit, Some(VisitId(0)));
    }

    #[test]
    fn unattributed_before_any_switch() {
        let p = Proxy::new();
        p.start_session("General");
        p.record(req("http://lge.com/firmware", T0), ok());
        assert_eq!(p.captures()[0].channel, None);
        assert_eq!(p.captures()[0].visit, None);
    }

    #[test]
    fn requests_past_the_window_are_unattributed() {
        let p = Proxy::new();
        p.start_session("General");
        p.notify_channel_switch(ChannelId(1), "ZDF", Timestamp::from_unix(T0));
        p.record(req("http://hbbtv.zdf.de/a", T0 + 17 * 60 + 1), ok());
        assert_eq!(p.captures()[0].channel, None);
        assert_eq!(p.captures()[0].visit, None);
    }

    #[test]
    fn stale_referer_reattributes_to_previous_visit() {
        let p = Proxy::new();
        p.start_session("Red");
        p.notify_channel_switch(ChannelId(1), "ZDF", Timestamp::from_unix(T0));
        p.record(req("http://hbbtv.zdf.de/app", T0 + 2), ok());
        p.notify_channel_switch(ChannelId(2), "RTL", Timestamp::from_unix(T0 + 900));
        // A late beacon of the ZDF app arrives 3 s after the switch.
        p.record(
            req_ref("http://tvping.com/p", "http://hbbtv.zdf.de/app", T0 + 903),
            ok(),
        );
        // A genuine RTL request follows.
        p.record(req("http://hbbtv.rtl.de/app", T0 + 905), ok());
        let log = p.captures();
        assert_eq!(
            log[1].channel,
            Some(ChannelId(1)),
            "stale beacon goes to ZDF"
        );
        assert_eq!(log[1].visit, Some(VisitId(0)), "…and to ZDF's visit");
        assert_eq!(log[2].channel, Some(ChannelId(2)));
        assert_eq!(log[2].visit, Some(VisitId(1)));
    }

    #[test]
    fn stale_referer_after_grace_sticks_with_current() {
        let p = Proxy::new();
        p.start_session("Red");
        p.notify_channel_switch(ChannelId(1), "ZDF", Timestamp::from_unix(T0));
        p.record(req("http://hbbtv.zdf.de/app", T0 + 2), ok());
        p.notify_channel_switch(ChannelId(2), "RTL", Timestamp::from_unix(T0 + 900));
        p.record(
            req_ref("http://tvping.com/p", "http://hbbtv.zdf.de/app", T0 + 950),
            ok(),
        );
        assert_eq!(p.captures()[1].channel, Some(ChannelId(2)));
    }

    #[test]
    fn referer_seen_on_current_channel_is_not_reattributed() {
        let p = Proxy::new();
        p.start_session("Red");
        p.notify_channel_switch(ChannelId(1), "ZDF", Timestamp::from_unix(T0));
        p.record(req("http://shared-cdn.de/lib", T0 + 2), ok());
        p.notify_channel_switch(ChannelId(2), "RTL", Timestamp::from_unix(T0 + 900));
        p.record(req("http://shared-cdn.de/lib", T0 + 901), ok());
        // Referer points at a host seen on *both* visits → stays current.
        p.record(
            req_ref("http://tvping.com/p", "http://shared-cdn.de/lib", T0 + 902),
            ok(),
        );
        assert_eq!(p.captures()[2].channel, Some(ChannelId(2)));
    }

    #[test]
    fn handle_records_its_own_visit() {
        let p = Proxy::new();
        p.start_session("Red");
        let zdf = p.begin_visit(ChannelId(1), "ZDF", Timestamp::from_unix(T0));
        let rtl = p.begin_visit(ChannelId(2), "RTL", Timestamp::from_unix(T0 + 900));
        // Interleaved recording through both handles: each exchange is
        // tagged by the handle it came through, not by arrival order.
        rtl.record(req("http://hbbtv.rtl.de/a", T0 + 901), ok());
        zdf.record(req("http://hbbtv.zdf.de/a", T0 + 10), ok());
        let log = p.captures();
        assert_eq!(log[0].visit, Some(VisitId(1)));
        assert_eq!(log[0].channel, Some(ChannelId(2)));
        assert_eq!(log[1].visit, Some(VisitId(0)));
        assert_eq!(log[1].channel, Some(ChannelId(1)));
        assert_eq!(zdf.channel(), ChannelId(1));
        assert_eq!(zdf.id(), VisitId(0));
        assert!(zdf.proxy().len() == 2);
    }

    /// Regression: whatever the timestamp says, an exchange recorded
    /// during visit N attributes to visit N (or, via the grace rule, to
    /// N−1) — never to any other visit. Timestamp skew can only ever
    /// *unattribute* a capture.
    #[test]
    fn timestamp_skew_never_moves_attribution_to_another_visit() {
        let p = Proxy::new();
        p.start_session("Red");
        let a = p.begin_visit(ChannelId(1), "A", Timestamp::from_unix(T0));
        let b = p.begin_visit(ChannelId(2), "B", Timestamp::from_unix(T0 + 900));
        let c = p.begin_visit(ChannelId(3), "C", Timestamp::from_unix(T0 + 1800));
        // Skewed timestamps landing squarely inside the *other* visits'
        // windows, recorded through B's handle.
        for skew in [0u64, 5, 300, 900, 1000, 1805, 2700] {
            b.record(req("http://hbbtv-b.de/r", T0 + skew), ok());
        }
        for cap in p.captures() {
            assert_ne!(cap.channel, Some(ChannelId(1)), "never attributes to A");
            assert_ne!(cap.channel, Some(ChannelId(3)), "never attributes to C");
            assert!(
                cap.channel.is_none() || cap.visit == Some(VisitId(1)),
                "either unattributed or visit B, got {:?}",
                cap.visit
            );
        }
        let _ = (a, c);
    }

    /// The grace rule works at the visit boundary even when the two
    /// visits record through independent handles.
    #[test]
    fn grace_applies_at_the_visit_boundary_between_handles() {
        let p = Proxy::new();
        p.start_session("Red");
        let zdf = p.begin_visit(ChannelId(1), "ZDF", Timestamp::from_unix(T0));
        zdf.record(req("http://hbbtv.zdf.de/app", T0 + 2), ok());
        let rtl = p.begin_visit(ChannelId(2), "RTL", Timestamp::from_unix(T0 + 900));
        rtl.record(
            req_ref("http://tvping.com/p", "http://hbbtv.zdf.de/app", T0 + 903),
            ok(),
        );
        let log = p.captures();
        assert_eq!(log[1].visit, Some(VisitId(0)));
        assert_eq!(log[1].channel, Some(ChannelId(1)));
    }

    /// Sessions are isolated: a new session seals the previous one's
    /// visits against both plain records and the grace rule.
    #[test]
    fn cross_session_isolation() {
        let p = Proxy::new();
        p.start_session("General");
        p.notify_channel_switch(ChannelId(1), "ZDF", Timestamp::from_unix(T0));
        p.record(req("http://hbbtv.zdf.de/app", T0 + 2), ok());

        p.start_session("Red");
        // Before the Red session opens any visit, traffic must not fall
        // back to the General session's last visit.
        p.record(req("http://lge.com/firmware", T0 + 10), ok());
        assert_eq!(p.captures()[1].channel, None);
        assert_eq!(&*p.captures()[1].session, "Red");

        // A first Red visit with a referer pointing at a host seen only
        // in the General session: the grace rule must not reach across.
        p.notify_channel_switch(ChannelId(2), "RTL", Timestamp::from_unix(T0 + 20));
        p.record(
            req_ref("http://tvping.com/p", "http://hbbtv.zdf.de/app", T0 + 22),
            ok(),
        );
        let cap = &p.captures()[2];
        assert_eq!(cap.channel, Some(ChannelId(2)), "stays with the Red visit");
        assert_eq!(&*cap.session, "Red");
    }

    /// A handle outlives session changes: exchanges recorded through it
    /// keep the visit's own session label.
    #[test]
    fn handle_keeps_its_session_label() {
        let p = Proxy::new();
        p.start_session("General");
        let v = p.begin_visit(ChannelId(1), "ZDF", Timestamp::from_unix(T0));
        p.start_session("Red");
        v.record(req("http://hbbtv.zdf.de/late", T0 + 5), ok());
        let cap = &p.captures()[0];
        assert_eq!(&*cap.session, "General");
        assert_eq!(cap.visit, Some(VisitId(0)));
    }

    /// Shards seed their visit counter so merged logs carry the
    /// canonical sequence.
    #[test]
    fn sharded_visit_ids_start_where_told() {
        let shard = Proxy::new();
        shard.start_session_at("Red", 7);
        let v = shard.begin_visit(ChannelId(9), "Ch9", Timestamp::from_unix(T0));
        v.record(req("http://hbbtv-ch9.de/r", T0 + 1), ok());
        assert_eq!(shard.captures()[0].visit, Some(VisitId(7)));
    }

    #[test]
    fn take_captures_empties_the_log_and_keeps_visits_open() {
        let p = Proxy::new();
        p.start_session("Red");
        let zdf = p.begin_visit(ChannelId(1), "ZDF", Timestamp::from_unix(T0));
        zdf.record(req("http://hbbtv.zdf.de/app", T0 + 2), ok());
        let taken = p.take_captures();
        assert_eq!(taken.len(), 1);
        assert_eq!(taken[0].visit, Some(VisitId(0)));
        assert!(p.is_empty(), "the log moved out");
        assert!(p.take_captures().is_empty());

        // Visits survive the take: later records attribute as before,
        // and the grace rule still sees hosts recorded before it.
        let rtl = p.begin_visit(ChannelId(2), "RTL", Timestamp::from_unix(T0 + 900));
        zdf.record(req("http://hbbtv.zdf.de/late", T0 + 10), ok());
        rtl.record(
            req_ref("http://tvping.com/p", "http://hbbtv.zdf.de/app", T0 + 903),
            ok(),
        );
        rtl.record(req("http://hbbtv.rtl.de/app", T0 + 905), ok());
        let log = p.take_captures();
        let visits: Vec<_> = log.iter().map(|c| c.visit).collect();
        assert_eq!(
            visits,
            [Some(VisitId(0)), Some(VisitId(0)), Some(VisitId(1))]
        );
        assert_eq!(log[2].channel, Some(ChannelId(2)));
    }

    #[test]
    fn unparseable_referer_is_memoized_as_no_host() {
        let p = Proxy::new();
        p.start_session("Red");
        let v = p.begin_visit(ChannelId(1), "ZDF", Timestamp::from_unix(T0));
        v.record(
            req_ref("http://tvping.com/p", "http://hbbtv.zdf.de/app", T0 + 1),
            ok(),
        );
        for at in [T0 + 2, T0 + 3] {
            v.record(req_ref("http://tvping.com/p", "not a url", at), ok());
        }
        assert_eq!(
            p.state.lock().referer,
            Some(("not a url".to_string(), None))
        );
        assert!(p.captures().iter().all(|c| c.visit == Some(VisitId(0))));
    }

    #[test]
    fn memoized_referer_still_triggers_the_grace_rule_after_a_switch() {
        let p = Proxy::new();
        p.start_session("Red");
        let zdf = p.begin_visit(ChannelId(1), "ZDF", Timestamp::from_unix(T0));
        zdf.record(req("http://hbbtv.zdf.de/app", T0 + 1), ok());
        // Memoizes the entry URL's host during the ZDF visit.
        zdf.record(
            req_ref("http://tvping.com/p", "http://hbbtv.zdf.de/app", T0 + 2),
            ok(),
        );
        let rtl = p.begin_visit(ChannelId(2), "RTL", Timestamp::from_unix(T0 + 900));
        // The same referer text, now a memo hit: within grace it moves
        // back to ZDF, after grace it stays with RTL. A different
        // referer in between replaces the memo and stays with RTL.
        for (referer, at) in [
            ("http://hbbtv.zdf.de/app", T0 + 903),
            ("http://hbbtv.rtl.de/app", T0 + 904),
            ("http://hbbtv.zdf.de/app", T0 + 905),
            ("http://hbbtv.zdf.de/app", T0 + 950),
        ] {
            rtl.record(req_ref("http://tvping.com/p", referer, at), ok());
        }
        let visits: Vec<_> = p.captures().iter().map(|c| c.visit.unwrap().0).collect();
        assert_eq!(visits, [0, 0, 0, 1, 0, 1]);
    }

    #[test]
    fn https_flag_and_clear() {
        let p = Proxy::new();
        p.start_session("General");
        p.notify_channel_switch(ChannelId(1), "ZDF", Timestamp::from_unix(T0));
        p.record(req("https://secure.zdf.de/a", T0 + 1), ok());
        assert!(p.captures()[0].is_https());
        assert_eq!(p.len(), 1);
        p.clear();
        assert!(p.is_empty());
    }

    #[test]
    fn clone_shares_the_log() {
        let p = Proxy::new();
        let handle = p.clone();
        p.start_session("General");
        p.notify_channel_switch(ChannelId(1), "ZDF", Timestamp::from_unix(T0));
        handle.record(req("http://hbbtv.zdf.de/a", T0 + 1), ok());
        assert_eq!(p.len(), 1);
        let total = p.with_captures(|log| log.len());
        assert_eq!(total, 1);
    }
}
