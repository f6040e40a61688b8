//! Tracker service behavior: synthesizing HTTP responses.

use crate::ids::IdMinter;
use hbbtv_net::{
    ContentType, Duration, Etld1, Request, Response, ResponseBuilder, SetCookieParts, Status,
    Timestamp, Url,
};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// What kind of tracking backend a service is.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrackerKind {
    /// 1×1-pixel beacon endpoint: tiny image, sets a user-ID cookie.
    PixelBeacon,
    /// Analytics endpoint (page/channel measurement): JSON body, sets
    /// identifier cookies.
    Analytics,
    /// Serves a fingerprinting script (Canvas/WebGL/FingerprintJS).
    Fingerprinter {
        /// Whether the script embeds the FingerprintJS library (vs.
        /// hand-rolled Canvas probing).
        uses_library: bool,
    },
    /// Ad server: banner responses plus targeting cookies.
    AdServer,
    /// First leg of a cookie sync: 302-redirects to the partner with the
    /// user ID in the URL (§V-C3).
    CookieSyncSource {
        /// Host of the partner that receives the ID.
        partner_host: String,
    },
    /// Second leg of a cookie sync: stores the received partner ID.
    CookieSyncTarget,
    /// Plain content CDN: no cookies, no tracking.
    Cdn,
}

/// Mutable environment a service needs to answer a request.
#[derive(Debug)]
pub struct ResponderContext<'a, R: Rng> {
    /// Current simulated time (for cookie expiry).
    pub now: Timestamp,
    /// Randomness source for ID minting.
    pub rng: &'a mut R,
}

/// A simulated tracker backend bound to one host.
///
/// # Examples
///
/// ```
/// use hbbtv_trackers::{ResponderContext, TrackerKind, TrackerService};
/// use hbbtv_net::{Request, Timestamp};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let pixel = TrackerService::new("tvping.com", TrackerKind::PixelBeacon)
///     .with_cookie("tvp_uid", 16);
/// let req = Request::get("http://tvping.com/ping?c=rtl".parse()?).build();
/// let mut rng = StdRng::seed_from_u64(1);
/// let mut ctx = ResponderContext { now: Timestamp::MEASUREMENT_START, rng: &mut rng };
/// let resp = pixel.respond(&req, &mut ctx);
/// assert!(resp.body_len < 45, "tracking pixels are tiny");
/// assert_eq!(resp.set_cookies().len(), 1);
/// # Ok::<(), hbbtv_net::ParseUrlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TrackerService {
    host: String,
    domain: Etld1,
    kind: TrackerKind,
    cookie_name: Option<String>,
    per_site_cookie: bool,
    minter: IdMinter,
    cookie_ttl: Duration,
}

impl TrackerService {
    /// Creates a service at `host` with the given behavior and no cookie.
    pub fn new(host: &str, kind: TrackerKind) -> Self {
        TrackerService {
            host: host.to_string(),
            domain: Etld1::from_host(host),
            kind,
            cookie_name: None,
            per_site_cookie: false,
            minter: IdMinter::new(16),
            cookie_ttl: Duration::from_secs(365 * 24 * 3600),
        }
    }

    /// Builder-style: like [`TrackerService::with_cookie`], but the
    /// cookie name is suffixed with the request's `site` query parameter
    /// (AT-Internet-style per-site cookies such as `xtvrn_<siteid>`),
    /// falling back to the bare name when the parameter is absent.
    ///
    /// # Panics
    ///
    /// Panics if `id_len` is outside `1..=64`.
    pub fn with_per_site_cookie(mut self, name: &str, id_len: usize) -> Self {
        self.cookie_name = Some(name.to_string());
        self.per_site_cookie = true;
        self.minter = IdMinter::new(id_len);
        self
    }

    /// Builder-style: the service sets an identifier cookie of `name`
    /// with values of `id_len` characters.
    ///
    /// # Panics
    ///
    /// Panics if `id_len` is outside `1..=64`.
    pub fn with_cookie(mut self, name: &str, id_len: usize) -> Self {
        self.cookie_name = Some(name.to_string());
        self.minter = IdMinter::new(id_len);
        self
    }

    /// The host this service answers for.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// The service's registrable domain.
    pub fn domain(&self) -> &Etld1 {
        &self.domain
    }

    /// The behavior kind.
    pub fn kind(&self) -> &TrackerKind {
        &self.kind
    }

    /// The identifier cookie name, if the service sets one.
    pub fn cookie_name(&self) -> Option<&str> {
        self.cookie_name.as_deref()
    }

    /// Whether this service's responses count as tracking (everything
    /// except a plain CDN).
    pub fn is_tracking(&self) -> bool {
        !matches!(self.kind, TrackerKind::Cdn)
    }

    /// The cookie name used for a specific request (site-suffixed when
    /// [`TrackerService::with_per_site_cookie`] is configured).
    pub fn effective_cookie_name(&self, req: &Request) -> Option<String> {
        self.cookie_name_parts(req).map(|parts| parts.concat())
    }

    /// The cookie name for `req` as pieces: the base name, then `_` and
    /// the request's non-empty `site` parameter when cookies are per
    /// site, borrowed from the service and the request.
    fn cookie_name_parts<'a>(&'a self, req: &'a Request) -> Option<[&'a str; 3]> {
        let base = self.cookie_name.as_deref()?;
        let site = self
            .per_site_cookie
            .then(|| req.url.query_param("site"))
            .flatten()
            .filter(|site| !site.is_empty());
        Some(match site {
            Some(site) => [base, "_", site],
            None => [base, "", ""],
        })
    }

    /// The user ID the requesting TV presents for this service, borrowed
    /// from the `Cookie` header.
    pub fn presented_id<'a>(&self, req: &'a Request) -> Option<&'a str> {
        presented_value(req, self.cookie_name_parts(req)?)
    }

    /// Answers a request according to the service's behavior.
    pub fn respond<R: Rng>(&self, req: &Request, ctx: &mut ResponderContext<'_, R>) -> Response {
        match &self.kind {
            TrackerKind::PixelBeacon => self.pixel_response(req, ctx),
            TrackerKind::Analytics => self.analytics_response(req, ctx),
            TrackerKind::Fingerprinter { uses_library } => {
                self.fingerprint_response(req, ctx, *uses_library)
            }
            TrackerKind::AdServer => self.ad_response(req, ctx),
            TrackerKind::CookieSyncSource { partner_host } => {
                self.sync_source_response(req, ctx, partner_host)
            }
            TrackerKind::CookieSyncTarget => self.sync_target_response(req, ctx),
            TrackerKind::Cdn => self.cdn_response(req),
        }
    }

    /// Adds the `Set-Cookie` that (re)establishes this service's ID
    /// cookie, written straight into the response's header text. The
    /// value is `forced_value`, else the ID the TV presents, else a
    /// fresh one.
    fn id_cookie<R: Rng>(
        &self,
        b: ResponseBuilder,
        req: &Request,
        ctx: &mut ResponderContext<'_, R>,
        forced_value: Option<&str>,
    ) -> ResponseBuilder {
        let Some(name) = self.cookie_name_parts(req) else {
            return b;
        };
        let minted;
        let value = match forced_value.or_else(|| presented_value(req, name)) {
            Some(value) => value,
            None => {
                minted = self.minter.mint(ctx.rng);
                &minted
            }
        };
        b.set_cookie_parts(&SetCookieParts {
            name,
            value,
            domain: Some(self.domain.as_str()),
            expires: Some(ctx.now + self.cookie_ttl),
            ..SetCookieParts::default()
        })
    }

    fn pixel_response<R: Rng>(&self, req: &Request, ctx: &mut ResponderContext<'_, R>) -> Response {
        let b = Response::builder(Status::OK)
            .content_type(ContentType::Image)
            // A 43-byte GIF89a — below the 45-byte pixel threshold.
            .body_len(43);
        self.id_cookie(b, req, ctx, None).build()
    }

    fn analytics_response<R: Rng>(
        &self,
        req: &Request,
        ctx: &mut ResponderContext<'_, R>,
    ) -> Response {
        let b = Response::builder(Status::OK)
            .content_type(ContentType::Json)
            .body("{\"status\":\"ok\"}");
        self.id_cookie(b, req, ctx, None).build()
    }

    fn fingerprint_response<R: Rng>(
        &self,
        req: &Request,
        ctx: &mut ResponderContext<'_, R>,
        uses_library: bool,
    ) -> Response {
        let library_part = if uses_library {
            "import Fingerprint2 from 'fingerprintjs2';\n\
             Fingerprint2.get(function (components) { send(murmur(components)); });\n"
        } else {
            ""
        };
        let body = format!(
            "// device characterization\n\
             var canvas = document.createElement('canvas');\n\
             var g = canvas.getContext('2d');\n\
             g.fillText(navigator.userAgent, 2, 2);\n\
             var png = canvas.toDataURL();\n\
             var gl = canvas.getContext('webgl') instanceof WebGLRenderingContext;\n\
             {library_part}\
             beacon('{host}', png, gl, screen.width, screen.height);\n",
            host = self.host
        );
        let b = Response::builder(Status::OK)
            .content_type(ContentType::JavaScript)
            .body(body);
        self.id_cookie(b, req, ctx, None).build()
    }

    fn ad_response<R: Rng>(&self, req: &Request, ctx: &mut ResponderContext<'_, R>) -> Response {
        let b = Response::builder(Status::OK)
            .content_type(ContentType::Image)
            // Ad creatives are real images, far above the pixel bound.
            .body_len(18_432);
        self.id_cookie(b, req, ctx, None).build()
    }

    fn sync_source_response<R: Rng>(
        &self,
        req: &Request,
        ctx: &mut ResponderContext<'_, R>,
        partner_host: &str,
    ) -> Response {
        let minted;
        let uid = match self.presented_id(req) {
            Some(uid) => uid,
            None => {
                minted = self.minter.mint(ctx.rng);
                &minted
            }
        };
        let location: Url = format!("http://{partner_host}/sync")
            .parse()
            .expect("partner host yields a valid URL");
        let location = location.with_params([("uid", uid), ("src", self.host.as_str())]);
        let b = Response::builder(Status::FOUND)
            .content_type(ContentType::Other)
            .header("Location", location.as_str());
        self.id_cookie(b, req, ctx, Some(uid)).build()
    }

    fn sync_target_response<R: Rng>(
        &self,
        req: &Request,
        ctx: &mut ResponderContext<'_, R>,
    ) -> Response {
        // Adopt the partner-provided ID so both parties share it.
        let b = Response::builder(Status::OK)
            .content_type(ContentType::Image)
            .body_len(43);
        self.id_cookie(b, req, ctx, req.url.query_param("uid"))
            .build()
    }

    fn cdn_response(&self, req: &Request) -> Response {
        let path = req.url.path().as_bytes();
        let (ct, body): (ContentType, String) = if path.ends_with(b".js") {
            (
                ContentType::JavaScript,
                "export function render(el) { el.show(); }".to_string(),
            )
        } else if path.ends_with(b".css") {
            (ContentType::Css, ".overlay { opacity: 0.9; }".to_string())
        } else {
            (ContentType::Image, String::new())
        };
        let mut b = Response::builder(Status::OK).content_type(ct);
        if body.is_empty() {
            b = b.body_len(52_100); // a broadcast-quality image asset
        } else {
            b = b.body(body);
        }
        b.build()
    }
}

/// The value of the cookie named by the pieces `name` in the request's
/// `Cookie` header.
fn presented_value<'a>(req: &'a Request, name: [&str; 3]) -> Option<&'a str> {
    req.cookies().find_map(|(k, v)| {
        // Byte slices: a `&str` prefix pattern costs a searcher set-up.
        let rest = name.iter().try_fold(k.as_bytes(), |rest, piece| {
            let (head, tail) = rest.split_at_checked(piece.len())?;
            (head == piece.as_bytes()).then_some(tail)
        })?;
        rest.is_empty().then_some(v)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ctx_pair() -> (StdRng, Timestamp) {
        (StdRng::seed_from_u64(11), Timestamp::MEASUREMENT_START)
    }

    fn get(url: &str) -> Request {
        Request::get(url.parse().unwrap()).build()
    }

    fn get_with_cookie(url: &str, cookie: &str) -> Request {
        Request::get(url.parse().unwrap())
            .header("Cookie", cookie)
            .build()
    }

    #[test]
    fn pixel_is_a_tracking_pixel_by_the_papers_heuristic() {
        let svc =
            TrackerService::new("tvping.com", TrackerKind::PixelBeacon).with_cookie("tvp_uid", 16);
        let (mut rng, now) = ctx_pair();
        let mut ctx = ResponderContext { now, rng: &mut rng };
        let resp = svc.respond(&get("http://tvping.com/ping"), &mut ctx);
        assert_eq!(resp.status, Status::OK);
        assert!(resp.content_type.is_image());
        assert!(resp.body_len < 45);
        let cookies = resp.set_cookies();
        assert_eq!(cookies.len(), 1);
        assert_eq!(cookies[0].cookie.name, "tvp_uid");
        assert_eq!(cookies[0].cookie.value.len(), 16);
        assert!(cookies[0].is_persistent());
    }

    #[test]
    fn presented_cookie_id_is_reused() {
        let svc =
            TrackerService::new("an.xiti.com", TrackerKind::Analytics).with_cookie("atuserid", 20);
        let (mut rng, now) = ctx_pair();
        let mut ctx = ResponderContext { now, rng: &mut rng };
        let req = get_with_cookie("http://an.xiti.com/hit", "atuserid=knownuser12345678901");
        let resp = svc.respond(&req, &mut ctx);
        assert_eq!(resp.set_cookies()[0].cookie.value, "knownuser12345678901");
    }

    #[test]
    fn fingerprint_script_contains_detectable_markers() {
        let svc = TrackerService::new(
            "fp.metrics.de",
            TrackerKind::Fingerprinter { uses_library: true },
        );
        let (mut rng, now) = ctx_pair();
        let mut ctx = ResponderContext { now, rng: &mut rng };
        let resp = svc.respond(&get("http://fp.metrics.de/fp.js"), &mut ctx);
        assert!(resp.content_type.is_javascript());
        for marker in [
            "getContext('2d')",
            "toDataURL",
            "WebGLRenderingContext",
            "Fingerprint2",
        ] {
            assert!(resp.body.contains(marker), "missing marker {marker}");
        }
    }

    #[test]
    fn handrolled_fingerprinter_omits_library() {
        let svc = TrackerService::new(
            "fp.zdf.de",
            TrackerKind::Fingerprinter {
                uses_library: false,
            },
        );
        let (mut rng, now) = ctx_pair();
        let mut ctx = ResponderContext { now, rng: &mut rng };
        let resp = svc.respond(&get("http://fp.zdf.de/fp.js"), &mut ctx);
        assert!(!resp.body.contains("Fingerprint2"));
        assert!(resp.body.contains("toDataURL"));
    }

    #[test]
    fn sync_source_redirects_with_uid() {
        let svc = TrackerService::new(
            "adsync-a.com",
            TrackerKind::CookieSyncSource {
                partner_host: "adsync-b.com".to_string(),
            },
        )
        .with_cookie("sync_uid", 18);
        let (mut rng, now) = ctx_pair();
        let mut ctx = ResponderContext { now, rng: &mut rng };
        let req = get_with_cookie("http://adsync-a.com/pix", "sync_uid=abcdefgh1234567890");
        let resp = svc.respond(&req, &mut ctx);
        assert!(resp.status.is_redirect());
        let loc = resp.location().unwrap();
        assert_eq!(loc.host(), "adsync-b.com");
        assert_eq!(loc.query_param("uid"), Some("abcdefgh1234567890"));
    }

    #[test]
    fn sync_target_adopts_partner_uid() {
        let svc = TrackerService::new("adsync-b.com", TrackerKind::CookieSyncTarget)
            .with_cookie("partner_uid", 18);
        let (mut rng, now) = ctx_pair();
        let mut ctx = ResponderContext { now, rng: &mut rng };
        let resp = svc.respond(
            &get("http://adsync-b.com/sync?uid=abcdefgh1234567890&src=adsync-a.com"),
            &mut ctx,
        );
        assert_eq!(resp.set_cookies()[0].cookie.value, "abcdefgh1234567890");
    }

    #[test]
    fn cdn_sets_no_cookies_and_is_not_tracking() {
        let svc = TrackerService::new("cdn.hbbtv-assets.de", TrackerKind::Cdn);
        assert!(!svc.is_tracking());
        let (mut rng, now) = ctx_pair();
        let mut ctx = ResponderContext { now, rng: &mut rng };
        let js = svc.respond(&get("http://cdn.hbbtv-assets.de/app.js"), &mut ctx);
        assert!(js.content_type.is_javascript());
        assert!(js.set_cookies().is_empty());
        let img = svc.respond(&get("http://cdn.hbbtv-assets.de/bg.png"), &mut ctx);
        assert!(img.body_len > 45, "CDN images are not pixels");
    }

    #[test]
    fn ad_creative_is_large_image_with_targeting_cookie() {
        let svc = TrackerService::new("ads.adform.net", TrackerKind::AdServer)
            .with_cookie("adform_uid", 19);
        let (mut rng, now) = ctx_pair();
        let mut ctx = ResponderContext { now, rng: &mut rng };
        let resp = svc.respond(&get("http://ads.adform.net/banner"), &mut ctx);
        assert!(resp.body_len >= 45);
        assert_eq!(resp.set_cookies()[0].cookie.domain.as_str(), "adform.net");
    }

    #[test]
    fn accessors() {
        let svc =
            TrackerService::new("a.b.tracker.de", TrackerKind::Analytics).with_cookie("uid", 12);
        assert_eq!(svc.host(), "a.b.tracker.de");
        assert_eq!(svc.domain().as_str(), "tracker.de");
        assert_eq!(svc.cookie_name(), Some("uid"));
        assert!(svc.is_tracking());
        assert_eq!(*svc.kind(), TrackerKind::Analytics);
    }
}

#[cfg(test)]
mod per_site_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn per_site_cookie_names_are_site_specific() {
        let svc = TrackerService::new("xiti.com", TrackerKind::Analytics)
            .with_per_site_cookie("xtvrn", 20);
        let mut rng = StdRng::seed_from_u64(5);
        let mut ctx = ResponderContext {
            now: Timestamp::MEASUREMENT_START,
            rng: &mut rng,
        };
        let req_a = Request::get("http://an.xiti.com/hit?site=daserste".parse().unwrap()).build();
        let req_b = Request::get("http://an.xiti.com/hit?site=zdfneo".parse().unwrap()).build();
        let a = svc.respond(&req_a, &mut ctx).set_cookies().remove(0);
        let b = svc.respond(&req_b, &mut ctx).set_cookies().remove(0);
        assert_eq!(a.cookie.name, "xtvrn_daserste");
        assert_eq!(b.cookie.name, "xtvrn_zdfneo");
        assert_ne!(a.cookie.value, b.cookie.value);
    }

    #[test]
    fn per_site_falls_back_to_bare_name() {
        let svc = TrackerService::new("xiti.com", TrackerKind::Analytics)
            .with_per_site_cookie("xtvrn", 20);
        let mut rng = StdRng::seed_from_u64(5);
        let mut ctx = ResponderContext {
            now: Timestamp::MEASUREMENT_START,
            rng: &mut rng,
        };
        let req = Request::get("http://an.xiti.com/hit".parse().unwrap()).build();
        let sc = svc.respond(&req, &mut ctx).set_cookies().remove(0);
        assert_eq!(sc.cookie.name, "xtvrn");
    }

    #[test]
    fn per_site_presented_id_round_trip() {
        let svc = TrackerService::new("xiti.com", TrackerKind::Analytics)
            .with_per_site_cookie("xtvrn", 20);
        let req = Request::get("http://an.xiti.com/hit?site=rtl".parse().unwrap())
            .header("Cookie", "xtvrn_rtl=knownvalue123456")
            .build();
        assert_eq!(svc.presented_id(&req).unwrap(), "knownvalue123456");
    }
}
