//! The HbbTV browser runtime.

use crate::backend::NetworkBackend;
use crate::device::{DeviceProfile, ProgramInfo};
use crate::screen::Screenshot;
use crate::storage::{CookieJar, LocalStorage, StoredCookie};
use hbbtv_apps::{
    AppPage, ColorButton, HbbtvApp, LeakItem, PageId, PageKind, ResourceLoad, StorageValueKind,
};
use hbbtv_broadcast::{Ait, ChannelDescriptor};
use hbbtv_consent::{ButtonAction, ConsentNotice, ScreenContent};
use hbbtv_net::{Method, Request, Response, SimClock, Timestamp, Url};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Maximum redirect-chain depth the browser follows (cookie syncing uses
/// a single hop; the cap guards against loops).
const MAX_REDIRECTS: usize = 4;

/// How long a non-modal consent notice stays on screen before the app
/// hides it again. §VI-B ("Persistence") observes that notices "often did
/// not occur on all screenshots for a given channel", i.e. they disappear
/// after a while; 90 s yields the 1–2 notice screenshots per channel the
/// paper's Table IV/V ratios imply.
const NOTICE_AUTO_HIDE: hbbtv_net::Duration = hbbtv_net::Duration::from_secs(90);

/// How long a "channel technical message" (e.g. "HbbTV-Dienst nicht
/// verfügbar") stays on screen after a button press that has no content.
const TECH_MESSAGE_TTL: hbbtv_net::Duration = hbbtv_net::Duration::from_secs(100);

/// A remote-control key the study's script injects via the webOS API.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RcButton {
    /// Red color key.
    Red,
    /// Green color key.
    Green,
    /// Yellow color key.
    Yellow,
    /// Blue color key.
    Blue,
    /// Cursor up.
    Up,
    /// Cursor down.
    Down,
    /// Cursor left.
    Left,
    /// Cursor right.
    Right,
    /// ENTER / OK.
    Enter,
}

impl RcButton {
    /// The color-button mapping, if this is a color key.
    pub fn color(self) -> Option<ColorButton> {
        match self {
            RcButton::Red => Some(ColorButton::Red),
            RcButton::Green => Some(ColorButton::Green),
            RcButton::Yellow => Some(ColorButton::Yellow),
            RcButton::Blue => Some(ColorButton::Blue),
            _ => None,
        }
    }
}

/// Everything the TV needs to present one channel: the broadcast
/// metadata, the (possibly absent) HbbTV application, and the program
/// guide state.
#[derive(Debug, Clone)]
pub struct ChannelContext {
    /// Channel metadata from the broadcast signal.
    pub descriptor: ChannelDescriptor,
    /// The signalled application model, if the channel carries HbbTV.
    pub app: Option<HbbtvApp>,
    /// What the channel is airing.
    pub program: ProgramInfo,
    /// Whether a picture is transmitted (false → "No Signal"
    /// screenshots).
    pub signal_ok: bool,
    /// Whether a channel technical message replaces the program.
    pub tech_message: bool,
    /// Whether the channel shows a technical message when a colored
    /// button without bound content is pressed (the Table IV "CTM"
    /// screenshots cluster in the button runs).
    pub ctm_on_missing: bool,
    /// Whether the app suppresses its consent notice on this tune-in.
    /// Real notices are frequency-capped and timing-dependent; §VI's
    /// per-run channel counts (70/70/26/38/54) only union to 121 because
    /// different subsets showed the notice in different runs.
    pub suppress_notice: bool,
}

#[derive(Debug)]
struct NoticeState {
    notice: ConsentNotice,
    layer: usize,
    focus: usize,
    shown_at: Timestamp,
}

#[derive(Debug)]
struct BeaconState {
    load: ResourceLoad,
    next_due: Timestamp,
}

/// The simulated television.
///
/// See the crate docs for the big picture; the harness drives a `Tv` via
/// [`Tv::tune`], [`Tv::press`], [`Tv::advance`], and [`Tv::screenshot`].
#[derive(Debug)]
pub struct Tv<B> {
    device: DeviceProfile,
    clock: SimClock,
    backend: B,
    rng: StdRng,
    jar: CookieJar,
    storage: LocalStorage,
    connected: bool,
    dnt: bool,
    ctx: Option<ChannelContext>,
    autostart_page: Option<PageId>,
    current_page: Option<PageId>,
    notice: Option<NoticeState>,
    consent_granted: bool,
    link_cursor: usize,
    beacons: Vec<BeaconState>,
    session_id: String,
    tech_message_until: Option<Timestamp>,
    signal_ok_override: Option<bool>,
}

impl<B: NetworkBackend> Tv<B> {
    /// Creates a TV with the given device profile, shared clock, network
    /// backend, and RNG seed.
    pub fn new(device: DeviceProfile, clock: SimClock, backend: B, seed: u64) -> Self {
        Tv {
            device,
            clock,
            backend,
            rng: StdRng::seed_from_u64(seed),
            jar: CookieJar::new(),
            storage: LocalStorage::new(),
            connected: true,
            dnt: false,
            ctx: None,
            autostart_page: None,
            current_page: None,
            notice: None,
            consent_granted: false,
            link_cursor: 0,
            beacons: Vec::new(),
            session_id: String::new(),
            tech_message_until: None,
            signal_ok_override: None,
        }
    }

    /// Mutable access to the network backend, for drivers that need to
    /// feed it out-of-band context (e.g. the harness tells its backend
    /// which first party is currently tuned so an on-device block list
    /// can evaluate `$third-party` rules).
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// Connects or disconnects the TV from the Internet. Without a
    /// connection the linear program still shows but no HbbTV content
    /// loads (§II).
    pub fn set_connected(&mut self, connected: bool) {
        self.connected = connected;
    }

    /// Enables the deprecated Do-Not-Track signal on every request.
    /// Prior work (Tagliaro et al., NDSS'23) communicated consent this
    /// way; as on the real ecosystem, the simulated trackers ignore it —
    /// which is precisely why this study drives real consent notices
    /// instead.
    pub fn set_dnt(&mut self, enabled: bool) {
        self.dnt = enabled;
    }

    /// The webOS developer-API channel metadata (what PyWebOSTV exposed
    /// to the remote-control script): the tuned channel's descriptor and
    /// current program, if a channel is tuned.
    pub fn channel_metadata(&self) -> Option<(&ChannelDescriptor, &ProgramInfo)> {
        self.ctx.as_ref().map(|c| (&c.descriptor, &c.program))
    }

    /// The cookie jar (the study's SSH extraction path).
    pub fn cookie_jar(&self) -> &CookieJar {
        &self.jar
    }

    /// The local storage (extracted alongside the cookie jar).
    pub fn local_storage(&self) -> &LocalStorage {
        &self.storage
    }

    /// Wipes cookies and local storage (performed after every run).
    pub fn wipe_storage(&mut self) {
        self.jar.wipe();
        self.storage.wipe();
    }

    /// The §IV-C extract-then-wipe lifecycle in one step: snapshots the
    /// cookie jar and local storage (the study's post-run SSH pull),
    /// wipes both, and returns the snapshots. Local-storage entries come
    /// back as `(origin, key, value)` strings, the dataset's wire shape.
    pub fn extract_storage(&mut self) -> (Vec<StoredCookie>, Vec<(String, String, String)>) {
        let cookies = self.jar.all().cloned().collect();
        let storage = self
            .storage
            .all()
            .map(|(origin, key, value)| (origin.to_string(), key.to_string(), value.to_string()))
            .collect();
        self.wipe_storage();
        (cookies, storage)
    }

    /// Turns the TV off: leaves the channel and stops all application
    /// activity. Cookies and local storage survive power-off.
    pub fn power_off(&mut self) {
        self.ctx = None;
        self.reset_app_state();
    }

    fn reset_app_state(&mut self) {
        self.autostart_page = None;
        self.current_page = None;
        self.notice = None;
        self.consent_granted = false;
        self.link_cursor = 0;
        self.beacons.clear();
        self.tech_message_until = None;
        self.signal_ok_override = None;
    }

    /// Overrides the signal state (the harness uses this to model weak
    /// transponders whose picture drops out between screenshots).
    pub fn set_signal_ok(&mut self, ok: bool) {
        self.signal_ok_override = Some(ok);
    }

    /// Tunes to a channel. Leaving the previous channel exits its
    /// application (§IV-C: "the routine switched to the next channel,
    /// automatically exiting any started HbbTV application"). If the TV
    /// is connected and the AIT signals an autostart application, the
    /// runtime loads it.
    pub fn tune(&mut self, ctx: ChannelContext, ait: &Ait) {
        self.reset_app_state();
        self.session_id = mint(&mut self.rng, 12);
        self.ctx = Some(ctx);
        if !self.connected {
            return;
        }
        let Some(entry) = ait.autostart().map(|e| e.url.clone()) else {
            return;
        };
        // Load the signalled entry point (the first-party determination
        // of §V-A keys on this being the first content-bearing request).
        let req = self.build_request(
            &ResourceLoad::get(entry, hbbtv_apps::ResourceKind::Document),
            None,
        );
        self.deliver(req, 0);
        // Open the autostart page of the application model.
        let autostart = self
            .ctx
            .as_ref()
            .and_then(|c| c.app.as_ref())
            .and_then(|a| a.autostart_page())
            .map(|p| p.id);
        if let Some(id) = autostart {
            self.autostart_page = Some(id);
            self.open_page(id);
        }
    }

    /// Injects a remote-control key press.
    pub fn press(&mut self, button: RcButton) {
        if let Some(color) = button.color() {
            let page = self
                .ctx
                .as_ref()
                .and_then(|c| c.app.as_ref())
                .and_then(|a| a.page_for(color))
                .map(|p| p.id);
            match page {
                Some(id) => {
                    // Red on the already-open autostart app hides it.
                    if color == ColorButton::Red && self.current_page == Some(id) {
                        self.current_page = self.autostart_page;
                    } else {
                        self.open_page(id);
                    }
                }
                None => {
                    // No content behind this button: some channels show a
                    // technical message for a while.
                    let show_ctm = self.ctx.as_ref().map(|c| c.ctm_on_missing) == Some(true);
                    if show_ctm {
                        self.tech_message_until = Some(self.clock.now() + TECH_MESSAGE_TTL);
                    }
                }
            }
            return;
        }
        match button {
            RcButton::Up | RcButton::Left => self.move_cursor(-1),
            RcButton::Down | RcButton::Right => self.move_cursor(1),
            RcButton::Enter => self.activate(),
            _ => unreachable!("color keys handled above"),
        }
    }

    fn move_cursor(&mut self, delta: isize) {
        if let Some(ns) = &mut self.notice {
            let n = ns.notice.layers[ns.layer].buttons.len();
            ns.focus = step_clamped(ns.focus, delta, n);
        } else if let Some(page) = self.current_page_ref() {
            let n = page.links.len();
            if n > 0 {
                self.link_cursor = step_clamped(self.link_cursor, delta, n);
            }
        }
    }

    fn activate(&mut self) {
        if self.notice.is_some() {
            self.activate_notice_button();
        } else if let Some(page) = self.current_page_ref() {
            if let Some(&target) = page.links.get(self.link_cursor) {
                // In-page navigation: the application keeps running, so
                // its beacons survive (unlike a color-button app switch).
                self.open_page_inner(target, false);
            }
        }
    }

    fn activate_notice_button(&mut self) {
        let Some(ns) = &mut self.notice else { return };
        let action = ns.notice.layers[ns.layer].buttons[ns.focus].action;
        match action {
            ButtonAction::AcceptAll => {
                self.notice = None;
                self.consent_granted = true;
                self.fire_post_consent();
            }
            ButtonAction::Settings
            | ButtonAction::SettingsOrDecline
            | ButtonAction::Privacy
            | ButtonAction::PartnerList => {
                if ns.layer + 1 < ns.notice.layers.len() {
                    ns.layer += 1;
                    ns.focus = ns.notice.layers[ns.layer].default_focus;
                } else {
                    self.notice = None;
                }
            }
            ButtonAction::Decline
            | ButtonAction::OnlyNecessary
            | ButtonAction::SaveSelection
            | ButtonAction::ConfirmDeselection => {
                self.notice = None;
            }
        }
    }

    fn fire_post_consent(&mut self) {
        let mut pages: Vec<PageId> = [self.autostart_page, self.current_page]
            .into_iter()
            .flatten()
            .collect();
        pages.dedup();
        let mut loads: Vec<ResourceLoad> = Vec::new();
        for id in pages {
            if let Some(page) = self.page_ref(id) {
                loads.extend(page.post_consent_resources.iter().cloned());
            }
        }
        let referer = self.app_referer();
        for load in loads {
            self.fire_load(&load, referer.as_deref());
        }
    }

    /// Lets simulated time pass: beacons of the open pages fire at their
    /// due instants, then the clock lands at `now + d`.
    pub fn advance(&mut self, d: hbbtv_net::Duration) {
        let end = self.clock.now() + d;
        while let Some((idx, due)) = self
            .beacons
            .iter()
            .enumerate()
            .filter(|(_, b)| b.next_due <= end)
            .min_by_key(|(_, b)| b.next_due)
            .map(|(i, b)| (i, b.next_due))
        {
            if due > self.clock.now() {
                self.clock.jump_to(due);
            }
            let (interval, burst) = {
                let b = &self.beacons[idx];
                (b.load.repeat_every.expect("beacons repeat"), b.load.burst)
            };
            let referer = self.app_referer();
            for _ in 0..burst {
                let req = self.build_request(&self.beacons[idx].load, referer.as_deref());
                self.deliver(req, 0);
            }
            self.beacons[idx].next_due = due + interval;
        }
        if end > self.clock.now() {
            self.clock.jump_to(end);
        }
        // Non-modal notices hide themselves after a while (§VI-B
        // "Persistence").
        let now = self.clock.now();
        if let Some(ns) = &self.notice {
            if !ns.notice.modal && now.since(ns.shown_at) > NOTICE_AUTO_HIDE {
                self.notice = None;
            }
        }
        if let Some(until) = self.tech_message_until {
            if now >= until {
                self.tech_message_until = None;
            }
        }
    }

    /// Captures what is currently on screen.
    pub fn screenshot(&self) -> Option<Screenshot> {
        let ctx = self.ctx.as_ref()?;
        let page = self.current_page_ref();
        let surface = page.and_then(|p| match p.kind {
            PageKind::AutostartBar => None,
            PageKind::MediaLibrary => Some(hbbtv_consent::AppSurface::MediaLibrary),
            PageKind::InfoText => Some(hbbtv_consent::AppSurface::InfoText),
            PageKind::Game => Some(hbbtv_consent::AppSurface::Game),
            PageKind::Shop => Some(hbbtv_consent::AppSurface::Shop),
            PageKind::Advertisement => Some(hbbtv_consent::AppSurface::Advertisement),
            PageKind::PrivacyPolicy | PageKind::CookieSettings => None,
        });
        let policy = matches!(
            page.map(|p| p.kind),
            Some(PageKind::PrivacyPolicy) | Some(PageKind::CookieSettings)
        );
        let cookie_controls = matches!(page.map(|p| p.kind), Some(PageKind::CookieSettings));
        let tech_active = ctx.tech_message
            || self
                .tech_message_until
                .map(|until| self.clock.now() < until)
                .unwrap_or(false);
        let content = ScreenContent {
            signal: self.signal_ok_override.unwrap_or(ctx.signal_ok),
            tech_message: tech_active,
            surface,
            notice: self
                .notice
                .as_ref()
                .map(|ns| (ns.notice.branding, ns.layer)),
            policy,
            cookie_controls,
            privacy_pointer: page.map(|p| p.privacy_pointer).unwrap_or(false),
        };
        Some(Screenshot {
            channel: ctx.descriptor.id,
            taken_at: self.clock.now(),
            content,
        })
    }

    /// Whether a consent notice is currently displayed (and which layer).
    pub fn notice_layer(&self) -> Option<usize> {
        self.notice.as_ref().map(|n| n.layer)
    }

    /// Whether the viewer has granted full consent on this channel.
    pub fn consent_granted(&self) -> bool {
        self.consent_granted
    }

    // ----- internals -------------------------------------------------

    fn app_entry_url(&self) -> Option<&Url> {
        self.ctx
            .as_ref()
            .and_then(|c| c.app.as_ref())
            .map(|a| a.entry_url())
    }

    /// The `Referer` every app request carries: the serialized entry
    /// URL, written once per batch of loads rather than once per load.
    fn app_referer(&self) -> Option<String> {
        self.app_entry_url().map(Url::to_text)
    }

    fn page_ref(&self, id: PageId) -> Option<&AppPage> {
        self.ctx
            .as_ref()
            .and_then(|c| c.app.as_ref())
            .and_then(|a| a.page(id))
    }

    fn current_page_ref(&self) -> Option<&AppPage> {
        self.current_page.and_then(|id| self.page_ref(id))
    }

    fn open_page(&mut self, id: PageId) {
        self.open_page_inner(id, true);
    }

    fn open_page_inner(&mut self, id: PageId, replace_app: bool) {
        let Some(page) = self.page_ref(id).cloned() else {
            return;
        };
        // Opening a page via a color button replaces the running
        // application content; the previous page's beacons stop (this is
        // why the Blue run — which swaps the start bar for a privacy
        // page — carries so much less pixel traffic than General/Yellow
        // in Table III). In-page link navigation keeps them.
        if replace_app {
            self.beacons.clear();
        }
        self.current_page = Some(id);
        self.link_cursor = 0;
        self.tech_message_until = None;
        let referer = self.app_referer();

        // Storage writes happen as the page's script runs.
        if let Some(first_party) = self.app_entry_url().map(|u| u.etld1().clone()) {
            let now = self.clock.now();
            for w in &page.storage_writes {
                let value = match w.kind {
                    StorageValueKind::Identifier(len) => mint(&mut self.rng, len),
                    StorageValueKind::UnixTimestamp => now.as_unix().to_string(),
                    StorageValueKind::ConsentState => "pending".to_string(),
                };
                self.storage.set(&first_party, &w.key, &value);
            }
        }

        // One-shot resources fire now; beacons are scheduled.
        for load in page.resources.clone() {
            match load.repeat_every {
                None => self.fire_load(&load, referer.as_deref()),
                Some(interval) => {
                    self.fire_load(&load, referer.as_deref());
                    self.beacons.push(BeaconState {
                        next_due: self.clock.now() + interval,
                        load,
                    });
                }
            }
        }

        // Consent-gated loads fire immediately if consent was already
        // granted earlier on this channel.
        if self.consent_granted {
            for load in page.post_consent_resources.clone() {
                self.fire_load(&load, referer.as_deref());
            }
        }

        // The notice opens with its first layer and default focus.
        let suppress = self.ctx.as_ref().map(|c| c.suppress_notice) == Some(true);
        if !self.consent_granted {
            if let Some(notice) = page.notice.clone() {
                // Frequency capping only affects non-modal banners; a
                // modal notice gates the app and always appears.
                if suppress && !notice.modal {
                    return;
                }
                let focus = notice.first_layer().default_focus;
                self.notice = Some(NoticeState {
                    notice,
                    layer: 0,
                    focus,
                    shown_at: self.clock.now(),
                });
            }
        }
    }

    fn fire_load(&mut self, load: &ResourceLoad, referer: Option<&str>) {
        let req = self.build_request(load, referer);
        self.deliver(req, 0);
    }

    fn build_request(&self, load: &ResourceLoad, referer: Option<&str>) -> Request {
        let now = self.clock.now();
        let no_program = ProgramInfo::default();
        let (channel_name, program) = match &self.ctx {
            Some(c) => (c.descriptor.name.as_str(), &c.program),
            None => ("", &no_program),
        };
        let mut url = load.url.clone();
        let mut body_pairs: Vec<(String, String)> = Vec::new();
        for &item in load.leaks.items() {
            let value = match item {
                LeakItem::UserId => Some(
                    self.jar
                        .any_value_for(url.etld1(), now)
                        .unwrap_or_else(|| self.session_id.clone()),
                ),
                LeakItem::SessionId => Some(self.session_id.clone()),
                other => self.device.leak_value(other, program, channel_name, now),
            };
            if let Some(v) = value {
                match load.method {
                    Method::Get => url.push_param(item.param_name(), &v),
                    _ => body_pairs.push((item.param_name().to_string(), v)),
                }
            }
        }
        let cookie = self.jar.header_for(url.etld1(), now);
        let mut builder = match load.method {
            Method::Post => Request::post(url),
            _ => Request::get(url),
        };
        builder = builder.at(now).header("User-Agent", &self.device.os);
        if self.dnt {
            builder = builder.header("DNT", "1");
        }
        if let Some(r) = referer {
            builder = builder.header("Referer", r);
        }
        if let Some(cookie) = cookie {
            builder = builder.header("Cookie", &cookie);
        }
        if !body_pairs.is_empty() {
            let body: Vec<String> = body_pairs
                .into_iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            builder = builder.body(body.join("&"));
        }
        builder.build()
    }

    fn deliver(&mut self, req: Request, depth: usize) -> Response {
        let req_url = req.url.clone();
        let resp = self.backend.fetch(req);
        let now = self.clock.now();
        for sc in resp.set_cookies() {
            self.jar.apply(&sc, req_url.etld1(), now);
        }
        if depth < MAX_REDIRECTS && resp.status.is_redirect() {
            if let Some(location) = resp.location() {
                let mut builder = Request::get(location.clone())
                    .at(now)
                    .header("User-Agent", &self.device.os)
                    .header("Referer", &req_url.to_text());
                if let Some(cookie) = self.jar.header_for(location.etld1(), now) {
                    builder = builder.header("Cookie", &cookie);
                }
                self.deliver(builder.build(), depth + 1);
            }
        }
        resp
    }
}

fn step_clamped(pos: usize, delta: isize, len: usize) -> usize {
    if len == 0 {
        return 0;
    }
    let next = pos as isize + delta;
    next.clamp(0, len as isize - 1) as usize
}

fn mint(rng: &mut StdRng, len: usize) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
    (0..len)
        .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())] as char)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbbtv_apps::{AppBuilder, LeakSpec, ResourceKind};
    use hbbtv_broadcast::{AppControlCode, Satellite};
    use hbbtv_consent::{branding_catalog, NoticeBranding, OverlayKind};
    use hbbtv_net::{ContentType, Duration, SetCookie, Status};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A backend that logs requests and answers with a canned response.
    #[derive(Clone, Default)]
    struct LogBackend {
        log: Rc<RefCell<Vec<Request>>>,
        set_cookie_on: Option<String>,
    }

    impl NetworkBackend for LogBackend {
        fn fetch(&mut self, request: Request) -> Response {
            self.log.borrow_mut().push(request.clone());
            let mut b = Response::builder(Status::OK).content_type(ContentType::Html);
            if let Some(host) = &self.set_cookie_on {
                if request.url.host() == host {
                    b = b.set_cookie(&SetCookie::session("uid", "cookieval1234567"));
                }
            }
            b.build()
        }
    }

    fn url(s: &str) -> Url {
        s.parse().unwrap()
    }

    fn ait_for(entry: &str) -> Ait {
        let mut ait = Ait::new();
        ait.push(1, AppControlCode::Autostart, url(entry));
        ait
    }

    fn ctx_with_app(app: HbbtvApp) -> ChannelContext {
        ChannelContext {
            descriptor: ChannelDescriptor::tv(1, "RTL", Satellite::Astra19E),
            app: Some(app),
            program: ProgramInfo::new("GZSZ", "General"),
            signal_ok: true,
            tech_message: false,
            ctm_on_missing: false,
            suppress_notice: false,
        }
    }

    fn simple_app() -> HbbtvApp {
        AppBuilder::new(url("http://hbbtv.rtl.de/start"))
            .page(PageKind::AutostartBar, |p| {
                p.resource(ResourceLoad::get(
                    url("http://hbbtv.rtl.de/bar.js"),
                    ResourceKind::Script,
                ));
                p.resource(
                    ResourceLoad::get(url("http://tvping.com/ping"), ResourceKind::Image)
                        .leaking(LeakSpec::beacon_ids())
                        .repeating(Duration::from_secs(1)),
                );
            })
            .page(PageKind::MediaLibrary, |p| {
                p.privacy_pointer();
                p.link(PageId(2));
            })
            .page(PageKind::PrivacyPolicy, |p| {
                p.resource(ResourceLoad::get(
                    url("http://hbbtv.rtl.de/policy.html"),
                    ResourceKind::Document,
                ));
            })
            .autostart(0)
            .bind(ColorButton::Red, 1)
            .bind(ColorButton::Blue, 2)
            .build()
    }

    fn new_tv(backend: LogBackend) -> Tv<LogBackend> {
        let clock = SimClock::starting_at(Timestamp::from_unix(1_700_000_000));
        Tv::new(DeviceProfile::study_tv(), clock, backend, 99)
    }

    #[test]
    fn tune_loads_entry_and_autostart_resources() {
        let backend = LogBackend::default();
        let log = backend.log.clone();
        let mut tv = new_tv(backend);
        tv.tune(
            ctx_with_app(simple_app()),
            &ait_for("http://hbbtv.rtl.de/start"),
        );
        let urls: Vec<String> = log.borrow().iter().map(|r| r.url.to_string()).collect();
        assert!(urls[0].starts_with("http://hbbtv.rtl.de/start"));
        assert!(urls.iter().any(|u| u.contains("bar.js")));
        assert!(urls.iter().any(|u| u.contains("tvping.com")));
    }

    #[test]
    fn disconnected_tv_loads_nothing() {
        let backend = LogBackend::default();
        let log = backend.log.clone();
        let mut tv = new_tv(backend);
        tv.set_connected(false);
        tv.tune(
            ctx_with_app(simple_app()),
            &ait_for("http://hbbtv.rtl.de/start"),
        );
        assert!(log.borrow().is_empty());
        // Screenshot still shows the program.
        let shot = tv.screenshot().unwrap();
        assert!(shot.content.signal);
    }

    #[test]
    fn beacons_fire_on_advance_with_timestamps() {
        let backend = LogBackend::default();
        let log = backend.log.clone();
        let mut tv = new_tv(backend);
        tv.tune(
            ctx_with_app(simple_app()),
            &ait_for("http://hbbtv.rtl.de/start"),
        );
        let before = log.borrow().len();
        tv.advance(Duration::from_secs(10));
        let after = log.borrow().len();
        assert_eq!(after - before, 10, "one beacon per second");
        let pings: Vec<u64> = log
            .borrow()
            .iter()
            .filter(|r| r.url.host() == "tvping.com")
            .map(|r| r.timestamp.as_unix())
            .collect();
        // Strictly increasing timestamps.
        assert!(pings.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn beacon_leaks_channel_session_user_ids() {
        let backend = LogBackend::default();
        let log = backend.log.clone();
        let mut tv = new_tv(backend);
        tv.tune(
            ctx_with_app(simple_app()),
            &ait_for("http://hbbtv.rtl.de/start"),
        );
        let log_ref = log.borrow();
        let ping = log_ref
            .iter()
            .find(|r| r.url.host() == "tvping.com")
            .unwrap();
        assert_eq!(ping.url.query_param("ch"), Some("RTL"));
        assert!(ping.url.query_param("sid").unwrap().len() == 12);
        assert!(ping.url.query_param("uid").is_some());
    }

    #[test]
    fn red_button_opens_media_library_and_enter_navigates() {
        let backend = LogBackend::default();
        let mut tv = new_tv(backend);
        tv.tune(
            ctx_with_app(simple_app()),
            &ait_for("http://hbbtv.rtl.de/start"),
        );
        assert_eq!(
            hbbtv_consent::annotate(&tv.screenshot().unwrap().content).overlay,
            OverlayKind::TvOnly,
            "autostart bar alone shows the program"
        );
        tv.press(RcButton::Red);
        let shot = tv.screenshot().unwrap();
        let a = hbbtv_consent::annotate(&shot.content);
        assert_eq!(a.overlay, OverlayKind::MediaLibrary);
        assert!(a.privacy_pointer);
        // ENTER follows the library's link to the policy page.
        tv.press(RcButton::Enter);
        let a = hbbtv_consent::annotate(&tv.screenshot().unwrap().content);
        assert_eq!(a.overlay, OverlayKind::Privacy);
    }

    #[test]
    fn blue_button_shows_policy() {
        let backend = LogBackend::default();
        let log = backend.log.clone();
        let mut tv = new_tv(backend);
        tv.tune(
            ctx_with_app(simple_app()),
            &ait_for("http://hbbtv.rtl.de/start"),
        );
        tv.press(RcButton::Blue);
        let a = hbbtv_consent::annotate(&tv.screenshot().unwrap().content);
        assert_eq!(a.overlay, OverlayKind::Privacy);
        assert!(log
            .borrow()
            .iter()
            .any(|r| r.url.path().contains("policy.html")));
    }

    fn app_with_notice() -> HbbtvApp {
        AppBuilder::new(url("http://hbbtv.rtl.de/start"))
            .page(PageKind::AutostartBar, |p| {
                p.with_notice(branding_catalog(NoticeBranding::RtlGermany));
                p.post_consent_resource(ResourceLoad::get(
                    url("http://ads.adform.net/banner"),
                    ResourceKind::Image,
                ));
            })
            .autostart(0)
            .build()
    }

    #[test]
    fn notice_shows_and_enter_accepts_firing_gated_trackers() {
        let backend = LogBackend::default();
        let log = backend.log.clone();
        let mut tv = new_tv(backend);
        tv.tune(
            ctx_with_app(app_with_notice()),
            &ait_for("http://hbbtv.rtl.de/start"),
        );
        assert_eq!(tv.notice_layer(), Some(0));
        let a = hbbtv_consent::annotate(&tv.screenshot().unwrap().content);
        assert_eq!(a.overlay, OverlayKind::Privacy);
        assert!(!log.borrow().iter().any(|r| r.url.host().contains("adform")));
        // The cursor rests on Accept — a blind ENTER consents.
        tv.press(RcButton::Enter);
        assert!(tv.consent_granted());
        assert_eq!(tv.notice_layer(), None);
        assert!(log.borrow().iter().any(|r| r.url.host().contains("adform")));
    }

    #[test]
    fn navigating_to_settings_descends_layers() {
        let backend = LogBackend::default();
        let mut tv = new_tv(backend);
        tv.tune(
            ctx_with_app(app_with_notice()),
            &ait_for("http://hbbtv.rtl.de/start"),
        );
        // Move focus right to "Settings", then ENTER → layer 2.
        tv.press(RcButton::Right);
        tv.press(RcButton::Enter);
        assert_eq!(tv.notice_layer(), Some(1));
        assert!(!tv.consent_granted());
        // Move to SaveSelection and ENTER → dismissed, no full consent.
        tv.press(RcButton::Right);
        tv.press(RcButton::Enter);
        assert_eq!(tv.notice_layer(), None);
        assert!(!tv.consent_granted());
    }

    #[test]
    fn cursor_clamps_at_edges() {
        let backend = LogBackend::default();
        let mut tv = new_tv(backend);
        tv.tune(
            ctx_with_app(app_with_notice()),
            &ait_for("http://hbbtv.rtl.de/start"),
        );
        for _ in 0..5 {
            tv.press(RcButton::Left);
        }
        // Still on Accept (index 0) → ENTER consents.
        tv.press(RcButton::Enter);
        assert!(tv.consent_granted());
    }

    #[test]
    fn cookies_persist_across_tunes_but_wipe_clears() {
        let backend = LogBackend {
            set_cookie_on: Some("tvping.com".to_string()),
            ..LogBackend::default()
        };
        let log = backend.log.clone();
        let mut tv = new_tv(backend);
        tv.tune(
            ctx_with_app(simple_app()),
            &ait_for("http://hbbtv.rtl.de/start"),
        );
        assert_eq!(tv.cookie_jar().len(), 1);
        // Re-tune: the beacon now carries the cookie.
        tv.tune(
            ctx_with_app(simple_app()),
            &ait_for("http://hbbtv.rtl.de/start"),
        );
        let with_cookie = log
            .borrow()
            .iter()
            .filter(|r| r.url.host() == "tvping.com")
            .filter(|r| r.cookie_header().is_some())
            .count();
        assert!(with_cookie >= 1, "second visit sends the stored cookie");
        // uid leak now echoes the cookie value.
        let log_ref = log.borrow();
        let last_ping = log_ref
            .iter()
            .rev()
            .find(|r| r.url.host() == "tvping.com")
            .unwrap();
        assert_eq!(last_ping.url.query_param("uid"), Some("cookieval1234567"));
        drop(log_ref);
        tv.wipe_storage();
        assert!(tv.cookie_jar().is_empty());
    }

    #[test]
    fn redirects_are_followed_with_cookies() {
        #[derive(Clone, Default)]
        struct SyncBackend {
            log: Rc<RefCell<Vec<Request>>>,
        }
        impl NetworkBackend for SyncBackend {
            fn fetch(&mut self, request: Request) -> Response {
                self.log.borrow_mut().push(request.clone());
                if request.url.host() == "adsync-a.com" {
                    Response::builder(Status::FOUND)
                        .header("Location", "http://adsync-b.com/sync?uid=abcdef1234567890")
                        .build()
                } else {
                    Response::builder(Status::OK)
                        .set_cookie(&SetCookie::session("partner_uid", "abcdef1234567890"))
                        .build()
                }
            }
        }
        let backend = SyncBackend::default();
        let log = backend.log.clone();
        let app = AppBuilder::new(url("http://hbbtv.rtl.de/start"))
            .page(PageKind::AutostartBar, |p| {
                p.resource(ResourceLoad::get(
                    url("http://adsync-a.com/pix"),
                    ResourceKind::Image,
                ));
            })
            .autostart(0)
            .build();
        let clock = SimClock::starting_at(Timestamp::from_unix(1_700_000_000));
        let mut tv = Tv::new(DeviceProfile::study_tv(), clock, backend, 1);
        tv.tune(ctx_with_app(app), &ait_for("http://hbbtv.rtl.de/start"));
        let urls: Vec<String> = log.borrow().iter().map(|r| r.url.to_string()).collect();
        assert!(urls.iter().any(|u| u.contains("adsync-b.com/sync?uid=")));
        // The partner's cookie landed in the jar under the partner domain.
        assert!(tv
            .cookie_jar()
            .all()
            .any(|c| c.cookie.domain.as_str() == "adsync-b.com"));
    }

    #[test]
    fn storage_writes_recorded_under_first_party() {
        let app = AppBuilder::new(url("http://hbbtv.rtl.de/start"))
            .page(PageKind::AutostartBar, |p| {
                p.store(hbbtv_apps::StorageWrite::new(
                    "consent_ts",
                    StorageValueKind::UnixTimestamp,
                ));
                p.store(hbbtv_apps::StorageWrite::new(
                    "device_id",
                    StorageValueKind::Identifier(16),
                ));
            })
            .autostart(0)
            .build();
        let backend = LogBackend::default();
        let mut tv = new_tv(backend);
        tv.tune(ctx_with_app(app), &ait_for("http://hbbtv.rtl.de/start"));
        assert_eq!(tv.local_storage().len(), 2);
        let d = hbbtv_net::Etld1::new("rtl.de");
        assert_eq!(
            tv.local_storage().get(&d, "consent_ts").unwrap(),
            "1700000000"
        );
        assert_eq!(tv.local_storage().get(&d, "device_id").unwrap().len(), 16);
    }

    #[test]
    fn power_off_stops_beacons_keeps_cookies() {
        let backend = LogBackend {
            set_cookie_on: Some("tvping.com".to_string()),
            ..LogBackend::default()
        };
        let log = backend.log.clone();
        let mut tv = new_tv(backend);
        tv.tune(
            ctx_with_app(simple_app()),
            &ait_for("http://hbbtv.rtl.de/start"),
        );
        tv.power_off();
        let before = log.borrow().len();
        tv.advance(Duration::from_secs(30));
        assert_eq!(log.borrow().len(), before, "no traffic after power-off");
        assert_eq!(tv.cookie_jar().len(), 1);
        assert!(tv.screenshot().is_none());
    }

    #[test]
    fn channel_without_app_produces_no_traffic() {
        let backend = LogBackend::default();
        let log = backend.log.clone();
        let mut tv = new_tv(backend);
        let ctx = ChannelContext {
            descriptor: ChannelDescriptor::tv(9, "Testbild", Satellite::Eutelsat16E),
            app: None,
            program: ProgramInfo::default(),
            signal_ok: true,
            tech_message: false,
            ctm_on_missing: false,
            suppress_notice: false,
        };
        tv.tune(ctx, &Ait::new());
        tv.advance(Duration::from_secs(60));
        assert!(log.borrow().is_empty());
        let a = hbbtv_consent::annotate(&tv.screenshot().unwrap().content);
        assert_eq!(a.overlay, OverlayKind::TvOnly);
    }

    #[test]
    fn dnt_header_is_sent_but_changes_nothing() {
        // The Tagliaro et al. approach: a DNT signal. Trackers ignore it.
        let run = |dnt: bool| {
            let backend = LogBackend {
                set_cookie_on: Some("tvping.com".to_string()),
                ..LogBackend::default()
            };
            let log = backend.log.clone();
            let mut tv = new_tv(backend);
            tv.set_dnt(dnt);
            tv.tune(
                ctx_with_app(simple_app()),
                &ait_for("http://hbbtv.rtl.de/start"),
            );
            tv.advance(Duration::from_secs(30));
            let requests = log.borrow().len();
            let dnt_headers = log
                .borrow()
                .iter()
                .filter(|r| r.headers.get("DNT") == Some("1"))
                .count();
            (requests, dnt_headers, tv.cookie_jar().len())
        };
        let (req_off, dnt_off, cookies_off) = run(false);
        let (req_on, dnt_on, cookies_on) = run(true);
        assert_eq!(dnt_off, 0);
        assert_eq!(dnt_on, req_on, "every request carries the signal");
        assert_eq!(req_on, req_off, "tracking volume is unchanged");
        assert_eq!(cookies_on, cookies_off, "cookies are set regardless");
    }

    #[test]
    fn metadata_api_exposes_channel_and_program() {
        let backend = LogBackend::default();
        let mut tv = new_tv(backend);
        assert!(tv.channel_metadata().is_none());
        tv.tune(
            ctx_with_app(simple_app()),
            &ait_for("http://hbbtv.rtl.de/start"),
        );
        let (desc, program) = tv.channel_metadata().unwrap();
        assert_eq!(desc.name, "RTL");
        assert_eq!(program.show_title, "GZSZ");
    }

    #[test]
    fn burst_beacons_multiply_requests() {
        let app = AppBuilder::new(url("http://hbbtv.mon.de/start"))
            .page(PageKind::AutostartBar, |p| {
                p.resource(
                    ResourceLoad::get(url("http://tvping.com/ping"), ResourceKind::Image)
                        .repeating(Duration::from_secs(1))
                        .bursting(3),
                );
            })
            .autostart(0)
            .build();
        let backend = LogBackend::default();
        let log = backend.log.clone();
        let mut tv = new_tv(backend);
        tv.tune(ctx_with_app(app), &ait_for("http://hbbtv.mon.de/start"));
        let before = log.borrow().len();
        tv.advance(Duration::from_secs(5));
        assert_eq!(log.borrow().len() - before, 15, "3 per tick x 5 ticks");
    }
}
