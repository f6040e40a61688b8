//! Drive a consent notice with the remote control, the way §VI's
//! nudging analysis describes: the cursor starts on "Accept", and what
//! the viewer presses decides which trackers load.
//!
//! ```text
//! cargo run -p hbbtv-study --example consent_walkthrough
//! ```

use hbbtv_broadcast::{Ait, AppControlCode, ChannelDescriptor, Network, Satellite};
use hbbtv_consent::{analyze_nudging, annotate, branding_catalog, NoticeBranding};
use hbbtv_net::{Request, Response, SimClock, Status, Timestamp};
use hbbtv_study::ecosystem::apps_gen::{build_app, HostPlan};
use hbbtv_study::ecosystem::channels::{slugify, ButtonContent, ChannelKnobs, ChannelPlan};
use hbbtv_tv::{ChannelContext, DeviceProfile, NetworkBackend, ProgramInfo, RcButton, Tv};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// A backend that just logs requested hosts.
#[derive(Clone, Default)]
struct LogBackend(Rc<RefCell<Vec<String>>>);

impl NetworkBackend for LogBackend {
    fn fetch(&mut self, request: Request, on_response: impl FnOnce(&Request, &Response)) {
        on_response(&request, &Response::builder(Status::OK).build());
        self.0.borrow_mut().push(request.url.host().to_string());
    }
}

fn main() {
    // A channel whose autostart app shows the RTL-style notice and loads
    // ad-tech only after consent.
    let knobs = ChannelKnobs {
        notice: Some(NoticeBranding::RtlGermany),
        ads_in_library: true,
        red: ButtonContent::MediaLibrary,
        ..ChannelKnobs::default()
    };
    let plan = ChannelPlan {
        name: "Demo TV".into(),
        slug: slugify("Demo TV"),
        network: Network::RtlGermany,
        category: hbbtv_broadcast::ChannelCategory::General,
        language: hbbtv_broadcast::Language::German,
        satellite: Satellite::Astra19E,
        knobs,
        policy_group: None,
    };
    let hosts = HostPlan::for_hub("hbbtv.rtl-hbbtv.de");
    let app = build_app(&plan, &hosts);

    // First, what does the notice itself look like?
    let notice = branding_catalog(NoticeBranding::RtlGermany);
    let nudge = analyze_nudging(&notice);
    println!("notice: {}", notice.branding);
    println!(
        "  default focus on accept: {}",
        nudge.default_focus_on_accept
    );
    println!(
        "  decline requires deeper layer: {}",
        nudge.decline_requires_deeper_layer
    );
    println!("  dark-pattern score: {}/5\n", nudge.score());

    // Tune in.
    let backend = LogBackend::default();
    let log = backend.0.clone();
    let clock = SimClock::starting_at(Timestamp::MEASUREMENT_START);
    let mut tv = Tv::new(DeviceProfile::study_tv(), clock, backend, 7);
    let mut ait = Ait::new();
    ait.push(1, AppControlCode::Autostart, app.entry_url().clone());
    let ctx = ChannelContext {
        descriptor: ChannelDescriptor::tv(1, "Demo TV", Satellite::Astra19E),
        app: Some(Arc::new(app)),
        program: ProgramInfo::new("Abendshow", "Entertainment"),
        signal_ok: true,
        tech_message: false,
        ctm_on_missing: false,
        suppress_notice: false,
    };
    tv.tune(ctx, &ait);

    let screen = tv.screenshot().expect("tuned");
    let a = annotate(&screen.content);
    println!("on tune-in the screen shows: {}", a.overlay);
    println!("requests so far: {:?}\n", log.borrow().clone());

    // The viewer just presses OK — the cursor is on Accept.
    println!("viewer presses ENTER (cursor rests on 'Alle akzeptieren') ...");
    tv.press(RcButton::Enter);
    println!("consent granted: {}", tv.consent_granted());
    let after: Vec<String> = log.borrow().clone();
    let ad_hosts: Vec<&String> = after.iter().filter(|h| h.contains("ads.")).collect();
    println!("consent-gated ad-tech that loaded: {ad_hosts:?}");
}
