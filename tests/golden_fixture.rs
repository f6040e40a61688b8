//! The hand-built golden study dataset, shared between the
//! serialization suite (which pins its JSON bytes in
//! `tests/golden/study_dataset.json`) and the ingest suite (which pins
//! its frame transcript in `tests/golden/ingest_session.bin`). Include
//! it with `#[path = "golden_fixture.rs"] mod golden_fixture;`.
//!
//! It covers every field of the wire format: visit tags (including one
//! capture whose tag differs from the visit slice that ships it),
//! cookies, local storage, screenshots, and consent outcomes. No RNG
//! anywhere, so the serialized bytes are stable across platforms and
//! toolchains.

use hbbtv_broadcast::ChannelId;
use hbbtv_consent::ScreenContent;
use hbbtv_net::{ContentType, Cookie, Etld1, Request, Response, Status, Timestamp};
use hbbtv_proxy::{VisitId, VisitLog};
use hbbtv_study::{RunDataset, RunKind, StudyDataset, VisitSummary};
use hbbtv_tv::{Screenshot, StoredCookie};
use std::collections::BTreeMap;

/// Builds the golden dataset: one `General` run, two visits, four
/// captures (one tagged with the visit before the slice that ships it).
pub fn golden_fixture() -> StudyDataset {
    let log = |id, channel, name, opened| {
        VisitLog::open(
            "General",
            VisitId(id),
            ChannelId(channel),
            name,
            Timestamp::from_unix(opened),
            None,
        )
    };

    // Visit 0: ARD Eins. Two exchanges, one setting a cookie.
    let mut ard = log(0, 1, "ARD Eins", 100);
    ard.record(
        Request::get("http://app.ard-eins.de/index.html".parse().unwrap())
            .at(Timestamp::from_unix(110))
            .build(),
        Response::builder(Status::OK)
            .content_type(ContentType::Html)
            .body("<html>ARD</html>")
            .build(),
    );
    ard.record(
        Request::get(
            "https://tracker.example.de/pixel.gif?uid=u-4711"
                .parse()
                .unwrap(),
        )
        .at(Timestamp::from_unix(150))
        .build(),
        Response::builder(Status::OK)
            .content_type(ContentType::Image)
            .body_len(43)
            .build(),
    );

    // A late beacon of ARD's app, 3 s after the switch to RTL Zwei,
    // referring back to ARD's app and tagged visit 0 (inside visit 0's
    // window). The summaries below count it in visit 1's slice: the
    // wire format carries a capture's tag apart from the slice that
    // ships it, and ingest must keep both as they are.
    ard.record(
        Request::get("https://late.example.de/beacon".parse().unwrap())
            .header("Referer", "http://app.ard-eins.de/index.html")
            .at(Timestamp::from_unix(1003))
            .build(),
        Response::builder(Status::OK)
            .content_type(ContentType::Other)
            .build(),
    );

    // Visit 1: RTL Zwei, ordinary visit-1 traffic.
    let mut rtl = log(1, 2, "RTL Zwei", 1000);
    rtl.record(
        Request::get("http://app.rtl-zwei.de/start.html".parse().unwrap())
            .at(Timestamp::from_unix(1020))
            .build(),
        Response::builder(Status::OK)
            .content_type(ContentType::Html)
            .body("<html>RTL</html>")
            .build(),
    );

    let run = RunDataset {
        run: RunKind::General,
        channels_measured: vec![ChannelId(1), ChannelId(2)],
        channel_names: BTreeMap::from([
            (ChannelId(1), "ARD Eins".to_string()),
            (ChannelId(2), "RTL Zwei".to_string()),
        ]),
        visits: vec![
            VisitSummary {
                visit: VisitId(0),
                channel: ChannelId(1),
                opened: Timestamp::from_unix(100),
                captures: 2,
            },
            VisitSummary {
                visit: VisitId(1),
                channel: ChannelId(2),
                opened: Timestamp::from_unix(1000),
                captures: 2,
            },
        ],
        captures: [ard.into_captures(), rtl.into_captures()].concat(),
        cookies: vec![StoredCookie {
            cookie: Cookie::new("uid", "u-4711", Etld1::from_host("tracker.example.de")),
            expires: Some(Timestamp::from_unix(86_550)),
            created: Timestamp::from_unix(150),
            updated: Timestamp::from_unix(150),
        }],
        local_storage: vec![(
            "app.ard-eins.de".to_string(),
            "deviceId".to_string(),
            "d-0815".to_string(),
        )],
        screenshots: vec![Screenshot {
            channel: ChannelId(1),
            taken_at: Timestamp::from_unix(110),
            content: ScreenContent::tv_only(),
        }],
        interactions: 2,
        consented_channels: vec![ChannelId(1)],
    };
    StudyDataset { runs: vec![run] }
}
