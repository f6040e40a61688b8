//! Property-based tests for channel attribution.

use hbbtv_broadcast::ChannelId;
use hbbtv_net::{Request, Response, Status, Timestamp};
use hbbtv_proxy::{VisitId, VisitLog};
use proptest::prelude::*;

const T0: u64 = 1_700_000_000;

fn ok() -> Response {
    Response::builder(Status::OK).build()
}

fn open(channel: ChannelId, name: &str) -> VisitLog {
    VisitLog::open(
        "t",
        VisitId(0),
        channel,
        name,
        Timestamp::from_unix(T0),
        None,
    )
}

proptest! {
    /// Requests inside a visit's watch window are attributed to its
    /// channel; requests from before the visit opened are not.
    #[test]
    fn attribution_respects_the_active_window(
        offsets in prop::collection::vec(0u64..900, 1..40),
    ) {
        let mut log = open(ChannelId(9), "Ch9");
        // Traffic from before the switch stays unattributed.
        log.record(
            Request::get("http://boot.de/x".parse().unwrap())
                .at(Timestamp::from_unix(T0 - 5))
                .build(),
            ok(),
        );
        for &o in &offsets {
            log.record(
                Request::get("http://hbbtv-ch9.de/r".parse().unwrap())
                    .at(Timestamp::from_unix(T0 + o))
                    .build(),
                ok(),
            );
        }
        let log = log.into_captures();
        prop_assert_eq!(log[0].channel, None);
        for c in &log[1..] {
            prop_assert_eq!(c.channel, Some(ChannelId(9)));
            prop_assert_eq!(c.channel_name.as_deref(), Some("Ch9"));
        }
    }

    /// The capture log preserves order and count, whatever arrives.
    #[test]
    fn capture_log_is_lossless(
        hosts in prop::collection::vec("[a-z]{3,8}", 1..30),
    ) {
        let mut log = open(ChannelId(1), "A");
        for (i, h) in hosts.iter().enumerate() {
            log.record(
                Request::get(format!("http://{h}.de/{i}").parse().unwrap())
                    .at(Timestamp::from_unix(T0 + i as u64))
                    .build(),
                ok(),
            );
        }
        let log = log.into_captures();
        prop_assert_eq!(log.len(), hosts.len());
        for (i, (c, h)) in log.iter().zip(hosts.iter()).enumerate() {
            prop_assert_eq!(c.request.url.host(), format!("{h}.de"));
            prop_assert_eq!(c.request.url.path(), format!("/{i}"));
        }
    }
}
