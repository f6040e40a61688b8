//! Dataset serialization: the physical study pushed every run's data to
//! BigQuery as JSON; our datasets must survive the same round trip, and
//! the wire format itself is pinned by a golden snapshot.

use hbbtv_broadcast::ChannelId;
use hbbtv_policies::sha1_hex;
use hbbtv_proxy::VisitId;
use hbbtv_study::{Ecosystem, RunDataset, RunKind, StudyDataset, StudyHarness};

#[path = "golden_fixture.rs"]
mod golden_fixture;
use golden_fixture::golden_fixture;

#[test]
fn run_dataset_round_trips_through_json() {
    let eco = Ecosystem::with_scale(77, 0.05);
    let harness = StudyHarness::new(&eco);
    let original = harness.run(RunKind::General);

    let json = serde_json::to_string(&original).expect("serializes");
    assert!(json.len() > 10_000, "a real dataset is substantial");
    let back: RunDataset = serde_json::from_str(&json).expect("deserializes");

    assert_eq!(back.run, original.run);
    assert_eq!(back.channels_measured, original.channels_measured);
    assert_eq!(back.visits, original.visits);
    assert_eq!(back.captures.len(), original.captures.len());
    assert_eq!(back.cookies.len(), original.cookies.len());
    assert_eq!(back.screenshots.len(), original.screenshots.len());
    // Spot-check full fidelity on the first capture.
    assert_eq!(back.captures[0], original.captures[0]);
}

/// Golden snapshot of the BigQuery-bound wire format. The fixture
/// itself lives in `tests/golden_fixture.rs`, shared with the ingest
/// suite's frame-transcript snapshot. A diff here means
/// the serialization changed: either fix the regression or, for an
/// intentional format change, regenerate the snapshot by running the
/// test with `BLESS_GOLDEN=1` and review the diff.
#[test]
fn study_dataset_wire_format_matches_golden_snapshot() {
    let fixture = golden_fixture();

    // The late beacon carries visit 0's tag, everything else its own
    // visit's.
    let captures = &fixture.runs[0].captures;
    assert_eq!(captures.len(), 4);
    assert_eq!(captures[0].visit, Some(VisitId(0)));
    assert_eq!(captures[1].visit, Some(VisitId(0)));
    assert_eq!(captures[2].visit, Some(VisitId(0)));
    assert_eq!(captures[2].channel, Some(ChannelId(1)));
    assert_eq!(captures[3].visit, Some(VisitId(1)));

    let json = serde_json::to_string(&fixture).expect("serializes");
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/study_dataset.json"
    );
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(path, format!("{json}\n")).expect("writes golden");
    }
    let golden = std::fs::read_to_string(path).expect("golden snapshot exists");
    assert_eq!(
        json,
        golden.trim_end(),
        "StudyDataset wire format diverged from tests/golden/study_dataset.json"
    );

    // Round trip: the pinned bytes deserialize back to the same data.
    let back: StudyDataset = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(back.runs[0].captures, fixture.runs[0].captures);
    assert_eq!(back.runs[0].visits, fixture.runs[0].visits);
    assert_eq!(back.runs[0].cookies, fixture.runs[0].cookies);

    // Content fingerprint, for quick comparison across machines.
    let digest = sha1_hex(golden.trim_end().as_bytes());
    assert_eq!(digest.len(), 40);
}

#[test]
fn captured_urls_survive_json_as_strings() {
    let eco = Ecosystem::with_scale(77, 0.05);
    let harness = StudyHarness::new(&eco);
    let ds = harness.run(RunKind::General);
    let json = serde_json::to_value(&ds.captures[0]).unwrap();
    // URLs serialize structurally (host/path/query preserved).
    let host = json["request"]["url"]["host"].as_str().unwrap();
    assert!(!host.is_empty());
}
