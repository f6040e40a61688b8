//! Captured datasets (the BigQuery upload of the physical study).

use crate::run::RunKind;
use hbbtv_broadcast::ChannelId;
use hbbtv_net::Timestamp;
use hbbtv_proxy::{CapturedExchange, VisitId};
use hbbtv_tv::{Screenshot, StoredCookie};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One channel visit of a run: the unit of capture attribution and of
/// channel-parallel execution. Visits appear in canonical (shuffled)
/// protocol order; `visit` ids are their sequence numbers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VisitSummary {
    /// The visit's id (its position in the run's channel order).
    pub visit: VisitId,
    /// The channel visited.
    pub channel: ChannelId,
    /// When the visit opened on the run's simulated clock.
    pub opened: Timestamp,
    /// Number of exchanges the visit recorded: the length of its slice
    /// of the run's capture log, tagged or not.
    pub captures: usize,
}

/// Everything one measurement run produced.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunDataset {
    /// Which run this is.
    pub run: RunKind,
    /// Channels actually measured (available at their slot).
    pub channels_measured: Vec<ChannelId>,
    /// Channel names by id, for reporting.
    pub channel_names: BTreeMap<ChannelId, String>,
    /// Per-visit summaries, in protocol order.
    pub visits: Vec<VisitSummary>,
    /// All captured HTTP(S) exchanges.
    pub captures: Vec<CapturedExchange>,
    /// The cookie jar extracted after the run (then wiped).
    pub cookies: Vec<StoredCookie>,
    /// Local-storage objects extracted after the run: (origin, key,
    /// value).
    pub local_storage: Vec<(String, String, String)>,
    /// All screenshots taken during the run.
    pub screenshots: Vec<Screenshot>,
    /// Remote-control interactions performed (channel switches and key
    /// presses; the study logged over 75k across all runs).
    pub interactions: usize,
    /// Channels on which the (blind) interaction sequence ended up
    /// granting full consent — the measurable outcome of the §VI
    /// default-focus-on-Accept nudge.
    pub consented_channels: Vec<ChannelId>,
}

/// `(HTTP requests, HTTPS requests, HTTPS share in percent)` of
/// `total` requests of which `https` used HTTPS.
pub(crate) fn protocol_split(total: usize, https: usize) -> (usize, usize, f64) {
    let share = if total == 0 {
        0.0
    } else {
        https as f64 / total as f64 * 100.0
    };
    (total - https, https, share)
}

impl RunDataset {
    /// `(HTTP requests, HTTPS requests, HTTPS share in percent of all
    /// requests)`, from one walk over the captures.
    pub fn protocol_split(&self) -> (usize, usize, f64) {
        let https = self.captures.iter().filter(|c| c.is_https()).count();
        protocol_split(self.captures.len(), https)
    }

    /// Captures attributed to each channel — the per-channel traffic
    /// slices every downstream analysis is computed over.
    pub fn per_channel_capture_counts(&self) -> BTreeMap<ChannelId, usize> {
        let mut counts = BTreeMap::new();
        for c in &self.captures {
            if let Some(ch) = c.channel {
                *counts.entry(ch).or_insert(0) += 1;
            }
        }
        counts
    }

    /// Captures attributed to each visit.
    pub fn per_visit_capture_counts(&self) -> BTreeMap<VisitId, usize> {
        let mut counts = BTreeMap::new();
        for c in &self.captures {
            if let Some(v) = c.visit {
                *counts.entry(v).or_insert(0) += 1;
            }
        }
        counts
    }
}

/// The complete study: all five runs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StudyDataset {
    /// Per-run datasets, in Table I order.
    pub runs: Vec<RunDataset>,
}

impl StudyDataset {
    /// Looks up one run's dataset.
    pub fn run(&self, kind: RunKind) -> Option<&RunDataset> {
        self.runs.iter().find(|r| r.run == kind)
    }

    /// All captures across runs.
    pub fn all_captures(&self) -> impl Iterator<Item = &CapturedExchange> {
        self.runs.iter().flat_map(|r| r.captures.iter())
    }

    /// Total requests captured (457,492 in the paper).
    pub fn total_requests(&self) -> usize {
        self.runs.iter().map(|r| r.captures.len()).sum()
    }

    /// Hours of television watched.
    pub fn hours_watched(&self) -> f64 {
        self.runs
            .iter()
            .map(|r| r.channels_measured.len() as f64 * r.run.watch_time().as_secs() as f64)
            .sum::<f64>()
            / 3600.0
    }

    /// [`RunDataset::protocol_split`] of every run, in run order.
    pub fn protocol_splits(&self) -> Vec<(usize, usize, f64)> {
        self.runs.iter().map(RunDataset::protocol_split).collect()
    }

    /// Total screenshots (41,617 in the paper).
    pub fn total_screenshots(&self) -> usize {
        self.runs.iter().map(|r| r.screenshots.len()).sum()
    }

    /// Total remote-control interactions (over 75k in the paper).
    pub fn total_interactions(&self) -> usize {
        self.runs.iter().map(|r| r.interactions).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbbtv_net::{Request, Response, Status, Timestamp};

    fn capture(https: bool) -> CapturedExchange {
        let url = if https {
            "https://x.de/a"
        } else {
            "http://x.de/a"
        };
        CapturedExchange {
            session: "General".into(),
            visit: Some(VisitId(0)),
            channel: Some(ChannelId(1)),
            channel_name: Some("X".into()),
            request: Request::get(url.parse().unwrap())
                .at(Timestamp::from_unix(1))
                .build(),
            response: Response::builder(Status::OK).build(),
        }
    }

    fn dataset(https: usize, http: usize) -> RunDataset {
        RunDataset {
            run: RunKind::General,
            channels_measured: vec![ChannelId(1)],
            channel_names: BTreeMap::new(),
            visits: vec![],
            captures: (0..https)
                .map(|_| capture(true))
                .chain((0..http).map(|_| capture(false)))
                .collect(),
            cookies: vec![],
            local_storage: vec![],
            screenshots: vec![],
            interactions: 0,
            consented_channels: vec![],
        }
    }

    #[test]
    fn https_share() {
        let (http, https, share) = dataset(1, 99).protocol_split();
        assert_eq!(https, 1);
        assert_eq!(http, 99);
        assert!((share - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_dataset_share_is_zero() {
        assert_eq!(dataset(0, 0).protocol_split(), (0, 0, 0.0));
    }

    #[test]
    fn per_channel_and_per_visit_counts() {
        let d = dataset(2, 3);
        assert_eq!(d.per_channel_capture_counts()[&ChannelId(1)], 5);
        assert_eq!(d.per_visit_capture_counts()[&VisitId(0)], 5);
        let mut with_unattributed = dataset(1, 0);
        with_unattributed.captures.push(CapturedExchange {
            channel: None,
            visit: None,
            ..capture(false)
        });
        assert_eq!(with_unattributed.per_channel_capture_counts().len(), 1);
        assert_eq!(
            with_unattributed
                .per_visit_capture_counts()
                .values()
                .sum::<usize>(),
            1,
            "unattributed captures count toward no visit"
        );
    }

    #[test]
    fn study_aggregates() {
        let study = StudyDataset {
            runs: vec![dataset(2, 8)],
        };
        assert_eq!(study.total_requests(), 10);
        assert!(study.run(RunKind::General).is_some());
        assert!(study.run(RunKind::Red).is_none());
        assert!((study.hours_watched() - 0.25).abs() < 1e-9);
        assert_eq!(study.all_captures().count(), 10);
    }
}
