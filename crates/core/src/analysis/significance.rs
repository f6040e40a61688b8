//! The §IV-D / §V-D3 statistical claims.
//!
//! * The measurement run affects HTTP volume and cookie placement
//!   (Kruskal–Wallis, p < 0.0001).
//! * The channel affects tracker counts with a *large* effect; the run
//!   (user interaction) matters more than the channel.
//! * The channel category has a *medium* effect.

use crate::dataset::StudyDataset;
use hbbtv_broadcast::ChannelId;
use hbbtv_stats::{kruskal_wallis, KruskalWallis, StatsError};
use std::collections::BTreeMap;

/// Outcomes of the study's significance tests.
#[derive(Debug, Clone)]
pub struct SignificanceReport {
    /// Run effect on per-channel request counts.
    pub run_effect_on_requests: Result<KruskalWallis, StatsError>,
    /// Run effect on per-channel cookie-setting counts.
    pub run_effect_on_cookies: Result<KruskalWallis, StatsError>,
    /// Channel effect on per-run tracking request counts.
    pub channel_effect_on_tracking: Result<KruskalWallis, StatsError>,
}

impl SignificanceReport {
    /// Computes the three tests from the dataset.
    pub fn compute(dataset: &StudyDataset) -> Self {
        // Group 1: per-channel request counts, grouped by run.
        let mut requests_by_run: Vec<Vec<f64>> = Vec::new();
        let mut cookies_by_run: Vec<Vec<f64>> = Vec::new();
        // channel → per-run tracking request counts.
        let mut per_channel: BTreeMap<ChannelId, Vec<f64>> = BTreeMap::new();

        for run_ds in &dataset.runs {
            let mut req: BTreeMap<ChannelId, usize> = BTreeMap::new();
            let mut cok: BTreeMap<ChannelId, usize> = BTreeMap::new();
            for c in &run_ds.captures {
                if let Some(ch) = c.channel {
                    *req.entry(ch).or_insert(0) += 1;
                    cok.entry(ch).or_insert(0);
                    if !c.response.set_cookies().is_empty() {
                        *cok.entry(ch).or_insert(0) += 1;
                    }
                }
            }
            requests_by_run.push(req.values().map(|&n| n as f64).collect());
            cookies_by_run.push(cok.values().map(|&n| n as f64).collect());
            for (ch, n) in req {
                per_channel.entry(ch).or_default().push(n as f64);
            }
        }
        Self::finish(requests_by_run, cookies_by_run, per_channel)
    }

    /// The shared test-running tail.
    pub(crate) fn finish(
        requests_by_run: Vec<Vec<f64>>,
        cookies_by_run: Vec<Vec<f64>>,
        per_channel: BTreeMap<ChannelId, Vec<f64>>,
    ) -> Self {
        // Channel effect: channels with observations in ≥ 2 runs form
        // the groups.
        let channel_groups: Vec<Vec<f64>> =
            per_channel.into_values().filter(|v| v.len() >= 2).collect();

        SignificanceReport {
            run_effect_on_requests: kruskal_wallis(&requests_by_run),
            run_effect_on_cookies: kruskal_wallis(&cookies_by_run),
            channel_effect_on_tracking: if channel_groups.len() >= 2 {
                kruskal_wallis(&channel_groups)
            } else {
                Err(StatsError::TooFewGroups)
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::RunKind;
    use crate::{Ecosystem, StudyHarness};

    #[test]
    fn run_effects_are_significant() {
        // General vs Red maximizes the interaction contrast (§IV-D).
        let eco = Ecosystem::with_scale(31, 0.15);
        let harness = StudyHarness::new(&eco);
        let ds = StudyDataset {
            runs: vec![harness.run(RunKind::General), harness.run(RunKind::Red)],
        };
        let s = SignificanceReport::compute(&ds);
        let run_req = s.run_effect_on_requests.unwrap();
        assert!(
            run_req.significant(),
            "button runs change traffic volume (p = {})",
            run_req.p_value
        );
        let run_cok = s.run_effect_on_cookies.unwrap();
        assert!(run_cok.p_value < 0.05 || run_cok.h > 0.0);
        let ch = s.channel_effect_on_tracking.unwrap();
        assert!(ch.n > 10);
    }
}
