//! Property-based tests over the ecosystem generator and harness.

use hbbtv_study::{Ecosystem, RunKind, StudyHarness};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// World generation is total and structurally sound for any seed and
    /// sane scale.
    #[test]
    fn ecosystem_generation_is_total(seed in 0u64..1_000_000, scale_pct in 3u32..12) {
        let scale = scale_pct as f64 / 100.0;
        let eco = Ecosystem::with_scale(seed, scale);
        prop_assert!(!eco.final_channels().is_empty());
        prop_assert!(eco.lineup().len() > eco.final_channels().len());
        // Every final channel has a blueprint with an app and an AIT
        // that signals HbbTV.
        for &id in eco.final_channels() {
            let bp = eco.blueprint(id).expect("blueprint exists");
            prop_assert!(bp.app.is_some());
            prop_assert!(bp.ait.signals_hbbtv());
            prop_assert!(!bp.plan.name.is_empty());
        }
        // The funnel is internally consistent.
        let (funnel, finals) = eco.lineup().funnel(|_, ait| ait.signals_hbbtv());
        prop_assert_eq!(funnel.final_set, finals.len());
        prop_assert_eq!(funnel.received, eco.lineup().len());
        prop_assert_eq!(
            funnel.tv_channels + funnel.radio,
            funnel.received
        );
        prop_assert!(funnel.free_to_air <= funnel.tv_channels);
        prop_assert!(funnel.candidates <= funnel.free_to_air);
        prop_assert_eq!(
            funnel.final_set + funnel.no_traffic + funnel.iptv,
            funnel.candidates
        );
    }

    /// Off-air sets are always drawn from the final set and never make a
    /// run empty.
    #[test]
    fn off_air_sets_are_sane(seed in 0u64..100_000) {
        let eco = Ecosystem::with_scale(seed, 0.06);
        let finals: std::collections::BTreeSet<_> =
            eco.final_channels().iter().copied().collect();
        for run in RunKind::ALL {
            let off = eco.off_air(run);
            prop_assert!(off.len() < finals.len(), "{run} would measure nothing");
            for id in off {
                prop_assert!(finals.contains(id));
            }
        }
    }

    /// A measurement run never attributes traffic to a channel it did
    /// not measure, and session labels always match the run.
    #[test]
    fn run_attribution_is_consistent(seed in 0u64..10_000) {
        let eco = Ecosystem::with_scale(seed, 0.05);
        let harness = StudyHarness::new(&eco);
        let ds = harness.run(RunKind::Red);
        let measured: std::collections::BTreeSet<_> =
            ds.channels_measured.iter().copied().collect();
        for capture in &ds.captures {
            prop_assert_eq!(&*capture.session, "Red");
            if let Some(ch) = capture.channel {
                prop_assert!(measured.contains(&ch), "attributed to unmeasured {ch}");
            }
        }
        // Screenshots come only from measured channels.
        for shot in &ds.screenshots {
            prop_assert!(measured.contains(&shot.channel));
        }
        // Interactions: at least one switch per channel; in a button run
        // also 11 presses per channel.
        prop_assert_eq!(ds.interactions, ds.channels_measured.len() * 12);
    }
}
