//! Property-based incrementality: random epoch boundaries must never
//! change a single rendered byte.
//!
//! The incremental engine's contract is *epoch-by-epoch == one-shot ==
//! naive, byte-for-byte, at every step*. The one-shot
//! `StudyReport::compute` seals one epoch per run, so it reaches the
//! same fold through different epoch boundaries and invalidations. These properties drive it with
//! randomly seeded studies cut at varying epoch boundaries — including
//! a degenerate few-capture first epoch per run — and assert the
//! rendered report after every appended epoch equals both reference
//! paths over the same prefix dataset. A second property round-trips
//! the spill/load path by running the same appends under a tiny
//! resident budget and requiring the identical final render. A plain
//! test pins the §VII-A policy corpus, which the engine folds only over
//! the candidate documents appended since its last report.

use hbbtv_net::ContentType;
use hbbtv_proxy::CapturedExchange;
use hbbtv_study::analysis::{IncrementalStudy, PolicyAnalysis};
use hbbtv_study::report::StudyReport;
use hbbtv_study::{Ecosystem, RunDataset, RunKind, StudyDataset, StudyHarness};
use proptest::prelude::*;

/// Cuts `n` into successive epoch lengths drawn from `cuts` (cycled),
/// each at least 1. The first epoch is forced tiny (1–3 captures) so
/// every case also exercises a degenerate boundary.
fn epoch_lengths(n: usize, cuts: &[usize]) -> Vec<usize> {
    let mut lens = Vec::new();
    let mut left = n;
    let mut i = 0;
    while left > 0 {
        let want = if i == 0 {
            1 + cuts[0] % 3
        } else {
            cuts[i % cuts.len()]
        };
        let take = want.clamp(1, left);
        lens.push(take);
        left -= take;
        i += 1;
    }
    lens
}

/// Renders the two reference paths over `prefix` and asserts both match
/// `live`.
fn assert_parity(live: &str, eco: &Ecosystem, prefix: &StudyDataset, at: &str) {
    let built = StudyReport::compute(eco, prefix).render(prefix);
    assert_eq!(live, built.as_str(), "incremental != one-shot {at}");
    let naive = StudyReport::compute_naive(eco, prefix).render(prefix);
    assert_eq!(live, naive.as_str(), "incremental != naive {at}");
}

/// A §VII-A candidate document: a large HTML response.
fn is_candidate(c: &CapturedExchange) -> bool {
    c.response.content_type == ContentType::Html && c.response.body.len() > 300
}

/// Each run is cut just past its first, middle, and last candidate
/// document and then at its end, with a report after every epoch, so
/// documents reach the engine in several epochs with reports between
/// them. Every live corpus must equal a batch run over the same prefix.
#[test]
fn policy_corpus_matches_batch_at_reports_between_document_epochs() {
    let eco = Ecosystem::with_scale(11, 0.05);
    let harness = StudyHarness::new(&eco);
    let runs = vec![harness.run(RunKind::General), harness.run(RunKind::Red)];

    let mut inc = IncrementalStudy::with_budget(None);
    let mut prefix = StudyDataset { runs: Vec::new() };
    let mut doc_epochs = 0;
    for run in &runs {
        let mut meta = run.clone();
        let caps = std::mem::take(&mut meta.captures);
        inc.push_run(meta);
        prefix.runs.push(RunDataset {
            captures: Vec::new(),
            ..run.clone()
        });

        let docs: Vec<usize> = (0..caps.len())
            .filter(|&i| is_candidate(&caps[i]))
            .collect();
        let mut ends: Vec<usize> = [docs.first(), docs.get(docs.len() / 2), docs.last()]
            .into_iter()
            .flatten()
            .map(|&i| i + 1)
            .collect();
        ends.push(caps.len());
        ends.dedup();
        let mut start = 0;
        for end in ends {
            let epoch = caps[start..end].to_vec();
            start = end;
            if epoch.iter().any(is_candidate) {
                doc_epochs += 1;
            }
            prefix
                .runs
                .last_mut()
                .expect("run pushed above")
                .captures
                .extend(epoch.iter().cloned());
            inc.extend_run(epoch);
            assert_eq!(
                inc.report(&eco).policies.corpus,
                PolicyAnalysis::compute(&prefix).corpus,
                "after {end} captures of {}",
                run.run
            );
        }
    }
    assert!(doc_epochs >= 3, "documents landed in {doc_epochs} epochs");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random epoch boundaries, parity at every prefix: after each
    /// appended epoch the live render equals the one-shot engine and
    /// the naive path over the same prefix dataset.
    #[test]
    fn random_epochs_render_identically_at_every_prefix(
        seed in 0u64..10_000,
        cuts in prop::collection::vec(431usize..1600, 1..4),
    ) {
        let eco = Ecosystem::with_scale(seed, 0.05);
        let harness = StudyHarness::new(&eco);
        let runs = vec![harness.run(RunKind::General), harness.run(RunKind::Red)];

        let mut inc = IncrementalStudy::with_budget(None);
        let mut prefix = StudyDataset { runs: Vec::new() };
        for run in &runs {
            let mut meta = run.clone();
            let caps = std::mem::take(&mut meta.captures);
            inc.push_run(meta);
            let mut empty_run = run.clone();
            empty_run.captures.clear();
            prefix.runs.push(empty_run);

            let mut offset = 0;
            for len in epoch_lengths(caps.len(), &cuts) {
                let epoch = caps[offset..offset + len].to_vec();
                offset += len;
                prefix
                    .runs
                    .last_mut()
                    .expect("run pushed above")
                    .captures
                    .extend(epoch.iter().cloned());
                inc.extend_run(epoch);
                let live = inc.render(&eco);
                assert_parity(
                    &live,
                    &eco,
                    &prefix,
                    &format!("after {offset} captures of {}", run.run),
                );
            }
        }
    }

    /// Spill/load round trip: the same epoch appends under a tiny
    /// resident budget must spill (the budget is far below the frame
    /// size), hold the budget, and still render the identical final
    /// report. A mid-stream report exercises folding while early
    /// segments already sit on disk.
    #[test]
    fn tiny_budget_spill_round_trip_is_lossless(
        seed in 0u64..10_000,
        cut in 40usize..200,
    ) {
        let eco = Ecosystem::with_scale(seed, 0.05);
        let harness = StudyHarness::new(&eco);
        let runs = vec![harness.run(RunKind::General), harness.run(RunKind::Red)];
        let full = StudyDataset { runs: runs.clone() };
        let expected = StudyReport::compute(&eco, &full).render(&full);

        let budget = 4096usize;
        let mut inc = IncrementalStudy::with_budget(Some(budget));
        for (i, run) in runs.into_iter().enumerate() {
            let mut meta = run;
            let caps = std::mem::take(&mut meta.captures);
            inc.push_run(meta);
            for chunk in caps.chunks(cut) {
                inc.extend_run(chunk.to_vec());
            }
            if i == 0 {
                // Mid-stream report with early segments spilled.
                let _ = inc.render(&eco);
            }
        }
        prop_assert_eq!(inc.render(&eco), expected, "spilled render drifted");
        prop_assert!(inc.spill_writes() > 0, "budget {} never spilled", budget);
        prop_assert!(
            inc.resident_bytes() <= budget,
            "resident {} over budget {}",
            inc.resident_bytes(),
            budget
        );
        prop_assert!(inc.peak_resident_bytes() >= inc.resident_bytes());
    }
}
