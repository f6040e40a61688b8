//! Telemetry is an instrument, not an actor: with a scope attached the
//! study produces byte-identical datasets, the journal is stable across
//! scheduling, and the summaries reconcile with what the dataset holds.

use hbbtv_study::obs::{Event, FieldValue, MemoryRecorder, NullRecorder};
use hbbtv_study::report::StudyReport;
use hbbtv_study::{Ecosystem, RunKind, StudyHarness, Telemetry, TelemetryConfig, TelemetryMode};
use std::sync::Arc;

const SEED: u64 = 23;
const SCALE: f64 = 0.05;

fn dataset_fingerprint(ds: &hbbtv_study::StudyDataset) -> Vec<String> {
    ds.runs
        .iter()
        .flat_map(|r| {
            r.captures
                .iter()
                .map(move |c| format!("{:?}/{}/{}", r.run, c.request.url, c.response.body_len))
        })
        .collect()
}

fn field<'e>(ev: &'e Event, key: &str) -> Option<&'e FieldValue> {
    ev.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
}

fn span_name(ev: &Event) -> Option<&str> {
    match field(ev, "name") {
        Some(FieldValue::Str(s)) => Some(s.as_str()),
        _ => None,
    }
}

/// The hard invariant of the issue: analysis outputs are byte-identical
/// with telemetry on, off, and absent.
#[test]
fn telemetry_never_changes_the_study() {
    let eco = Ecosystem::with_scale(SEED, SCALE);

    let absent = StudyHarness::new(&eco).run_all();
    let off = StudyHarness::with_telemetry(&eco, TelemetryConfig::off()).run_all();
    let journaled = {
        let harness =
            StudyHarness::with_telemetry(&eco, TelemetryConfig::journal(Arc::new(NullRecorder)));
        harness.run_all()
    };

    let base = dataset_fingerprint(&absent);
    assert_eq!(base, dataset_fingerprint(&off));
    assert_eq!(base, dataset_fingerprint(&journaled));

    // And the rendered report too, including the spans-on path.
    let plain = StudyReport::compute(&eco, &absent);
    let profiled = {
        let tel = Telemetry::scope(
            TelemetryMode::Journal,
            hbbtv_study::obs::SimClock::starting_at(hbbtv_study::obs::Timestamp::MEASUREMENT_START),
            1 << 40,
        );
        StudyReport::compute_with_telemetry(&eco, &journaled, &tel)
    };
    assert_eq!(plain.render(&absent), profiled.render(&journaled));
}

/// The classify-once invariant: one study classifies each exchange at
/// most once. The analysis engine memoizes the five list verdicts per
/// distinct (URL, party relation, resource kind) key, the lists seeing
/// the content type only through its kind, and publishes its memo
/// misses as `frame.classify_calls`, so the real classification count
/// lands well below one per exchange.
#[test]
fn classify_runs_at_most_once_per_exchange_per_study() {
    let eco = Ecosystem::with_scale(SEED, SCALE);
    let dataset = StudyHarness::new(&eco).run_all();
    let total: u64 = dataset.runs.iter().map(|r| r.captures.len() as u64).sum();
    assert!(total > 0);

    let tel = Telemetry::scope(
        TelemetryMode::Metrics,
        hbbtv_study::obs::SimClock::starting_at(hbbtv_study::obs::Timestamp::MEASUREMENT_START),
        1 << 41,
    );
    let report = StudyReport::compute_with_telemetry(&eco, &dataset, &tel);
    let misses = tel.counter_value("frame.classify_calls");
    assert!(misses > 0, "the study classifies something");
    assert!(
        misses <= total,
        "at most one classification per exchange per study ({misses} > {total})"
    );
    // Generated traffic repeats URLs heavily; the memo must actually
    // collapse duplicates, not just bound them.
    assert!(
        misses < total / 2,
        "{misses} classifications for {total} exchanges"
    );
    // The engine's table cells agree with the dataset.
    assert_eq!(tel.counter_value("frame.exchanges"), total);
    let unique_urls = tel.counter_value("frame.unique_urls");
    assert!(unique_urls > 0 && unique_urls <= total);
    assert!(tel.counter_value("frame.symbols") > 0);
    assert!(!report.first_parties.is_empty());
}

/// The sequential share of sealing stays small: the merge looks up
/// each chunk's distinct keys in the global tables, not every
/// capture's, and publishes the count as `frame.merged_keys`. Merging
/// per capture would look up at least one key (the URL) per exchange.
#[test]
fn sealing_merges_distinct_keys_not_captures() {
    let eco = Ecosystem::with_scale(42, SCALE);
    let dataset = StudyHarness::new(&eco).run_all();
    let tel = Telemetry::scope(
        TelemetryMode::Metrics,
        hbbtv_study::obs::SimClock::starting_at(hbbtv_study::obs::Timestamp::MEASUREMENT_START),
        1 << 41,
    );
    StudyReport::compute_with_telemetry(&eco, &dataset, &tel);
    let exchanges = tel.counter_value("frame.exchanges");
    let merged = tel.counter_value("frame.merged_keys");
    assert!(merged > 0, "sealing merged no key");
    assert!(
        merged < exchanges / 2,
        "{merged} keys merged for {exchanges} exchanges"
    );
}

/// Sim-time journals are a pure function of the world: the same study
/// run in parallel and sequentially emits the same events in the same
/// order with the same ids.
#[test]
fn journal_is_byte_stable_across_scheduling() {
    let eco = Ecosystem::with_scale(SEED, SCALE);
    let journal_of = |parallel: bool| -> Vec<String> {
        let sink = Arc::new(MemoryRecorder::new());
        let harness = StudyHarness::with_telemetry(&eco, TelemetryConfig::journal(sink.clone()));
        if parallel {
            harness.run_all();
        } else {
            harness.run_all_sequential();
        }
        sink.take().iter().map(Event::to_json).collect()
    };

    let parallel = journal_of(true);
    let sequential = journal_of(false);
    assert!(!parallel.is_empty(), "a journaled study emits events");
    assert_eq!(parallel, sequential, "journal bytes depend on scheduling");

    // Re-running the parallel path reproduces the journal exactly.
    assert_eq!(parallel, journal_of(true));
}

/// Summed per-visit proxy counters equal what the dataset actually
/// captured, in Metrics and in Profile mode alike.
#[test]
fn run_telemetry_reconciles_with_dataset() {
    let eco = Ecosystem::with_scale(SEED, SCALE);
    for config in [
        TelemetryConfig::metrics(),
        TelemetryConfig::profile(Arc::new(NullRecorder)),
    ] {
        let mode = config.mode;
        let harness = StudyHarness::with_telemetry(&eco, config);
        let dataset = harness.run_all();
        let tel = harness.telemetry().expect("the scope records telemetry");

        assert_eq!(tel.runs.len(), RunKind::ALL.len());
        for (run_tel, run_ds) in tel.runs.iter().zip(&dataset.runs) {
            assert_eq!(run_tel.run, run_ds.run.label());
            assert_eq!(
                run_tel.exchanges_recorded,
                run_ds.captures.len() as u64,
                "{mode:?} {}: exchange counters must sum to captured exchanges",
                run_tel.run
            );
            assert_eq!(
                run_tel.visits,
                run_ds.channels_measured.len() as u64,
                "{mode:?} {}: one visit per measured channel",
                run_tel.run
            );
            // The per-visit capture histogram saw every visit and sums
            // to the same total the counters report.
            let captures = run_tel.visit_captures().expect("capture histogram");
            assert_eq!(captures.count, run_tel.visits);
            assert_eq!(captures.sum, run_tel.exchanges_recorded);
            // Profile mode times each run's assembly once, beside the
            // per-visit walls.
            if mode == TelemetryMode::Profile {
                let assemble = &run_tel.histograms["wall.assemble"];
                assert_eq!(assemble.count, 1, "{}: one assembly per run", run_tel.run);
                assert_eq!(run_tel.histograms["wall.visit"].count, run_tel.visits);
            }
        }
        assert_eq!(
            tel.total_exchanges(),
            dataset
                .runs
                .iter()
                .map(|r| r.captures.len() as u64)
                .sum::<u64>()
        );
    }
}

/// Every visit span is a child of its run's span, and ids stay
/// consistent no matter how par_map schedules the visits.
#[test]
fn visit_spans_nest_under_their_run_span() {
    let eco = Ecosystem::with_scale(SEED, SCALE);
    let sink = Arc::new(MemoryRecorder::new());
    let harness = StudyHarness::with_telemetry(&eco, TelemetryConfig::journal(sink.clone()));
    harness.run_all();
    let events = sink.take();

    let run_spans: Vec<&Event> = events
        .iter()
        .filter(|e| span_name(e) == Some("run"))
        .collect();
    assert_eq!(run_spans.len(), RunKind::ALL.len(), "one span per run");
    for pair in run_spans.windows(2) {
        assert!(pair[0].span < pair[1].span, "run spans flush in run order");
    }

    let visit_spans: Vec<&Event> = events
        .iter()
        .filter(|e| span_name(e) == Some("visit"))
        .collect();
    assert!(!visit_spans.is_empty());
    for v in &visit_spans {
        assert!(
            run_spans.iter().any(|r| r.span == v.parent),
            "visit span {} has unknown parent {}",
            v.span,
            v.parent
        );
        assert_ne!(v.span, 0);
        assert!(v.span > v.parent, "children allocate above their parent");
    }

    // Visit ids within one run are unique.
    let mut ids: Vec<u64> = visit_spans.iter().map(|v| v.span).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), visit_spans.len(), "visit span ids are unique");
}
