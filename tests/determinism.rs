//! Reproducibility: the whole study is a pure function of (seed, scale),
//! and the parallel execution paths are byte-identical to sequential.

use hbbtv_study::analysis::{par_chunks, Runtime};
use hbbtv_study::report::StudyReport;
use hbbtv_study::{Ecosystem, RunKind, StudyHarness};
use proptest::prelude::*;

#[test]
fn same_seed_same_study() {
    let run = |seed: u64| {
        let eco = Ecosystem::with_scale(seed, 0.08);
        let harness = StudyHarness::new(&eco);
        let ds = harness.run(RunKind::Red);
        let urls: Vec<String> = ds
            .captures
            .iter()
            .map(|c| c.request.url.to_string())
            .collect();
        let cookies: Vec<String> = ds
            .cookies
            .iter()
            .map(|c| format!("{}={}", c.cookie.key(), c.cookie.value))
            .collect();
        (urls, cookies, ds.screenshots.len())
    };
    let a = run(7);
    let b = run(7);
    assert_eq!(a.0, b.0, "captured URLs are bit-identical");
    assert_eq!(a.1, b.1, "cookie jars are bit-identical");
    assert_eq!(a.2, b.2);
}

/// The tentpole guarantee: five runs on five worker threads produce the
/// same study, byte for byte, as five runs on one thread — down to the
/// serialized JSON and the rendered Tables I–V.
#[test]
fn parallel_run_all_matches_sequential() {
    let eco = Ecosystem::with_scale(13, 0.05);
    let parallel = StudyHarness::new(&eco).run_all();
    let sequential = StudyHarness::new(&eco).run_all_sequential();

    let kinds: Vec<RunKind> = parallel.runs.iter().map(|r| r.run).collect();
    assert_eq!(
        kinds,
        RunKind::ALL.to_vec(),
        "runs assemble in Table I order"
    );

    for (p, s) in parallel.runs.iter().zip(&sequential.runs) {
        assert_eq!(p.run, s.run);
        assert_eq!(p.channels_measured, s.channels_measured);
        assert_eq!(p.captures, s.captures, "{:?} captures diverge", p.run);
        assert_eq!(p.screenshots.len(), s.screenshots.len());
        assert_eq!(p.interactions, s.interactions);
        assert_eq!(p.consented_channels, s.consented_channels);
        let p_cookies: Vec<String> = p
            .cookies
            .iter()
            .map(|c| format!("{}={}", c.cookie.key(), c.cookie.value))
            .collect();
        let s_cookies: Vec<String> = s
            .cookies
            .iter()
            .map(|c| format!("{}={}", c.cookie.key(), c.cookie.value))
            .collect();
        assert_eq!(p_cookies, s_cookies, "{:?} cookie jars diverge", p.run);
    }

    // Strongest form: the BigQuery-bound serialization is bit-identical.
    let p_json = serde_json::to_string(&parallel).expect("serializes");
    let s_json = serde_json::to_string(&sequential).expect("serializes");
    assert_eq!(p_json, s_json, "serialized datasets diverge");

    // And so is everything the paper prints: the chunked parallel
    // analyses behind Tables I–V reduce to the sequential fold.
    let p_report = StudyReport::compute(&eco, &parallel).render(&parallel);
    let s_report = StudyReport::compute(&eco, &sequential).render(&sequential);
    assert_eq!(p_report, s_report, "rendered reports diverge");
}

/// Channel-parallel execution of a single run is byte-identical to the
/// sequential protocol order, for every run kind: both paths drive the
/// same hermetic per-visit function and merge in canonical order.
#[test]
fn channel_parallel_single_run_matches_sequential() {
    let eco = Ecosystem::with_scale(21, 0.05);
    let harness = StudyHarness::new(&eco);
    for kind in RunKind::ALL {
        let sequential = harness.run(kind);
        let parallel = harness.run_parallel(kind);
        assert_eq!(
            serde_json::to_string(&parallel).expect("serializes"),
            serde_json::to_string(&sequential).expect("serializes"),
            "{kind} diverges under channel-parallel execution"
        );
        assert_eq!(parallel.visits, sequential.visits);
        assert_eq!(
            parallel.per_channel_capture_counts(),
            sequential.per_channel_capture_counts()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The determinism guarantee holds across seeds, not just for one
    /// hand-picked world: for any seed, the parallel study — every
    /// `(run, visit)` slot fanned out in one ordered map — equals
    /// the fully sequential study down to the serialized JSON, the
    /// per-channel and per-visit capture counts, and the rendered
    /// Tables I–V.
    #[test]
    fn channel_parallel_study_is_byte_identical_across_seeds(seed in 0u64..1_000_000) {
        let eco = Ecosystem::with_scale(seed, 0.02);
        let parallel = StudyHarness::new(&eco).run_all();
        let sequential = StudyHarness::new(&eco).run_all_sequential();

        prop_assert_eq!(
            serde_json::to_string(&parallel).expect("serializes"),
            serde_json::to_string(&sequential).expect("serializes"),
            "seed {}: serialized studies diverge",
            seed
        );
        for (p, s) in parallel.runs.iter().zip(&sequential.runs) {
            prop_assert_eq!(
                p.per_channel_capture_counts(),
                s.per_channel_capture_counts(),
                "seed {}: per-channel counts diverge in {}",
                seed,
                p.run
            );
            prop_assert_eq!(
                p.per_visit_capture_counts(),
                s.per_visit_capture_counts(),
                "seed {}: per-visit counts diverge in {}",
                seed,
                p.run
            );
            prop_assert_eq!(&p.visits, &s.visits);
        }

        let p_report = StudyReport::compute(&eco, &parallel).render(&parallel);
        let s_report = StudyReport::compute(&eco, &sequential).render(&sequential);
        prop_assert_eq!(p_report, s_report, "seed {}: rendered reports diverge", seed);
    }
}

proptest! {
    /// `par_chunks` + left-to-right merge equals the sequential fold for
    /// arbitrary inputs and chunk lengths (including chunks longer than
    /// the input).
    #[test]
    fn par_chunks_merge_equals_sequential_fold(seed in 0u64..5000, chunk_len in 1usize..80) {
        // Deterministic pseudo-random items derived from the seed.
        let items: Vec<u64> = (0..257)
            .map(|i| {
                let mut x = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                x ^= x >> 30;
                x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x ^ (x >> 27)
            })
            .collect();
        let sequential = items
            .iter()
            .fold((0u64, u64::MAX, 0usize), |(sum, min, n), &v| {
                (sum.wrapping_add(v), min.min(v), n + 1)
            });
        let merged = par_chunks(&items, chunk_len, |chunk| {
            chunk.iter().fold((0u64, u64::MAX, 0usize), |(sum, min, n), &v| {
                (sum.wrapping_add(v), min.min(v), n + 1)
            })
        })
        .into_iter()
        .fold((0u64, u64::MAX, 0usize), |(sum, min, n), (s, m, c)| {
            (sum.wrapping_add(s), min.min(m), n + c)
        });
        prop_assert_eq!(merged, sequential);
    }
}

#[test]
fn different_seed_different_study() {
    let count = |seed: u64| {
        let eco = Ecosystem::with_scale(seed, 0.08);
        let harness = StudyHarness::new(&eco);
        let ds = harness.run(RunKind::General);
        let values: Vec<String> = ds.cookies.iter().map(|c| c.cookie.value.clone()).collect();
        values
    };
    // Minted identifiers differ across seeds.
    assert_ne!(count(1), count(2));
}

#[test]
fn scale_preserves_structure() {
    for scale in [0.05, 0.1, 0.2] {
        let eco = Ecosystem::with_scale(5, scale);
        let (funnel, finals) = eco.lineup().funnel(|_, ait| ait.signals_hbbtv());
        assert_eq!(funnel.final_set, finals.len());
        assert_eq!(funnel.final_set, eco.final_channels().len());
        // The funnel proportions stay within sane bands at every scale.
        assert!(funnel.radio * 100 / funnel.received.max(1) >= 8);
        assert!(funnel.tv_channels > funnel.free_to_air);
        assert!(funnel.candidates > funnel.final_set);
    }
}

/// FNV-1a, 64 bit: a dependency-free content digest for the pin below.
fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a digest `h` over `bytes`, so a long text can be
/// digested piece by piece.
fn fnv1a64_extend(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Pins the simulator's output, not just its self-consistency: the
/// parallel == sequential tests above would drift together if a change
/// to the visit path altered a byte. The serialized dataset and the
/// rendered tables at (seed 42, scale 0.05) must keep the lengths and
/// FNV-1a digests recorded here, at one, two and eight executors (eight
/// oversubscribes the 2-vCPU reference box, so every run can be
/// assembled on a thread of its own). A
/// deliberate change to the simulated world (or, for `TABLES`, to the
/// renderers) updates these constants in the same commit.
#[test]
fn run_all_output_digest_is_pinned() {
    const DATASET: (usize, u64) = (11_858_177, 15_706_177_644_372_311_720);
    const TABLES: (usize, u64) = (7_637, 11_309_708_543_252_639_002);
    let eco = Ecosystem::with_scale(42, 0.05);
    for workers in [1, 2, 8] {
        let (json, tables) = Runtime::with_workers(workers).install(|| {
            let ds = StudyHarness::new(&eco).run_all();
            let json = serde_json::to_string(&ds).expect("serializes");
            let tables = StudyReport::compute(&eco, &ds).render(&ds);
            (json, tables)
        });
        let got = (
            (json.len(), fnv1a64(json.as_bytes())),
            (tables.len(), fnv1a64(tables.as_bytes())),
        );
        assert_eq!(got, (DATASET, TABLES), "{workers} workers");
    }
}

/// Pins the reference workloads' datasets and rendered tables: at scale
/// 1.0, the serialized study of seeds 42 and 7 and its rendered Tables
/// I–V keep the lengths and FNV-1a digests recorded here. The tables
/// pin covers what the dataset pin cannot, such as policy annotation.
/// Each run is serialized on its own and streamed through the digest
/// inside the `{"runs":[…]}` envelope, so the check holds one run's
/// JSON at a time, not the whole study's. Run it in release mode:
/// `cargo test --release --test determinism -- --ignored --exact
/// scale_one_dataset_digests_are_pinned`.
#[test]
#[ignore = "scale 1.0: minutes in a debug build"]
fn scale_one_dataset_digests_are_pinned() {
    type Pin = (usize, u64);
    const PINNED: [(u64, Pin, Pin); 2] = [
        (
            42,
            (290_442_738, 4_917_891_409_894_537_627),
            (7_990, 10_674_362_191_330_097_668),
        ),
        (
            7,
            (291_015_250, 11_261_837_626_445_476_493),
            (7_985, 8_092_655_687_949_587_168),
        ),
    ];
    for (seed, dataset, tables) in PINNED {
        let eco = Ecosystem::with_scale(seed, 1.0);
        let ds = StudyHarness::new(&eco).run_all();
        let mut len = 0;
        let mut hash = fnv1a64(b"");
        let mut feed = |bytes: &[u8]| {
            len += bytes.len();
            hash = fnv1a64_extend(hash, bytes);
        };
        feed(b"{\"runs\":[");
        for (i, run) in ds.runs.iter().enumerate() {
            if i > 0 {
                feed(b",");
            }
            feed(serde_json::to_string(run).expect("serializes").as_bytes());
        }
        feed(b"]}");
        assert_eq!((len, hash), dataset, "seed {seed} dataset");
        let rendered = StudyReport::compute(&eco, &ds).render(&ds);
        let got = (rendered.len(), fnv1a64(rendered.as_bytes()));
        assert_eq!(got, tables, "seed {seed} tables");
    }
}
