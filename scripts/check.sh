#!/usr/bin/env sh
# Pre-merge gate: formatting, lints, and the full test suite.
#
# Run from the repository root before every merge:
#
#     scripts/check.sh                # full gate
#     scripts/check.sh --quick        # fmt + clippy only (fast inner loop)
#     scripts/check.sh --bench-smoke  # also smoke-run the matcher benches
#                                     # and 5 s perfbench paper_batch and
#                                     # live_epochs runs
#     scripts/check.sh --matcher-smoke # also regenerate BENCH_matcher.json
#                                     # at 10^2..10^5 rules and assert the
#                                     # indexed engine's scaling contract
#     scripts/check.sh --obs-smoke    # also run a journaled study and
#                                     # verify the journal + golden snapshot
#     scripts/check.sh --analysis-smoke  # also run the engine-vs-naive
#                                        # study bench and the parity suite
#     scripts/check.sh --digest-smoke # also pin the scale-1.0 datasets of
#                                     # seeds 42 and 7 to their recorded
#                                     # JSON lengths and digests
#     scripts/check.sh --ingest-smoke # also run the streaming collector
#                                     # end to end: discovery, streamed-vs-
#                                     # in-process report diff, fault sweep
#     scripts/check.sh --frame-smoke  # also stream a study into the
#                                     # collector under a segment budget and
#                                     # diff live mid-stream reports against
#                                     # the in-process build
#     scripts/check.sh --status-smoke # also run the operations-plane smoke:
#                                     # scrape + STATS against a mid-stream
#                                     # collector, then poll the held-open
#                                     # collector with collector_status
#     scripts/check.sh --all-smokes   # every smoke stage above
#
# Each stage must pass; the script stops at the first failure.
set -eu

quick=0
bench_smoke=0
matcher_smoke=0
obs_smoke=0
analysis_smoke=0
digest_smoke=0
ingest_smoke=0
frame_smoke=0
status_smoke=0
for arg in "$@"; do
    case "$arg" in
        --quick) quick=1 ;;
        --bench-smoke) bench_smoke=1 ;;
        --matcher-smoke) matcher_smoke=1 ;;
        --obs-smoke) obs_smoke=1 ;;
        --analysis-smoke) analysis_smoke=1 ;;
        --digest-smoke) digest_smoke=1 ;;
        --ingest-smoke) ingest_smoke=1 ;;
        --frame-smoke) frame_smoke=1 ;;
        --status-smoke) status_smoke=1 ;;
        --all-smokes)
            bench_smoke=1
            matcher_smoke=1
            obs_smoke=1
            analysis_smoke=1
            digest_smoke=1
            ingest_smoke=1
            frame_smoke=1
            status_smoke=1
            ;;
        *)
            echo "usage: scripts/check.sh [--quick] [--bench-smoke] [--matcher-smoke] [--obs-smoke] [--analysis-smoke] [--digest-smoke] [--ingest-smoke] [--frame-smoke] [--status-smoke] [--all-smokes]" >&2
            exit 2
            ;;
    esac
done

# Build artifacts must never be tracked: target/ was accidentally
# committed once (5,762 files) and is expensive to undo.
echo "==> no tracked build artifacts"
if git ls-files -- target/ | grep -q .; then
    echo "error: files under target/ are tracked; run: git rm -r --cached target/" >&2
    git ls-files -- target/ | head -5 >&2
    exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

if [ "$quick" -eq 1 ]; then
    echo "Quick checks passed (tests skipped)."
    exit 0
fi

echo "==> cargo test -q"
cargo test -q

if [ "$bench_smoke" -eq 1 ]; then
    # Each criterion bench body runs once (`--test` mode): catches
    # bit-rot in the bench targets without the full sampling run.
    echo "==> cargo bench -p hbbtv-bench --bench kernels -- --test"
    cargo bench -p hbbtv-bench --bench kernels -- --test
    # Fixed-seed indexed-vs-linear matcher throughput, recorded for the
    # PR that introduced the indexed engine.
    echo "==> matcher_bench (writes BENCH_matcher.json)"
    cargo run --release -p hbbtv-bench --bin matcher_bench BENCH_matcher.json
    # Short runs of the repository benchmark's batch and live workloads:
    # each last line must report that every oracle check passed.
    for workload in paper_batch live_epochs; do
        echo "==> perfbench $workload (5 s, oracle must pass)"
        last=$(cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed 42 --seconds 5 --trace 0 | tail -n 1)
        case "$last" in
            *'"correct": true'*) ;;
            *)
                echo "error: perfbench $workload did not report correct: true" >&2
                echo "$last" >&2
                exit 1
                ;;
        esac
    done
fi

if [ "$matcher_smoke" -eq 1 ]; then
    # The indexed engine's scaling contract, measured on the 10^2..10^5
    # synthetic sweep (the binary itself already asserts indexed ==
    # linear outcomes at every scale before writing a row):
    #   * speedup is monotone non-decreasing across 1k -> 10k -> 100k
    #     (the pre-automaton engine regressed 39x -> 30x at the last
    #     step it could measure);
    #   * residual checks per query at 10^4 rules dropped >= 10x vs the
    #     frozen pre-automaton baseline;
    #   * the 10^5 row exists and its first-match histogram is not
    #     degenerate.
    echo "==> matcher_smoke (regenerates BENCH_matcher.json)"
    cargo run --release -p hbbtv-bench --bin matcher_bench BENCH_matcher.json
    if command -v python3 >/dev/null 2>&1; then
        python3 - BENCH_matcher.json <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    report = json.load(f)
rows = {row["rules"]: row for row in report["scales"]}
for n in (1_000, 10_000, 100_000):
    assert n in rows, f"missing {n}-rule row"

s1k, s10k, s100k = (rows[n]["speedup"] for n in (1_000, 10_000, 100_000))
assert s1k <= s10k <= s100k, \
    f"speedup not monotone: 1k={s1k} 10k={s10k} 100k={s100k}"

# Frozen baseline from the last pre-automaton BENCH_matcher.json
# (linear residual scan): 13,824 residual checks over 87 queries at
# 10^4 rules, i.e. ~158.9 checks/query.
BASELINE_RESIDUAL_PER_QUERY = 13_824 / 87
eng = rows[10_000]["engine"]
per_query = eng["residual_checks"] / max(eng["queries"], 1)
assert per_query <= BASELINE_RESIDUAL_PER_QUERY / 10, \
    f"residual checks/query at 10^4 = {per_query:.1f}, " \
    f"needs <= {BASELINE_RESIDUAL_PER_QUERY / 10:.1f}"

big = rows[100_000]
assert big["engine"]["first_match_p50"] < big["engine"]["first_match_p99"], \
    "first-match histogram is degenerate at 10^5"

print(f"matcher smoke OK: speedup {s1k:.0f}x -> {s10k:.0f}x -> {s100k:.0f}x, "
      f"residual/query {per_query:.2f} (baseline {BASELINE_RESIDUAL_PER_QUERY:.1f})")
EOF
    else
        echo "python3 unavailable; skipping BENCH_matcher.json assertions" >&2
    fi
fi

if [ "$obs_smoke" -eq 1 ]; then
    # A journaled one-channel-scale study: the example itself asserts
    # the telemetry totals reconcile with the dataset and every journal
    # line is a JSON object.
    journal="$(mktemp /tmp/obs_smoke_XXXXXX.jsonl)"
    echo "==> obs_smoke (writes $journal)"
    cargo run --release -p hbbtv-study --example obs_smoke -- "$journal"
    if command -v python3 >/dev/null 2>&1; then
        python3 - "$journal" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    n = sum(1 for line in f if json.loads(line))
print(f"journal OK: {n} events parse as JSON")
EOF
    fi
    rm -f "$journal"
    # Telemetry must not move the golden dataset snapshot.
    echo "==> golden snapshot unchanged"
    cargo test -q -p hbbtv-study --test serialization
fi

if [ "$analysis_smoke" -eq 1 ]; then
    # The analysis engine: study_telemetry runs the naive oracle and
    # the engine back to back and aborts if the rendered reports drift
    # by a byte, then writes the stage-by-stage timings.
    bench="$(mktemp /tmp/analysis_smoke_XXXXXX.json)"
    echo "==> study_telemetry (writes $bench)"
    cargo run --release -p hbbtv-bench --bin study_telemetry -- "$bench"
    rm -f "$bench"
    # Every analysis struct, engine vs naive, field by field.
    echo "==> engine parity suite"
    cargo test -q -p hbbtv-study --test engine_parity
fi

if [ "$digest_smoke" -eq 1 ]; then
    # The reference workloads' datasets, byte for byte: the serialized
    # scale-1.0 study of seeds 42 and 7 keeps its pinned length and
    # FNV-1a digest (ignored in the debug suite; release mode here).
    echo "==> scale-1.0 dataset digests (seeds 42 and 7)"
    cargo test --release --test determinism -- --ignored --exact \
        scale_one_dataset_digests_are_pinned
fi

if [ "$ingest_smoke" -eq 1 ]; then
    # The streaming collector end to end on loopback: UDP discovery, a
    # sharded concurrent stream of a real study whose reassembled
    # dataset must render byte-identically to the in-process build, and
    # one fault of every kind contained. The example asserts all of it
    # and exits nonzero on the first drift.
    echo "==> ingest_smoke (loopback collector)"
    cargo run --release -p hbbtv-ingest --example ingest_smoke
fi

if [ "$frame_smoke" -eq 1 ]; then
    # Incremental frame end to end: stream a study run by run into the
    # collector under a 4 MiB segment budget, render a live report after
    # every run mid-stream, and diff each against the post-hoc build over
    # the same prefix; then re-analyze the whole dataset under a budget
    # ~8x smaller than its in-RAM frame size and require the identical
    # render. The example asserts all of it and exits nonzero on drift.
    echo "==> frame_smoke (live incremental reports, 4 MiB segment budget)"
    HBBTV_FRAME_BUDGET_BYTES=4194304 cargo run --release -p hbbtv-ingest --example frame_smoke
fi

if [ "$status_smoke" -eq 1 ]; then
    # The operations plane end to end: the smoke streams half a study,
    # parks a session mid-visit, and asserts the scrape exposition
    # parses, the watchdog verdict is healthy, and the STATS answer
    # agrees with the scrape — all before writing the port file. Then
    # collector_status polls the held-open collector over the data port
    # like an operator would.
    echo "==> status_smoke (scrape + STATS + collector_status)"
    cargo build --release -p hbbtv-ingest --example status_smoke
    cargo build --release -p hbbtv-bench --bin collector_status
    portfile="$(mktemp /tmp/status_smoke_port_XXXXXX)"
    rm -f "$portfile"
    cargo run --release -p hbbtv-ingest --example status_smoke -- \
        --hold-secs 60 --port-file "$portfile" &
    smoke_pid=$!
    tries=0
    while [ ! -s "$portfile" ]; do
        if ! kill -0 "$smoke_pid" 2>/dev/null; then
            # The smoke only writes the port file after every assertion
            # passed, so an early exit here is a real failure.
            wait "$smoke_pid" || true
            echo "error: status_smoke exited before publishing its port" >&2
            exit 1
        fi
        tries=$((tries + 1))
        if [ "$tries" -gt 600 ]; then
            kill "$smoke_pid" 2>/dev/null || true
            echo "error: status_smoke never published its port" >&2
            exit 1
        fi
        sleep 0.1
    done
    addr="$(cat "$portfile")"
    echo "==> collector_status polling $addr"
    status_out="$(cargo run --release -p hbbtv-bench --bin collector_status -- \
        "$addr" --interval-ms 200 --count 3)"
    echo "$status_out"
    if ! echo "$status_out" | grep -q "health="; then
        echo "error: collector_status produced no status lines" >&2
        kill "$smoke_pid" 2>/dev/null || true
        exit 1
    fi
    kill "$smoke_pid" 2>/dev/null || true
    wait "$smoke_pid" 2>/dev/null || true
    rm -f "$portfile"
fi

echo "All checks passed."
