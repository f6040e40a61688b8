#!/usr/bin/env sh
# Pre-merge gate: formatting, lints, and the full test suite.
#
# Run from the repository root before every merge:
#
#     scripts/check.sh                # full gate
#     scripts/check.sh --quick        # fmt + clippy + rustdoc only (fast
#                                     # inner loop)
#     scripts/check.sh --bench-smoke  # also run 5 s perfbench paper_batch
#                                     # and live_epochs runs
#     scripts/check.sh --digest-smoke # also pin the scale-1.0 datasets and
#                                     # rendered tables of seeds 42 and 7
#                                     # to their recorded lengths and
#                                     # digests
#
# Each stage must pass; the script stops at the first failure.
set -eu

quick=0
bench_smoke=0
digest_smoke=0
for arg in "$@"; do
    case "$arg" in
        --quick) quick=1 ;;
        --bench-smoke) bench_smoke=1 ;;
        --digest-smoke) digest_smoke=1 ;;
        *)
            echo "usage: scripts/check.sh [--quick] [--bench-smoke] [--digest-smoke]" >&2
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

# Broken or private intra-doc links (say, to a deleted item) fail here.
echo "==> cargo doc (rustdoc warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

if [ "$quick" -eq 1 ]; then
    echo "Quick checks passed (tests skipped)."
    exit 0
fi

echo "==> cargo test -q"
cargo test -q

if [ "$bench_smoke" -eq 1 ]; then
    # Short runs of the repository benchmark's batch and live workloads:
    # each last line must report that every oracle check passed.
    # Building perfbench re-resolves its lockfile, so the committed one
    # is put back on exit, pass or fail.
    lock_copy="$(mktemp)"
    cp perfbench/Cargo.lock "$lock_copy"
    trap 'cp "$lock_copy" perfbench/Cargo.lock; rm -f "$lock_copy"' EXIT
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

if [ "$digest_smoke" -eq 1 ]; then
    # The reference workloads, byte for byte: the serialized scale-1.0
    # study of seeds 42 and 7 and its rendered tables keep their pinned
    # lengths and FNV-1a digests (ignored in the debug suite; release
    # mode here).
    echo "==> scale-1.0 dataset and table digests (seeds 42 and 7)"
    cargo test --release --test determinism -- --ignored --exact \
        scale_one_dataset_digests_are_pinned
fi

echo "All checks passed."
