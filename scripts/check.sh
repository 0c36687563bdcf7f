#!/usr/bin/env bash
# Tier-1 verification: release build, full test suite, rustfmt, clippy.
# Run from anywhere; works on a fresh checkout with no network access
# (external dev-dependencies are vendored under crates/vendor/).
# Mirrors .github/workflows/ci.yml so the local gate matches CI.
set -euo pipefail
cd "$(dirname "$0")/.."

# Property suites run deterministically and under budget: the seed pins
# the per-test case stream (and is echoed in every failure message, so a
# red run reproduces locally with the same PROPTEST_SEED), the cap
# bounds per-property case counts. Override either from the environment
# to widen a run, e.g. PROPTEST_CASES=256 ./scripts/check.sh
export PROPTEST_SEED="${PROPTEST_SEED:-0}"
export PROPTEST_CASES="${PROPTEST_CASES:-16}"
echo "property suites: PROPTEST_SEED=${PROPTEST_SEED} PROPTEST_CASES=${PROPTEST_CASES}"

cargo build --release
# The workspace's default members are the root package and every
# first-party crate, so this also runs the per-crate unit, integration
# and doc tests (cfa-core, cfa-cli, cfa-bench, cfa-datalog, ...).
cargo test -q
# Engine differential + semi-naive property suites per store backend,
# mirroring CI's `differential-backends` matrix legs (the plain
# `cargo test` run above covers the default CFA_STORE_BACKEND=both).
for backend in replicated sharded; do
    echo "differential suites: CFA_STORE_BACKEND=${backend}"
    CFA_STORE_BACKEND="${backend}" cargo test -q --test engine_differential --test semi_naive_prop
done
# Fault-injection suite per store backend, mirroring CI's `faults`
# matrix legs (the plain `cargo test` run above covers the default
# CFA_STORE_BACKEND=both).
for backend in replicated sharded; do
    echo "fault-injection suite: CFA_STORE_BACKEND=${backend}"
    CFA_STORE_BACKEND="${backend}" cargo test -q --test faults
done
# Golden race-detector suite per store backend × evaluation mode,
# mirroring CI's `races` matrix legs (the plain `cargo test` run above
# covers the unpinned sweep: both backends, both modes).
for backend in replicated sharded; do
    for mode in semi-naive full-reeval; do
        echo "golden race suite: CFA_STORE_BACKEND=${backend} CFA_EVAL_MODE=${mode}"
        CFA_STORE_BACKEND="${backend}" CFA_EVAL_MODE="${mode}" \
            cargo test -q --test races_golden
    done
done
# Pool-throughput smoke, mirroring CI's `throughput` job: one repeat of
# the corpus through the multi-tenant pool (every tenant runs the
# sequential loop on a private store, so there is no backend to pin; the pool
# suite itself ran under `cargo test` above). The bench asserts all
# tenants completed, pooled fixpoints match solo runs, and analyses/sec
# is nonzero. Run in a scratch directory so the committed
# BENCH_engine.json (a release-build measurement) is not overwritten by
# a smoke run.
throughput_scratch="$(mktemp -d)"
trap 'rm -rf "${throughput_scratch}"' EXIT
echo "pool throughput smoke"
(cd "${throughput_scratch}" && \
    CFA_THROUGHPUT_REPEATS=1 \
    cargo run --manifest-path "${OLDPWD}/Cargo.toml" -p cfa-bench \
        --release --quiet --bin throughput_bench)
# Trace-correctness suite per store backend, mirroring CI's
# `telemetry` matrix legs (the plain `cargo test` run above covers
# CFA_STORE_BACKEND=both).
for backend in replicated sharded; do
    echo "telemetry suite: CFA_STORE_BACKEND=${backend}"
    CFA_STORE_BACKEND="${backend}" cargo test -q --test telemetry
done
# Trace smoke, mirroring CI's telemetry smoke step: `cfa trace` on a
# suite program must emit Chrome trace JSON that parses with at least
# one event in every worker lane.
echo "trace smoke: cfa trace on examples/sat.scm"
cargo run -p cfa-cli --release --quiet -- trace --threads 2 \
    --out "${throughput_scratch}/profile.json" examples/sat.scm
python3 - "${throughput_scratch}/profile.json" <<'EOF'
import collections, json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
lanes = collections.Counter(e["tid"] for e in events if e.get("ph") != "M")
assert len(lanes) == 2, lanes
assert all(n >= 1 for n in lanes.values()), lanes
print(f"trace smoke ok: {dict(lanes)}")
EOF
# Golden snapshot + canon property suites per store backend, mirroring
# CI's `snapshots` matrix legs.
for backend in replicated sharded; do
    echo "golden snapshot suites: CFA_STORE_BACKEND=${backend}"
    CFA_STORE_BACKEND="${backend}" cargo test -q --test snapshots --test canon_prop
done
# Corpus-scale differential sweep, mirroring CI's `corpus` job:
# corpus_diff pushes the bounded corpus (suite + golden concurrent
# programs + 16 seeded generated programs, seed 0) through its five
# engine configurations and diffs the canonical normal forms. It takes
# no backend selection (its pooled runs are sequential tenants). Widen
# the generated band for a nightly-scale run with e.g.
# CFA_CORPUS_SIZE=500 ./scripts/check.sh
echo "corpus differential sweep"
CFA_CORPUS_SIZE="${CFA_CORPUS_SIZE:-16}" CFA_CORPUS_SEED="${CFA_CORPUS_SEED:-0}" \
    cargo run -p cfa-bench --release --quiet --bin corpus_diff
cargo fmt --all --check
# Lint every first-party crate; the vendored stand-ins (rand, proptest,
# criterion) are build inputs, not code we hold to clippy.
cargo clippy --workspace --exclude rand --exclude proptest --exclude criterion \
    --all-targets -- -D warnings
# Rustdoc must build warning-free: `missing_docs` is `warn` in the
# first-party crates, so an undocumented public item or broken
# intra-doc link fails here (doc-examples run as tests above).
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace \
    --exclude rand --exclude proptest --exclude criterion

echo "tier-1 check passed"
