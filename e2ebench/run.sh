#!/usr/bin/env bash
# Builds the `cfa` binary and the benchmark from source, then runs one
# benchmark workload:
#
#   bash e2ebench/run.sh --workload dump --seed 1 --seconds 15 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default: .bench_build in the
# repository root). Cargo's messages go to standard error, so the last
# line of standard output is the benchmark's JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/.bench_build}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p cfa-cli >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/e2ebench" --root "$root" --cfa-bin "$target/release/cfa" "$@"
