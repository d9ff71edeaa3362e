#!/usr/bin/env bash
# Build the release `dahliac` binary and the benchmark from this checkout,
# then run one workload against a freshly started cluster.
#
#   bash perfbench/run.sh --workload sweep-cold|warm-routed|edit-loop|all \
#        --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Build products go to $CARGO_TARGET_DIR
# (default: .bench_build in the current directory); results are tagged and
# written under .bench_results/<mode>/ in the current directory (or under
# --out DIR).
set -euo pipefail

root=$(pwd)
target=${CARGO_TARGET_DIR:-.bench_build}
case $target in
  /*) ;;
  *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR=$target

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p dahlia-cli >&2
cargo build --release --offline --quiet --manifest-path "$root/perfbench/Cargo.toml" >&2

exec "$target/release/perfbench" --dahliac "$target/release/dahliac" "$@"
