#!/usr/bin/env bash
# The one command of the benchmark (see BENCHMARK.json, benchmark/README.md).
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the result is the last line of stdout
#   benchmark/run.sh [--seed N] [--seconds S]
#       every workload, three interleaved repetitions plus one traced pass
#   benchmark/run.sh --self-check      two such sets, compared
#   benchmark/run.sh --write-expected  rewrite benchmark/expected/*.json
#
# Builds the daemon (root package) and the benchmark (its own package)
# first, offline, from the sources of the checkout it stands in.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# One target directory for both builds when the caller names one (made
# absolute: cargo would resolve a relative one against each manifest's
# directory); otherwise each package's own.
if [ -n "${CARGO_TARGET_DIR:-}" ]; then
    case "$CARGO_TARGET_DIR" in
        /*) ;;
        *) CARGO_TARGET_DIR="$root/$CARGO_TARGET_DIR" ;;
    esac
    export CARGO_TARGET_DIR
    daemon_target="$CARGO_TARGET_DIR"
    bench_target="$CARGO_TARGET_DIR"
else
    daemon_target="$root/target"
    bench_target="$here/target"
fi

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    --bin beamdyn-daemon >&2
CARGO_TARGET_DIR="$bench_target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2

export BEAMDYN_BENCHMARK_DAEMON="$daemon_target/release/beamdyn-daemon"
mode=suite
for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        mode=run
    fi
done
exec "$bench_target/release/beamdyn-benchmark" "$mode" "$@"
