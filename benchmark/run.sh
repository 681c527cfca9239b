#!/usr/bin/env bash
# Builds the benchmark (offline, release) and runs it.
#
#   benchmark/run.sh                       every workload, untraced and traced
#   benchmark/run.sh --repeat 3            ... three times, checking self-agreement
#   benchmark/run.sh --smoke               two samples per workload (seconds)
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1
#                                          one workload; last line is the JSON result
#
# Build output goes to standard error so that standard output ends with
# the result line. Fails (non-zero, nothing on standard output) when the
# repository's crates are not beside this directory.
set -euo pipefail

dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A relative CARGO_TARGET_DIR is relative to where the caller stands.
target="${CARGO_TARGET_DIR:-$dir/target}"

cargo build --release --offline --quiet --manifest-path "$dir/Cargo.toml" 1>&2

MAYA_BENCHMARK_DIR="$dir" exec "$target/release/maya-benchmark" "$@"
