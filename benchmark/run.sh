#!/usr/bin/env bash
# Build the benchmark from source (release, offline) and run it.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run of one workload; the last line of stdout is the result JSON
#   benchmark/run.sh --smoke
#       all four workloads with tiny counts: schema and oracle checks only
#   benchmark/run.sh --calibrate [sets] [runs]
#       repeated runs of unchanged code -> benchmark/CALIBRATION.md
#
# Run it from anywhere; it never changes directory, so a relative
# CARGO_TARGET_DIR keeps meaning what the caller meant.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
bin="$target/release/pmv-benchmark"

# Cargo's own messages go to stderr; stdout carries only the benchmark's.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

case "${1:-}" in
--smoke)
    for w in read_hot read_churn write_wal mixed_2t; do
        for trace in 0 1; do
            "$bin" --workload "$w" --seed 1 --seconds 0.2 --trace "$trace" --smoke \
                --out "$here/out" | tail -n 1
        done
    done
    ;;
--calibrate)
    shift
    exec python3 "$here/calibrate.py" "$bin" "$here" "$@"
    ;;
*)
    exec "$bin" --out "$here/out" "$@"
    ;;
esac
