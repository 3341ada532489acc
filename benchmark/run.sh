#!/usr/bin/env bash
# Build the benchmark and run it.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--traced] [--smoke]
#
# With --workload, one process runs that workload and the last line of
# its output is the JSON result (the form BENCHMARK.json names). Without,
# each of the six workloads runs in its own process, in turn, and the
# exit code is non-zero if any of them failed. --traced is --trace 1.
set -euo pipefail

# Paths below are relative to the repository root, whatever the caller's
# directory; a CARGO_TARGET_DIR given relative to the caller's stays so.
if [[ -n "${CARGO_TARGET_DIR:-}" && "${CARGO_TARGET_DIR}" != /* ]]; then
    CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR"
    export CARGO_TARGET_DIR
fi
cd "$(dirname "${BASH_SOURCE[0]}")/.."

workload=""
args=()
while (($#)); do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --traced) args+=(--trace 1); shift ;;
        *) args+=("$1"); shift ;;
    esac
done

# Cargo's progress goes to stderr; standard output stays the benchmark's.
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/mlmd-benchmark"

if [[ -n "$workload" ]]; then
    exec "$bin" --workload "$workload" "${args[@]}"
fi
status=0
for w in switching_e2e mesh_pulse mesh_dist nn_response_f64 nn_ensemble_bf16 service_mix; do
    "$bin" --workload "$w" "${args[@]}" || status=1
done
exit "$status"
