#!/usr/bin/env bash
# Tier-1 verification: everything a PR must keep green.
#
#   scripts/tier1.sh
#
# Runs the release build, the full workspace test suite (unit, property,
# integration, and doc tests), the release-mode host-timing gates, the
# release-mode pipeline suite (the ten-seed switching verdict), the
# release-mode min_image and ziggurat bit-identity checks, the
# release-mode Ehrenfest golden digests and MESH distributed pins, the
# release-mode NN inference pins, physics properties and neighbour
# oracle, the benchmark smoke, and the doc, link, dead-pub, formatting
# and lint checks. Exits non-zero on the first failure.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --release -q -p mlmd-bench --test host_gates  (blocked>=1.3x naive GEMM, <10% Floquet observer overhead, Table III ladder)"
cargo test --release -q -p mlmd-bench --test host_gates

echo "==> cargo test --release -q --test engine_pipeline  (switching verdict over ten seeds)"
cargo test --release -q --test engine_pipeline

echo "==> cargo test --release -q -p mlmd-numerics --lib  (min_image + ziggurat bit-identity hold under the optimizer)"
cargo test --release -q -p mlmd-numerics --lib

echo "==> cargo test --release -q -p mlmd-dcmesh --lib ehrenfest && cargo test --release -q --test mesh_dist  (Ehrenfest golden digests and MESH distributed pins hold under the optimizer)"
cargo test --release -q -p mlmd-dcmesh --lib ehrenfest
cargo test --release -q --test mesh_dist

echo "==> cargo test --release -q -p mlmd-nnqmd && cargo test --release -q -p mlmd-qxmd --lib neighbor  (NN inference pins, physics properties + neighbour oracle hold under the optimizer)"
cargo test --release -q -p mlmd-nnqmd
cargo test --release -q -p mlmd-qxmd --lib neighbor

echo "==> benchmark/run.sh --smoke  (all six BENCHMARK.json workloads, every output check, 0 failed)"
CARGO_TARGET_DIR="$PWD/target" benchmark/run.sh --smoke

echo "==> cargo doc --no-deps  (warnings as errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> docs link check (README.md, docs/*.md)"
scripts/check_links.sh

echo "==> scripts/dead_pub.sh  (no pub fn named only at its definition or in its own unit tests)"
scripts/dead_pub.sh

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "tier-1: OK"
