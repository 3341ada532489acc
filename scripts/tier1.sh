#!/usr/bin/env bash
# Tier-1 verification: everything a PR must keep green.
#
#   scripts/tier1.sh
#
# Runs the release build, the full workspace test suite (unit, property,
# integration, and doc tests), the bench and benchmark smokes, and the
# doc, link, formatting and lint checks. Exits non-zero on the first
# failure.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo bench -p mlmd-bench --bench dc_scaling -- --test  (smoke)"
cargo bench -p mlmd-bench --bench dc_scaling -- --test

echo "==> cargo bench -p mlmd-bench --bench service_load -- --test  (smoke)"
cargo bench -p mlmd-bench --bench service_load -- --test

echo "==> cargo bench -p mlmd-bench --bench floquet -- --test  (smoke + <10% observer-overhead assert)"
cargo bench -p mlmd-bench --bench floquet -- --test

echo "==> cargo bench -p mlmd-bench --bench hotspots -- --test  (smoke + blocked>=1.3x naive GEMM gate)"
cargo bench -p mlmd-bench --bench hotspots -- --test

echo "==> cargo bench -p mlmd-bench --bench precision -- --test  (smoke + bf16 accuracy-envelope assert)"
cargo bench -p mlmd-bench --bench precision -- --test

echo "==> benchmark/run.sh --smoke  (all six BENCHMARK.json workloads, every output check, 0 failed)"
CARGO_TARGET_DIR="$PWD/target" benchmark/run.sh --smoke

echo "==> cargo doc --no-deps  (warnings as errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> docs link check (README.md, docs/*.md)"
scripts/check_links.sh

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "tier-1: OK"
