#!/usr/bin/env bash
# Non-test Rust lines, per crate and for the repo — the count CHANGES.md
# quotes for every simplicity PR.
#
#   scripts/loc.sh
#
# Rule: every `.rs` under `crates shims src examples benchmark` outside
# `tests/`, `benches/` and `target/`, counted up to (not including) its
# first `#[cfg(test)]` line.
set -euo pipefail

cd "$(dirname "$0")/.."

count() {
    find "$@" -name '*.rs' -not -path '*/tests/*' -not -path '*/benches/*' \
        -not -path '*/target/*' -print0 |
        xargs -0 awk 'FNR == 1 { live = 1 } /#\[cfg\(test\)\]/ { live = 0 } live { n++ } END { print n + 0 }' |
        awk '{ total += $1 } END { print total + 0 }'
}

for dir in crates/*/src shims/*/src src examples benchmark; do
    printf '%-24s %6d\n' "$dir" "$(count "$dir")"
done
printf '%-24s %6d\n' repo "$(count crates shims src examples benchmark)"
