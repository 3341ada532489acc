#!/usr/bin/env bash
# Fail on callerless public functions: any `pub fn` or `pub(crate) fn`
# whose name occurs as a whole word exactly once (its own definition)
# across every `.rs` file under crates, shims, src, tests, examples and
# benchmark/src.
#
#   scripts/dead_pub.sh
#
# A name is exempt only through ALLOW below, and each entry names the
# ROADMAP.md item that owns it (the heading text must still be in
# ROADMAP.md, so an exemption lapses with its item). Prints each
# offending name with its definition site and exits 1; prints
# "dead_pub: OK" and exits 0 when there is none.
set -euo pipefail

cd "$(dirname "$0")/.."

# name|ROADMAP item that owns it
ALLOW=(
    "fixture_config|One description of what the algorithm costs"
)

mapfile -d '' files < <(
    find crates shims src tests examples benchmark/src -name '*.rs' \
        -not -path '*/target/*' -print0 | sort -z
)

# Whole-word occurrence counts: every maximal run of word characters is
# one token, which is what `grep -w` treats as a whole word.
declare -A count
while read -r n word; do
    count[$word]=$n
done < <(grep -ohE '[A-Za-z0-9_]+' "${files[@]}" | sort | uniq -c)

declare -A allowed
for entry in "${ALLOW[@]}"; do
    name=${entry%%|*}
    item=${entry#*|}
    if ! grep -qF -- "$item" ROADMAP.md; then
        echo "dead_pub: allowlist entry '$name' names ROADMAP item '$item', which ROADMAP.md no longer has" >&2
        exit 1
    fi
    allowed[$name]=1
done

dead=0
while IFS=: read -r file line name; do
    if [[ ${count[$name]:-0} -eq 1 && -z ${allowed[$name]:-} ]]; then
        echo "dead_pub: $name ($file:$line) has no caller"
        dead=1
    fi
done < <(
    grep -nHE '^[[:space:]]*pub(\(crate\))?[[:space:]]+(const[[:space:]]+|unsafe[[:space:]]+)*fn[[:space:]]+[A-Za-z0-9_]+' "${files[@]}" |
        sed -E 's/^([^:]+):([0-9]+):.*fn[[:space:]]+([A-Za-z0-9_]+).*/\1:\2:\3/' |
        sort -t: -k3,3 -k1,1 -u
)

if [[ $dead -ne 0 ]]; then
    exit 1
fi
echo "dead_pub: OK"
