#!/usr/bin/env bash
# Fail on public functions with no caller outside their own unit tests:
# any `pub fn` or `pub(crate) fn` whose name, other than at its
# definition, occurs as a whole word only in its own file's test region,
# across every `.rs` file under crates, shims, src, tests, examples and
# benchmark/src.
#
#   scripts/dead_pub.sh
#
# A file's test region starts at its first `#[cfg(test)]` line (the rule
# scripts/loc.sh counts by). A function defined inside a test region is
# test code: it fails only when its name occurs nowhere but its
# definition.
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
    "fd_dispersion|N1. The current must be −∂H/∂A"
    "u_spontaneous|The switching threshold as the measured science output"
    "critical_excitation|The switching threshold as the measured science output"
    "with_nlp|The paper's dominant kernel runs in no MESH step"
    "gaussian|The paper's dominant kernel runs in no MESH step"
    "hartree_energy|One converged ground state"
    "perturb_model|Stage 3 is XS-NNQMD in name only"
)

mapfile -d '' files < <(
    find crates shims src tests examples benchmark/src -name '*.rs' \
        -not -path '*/target/*' -print0 | sort -z
)

# Whole-word occurrence counts: every maximal run of word characters is
# one token, which is what `grep -w` treats as a whole word. `count` is
# over every file; `in_tests` is per file and token, over that file's
# test region; `test_from` is the line that region starts at.
declare -A count in_tests test_from
while read -r n word; do
    count[$word]=$n
done < <(grep -ohE '[A-Za-z0-9_]+' "${files[@]}" | sort | uniq -c)
while read -r file line; do
    test_from[$file]=$line
done < <(grep -nHm1 '#\[cfg(test)\]' "${files[@]}" | cut -d: -f1,2 | tr : ' ')
while read -r n key; do
    in_tests[$key]=$n
done < <(
    awk 'FNR == 1 { live = 1 } /#\[cfg\(test\)\]/ { live = 0 }
        !live { while (match($0, /[A-Za-z0-9_]+/)) {
            print FILENAME "|" substr($0, RSTART, RLENGTH); $0 = substr($0, RSTART + RLENGTH) } }' \
        "${files[@]}" | sort | uniq -c
)

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
    [[ -z ${allowed[$name]:-} ]] || continue
    if [[ ${count[$name]:-0} -eq 1 ]]; then
        echo "dead_pub: $name ($file:$line) has no caller"
        dead=1
    elif ((line < ${test_from[$file]:-line + 1} &&
        count[$name] - ${in_tests[$file|$name]:-0} == 1)); then
        echo "dead_pub: $name ($file:$line) has callers only in its own unit tests"
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
