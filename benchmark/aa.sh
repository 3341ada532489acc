#!/usr/bin/env bash
# A/A check: run the full untraced set twice on the same build and compare.
#
#   benchmark/aa.sh [--seed N] [--seconds S]
#
# Prints, per (workload, metric), both values, their relative difference
# in the metric's worse direction, and the metric's bound; exits non-zero
# if any difference exceeds its bound or any run failed.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$here/out"
status=0
for set in 1 2; do
    "$here/run.sh" --trace 0 "$@" >"$here/out/aa-$set.txt" || status=1
done
awk '
    $1 == "e2e" { key = $2 " " $3; better[key] = $7; bound[key] = $9 }
    $1 == "e2e" && FNR == NR { first[key] = $4; order[++n] = key }
    $1 == "e2e" && FNR != NR { second[key] = $4 }
    END {
        printf "%-17s %-15s %14s %14s %9s %6s\n", "workload", "metric", "first", "second", "worse_by", "bound"
        for (i = 1; i <= n; i++) {
            key = order[i]
            a = first[key]; b = second[key]
            worse = (better[key] == "lower") ? (b - a) / a : (a - b) / a
            split(key, part, " ")
            flag = (worse > bound[key]) ? "  EXCEEDS" : ""
            if (flag != "") bad = 1
            printf "%-17s %-15s %14.6g %14.6g %+8.1f%% %5.0f%%%s\n", part[1], part[2], a, b, 100 * worse, 100 * bound[key], flag
        }
        exit bad
    }
' "$here/out/aa-1.txt" "$here/out/aa-2.txt" || status=1
exit "$status"
