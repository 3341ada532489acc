#!/usr/bin/env bash
# Paired benchmark runs: a parent commit against the working tree.
#
#   scripts/bench_pair.sh [--pairs N] <parent-ref> [workload…]
#
# Snapshots <parent-ref> with `git archive` under target/bench_pair/ (a
# plain export: no worktree is registered in .git) and builds both sides'
# own benchmark/, the parent into its own target directory and the
# working tree into target/. Then runs N >= 10 (default 10) pairs of
# `benchmark/run.sh --workload W --seed <pair>` at the benchmark's default
# window for every named workload (default: every workload in
# BENCHMARK.json), alternating which side runs first. Prints, per
# workload and end-to-end metric, each side's median and quartiles, the
# change's wins, and the verdict of the benchmark/README.md rule:
#
#   gain       — the change wins >= 9/10 of the pairs run (ties and pairs
#                with a missing run count for neither) and the medians
#                differ, in the better direction, by more than the
#                parent's quartile distance;
#   WORSE      — the change's median is worse than the parent's by more
#                than the metric's bound;
#   unresolved — neither, and either side's quartile distance exceeds the
#                bound (unless every change run beat every parent run);
#   flat       — otherwise.
#
# Appends one JSON line with every run's value to BENCH_HISTORY.jsonl at
# the repository root. Needs python3 for the statistics.
set -euo pipefail

cd "$(dirname "$0")/.."
root="$PWD"

usage="usage: scripts/bench_pair.sh [--pairs N] <parent-ref> [workload…]"
pairs=10
while [[ "${1:-}" == --* ]]; do
    case "$1" in
        --pairs) pairs="$2"; shift 2 ;;
        *) echo "$usage" >&2; exit 2 ;;
    esac
done
(($# >= 1)) || { echo "$usage" >&2; exit 2; }
((pairs >= 10)) || { echo "--pairs must be at least 10 (benchmark/README.md)" >&2; exit 2; }
parent=$(git rev-parse --verify "$1^{commit}")
shift
workloads=("$@")
if ((${#workloads[@]} == 0)); then
    mapfile -t workloads < <(python3 -c \
        'import json; print("\n".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
fi

snap="$root/target/bench_pair/parent-${parent:0:12}"
if [[ ! -f "$snap/src/BENCHMARK.json" ]]; then
    rm -rf "$snap/src"
    mkdir -p "$snap/src"
    git archive "$parent" | tar -x -C "$snap/src"
fi
out="$root/target/bench_pair/run-$(date -u +%Y%m%dT%H%M%SZ)"
mkdir -p "$out"
raw="$out/runs.jsonl"
log="$out/stderr.log"

side_dir() { [[ "$1" == parent ]] && echo "$snap/src" || echo "$root"; }
side_target() { [[ "$1" == parent ]] && echo "$snap/target" || echo "$root/target"; }

# The change is the working tree: read its state before the first build.
# Every build (here and in each benchmark/run.sh) rewrites the frozen
# benchmark/Cargo.lock, which still lists shims that no longer exist, so
# a lock file that was clean is put back on exit.
change="$(git rev-parse HEAD)"
[[ -z "$(git status --porcelain --untracked-files=no)" ]] || change="$change+dirty"
if git diff --quiet HEAD -- benchmark/Cargo.lock; then
    trap 'git diff --quiet HEAD -- benchmark/Cargo.lock || git checkout -q HEAD -- benchmark/Cargo.lock' EXIT
fi

echo "building parent ${parent:0:12} and the working tree (log: $log)" >&2
for side in parent change; do
    CARGO_TARGET_DIR="$(side_target "$side")" cargo build --release --offline \
        --manifest-path "$(side_dir "$side")/benchmark/Cargo.toml" 2>>"$log"
done

# One run; appends {"side", "pair", "workload", "seed", "result"} to $raw,
# where result is the run's last JSON line (null if it printed none).
run_one() {
    local side="$1" pair="$2" workload="$3" result
    result=$(CARGO_TARGET_DIR="$(side_target "$side")" "$(side_dir "$side")/benchmark/run.sh" \
        --workload "$workload" --seed "$pair" 2>>"$log" | tail -n 1) || true
    [[ "$result" == \{* ]] || result=null
    printf '{"side":"%s","pair":%d,"workload":"%s","seed":%d,"result":%s}\n' \
        "$side" "$pair" "$workload" "$pair" "$result" >>"$raw"
}

for ((pair = 1; pair <= pairs; pair++)); do
    for workload in "${workloads[@]}"; do
        if ((pair % 2)); then order=(parent change); else order=(change parent); fi
        for side in "${order[@]}"; do
            echo "pair $pair/$pairs $workload $side" >&2
            run_one "$side" "$pair" "$workload"
        done
    done
done

python3 - "$raw" "$parent" "$change" "$pairs" "$root/BENCH_HISTORY.jsonl" <<'PY'
import datetime, json, os, statistics, sys

raw, parent, change, pairs, history = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4]), sys.argv[5]
spec = json.load(open("BENCHMARK.json"))
runs = [json.loads(line) for line in open(raw)]
workloads = list(dict.fromkeys(r["workload"] for r in runs))

def quartiles(v):
    q1, q2, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
    return q1, statistics.median(v), q3

record = {
    "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    "parent": parent,
    "change": change,
    "pairs": pairs,
    "seeds": f"1..{pairs}",
    "host": {"nproc": os.cpu_count()},
    "workloads": {},
}
print(f"{'workload':<17} {'metric':<15} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} {'wins':>6}  verdict")
for w in workloads:
    by_side = {
        side: {r["pair"]: r["result"] for r in runs if r["workload"] == w and r["side"] == side}
        for side in ("parent", "change")
    }
    failed = {
        side: sum(1 if res is None else res["failed"] for res in results.values())
        for side, results in by_side.items()
    }
    entry = {"failed": failed, "metrics": {}}
    for m in spec["end_to_end"]:
        name, lower, bound = m["name"], m["better"] == "lower", m["bound"]
        both = [
            p for p in range(1, pairs + 1)
            if all((by_side[s].get(p) or {}).get("metrics", {}).get(name) is not None for s in by_side)
        ]
        if not both:
            continue
        val = {s: [by_side[s][p]["metrics"][name]["value"] for p in both] for s in by_side}
        better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
        wins = sum(better(c, p) for c, p in zip(val["change"], val["parent"]))
        pq, cq = quartiles(val["parent"]), quartiles(val["change"])
        gain = pq[1] - cq[1] if lower else cq[1] - pq[1]
        worse_by = -gain / pq[1] if pq[1] else 0.0
        spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (pq, cq))
        if wins >= 0.9 * pairs and gain > pq[2] - pq[0]:
            verdict = "gain"
        elif worse_by > bound:
            verdict = "WORSE"
        elif spread > bound and not all(better(c, p) for c in val["change"] for p in val["parent"]):
            verdict = "unresolved"
        else:
            verdict = "flat"
        entry["metrics"][name] = {
            "parent": val["parent"],
            "change": val["change"],
            "parent_q1_median_q3": pq,
            "change_q1_median_q3": cq,
            "change_over_parent": cq[1] / pq[1] if pq[1] else None,
            "wins": wins,
            "verdict": verdict,
        }
        fmt = lambda q: f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
        ratio = entry["metrics"][name]["change_over_parent"] or float("nan")
        print(f"{w:<17} {name:<15} {fmt(pq):>34} {fmt(cq):>34} {wins:>3}/{pairs:<2}  {verdict} ({ratio:.3f}x)")
    print(f"{w:<17} failed          parent {failed['parent']}  change {failed['change']}")
    record["workloads"][w] = entry
with open(history, "a") as f:
    f.write(json.dumps(record) + "\n")
print(f"appended to {history}")
PY
