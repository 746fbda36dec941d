#!/usr/bin/env bash
# Matched-pair comparison of two revisions on the repository benchmark.
#
#   scripts/bench_pairs.sh <parent-rev> <change-rev> [workload...]
#
# Builds perfbench at both revisions (each exported with `git archive` into
# its own directory under $TMPDIR, with its own CARGO_TARGET_DIR, offline),
# then runs PAIRS alternating parent/change pairs per workload (all of
# BENCHMARK.json's workloads by default) for BENCHMARK.json's run_seconds
# each. Both runs of a pair share a seed; every pair gets a new one. For each
# end-to-end metric it prints the parent's and the change's median and
# quartiles, the change's win count (ties count for neither side) and the
# parent's IQR: the inputs of the matched-pair rule (a gain needs >= 9/10
# wins and a median shift larger than the parent's IQR).
#
# It then checks that the simulated behaviour did not move: one `--trace 1`
# run per workload and side at seed TRACE_SEED must give identical values
# for every per-layer metric whose name does not start with `host_` (those
# are host times).
#
# Exits non-zero if any run reports `correct: false`, if the two sides'
# `failed` counts differ on some pair, or if a per-layer metric other than a
# host time differs (it names each one). Reads perfbench/ and BENCHMARK.json
# from the two revisions and edits neither. Needs git, tar, cargo and
# python3.
set -euo pipefail
cd "$(dirname "$0")/.."

PAIRS=10
TRACE_SEED=424242

if [ $# -lt 2 ]; then
    echo "usage: $0 <parent-rev> <change-rev> [workload...]" >&2
    exit 2
fi
parent=$(git rev-parse --verify "$1^{commit}")
change=$(git rev-parse --verify "$2^{commit}")
shift 2

# The benchmark definition is read from the parent revision, so both sides
# run exactly the settings the change is judged by.
spec=$(git show "$parent:BENCHMARK.json")
seconds=$(python3 -c 'import json,sys; print(json.load(sys.stdin)["run_seconds"])' <<<"$spec")
if [ $# -gt 0 ]; then
    workloads=("$@")
else
    mapfile -t workloads < <(python3 -c \
        'import json,sys; [print(w["name"]) for w in json.load(sys.stdin)["workloads"]]' <<<"$spec")
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

for side in parent change; do
    rev=${!side}
    mkdir "$work/$side"
    git archive "$rev" | tar -x -C "$work/$side"
    echo "building perfbench at $side ${rev:0:12}" >&2
    CARGO_TARGET_DIR="$work/target-$side" cargo build --release --quiet --offline \
        --manifest-path "$work/$side/perfbench/Cargo.toml"
done

# One run: appends perfbench's final JSON line to
# $work/runs/<workload>.<side>[.trace] (its human-readable report goes to the
# matching .log).
run() {
    local side=$1 workload=$2 seed=$3 trace=$4 secs=$5 out=$work/runs/$2.$1
    if [ "$trace" = 1 ]; then out=$out.trace; fi
    (cd "$work/$side" && "$work/target-$side/release/perfbench" \
        --workload "$workload" --seed "$seed" --seconds "$secs" --trace "$trace") \
        2>>"$out.log" | tail -n 1 >>"$out"
}

mkdir -p "$work/runs"
base=$(( $(date +%s) % 1000000 ))
for workload in "${workloads[@]}"; do
    for ((i = 0; i < PAIRS; i++)); do
        seed=$((base + i))
        if ((i % 2 == 0)); then order="parent change"; else order="change parent"; fi
        for side in $order; do
            run "$side" "$workload" "$seed" 0 "$seconds"
        done
        echo "$workload: pair $((i + 1))/$PAIRS (seed $seed, $order) done" >&2
    done
done
# Per-layer metrics come from a cell's own counters, so the shortest run
# (perfbench's minimum number of cells) is enough.
for workload in "${workloads[@]}"; do
    for side in parent change; do
        run "$side" "$workload" "$TRACE_SEED" 1 0
    done
    echo "$workload: --trace 1 runs (seed $TRACE_SEED) done" >&2
done

printf '%s\n' "$spec" >"$work/BENCHMARK.json"
python3 - "$work" "$PAIRS" "$seconds" "$base" "$TRACE_SEED" "${workloads[@]}" <<'EOF'
import json, statistics, sys

work, pairs, seconds, base = sys.argv[1], int(sys.argv[2]), sys.argv[3], int(sys.argv[4])
trace_seed, workloads = sys.argv[5], sys.argv[6:]
with open(f"{work}/BENCHMARK.json") as f:
    spec = json.load(f)
ok = True

def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return med, q1, q3

for w in workloads:
    side = {}
    for s in ("parent", "change"):
        with open(f"{work}/runs/{w}.{s}") as f:
            side[s] = [json.loads(line) for line in f if line.strip()]
    print(f"\n== {w}: {pairs} pairs x {seconds} s, seeds {base}..{base + pairs - 1}")
    for i, (p, c) in enumerate(zip(side["parent"], side["change"])):
        for s, r in (("parent", p), ("change", c)):
            if not r["correct"]:
                print(f"  pair {i + 1}: {s} run is not correct")
                ok = False
        if p["failed"] != c["failed"]:
            print(f"  pair {i + 1}: failed ops differ: parent {p['failed']}, change {c['failed']}")
            ok = False
    print(f"  {'metric':<14} {'parent median':>13} {'[q1, q3]':>21} {'change median':>13}"
          f" {'[q1, q3]':>21} {'delta':>7} {'wins':>5} {'parent IQR':>10}  verdict")
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        pv = [r["metrics"][name]["value"] for r in side["parent"]]
        cv = [r["metrics"][name]["value"] for r in side["change"]]
        (pm, p1, p3), (cm, c1, c3) = quartiles(pv), quartiles(cv)
        wins = sum((c < p) if lower else (c > p) for p, c in zip(pv, cv))
        iqr = p3 - p1
        rel = lambda x: x / pm if pm else 0.0
        delta = rel(cm - pm)
        gain = (pm - cm if lower else cm - pm)
        if pv == cv:
            verdict = "identical"
        elif wins >= 0.9 * len(pv) and gain > iqr:
            verdict = "gain"
        elif -gain > m["bound"] * abs(pm):
            verdict = "WORSE than bound"
        else:
            verdict = "no gain shown"
        quart = lambda a, b: f"[{a:.5g}, {b:.5g}]"
        print(f"  {name:<14} {pm:>13.5g} {quart(p1, p3):>21} {cm:>13.5g} {quart(c1, c3):>21}"
              f" {delta:>+7.1%} {wins:>2}/{len(pv):<2} {rel(iqr):>10.1%}  {verdict}")

print(f"\n== simulated behaviour: --trace 1, seed {trace_seed}")
for w in workloads:
    side = {}
    for s in ("parent", "change"):
        with open(f"{work}/runs/{w}.{s}.trace") as f:
            side[s] = json.loads(f.read())
        if not side[s]["correct"]:
            print(f"  {w}: {s} --trace 1 run is not correct")
            ok = False
    p, c = side["parent"], side["change"]
    if p["failed"] != c["failed"]:
        print(f"  {w}: failed ops differ: parent {p['failed']}, change {c['failed']}")
        ok = False
    names = sorted(n for n in p["metrics"].keys() | c["metrics"].keys() if not n.startswith("host_"))
    moved = [n for n in names
             if p["metrics"].get(n, {}).get("value") != c["metrics"].get(n, {}).get("value")]
    for n in moved:
        pv, cv = (r["metrics"].get(n, {}).get("value") for r in (p, c))
        print(f"  {w}: {n} differs: parent {pv}, change {cv}")
    if moved:
        ok = False
    else:
        print(f"  {w}: all {len(names)} non-host per-layer metrics identical")

sys.exit(0 if ok else 1)
EOF
