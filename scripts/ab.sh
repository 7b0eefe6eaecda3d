#!/usr/bin/env bash
# A/B one BENCHMARK.json workload: a parent commit against the working tree.
#
#   scripts/ab.sh <parent-ref> <workload> [pairs=10] [seed=7]
#
# Extracts <parent-ref> into a temporary directory, builds the benchmark
# there and here, then runs BENCHMARK.json's command on both sides in
# alternating order (choosing-metrics §8: at least ten pairs, the side that
# goes first alternates). Per end-to-end metric it prints both medians, the
# parent's quartiles, the pairs the change won, and the verdict:
#
#   better     change wins >= 9/10 of the pairs (ties count for neither) and
#              the medians differ by more than the parent's own quartile spread
#   worse      the change's median is worse by more than the metric's bound
#   unresolved the parent's quartile spread is wider than the bound and the
#              runs of the two sides overlap
#   same       none of the above
#
# Every run also records how far each of cpu0/cpu1 moved in /proc/stat
# while it ran, and every pair is tagged `one-core` or `two-core`: this
# sandbox parks its second vCPU when idle (see .claude/skills/verify), and a
# workload with two busy threads (`mixed`, `durable`) reads very differently
# in the two states. A pair whose sides ran in different states compares the
# machine, not the commits; it is flagged, and so is a mixed set of pairs.
# (The tag is the machine's state, not the workload's: a one-thread workload
# runs the same in both, and its flags can be ignored.)
#
# Reads BENCHMARK.json and perf/; writes neither. Every run's JSON line is
# kept under $AB_OUT (default: a temporary directory, printed at the end),
# and the session — commit, parent, workload, seed, pairs, and per end-to-end
# metric both medians, the parent's quartiles, pairs won and the verdict,
# with the core tags of its runs — is appended as one JSON line to the
# committed BENCH_history.jsonl, so a later reader has the trajectory in a
# file rather than in prose.
# $AB_PARENT names a directory that already holds the parent's tree (say,
# from an earlier workload's run): it is used, and kept, instead of a fresh
# extraction. Needs python3 for the JSON and the statistics.
# $AB_LAYERS lists per-layer metric names (default: "device.reads
# cache.hit_rate bloom.skip_rate store.block_reads_per_get"; set it empty to
# skip): after the pairs, each side makes one `--trace 1` run, and those
# metrics' values from it are printed and go on the session's line under
# "layers" — the mechanism on file next to the medians of every session.
# One run a side: counts repeat exactly, timings do not, so name counts and
# ratios of counts.
set -euo pipefail

if [ "$#" -lt 2 ]; then
    sed -n '2,5p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi
ref="$1"
workload="$2"
pairs="${3:-10}"
seed="${4:-7}"
layers="${AB_LAYERS-device.reads cache.hit_rate bloom.skip_rate store.block_reads_per_get}"

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
work="$(mktemp -d)"
out="${AB_OUT:-$(mktemp -d)}"
mkdir -p "$out"
trap 'rm -rf "$work"' EXIT

read_json() { python3 -c "import json,sys; b=json.load(open('BENCHMARK.json')); print($1)"; }
mapfile -t command < <(read_json "'\n'.join(b['command'])")
seconds="$(read_json "b['run_seconds']")"
read_json "'$workload' in [w['name'] for w in b['workloads']] or sys.exit('no workload $workload in BENCHMARK.json')" >/dev/null

parent="${AB_PARENT:-$work/parent}"
if [ ! -d "$parent" ]; then
    echo "== parent $ref -> $parent"
    mkdir -p "$parent"
    git archive "$ref" | tar -x -C "$parent"
fi

# `cargo run` in BENCHMARK.json's command builds on first use; build both
# sides up front so no run pays for it.
echo "== build parent, then the working tree"
(cd "$parent" && cargo build --release --offline --quiet --manifest-path perf/Cargo.toml)
cargo build --release --offline --quiet --manifest-path perf/Cargo.toml

busy() { # busy ticks of cpu0 and cpu1 so far (0 for a CPU that is not there)
    awk '$1 == "cpu0" || $1 == "cpu1" { b[$1] = $2 + $3 + $4 + $7 + $8 }
         END { print b["cpu0"] + 0, b["cpu1"] + 0 }' /proc/stat
}

run() { # <side-dir> <out-file> [trace=0]; also writes <out-file>.cpu: "<cpu0 delta> <cpu1 delta> <tag>"
    local a0 b0 a1 b1
    read -r a0 b0 < <(busy)
    (cd "$1" && "${command[@]}" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace "${3:-0}" 2>/dev/null | tail -n 1) >"$2"
    read -r a1 b1 < <(busy)
    # One core did the run when the other moved by under a twentieth of it.
    awk -v a=$((a1 - a0)) -v b=$((b1 - b0)) 'BEGIN {
        lo = a < b ? a : b; hi = a < b ? b : a
        print a, b, (lo * 20 < hi ? "one-core" : "two-core") }' >"$2.cpu"
}

cores() { # <out-file> -> "two-core (cpu0 +1054 cpu1 +393)"
    awk '{ printf "%s (cpu0 +%d cpu1 +%d)", $3, $1, $2 }' "$1.cpu"
}

for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        run "$parent" "$out/$workload.parent.$i.json"
        run "$root" "$out/$workload.change.$i.json"
    else
        run "$root" "$out/$workload.change.$i.json"
        run "$parent" "$out/$workload.parent.$i.json"
    fi
    line="pair $i/$pairs done   parent: $(cores "$out/$workload.parent.$i.json")"
    line="$line   change: $(cores "$out/$workload.change.$i.json")"
    if [ "$(cut -d' ' -f3 "$out/$workload.parent.$i.json.cpu")" != \
         "$(cut -d' ' -f3 "$out/$workload.change.$i.json.cpu")" ]; then
        line="$line   <-- WARNING: the two sides ran on different core counts"
    fi
    echo "$line"
done

if [ -n "$layers" ]; then
    run "$parent" "$out/$workload.parent.trace.json" 1
    run "$root" "$out/$workload.change.trace.json" 1
    echo "traced run per side done"
fi

# What was measured: HEAD (marked when the working tree differs from it)
# against the parent ref, by commit id.
commit="$(git rev-parse --short HEAD)$(git diff --quiet HEAD 2>/dev/null || echo +dirty)"
parent_commit="$(git rev-parse --short "$ref" 2>/dev/null || echo "$ref")"

python3 - "$out" "$workload" "$pairs" "$seed" "$commit" "$parent_commit" "$layers" <<'EOF'
import json, statistics, sys

out, workload, pairs, seed = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
session = {"commit": sys.argv[5], "parent": sys.argv[6], "workload": workload, "seed": seed,
           "pairs": pairs, "metrics": {}}
bench = json.load(open("BENCHMARK.json"))

def load(side, i):
    doc = json.load(open(f"{out}/{workload}.{side}.{i}.json"))
    values = {k: (v["value"] if isinstance(v, dict) else v) for k, v in doc["metrics"].items()}
    return values, doc["failed"] / max(doc["attempted"], 1), doc["correct"]

layers = sys.argv[7].split()
traced = {side: load(side, "trace") for side in ("parent", "change")} if layers else {}

parent = [load("parent", i) for i in range(1, pairs + 1)]
change = [load("change", i) for i in range(1, pairs + 1)]

def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

print(f"\n{workload}: {pairs} alternating pairs")
print(f"{'metric':22}{'parent med':>12}{'[q1':>11}{'q3]':>11}{'change med':>12}{'won':>7}  verdict")
for m in bench["end_to_end"]:
    name, lower, bound = m["name"], m["better"] == "lower", m["bound"]
    p = [r[0][name] for r in parent]
    c = [r[0][name] for r in change]
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    won = sum(better(ci, pi) for ci, pi in zip(c, p))
    lost = sum(better(pi, ci) for ci, pi in zip(c, p))
    pm, cm = statistics.median(p), statistics.median(c)
    q1, q3 = quartiles(p)
    gain = (pm - cm) if lower else (cm - pm)          # > 0: change is better
    if won >= 0.9 * pairs and gain > (q3 - q1):
        verdict = "better"
    elif pm != 0 and -gain / abs(pm) > bound:
        verdict = "worse"
    elif pm != 0 and (q3 - q1) / abs(pm) > bound and not all(better(ci, pi) for ci in c for pi in p):
        verdict = "unresolved"
    else:
        verdict = "same"
    print(f"{name:22}{pm:12.4f}{q1:11.4f}{q3:11.4f}{cm:12.4f}{won:4d}/{won + lost:<2d}  {verdict}")
    session["metrics"][name] = {"parent_median": pm, "parent_q1": q1, "parent_q3": q3,
                                "change_median": cm, "won": won, "lost": lost, "verdict": verdict}

if layers:
    print(f"\nper-layer, one --trace 1 run per side\n{'metric':28}{'parent':>16}{'change':>16}")
    session["layers"] = {}
    for name in layers:
        p, c = (traced[side][0].get(name) for side in ("parent", "change"))
        shown = ["-" if v is None else f"{v:.0f}" if float(v).is_integer() else f"{v:.6g}" for v in (p, c)]
        print(f"{name:28}{shown[0]:>16}{shown[1]:>16}")
        session["layers"][name] = {"parent": p, "change": c}

def core_tags(side):
    return [open(f"{out}/{workload}.{side}.{i}.json.cpu").read().split()[2]
            for i in range(1, pairs + 1)]

ptags, ctags = core_tags("parent"), core_tags("change")
session["cores"] = {"parent": ptags, "change": ctags}
print("cores: " + ", ".join(f"{n} {side} runs {tag}" for side, tags in
      (("parent", ptags), ("change", ctags)) for tag in sorted(set(tags))
      for n in [tags.count(tag)]))
split = [i + 1 for i, (p, c) in enumerate(zip(ptags, ctags)) if p != c]
if split:
    print(f"WARNING: pairs {split} ran their two sides on different core counts;"
          " if the workload keeps two threads busy, they show the machine, not the commits")
elif len(set(ptags)) > 1:
    print("WARNING: the pairs are a mix of one-core and two-core runs; the medians"
          " and quartiles above span both states")

pf, cf = max(r[1] for r in parent), max(r[1] for r in change)
print(f"failed/attempted (worst run): parent {pf:.6f}  change {cf:.6f}"
      + ("   <-- more failures" if cf > pf else ""))
runs = parent + change + list(traced.values())
if not all(r[2] for r in runs):
    print("a run reported correct=false")
session["failed_frac"] = {"parent": pf, "change": cf}
session["correct"] = all(r[2] for r in runs)
with open("BENCH_history.jsonl", "a") as history:
    history.write(json.dumps(session) + "\n")
print(f"every run: {out}/   session appended to BENCH_history.jsonl")
EOF
