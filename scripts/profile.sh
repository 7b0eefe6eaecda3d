#!/usr/bin/env bash
# Where one BENCHMARK.json workload spends its CPU time, function by function.
#
#   scripts/profile.sh <workload> [runs=3] [seed=7]
#
# The box has no perf and no gdb. This builds scripts/prof/prof.c (a SIGPROF
# sampler, 1 ms of CPU time a sample) into a temporary directory, runs
# lsm_perf under it with LD_PRELOAD — BENCHMARK.json's workload, seconds and
# `--trace 0`, `runs` times — and hands the dumps to scripts/prof/report.py:
# self, inclusive and outside-the-binary-by-caller tables over all runs.
# Both release profiles carry `debug = "line-tables-only"`, which is what
# lets addr2line see inlined frames.
#
# $PROF_REPORT holds arguments for report.py, to cut the samples to a phase:
#
#   PROF_REPORT="--within ingest_rounds --without calib::" scripts/profile.sh ingest
#
# $PROF_KEEP names a directory to keep the dumps in (report.py can be run
# over them again with other cuts). Writes nothing into the checkout but
# lsm_perf's own scratch data under perf/.data/.
set -euo pipefail

if [ "$#" -lt 1 ]; then
    sed -n '2,4p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi
workload="$1"
runs="${2:-3}"
seed="${3:-7}"

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
dumps="${PROF_KEEP:-$work}"
mkdir -p "$dumps"

seconds="$(python3 -c "import json; print(json.load(open('BENCHMARK.json'))['run_seconds'])")"
cc -O2 -shared -fPIC -o "$work/prof.so" scripts/prof/prof.c
cargo build --release --offline --quiet --manifest-path perf/Cargo.toml
bin="$root/perf/target/release/lsm_perf"

for i in $(seq 1 "$runs"); do
    PROF_OUT="$dumps/$workload.$i.prof" LD_PRELOAD="$work/prof.so" "$bin" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 >/dev/null
    echo "run $i/$runs done"
done
# shellcheck disable=SC2086  # PROF_REPORT is a list of arguments
python3 scripts/prof/report.py --binary "$bin" ${PROF_REPORT:-} "$dumps/$workload".*.prof
