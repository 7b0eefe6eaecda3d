#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints, tests. Run before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."
# One scratch directory for every stage that writes files.
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test =="
cargo test -q --workspace

echo "== cargo doc (deny broken intra-doc links) =="
# Deleting or renaming a public item leaves dangling [`path`] links that
# nothing else catches.
RUSTDOCFLAGS="-D rustdoc::broken-intra-doc-links" \
    cargo doc --no-deps --offline -q -p lsm-tree -p sim-ssd -p observe -p workloads

echo "== vendored bytes stand-in (slice views; not a workspace member) =="
cargo test -q --offline --manifest-path vendor/bytes/Cargo.toml --target-dir target/vendor-bytes

echo "== benchmark crate: unit tests + smoke run against the frozen engine surface =="
# perf/ is a crate of its own that calls the engine only through the
# functions listed in perf/README.md (Frozen engine surface); its smoke run
# also checks every emitted metric name against BENCHMARK.json. A change
# that breaks that surface must fail here, not at the benchmark gate.
cargo test -q --release --offline --manifest-path perf/Cargo.toml

echo "== crash-torture smoke (64 seeded power cuts) =="
cargo run --release -q -p lsm-bench --bin lsm_crash -- --seeds=64
# Full soak (thousands of seeds), not part of the gate:
#   cargo test --release --test crash_torture -- --ignored

echo "== concurrent crash-torture smoke (100 seeded writer/scheduler interleavings) =="
cargo run --release -q -p lsm-bench --bin lsm_crash -- --scheduler=background \
    --writers=3 --shards=2 --seeds=100
# Longer soak (more seeds, longer histories), not part of the gate:
#   cargo test --release -p lsm-tree --test concurrent_torture -- --ignored

echo "== sharded front-end throughput smoke =="
cargo run --release -q -p lsm-bench --bin lsm_throughput -- --smoke

echo "== stall-free certification (background scheduler vs inline) =="
cargo run --release -q -p lsm-bench --bin lsm_throughput -- --smoke --certify-stall-free

echo "== observer-effect regression, inline and with the scheduler enabled =="
cargo test -q -p lsm-tree --test trace_spans -- observer_effect

echo "== post-mortem smoke (fault-injected torture cycle -> bundle -> reader) =="
pm_dir="$work/pm"
mkdir "$pm_dir"
# One torture cycle (FaultDevice power cut mid-workload) with an
# unconditional dump; the bundle must exist and validate.
cargo run --release -q -p lsm-bench --bin lsm_crash -- --seeds=1 --seed-base=9001 \
    --bundle-dir="$pm_dir" --always-dump
bundle="$pm_dir/lsm_crash_seed_9001.postmortem.json"
test -s "$bundle" || { echo "missing post-mortem bundle $bundle"; exit 1; }
cargo run --release -q -p lsm-bench --bin lsm_postmortem -- "$bundle" > /dev/null

echo "== trace exporter smoke (Chrome trace + Prometheus + time series) =="
obs_dir="$work/obs"
mkdir "$obs_dir"
cargo run --release -q -p lsm-bench --bin lsm_throughput -- --smoke --shards=2 \
    --trace-out="$obs_dir/trace.json" --prom-out="$obs_dir/metrics.prom" \
    --series-out="$obs_dir/series.csv"
cargo run --release -q -p lsm-bench --bin trace_check -- \
    --trace="$obs_dir/trace.json" --prom="$obs_dir/metrics.prom" \
    --series="$obs_dir/series.csv"

echo "== file-backend smoke (sharded throughput on real backing files) =="
cargo run --release -q -p lsm-bench --bin lsm_throughput -- --smoke --backend=file \
    --shards=1,2 --repeat=1

echo "== file-backend crash torture (16 power cuts over a real backing file) =="
cargo run --release -q -p lsm-bench --bin lsm_crash -- --seeds=16 --seed-base=5000 \
    --backend=file

echo "== file-backend batching smoke (syscall coalescing + schema check) =="
fileio_dir="$work/fileio"
mkdir "$fileio_dir"
# Fresh smoke report in a temp dir (the committed BENCH_fileio.json at the
# repo root is a full-size run; CI must not clobber it), then both the
# temp report and the committed one go through the doctor's validator.
cargo run --release -q -p lsm-bench --bin lsm_fileio -- --smoke \
    --out="$fileio_dir/BENCH_fileio.json"
cargo run --release -q -p lsm-bench --bin lsm_doctor -- \
    --check-fileio="$fileio_dir/BENCH_fileio.json"
cargo run --release -q -p lsm-bench --bin lsm_doctor -- --check-fileio=BENCH_fileio.json

echo "== windowed health smoke (report, validator, doctor reconciliation, lsm_top) =="
health_dir="$work/health"
mkdir "$health_dir"
# A traced smoke run writes a validated lsm-health/v1 report plus the
# health gauges in the Prometheus exposition; the doctor re-validates it.
cargo run --release -q -p lsm-bench --bin lsm_throughput -- --smoke --shards=2 \
    --health-out="$health_dir/health.json" --prom-out="$health_dir/metrics.prom"
grep -q "lsm_health_windows_completed" "$health_dir/metrics.prom" \
    || { echo "health gauges missing from exposition"; exit 1; }
cargo run --release -q -p lsm-bench --bin lsm_doctor -- \
    --check-health="$health_dir/health.json"
# The doctor's own health section must reconcile its rolling windows
# exactly against the cumulative metrics registry (exits 1 on mismatch).
cargo run --release -q -p lsm-bench --bin lsm_doctor -- --size-mb=2 --health > /dev/null
# One dashboard frame over a live sharded workload.
cargo run --release -q -p lsm-bench --bin lsm_top -- --once --windows=4 --window-ops=200 \
    > /dev/null
# The bench comparator must see a report as equal to itself.
cargo run --release -q -p lsm-bench --bin lsm_doctor -- \
    --compare=BENCH_fileio.json,BENCH_fileio.json > /dev/null

echo "== tail anatomy smoke (report, validator, doctor blame table, lsm_top --json) =="
tail_dir="$work/tail"
mkdir "$tail_dir"
# A traced smoke run writes a validated lsm-tail/v1 report plus the tail
# gauges in the Prometheus exposition; the doctor re-validates it and the
# committed baseline.
cargo run --release -q -p lsm-bench --bin lsm_throughput -- --smoke --shards=2 \
    --tick-clock --tail-out="$tail_dir/tail.json" --prom-out="$tail_dir/metrics.prom"
grep -q "lsm_tail_windows_completed" "$tail_dir/metrics.prom" \
    || { echo "tail gauges missing from exposition"; exit 1; }
cargo run --release -q -p lsm-bench --bin lsm_doctor -- \
    --check-tail="$tail_dir/tail.json"
cargo run --release -q -p lsm-bench --bin lsm_doctor -- --check-tail=BENCH_tail.json
# The doctor's own tail section must reconcile completed-span counts
# exactly against the tree's request counters (exits 1 on mismatch).
cargo run --release -q -p lsm-bench --bin lsm_doctor -- --size-mb=2 --tail > /dev/null
# The seeded stall scenario: blame must name backpressure_wait, twice
# over the same seed, byte-identically.
cargo run --release -q -p lsm-bench --bin lsm_doctor -- --tail-stall > /dev/null
# One machine-readable dashboard frame (health + tail reports embedded).
cargo run --release -q -p lsm-bench --bin lsm_top -- --once --json --windows=4 \
    --window-ops=200 > /dev/null
# The comparator self-check holds for the tail baseline too.
cargo run --release -q -p lsm-bench --bin lsm_doctor -- \
    --compare=BENCH_tail.json,BENCH_tail.json > /dev/null

echo "All checks passed."
