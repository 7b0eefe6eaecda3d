#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints, tests. Run before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."
# One scratch directory for every stage that writes files.
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
tree_before="$(git status --porcelain)"

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

echo "== vendored bytes stand-in (slice views, the frame pool; not a workspace member) =="
cargo test -q --offline --manifest-path vendor/bytes/Cargo.toml --target-dir target/vendor-bytes

echo "== benchmark crate: unit tests + smoke run against the frozen engine surface =="
# perf/ is a crate of its own that calls the engine only through the
# functions listed in perf/README.md (Frozen engine surface); its smoke run
# also checks every emitted metric name against BENCHMARK.json. A change
# that breaks that surface must fail here, not at the benchmark gate.
cargo test -q --release --offline --manifest-path perf/Cargo.toml

echo "== crash-torture smoke (64 seeded power cuts, single writer) =="
cargo run --release -q -p lsm-bench --bin lsm_crash -- --seeds=64
# Full soak (thousands of seeds), not part of the gate:
#   cargo test --release --test crash_torture -- --ignored

echo "== crash-torture smoke, concurrent shape (100 seeded writer/scheduler interleavings) =="
cargo run --release -q -p lsm-bench --bin lsm_crash -- --scheduler=background \
    --writers=3 --shards=2 --seeds=100
# Longer soak (more seeds, longer histories), not part of the gate:
#   cargo test --release -p lsm-tree --test concurrent_torture -- --ignored

echo "== observer-effect regression, inline and with the scheduler enabled =="
cargo test -q -p lsm-tree --test trace_spans -- observer_effect

echo "== post-mortem smoke (fault-injected torture cycle -> bundle -> reader -> validator) =="
pm_dir="$work/pm"
mkdir "$pm_dir"
# One torture cycle (FaultDevice power cut mid-workload) with an
# unconditional dump; the bundle must exist, render and validate.
cargo run --release -q -p lsm-bench --bin lsm_crash -- --seeds=1 --seed-base=9001 \
    --bundle-dir="$pm_dir" --always-dump
bundle="$pm_dir/lsm_crash_seed_9001.postmortem.json"
test -s "$bundle" || { echo "missing post-mortem bundle $bundle"; exit 1; }
cargo run --release -q -p lsm-bench --bin lsm_postmortem -- "$bundle" > /dev/null
cargo run --release -q -p lsm-bench --bin lsm_doctor -- check "$bundle"

echo "== file-backend crash torture (16 + 8 power cuts over real backing files) =="
cargo run --release -q -p lsm-bench --bin lsm_crash -- --seeds=16 --seed-base=5000 \
    --backend=file
# The concurrent shape over FileDevice shards: recovery restores each
# shard's manifest over its file's durable image.
cargo run --release -q -p lsm-bench --bin lsm_crash -- --scheduler=background \
    --backend=file --seeds=8 --seed-base=5100

echo "== doctor smoke: one traced run, all five exporters, one validator pass =="
obs_dir="$work/obs"
mkdir "$obs_dir"
# One tick-clock run writes the Chrome trace, the Prometheus exposition
# (health and tail gauges included), the time series, a validated
# lsm-health/v1 report and a validated lsm-tail/v1 report, beside its
# merged report — all under $work: the committed results/lsm_doctor.json
# is a full-size run. The doctor reconciles both engines' request counts
# exactly against the tree's counters and the health engine's cumulative
# counters against the metrics registry, and exits 1 on a mismatch or on
# a health report that judged no window or counted no put — hence the
# window small enough for a 2 MB run to close several.
cargo run --release -q -p lsm-bench --bin lsm_doctor -- --size-mb=2 --tick-clock \
    --out="$obs_dir/doctor.json" --trace-out="$obs_dir/trace.json" \
    --prom-out="$obs_dir/metrics.prom" --series-out="$obs_dir/series.csv" \
    --health-out="$obs_dir/health.json" --health-window-ops=64 \
    --tail-out="$obs_dir/tail.json" > /dev/null
for gauge in lsm_health_windows_completed lsm_tail_windows_completed; do
    grep -q "$gauge" "$obs_dir/metrics.prom" \
        || { echo "$gauge missing from exposition"; exit 1; }
done
# The reader re-validates every file, per-exemplar phase sums included.
cargo run --release -q -p lsm-bench --bin lsm_doctor -- check "$obs_dir/doctor.json" \
    "$obs_dir/trace.json" "$obs_dir/metrics.prom" "$obs_dir/series.csv" \
    "$obs_dir/health.json" "$obs_dir/tail.json"

echo "== dashboard and stall smokes (lsm_top frame, lsm_top --json, --tail-stall) =="
# One dashboard frame over a live sharded workload, as text and as JSON
# (health + tail reports embedded).
cargo run --release -q -p lsm-bench --bin lsm_top -- --once --windows=4 --window-ops=200 \
    > /dev/null
cargo run --release -q -p lsm-bench --bin lsm_top -- --once --json --windows=4 \
    --window-ops=200 > /dev/null
# The seeded stall scenario: blame must name backpressure_wait, twice
# over the same seed, byte-identically.
cargo run --release -q -p lsm-bench --bin lsm_doctor -- --tail-stall > /dev/null

echo "== unwrap/expect outside tests: no more than the committed baseline =="
# A panic inside a chunk or an install leaves a shard half-applied behind a
# lock that never poisons (ROADMAP item 10c): the count of `.unwrap(` and
# `.expect(` above each file's `mod tests` may fall, never rise. When it
# falls, lower scripts/panic_sites.baseline with it.
panic_sites() { # <dir>
    find "$1" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { tests = 0 }
        /^mod tests/ { tests = 1 }
        tests || /^[[:space:]]*\/\// { next }
        { n += gsub(/\.(unwrap|expect)\(/, "&") }
        END { print n + 0 }'
}
while read -r dir baseline; do
    now="$(panic_sites "$dir")"
    echo "$dir: $now (baseline $baseline)"
    if [ "$now" -gt "$baseline" ]; then
        echo "$dir has $((now - baseline)) more unwrap/expect sites outside tests than the baseline"
        exit 1
    fi
done < scripts/panic_sites.baseline

echo "== deleted names stay deleted =="
# What lsm_perf, the one-trait sink plane, the one ordered merge
# (`iter.rs`) and the stamped span stream replaced may not creep back into
# code, scripts or docs (history files and the frozen benchmark crate may
# keep naming them).
gone='lsm_throughput|lsm_fileio|BENCH_fileio|BENCH_tail|trace_check|\bTraceSink\b|FanoutSink|CountingSink'
gone="$gone"'|\bmerge_ordered\b|fn merge_runs|struct Run\b'
gone="$gone"'|record_put|record_get|LatencyDevice|LatencyHistogram|TextExpositionSink'
gone="$gone"'|ShardMergeFinish|HealthTransition|emit_transitions_to'
# One checksum function, one stored width (PR 24).
gone="$gone"'|\bsum32\b'
# Two commit modes and one write loop (PR 25).
gone="$gone"'|PerRequest|\blog_one\b'
# One durable engine, one crash cycle (PR 26).
gone="$gone"'|DurableLsmTree|run_concurrent_crash_cycle|ConcurrentTortureConfig'
gone="$gone"'|ConcurrentTortureReport'
# Rows dated by the levels' install epoch, not records dated by id generations.
gone="$gone"'|CacheKey::Record|record_key'
if git grep -nE "$gone" -- . ':!CHANGES.md' ':!ROADMAP.md' ':!ISSUE.md' \
    ':!BENCH_history.jsonl' ':!perf' ':!scripts/check.sh'; then
    echo "deleted names are back (see above)"
    exit 1
fi

echo "== the gate leaves the checkout as it found it =="
# No stage may write into the repository (a smoke run once overwrote a
# committed full-size report): on a clean checkout this is an empty
# `git status --porcelain`.
if [ "$(git status --porcelain)" != "$tree_before" ]; then
    echo "check.sh changed the working tree:"
    git status --porcelain
    exit 1
fi

echo "All checks passed."
