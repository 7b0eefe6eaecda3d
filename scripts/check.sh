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

echo "== post-mortem smoke (fault-injected torture cycle -> bundle -> renderer -> validator) =="
pm_dir="$work/pm"
mkdir "$pm_dir"
# One torture cycle (FaultDevice power cut mid-workload) with an
# unconditional dump; the bundle (an lsm-report/v1 report) must exist,
# render through the doctor's one renderer and validate.
cargo run --release -q -p lsm-bench --bin lsm_crash -- --seeds=1 --seed-base=9001 \
    --bundle-dir="$pm_dir" --always-dump
bundle="$pm_dir/lsm_crash_seed_9001.postmortem.json"
test -s "$bundle" || { echo "missing post-mortem bundle $bundle"; exit 1; }
cargo run --release -q -p lsm-bench --bin lsm_doctor -- show "$bundle" > /dev/null
cargo run --release -q -p lsm-bench --bin lsm_doctor -- check "$bundle"

echo "== file-backend crash torture (16 + 8 power cuts over real backing files) =="
cargo run --release -q -p lsm-bench --bin lsm_crash -- --seeds=16 --seed-base=5000 \
    --backend=file
# The concurrent shape over FileDevice shards: recovery restores each
# shard's manifest over its file's durable image.
cargo run --release -q -p lsm-bench --bin lsm_crash -- --scheduler=background \
    --backend=file --seeds=8 --seed-base=5100

echo "== doctor smoke: one traced run, one report and two exporters, one validator pass =="
obs_dir="$work/obs"
mkdir "$obs_dir"
# One tick-clock run writes its lsm-report/v1 report — the windowed engine's
# health, tail and series among its sections — plus the Chrome trace and the
# Prometheus exposition (health and tail gauges included), all under $work:
# the committed results/lsm_doctor.json is a full-size run. The doctor
# reconciles the engine's counts exactly against the tree's counters and
# the metrics registry, and exits 1 on a mismatch or on a health report
# that judged no window or counted no put — hence the window small enough
# for a 2 MB run to close several (it is also the series' row interval).
cargo run --release -q -p lsm-bench --bin lsm_doctor -- --size-mb=2 --tick-clock \
    --health --tail --health-window-ops=64 --out="$obs_dir/doctor.json" \
    --trace-out="$obs_dir/trace.json" --prom-out="$obs_dir/metrics.prom" > /dev/null
for gauge in lsm_health_windows_completed lsm_tail_exemplars; do
    grep -q "$gauge" "$obs_dir/metrics.prom" \
        || { echo "$gauge missing from exposition"; exit 1; }
done
for section in health tail series; do
    grep -q "^  \"$section\": " "$obs_dir/doctor.json" \
        || { echo "doctor.json has no $section section"; exit 1; }
done
# The reader re-validates every file, per-exemplar phase sums included, and
# the doctor's report must be read as lsm-report/v1.
cargo run --release -q -p lsm-bench --bin lsm_doctor -- check "$obs_dir/doctor.json" \
    "$obs_dir/trace.json" "$obs_dir/metrics.prom" | tee "$obs_dir/check.txt"
grep -qxF "$obs_dir/doctor.json: valid lsm-report/v1 report." "$obs_dir/check.txt" \
    || { echo "doctor.json was not validated as lsm-report/v1"; exit 1; }

echo "== dashboard smokes (lsm_top frame, lsm_top --json) =="
# One dashboard frame over a live sharded workload, as text and as JSON
# (an lsm-report/v1 report with the health and tail sections), validated.
# The seeded stall scenario's blame and replay are tests
# (crates/lsm-tree/tests/tail_anatomy.rs, run by the cargo test stage).
cargo run --release -q -p lsm-bench --bin lsm_top -- --once --windows=4 --window-ops=200 \
    > /dev/null
cargo run --release -q -p lsm-bench --bin lsm_top -- --once --json --windows=4 \
    --window-ops=200 > "$obs_dir/top.json"
cargo run --release -q -p lsm-bench --bin lsm_doctor -- check "$obs_dir/top.json"

echo "== experiment binaries: a small run of each writes its CSV; a misspelled flag exits 2 =="
# Each figure, ablation and extension binary runs from $work at sizes that
# finish in seconds, so a panic or a failed assert (fig5's and
# abl_learning_search's 4-level tree, fig1's 3) shows here rather than in a
# regeneration that takes hours. Its CSV lands in $work/results/ and must
# start with its header. The same binary given one misspelled flag must
# exit 2 before it writes anything.
cargo build --release -q -p lsm-bench
bin="$PWD/target/release"
while read -r name header args; do
    [ -n "$name" ] || continue
    dir="$work/exp/$name"
    mkdir -p "$dir/typo"
    # shellcheck disable=SC2086 # $args is a list of flags
    (cd "$dir" && "$bin/$name" $args > out.txt 2>&1) \
        || { cat "$dir/out.txt"; echo "$name $args failed"; exit 1; }
    csv="$dir/results/$name.csv"
    [ "$(head -n 1 "$csv")" = "$header" ] && [ "$(wc -l < "$csv")" -gt 1 ] \
        || { echo "$csv: missing, no rows, or header is not $header"; exit 1; }
    rc=0
    # shellcheck disable=SC2086
    (cd "$dir/typo" && "$bin/$name" $args --seeed=1 > /dev/null 2>&1) || rc=$?
    [ "$rc" -eq 2 ] && [ ! -e "$dir/typo/results" ] \
        || { echo "$name --seeed=1: exit $rc (want 2), or it wrote results/"; exit 1; }
done <<'EOF'
fig1_key_distribution bucket,l1_freq,l2_freq,next_merge_marker --size-mb=20
fig2_amortized_small workload,size_mb,policy,writes_per_mb --sizes=2 --measure-mb=2 --workload=uniform
fig3_cumulative_by_level policy,timeline_mb,level,cumulative_writes --size-mb=2 --total-mb=5
fig5_threshold_curve workload,tau,cost_per_block_to_l1 --k0-blocks=8 --size-mb=4 --cycles=1 --workload=uniform
fig6_steady_state workload,paper_size_mb,policy,writes_per_mb,reads_per_mb,preserved_per_mb,seconds_per_mb,height --workload=uniform --sizes=64 --measure-mb=2
fig7_running_time paper_size_mb,policy,seconds_per_mb,writes_per_mb --sizes=64 --measure-mb=2
fig8_skew_sweep two_sigma_pct,policy,writes_per_mb,preserved_per_mb --size-mb=64 --two-sigma-pct=5 --measure-mb=2
fig9_payload_sweep payload_bytes,policy,writes_per_mb,preserved_per_mb,records_per_block --size-mb=64 --payloads=1000 --measure-mb=2
fig10_insert_only paper_size_mb,policy,avg_writes_per_mb_since_start,preserved_per_mb --grow-to-mb=64 --points=2
abl_aligned_windows workload,policy,writes_per_mb --size-mb=2 --measure-mb=2
abl_constraints constraints,writes_per_mb,space_blowup,worst_level_waste,sparsest_pair,compactions --size-mb=2 --measure-mb=2
abl_delta_sweep delta,writes_per_mb,max_merge_writes,mean_merge_writes --deltas=0.1 --size-mb=2 --measure-mb=2
abl_eps_sweep eps,writes_per_mb,preserved_per_mb,compactions,space_overhead --eps=0.1 --size-mb=2 --measure-mb=2
abl_learning_search strategy,tau2,beta,measurements,requests --k0-blocks=8 --size-mb=4
ext_query_costs policy,bloom,reads_per_present,reads_per_absent,scan_reads_per_1k,space_overhead,scan_blocks_per_1k --size-mb=2 --probes=1000
ext_stepped_merge design,writes_per_mb,lookup_reads_per_query,lookup_fanout --size-mb=2 --measure-mb=2 --probes=1000
ext_latency_tail policy,mean_us,p50_us,p99_us,p999_us,p9999_us,max_us --size-mb=2 --measure-mb=2
EOF

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
# One windowed engine: the tail reservoir and the amplification series
# run on the health engine's windows.
gone="$gone"'|ExemplarSink|ExemplarConfig|TimeseriesSink|TimeseriesSample|series-every'
gone="$gone"'|tail-window-puts|tail-windows|window_puts'
# One scheduler, two drivers: the stepped executor is the worker pool run
# without threads.
gone="$gone"'|SchedulerBackend|SimExecutor|\bSimState\b'
# One report, one recorder: the doctor's report and the post-mortem bundle
# are one lsm-report/v1 document, and the flight recorder is a bounded VecSink.
gone="$gone"'|FlightRecorderSink|FlightEntry|lsm_postmortem|lsm-postmortem/v1|merged_json'
gone="$gone"'|StreamSink|LSM_WATCHDOG_BUNDLE_DIR|\bPostMortem\b'
# One run, one file: the windowed engine's reports are sections of the
# doctor's lsm-report/v1, and the tail section no longer repeats the health
# section (lsm-tail/v2).
gone="$gone"'|ObsPipeline|health-out|tail-out|series-out|series_csv|check_series|tail-stall'
gone="$gone"'|tail_stall|health-windows|tail-per-shard|lsm-tail/v1'
# A writer keeps the shard lock across its run and yields to whoever
# waits: one `waiting` signal, no per-hold bound.
gone="$gone"'|readers_waiting|longest_hold'
# A merge opens an input block when it reaches it: no definite-read
# prefetch, no batched store read (`\b` keeps `read_blocks_per_get`), and
# one experiment runner.
gone="$gone"'|\bread_blocks\b|mark_definite_reads|PREFETCH_MAX|COMPACT_BATCH|run_remaining'
# One §V protocol (`make_tree`, `steady_state`, `measure`) and one set of
# rows per result (`Table`, printed and written as CSV).
gone="$gone"'|prepared_tree[(`]|\bCsv\b'
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
