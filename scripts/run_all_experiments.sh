#!/usr/bin/env bash
# Regenerate every figure, ablation and extension CSV under results/ with
# the arguments that made the committed files (sequentially; several hours
# at default scale on one core). Wall-clock columns (`seconds_per_mb`)
# differ from run to run; every count repeats.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release -p lsm-bench
B=./target/release
$B/fig1_key_distribution --size-mb=20 --policy=rr
$B/fig2_amortized_small
$B/fig3_cumulative_by_level --total-mb=250 --step-mb=2.5
$B/fig5_threshold_curve
# Figure 6: one CSV per workload; TPC stops at 1600 MB. The untagged
# fig6_steady_state.csv is the quick Uniform cell.
$B/fig6_steady_state --workload=uniform --tag=uniform
$B/fig6_steady_state --workload=normal --tag=normal
$B/fig6_steady_state --workload=tpc --sizes=200,800,1600 --tag=tpc
$B/fig6_steady_state --workload=uniform --sizes=200 --measure-mb=20
$B/fig8_skew_sweep --measure-mb=90
$B/fig9_payload_sweep --payloads=25,100,1000,4000 --measure-mb=90
$B/fig10_insert_only --points=8
$B/abl_constraints
$B/abl_delta_sweep
$B/abl_eps_sweep
$B/abl_aligned_windows
$B/abl_learning_search
$B/ext_query_costs
$B/ext_stepped_merge
$B/ext_latency_tail
# Figure 7 measures wall time: it runs last, with nothing beside it.
$B/fig7_running_time --sizes=200,800,1600 --measure-mb=90
echo "all experiments regenerated under results/"
