//! Ablation — the merge rate δ: amortized cost vs per-merge latency cap.
//!
//! Theorem 2 bounds every ChooseBest merge by δ(1/Γ + 1)·K_i, so δ is the
//! knob trading amortized write cost against worst-case merge size (the
//! index's availability, the original motivation for partial merges). The
//! sweep reports both ends of the trade for each δ.
//!
//! ```text
//! cargo run --release --bin abl_delta_sweep -- [--deltas=0.02,0.05,0.1,0.2,0.5] \
//!     [--size-mb=40] [--measure-mb=60]
//! ```

use std::sync::Arc;

use lsm_bench::{make_tree, measure, steady_state, Args, Table, WorkloadKind};
use lsm_tree::observe::{Event, SinkHandle, VecSink};
use lsm_tree::{LsmConfig, PolicySpec, TreeOptions};
use workloads::volume_requests;

fn main() {
    let args = Args::from_env();
    let deltas: Vec<f64> = args.list_or("deltas", &[0.02, 0.05, 0.1, 0.2, 0.5]);
    let size_mb: u64 = args.get_or("size-mb", 40);
    let measure_mb: f64 = args.get_or("measure-mb", 60.0);
    let seed: u64 = args.get_or("seed", 1);
    args.done();

    let bytes = size_mb * 1024 * 1024;
    println!("\n== Ablation: merge rate δ (ChooseBest, Uniform, {size_mb} MB) ==");
    let mut table = Table::new(["delta", "writes_per_mb", "max_merge_writes", "mean_merge_writes"]);
    for &delta in &deltas {
        let cfg = LsmConfig {
            k0_blocks: 250,
            cache_blocks: 256,
            merge_rate: delta,
            ..LsmConfig::default()
        };
        let probe = Arc::new(VecSink::new());
        let opts = TreeOptions::builder()
            .policy(PolicySpec::ChooseBest)
            .sink(SinkHandle::new(Arc::clone(&probe) as _))
            .build();
        let mut tree = make_tree(&cfg, opts, bytes);
        let mut wl = steady_state(&mut tree, WorkloadKind::Uniform, seed, bytes);
        probe.drain();
        let r = measure(&mut tree, &mut *wl, volume_requests(measure_mb, cfg.record_size()), false);

        let merge_writes: Vec<u64> = probe
            .drain()
            .into_iter()
            .filter_map(|e| match e {
                Event::MergeFinish { writes, .. } => Some(writes),
                _ => None,
            })
            .collect();
        let max = merge_writes.iter().copied().max().unwrap_or(0);
        let mean = merge_writes.iter().sum::<u64>() as f64 / merge_writes.len().max(1) as f64;
        table.row([
            format!("{delta}"),
            format!("{:.2}", r.writes_per_mb),
            max.to_string(),
            format!("{mean:.2}"),
        ]);
        eprintln!("  δ={delta}: {:.0} writes/MB, worst merge {max} blocks", r.writes_per_mb);
    }
    table.print();
    table.save("abl_delta_sweep");
}
