//! Ablation — why §II-B needs the waste constraints.
//!
//! Runs the same steady-state ChooseBest workload with the pairwise and
//! level-wise waste constraints enabled/disabled and reports write cost,
//! space blow-up (blocks used vs minimal), level waste factors, and the
//! sparsest adjacent block pair. Without the constraints, preservation and
//! partial merges accumulate nearly-empty runs: space grows and merges
//! touch more blocks for the same key span.
//!
//! ```text
//! cargo run --release --bin abl_constraints -- [--size-mb=40] [--measure-mb=60]
//! ```

use lsm_bench::{make_tree, measure, space_overhead, steady_state, Args, Table, WorkloadKind};
use lsm_tree::{LsmConfig, PolicySpec, TreeOptions};
use workloads::volume_requests;

fn main() {
    let args = Args::from_env();
    let size_mb: u64 = args.get_or("size-mb", 40);
    let measure_mb: f64 = args.get_or("measure-mb", 60.0);
    let seed: u64 = args.get_or("seed", 1);
    args.done();

    let cfg =
        LsmConfig { k0_blocks: 250, cache_blocks: 256, merge_rate: 0.05, ..LsmConfig::default() };
    let bytes = size_mb * 1024 * 1024;
    println!("\n== Ablation: §II-B waste constraints on/off (ChooseBest, Normal, {size_mb} MB) ==");
    let mut table = Table::new([
        "constraints",
        "writes_per_mb",
        "space_blowup",
        "worst_level_waste",
        "sparsest_pair",
        "compactions",
    ]);
    for (label, enforce) in [("enforced", true), ("disabled", false)] {
        let opts = TreeOptions::builder()
            .policy(PolicySpec::ChooseBest)
            .enforce_pairwise(enforce)
            .enforce_level_waste(enforce)
            .build();
        let mut tree = make_tree(&cfg, opts, bytes);
        let mut wl = steady_state(&mut tree, WorkloadKind::normal_default(), seed, bytes);
        let r = measure(&mut tree, &mut *wl, volume_requests(measure_mb, cfg.record_size()), false);

        let levels = tree.levels();
        let worst_waste = levels
            .iter()
            .filter(|l| l.num_blocks() >= 2)
            .map(|l| l.waste_factor(cfg.block_capacity()))
            .fold(0.0f64, f64::max);
        let sparsest_pair = levels
            .iter()
            .flat_map(|l| l.handles().windows(2))
            .map(|w| w[0].count + w[1].count)
            .min()
            .unwrap_or(0);
        let compactions: u64 = (1..=levels.len()).map(|i| tree.stats().level(i).compactions).sum();
        table.row([
            label.to_string(),
            format!("{:.2}", r.writes_per_mb),
            format!("{:.4}", space_overhead(&tree)),
            format!("{worst_waste:.4}"),
            sparsest_pair.to_string(),
            compactions.to_string(),
        ]);
    }
    table.print();
    table.save("abl_constraints");
}
