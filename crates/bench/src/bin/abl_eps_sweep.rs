//! Ablation — the maximum waste factor ε: preservation slack vs space.
//!
//! §II-B allows each merge `ε·δ·K·B` empty slots of slack; a larger ε
//! admits more block preservation (fewer writes) but tolerates more wasted
//! space and can require more compactions to repair. The sweep quantifies
//! all three.
//!
//! ```text
//! cargo run --release --bin abl_eps_sweep -- [--eps=0.05,0.1,0.2,0.3,0.5] \
//!     [--size-mb=40] [--measure-mb=60]
//! ```

use lsm_bench::{make_tree, measure, space_overhead, steady_state, Args, Table, WorkloadKind};
use lsm_tree::{LsmConfig, PolicySpec, TreeOptions};
use workloads::volume_requests;

fn main() {
    let args = Args::from_env();
    let eps_values: Vec<f64> = args.list_or("eps", &[0.05, 0.1, 0.2, 0.3, 0.5]);
    let size_mb: u64 = args.get_or("size-mb", 40);
    let measure_mb: f64 = args.get_or("measure-mb", 60.0);
    let seed: u64 = args.get_or("seed", 1);
    args.done();

    let bytes = size_mb * 1024 * 1024;
    println!("\n== Ablation: waste factor ε (ChooseBest, Normal, {size_mb} MB) ==");
    let mut table =
        Table::new(["eps", "writes_per_mb", "preserved_per_mb", "compactions", "space_overhead"]);
    for &eps in &eps_values {
        let cfg = LsmConfig {
            k0_blocks: 250,
            cache_blocks: 256,
            merge_rate: 0.05,
            waste_eps: eps,
            ..LsmConfig::default()
        };
        let opts = TreeOptions::builder().policy(PolicySpec::ChooseBest).build();
        let mut tree = make_tree(&cfg, opts, bytes);
        let mut wl = steady_state(&mut tree, WorkloadKind::normal_default(), seed, bytes);
        let r = measure(&mut tree, &mut *wl, volume_requests(measure_mb, cfg.record_size()), false);
        let compactions: u64 =
            (1..=tree.levels().len()).map(|i| tree.stats().level(i).compactions).sum();
        table.row([
            format!("{eps}"),
            format!("{:.2}", r.writes_per_mb),
            format!("{:.2}", r.blocks_preserved as f64 / r.volume_mb.max(1e-9)),
            compactions.to_string(),
            format!("{:.4}", space_overhead(&tree)),
        ]);
        eprintln!("  ε={eps}: {:.0} writes/MB, {compactions} compactions", r.writes_per_mb);
    }
    table.print();
    table.save("abl_eps_sweep");
}
