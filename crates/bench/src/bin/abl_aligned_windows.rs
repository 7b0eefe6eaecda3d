//! Ablation — arbitrary-range vs SSTable-granularity window selection
//! (the §VI HyperLevelDB comparison).
//!
//! HyperLevelDB pre-partitions each level and picks the best partition to
//! merge; the paper's ChooseBest "examines all possible ranges and can
//! find potentially cheaper options", making ChooseBest(-P) a lower bound
//! on HyperLevelDB's cost. This sweep quantifies the gap by running
//! ChooseBest, ChooseBest restricted to aligned windows, and RR on the
//! same workloads.
//!
//! ```text
//! cargo run --release --bin abl_aligned_windows -- [--size-mb=40] [--measure-mb=60]
//! ```

use lsm_bench::{make_tree, measure, steady_state, Args, Table, WorkloadKind};
use lsm_tree::{LsmConfig, PolicySpec, TreeOptions};
use workloads::volume_requests;

fn main() {
    let args = Args::from_env();
    let size_mb: u64 = args.get_or("size-mb", 40);
    let measure_mb: f64 = args.get_or("measure-mb", 60.0);
    let seed: u64 = args.get_or("seed", 1);
    args.done();

    let policies = [
        ("RR", PolicySpec::RoundRobin),
        ("ChooseBestAligned", PolicySpec::ChooseBestAligned),
        ("ChooseBest", PolicySpec::ChooseBest),
    ];
    let cfg =
        LsmConfig { k0_blocks: 250, cache_blocks: 256, merge_rate: 0.05, ..LsmConfig::default() };
    let bytes = size_mb * 1024 * 1024;
    let requests = volume_requests(measure_mb, cfg.record_size());

    println!("\n== Ablation: window-selection granularity ({size_mb} MB) ==");
    let mut table = Table::new(["workload", "policy", "writes_per_mb"]);
    for kind in [WorkloadKind::Uniform, WorkloadKind::normal_default()] {
        for (name, spec) in &policies {
            let mut tree =
                make_tree(&cfg, TreeOptions::builder().policy(spec.clone()).build(), bytes);
            let mut wl = steady_state(&mut tree, kind, seed, bytes);
            let r = measure(&mut tree, &mut *wl, requests, false);
            table.row([kind.name(), *name, &format!("{:.2}", r.writes_per_mb)]);
            eprintln!("  [{}] {name}: {:.0} writes/MB", kind.name(), r.writes_per_mb);
        }
    }
    table.grid(&["workload"], "policy", "writes_per_mb").print();
    table.save("abl_aligned_windows");
}
