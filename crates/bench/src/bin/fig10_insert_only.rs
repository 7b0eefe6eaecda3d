//! Figure 10 — insert-only workload: amortized write cost over time as
//! the index grows from empty, Normal(σ = 0.5 %, ω = 10⁴), all seven
//! policies. Each point is the average writes/MB since the beginning.
//!
//! Paper claims verified here:
//! * Mixed is the overall winner; Full is worst;
//! * block-preserving policies beat their "-P" twins by much more than in
//!   the steady-state experiments, because insert-only Normal concentrates
//!   keys (deletes are what smear the distribution in the 50/50 runs).
//!
//! ```text
//! cargo run --release --bin fig10_insert_only -- [--grow-to-mb=2000] \
//!     [--points=10] [--paper-scale] [--seed=1]
//! ```

use lsm_bench::{make_tree, policy_matrix, Args, ExperimentScale, Table, WorkloadKind};
use workloads::{CostMeter, InsertRatio};

fn main() {
    let args = Args::from_env();
    let scale = ExperimentScale::large(args.flag("paper-scale"));
    let seed: u64 = args.get_or("seed", 1);
    let grow_to_mb: u64 = args.get_or("grow-to-mb", 2000);
    let points: u64 = args.get_or("points", 10);
    args.done();

    let kind = WorkloadKind::normal_default();
    let cfg = scale.config(100);
    let target_bytes = scale.dataset_bytes(grow_to_mb);
    let checkpoint = target_bytes / points;

    println!(
        "\n== Figure 10 (insert-only Normal, scale {}) — average writes per 1MB since start ==",
        scale.name
    );
    let mut table = Table::new([
        "paper_size_mb",
        "policy",
        "avg_writes_per_mb_since_start",
        "preserved_per_mb",
    ]);
    for case in &policy_matrix() {
        eprintln!("running {} ...", case.name);
        let mut tree = make_tree(&cfg, case.options(), target_bytes);
        // Mixed runs with its defaults (the paper reuses thresholds learned
        // for the steady state; TestMixed parameters are those defaults).
        let mut wl = kind.build(seed, cfg.payload_size, InsertRatio::INSERT_ONLY);
        let meter = CostMeter::start(&tree);
        for p in 1..=points {
            while tree.approx_bytes() < checkpoint * p {
                tree.apply(wl.next_request()).expect("insert");
            }
            let r = meter.read(&tree);
            table.row([
                (grow_to_mb * p / points).to_string(),
                case.name.to_string(),
                format!("{:.2}", r.writes_per_mb),
                format!("{:.2}", r.blocks_preserved as f64 / r.volume_mb.max(1e-9)),
            ]);
        }
    }
    table.grid(&["paper_size_mb"], "policy", "avg_writes_per_mb_since_start").print();
    table.save("fig10_insert_only");
}
