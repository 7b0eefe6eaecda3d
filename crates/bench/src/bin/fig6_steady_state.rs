//! Figure 6 — steady-state write cost across dataset sizes for all seven
//! policies: Full-P, Full, RR-P, RR, ChooseBest-P, ChooseBest, Mixed, on
//! Uniform (6a), Normal(σ = 0.5 %, ω = 10⁴) (6b), and TPC (6c).
//!
//! Shapes the paper reports, all measurable from this binary's output:
//! * Mixed has the fewest writes everywhere (or ties ChooseBest);
//! * the 3→4 level transition shows a *drop* in cost for Full and Mixed;
//! * RR ≈ ChooseBest under Uniform/TPC but clearly worse under Normal;
//! * "-P" variants ≈ their counterparts at 100-byte payloads under
//!   Uniform, but visibly worse under Normal (skew → preservation).
//!
//! Default scale is the paper's setup divided by 8 (kept ratios: Γ, δ, ε,
//! dataset/K2 — see EXPERIMENTS.md); `--paper-scale` runs full size.
//!
//! ```text
//! cargo run --release --bin fig6_steady_state -- [--workload=all] \
//!     [--sizes=200,400,...] [--measure-mb=60] [--paper-scale] [--seed=1] \
//!     [--no-learn]
//! ```

use lsm_bench::{
    make_tree, measure, policy_matrix, steady_state, workloads_flag, Args, ExperimentScale, Table,
    WorkloadKind,
};
use workloads::volume_requests;

fn main() {
    let args = Args::from_env();
    let scale = ExperimentScale::large(args.flag("paper-scale"));
    let seed: u64 = args.get_or("seed", 1);
    let measure_mb: f64 = args.get_or("measure-mb", 120.0);
    let learn = !args.flag("no-learn");
    let kinds = Args::or_exit(workloads_flag(&args, 3, "all"));
    let name = format!(
        "fig6_steady_state{}",
        args.get("tag").map(|t| format!("_{t}")).unwrap_or_default()
    );
    let default_sizes: &[u64] = &[200, 400, 800, 1200, 1600, 2000];
    let tpc_sizes: &[u64] = &[200, 800, 1600, 3200];
    let runs: Vec<(WorkloadKind, Vec<u64>)> = kinds
        .into_iter()
        .map(|kind| {
            let sizes = if kind == WorkloadKind::Tpc { tpc_sizes } else { default_sizes };
            (kind, args.list_or("sizes", sizes))
        })
        .collect();
    args.done();

    let cfg = scale.config(100);
    let requests = volume_requests(measure_mb, cfg.record_size());
    let mut table = Table::new([
        "workload",
        "paper_size_mb",
        "policy",
        "writes_per_mb",
        "reads_per_mb",
        "preserved_per_mb",
        "seconds_per_mb",
        "height",
    ]);
    for (kind, sizes) in &runs {
        for &size in sizes {
            for case in &policy_matrix() {
                let bytes = scale.dataset_bytes(size);
                let mut tree = make_tree(&cfg, case.options(), bytes);
                let mut wl = steady_state(&mut tree, *kind, seed, bytes);
                let r = measure(&mut tree, &mut *wl, requests, learn && case.learns());
                table.row([
                    kind.name().to_string(),
                    size.to_string(),
                    case.name.to_string(),
                    format!("{:.2}", r.writes_per_mb),
                    format!("{:.2}", r.blocks_read as f64 / r.volume_mb.max(1e-9)),
                    format!("{:.2}", r.blocks_preserved as f64 / r.volume_mb.max(1e-9)),
                    format!("{:.4}", r.seconds_per_mb()),
                    tree.height().to_string(),
                ]);
                eprintln!(
                    "  [{} {size}MB] {}: {:.0} writes/MB (h={})",
                    kind.name(),
                    case.name,
                    r.writes_per_mb,
                    tree.height()
                );
                // A long sweep keeps every finished cell on disk.
                table.write(&name).expect("write csv");
            }
        }
    }
    println!("\n== Figure 6 (scale {}) — blocks written per 1MB of requests ==", scale.name);
    table.grid(&["workload", "paper_size_mb"], "policy", "writes_per_mb").print();
    table.save(&name);
}
