//! Figure 8 — effect of workload skew: steady-state write cost for a
//! 300 MB dataset under Normal(σ, ω = 10⁴) as 2σ sweeps from 0.005 % to
//! 20 % of the key domain, for all seven policies.
//!
//! Paper claims verified here (reading the sweep right to left, i.e.
//! increasing skew):
//! * ChooseBest(-P) pulls further ahead of RR(-P);
//! * block-preserving policies pull further ahead of their "-P" twins;
//! * Mixed keeps a comfortable lead across the whole range.
//!
//! ```text
//! cargo run --release --bin fig8_skew_sweep -- [--size-mb=300] \
//!     [--two-sigma-pct=0.005,0.05,1,5,20] [--measure-mb=60] [--seed=1]
//! ```

use lsm_bench::{
    make_tree, measure, policy_matrix, steady_state, Args, ExperimentScale, Table, WorkloadKind,
};
use workloads::volume_requests;

fn main() {
    let args = Args::from_env();
    let scale = ExperimentScale::large(args.flag("paper-scale"));
    let seed: u64 = args.get_or("seed", 1);
    let size_mb: u64 = args.get_or("size-mb", 300);
    let measure_mb: f64 = args.get_or("measure-mb", 120.0);
    let two_sigma_pct: Vec<f64> = args.list_or("two-sigma-pct", &[0.005, 0.05, 1.0, 5.0, 20.0]);
    args.done();

    let cfg = scale.config(100);
    let bytes = scale.dataset_bytes(size_mb);
    let requests = volume_requests(measure_mb, cfg.record_size());
    let mut table = Table::new(["two_sigma_pct", "policy", "writes_per_mb", "preserved_per_mb"]);
    for &pct in &two_sigma_pct {
        let sigma = pct / 100.0 / 2.0; // 2σ as a percentage → σ fraction
        let kind = WorkloadKind::Normal { sigma, omega: 10_000 };
        for case in &policy_matrix() {
            let mut tree = make_tree(&cfg, case.options(), bytes);
            let mut wl = steady_state(&mut tree, kind, seed, bytes);
            let r = measure(&mut tree, &mut *wl, requests, case.learns());
            table.row([
                format!("{pct}"),
                case.name.to_string(),
                format!("{:.2}", r.writes_per_mb),
                format!("{:.2}", r.blocks_preserved as f64 / r.volume_mb.max(1e-9)),
            ]);
            eprintln!("  [2σ={pct}%] {}: {:.0} writes/MB", case.name, r.writes_per_mb);
        }
    }
    println!(
        "\n== Figure 8 (Normal, {size_mb} MB paper-size, scale {}) — writes per 1MB vs skew ==",
        scale.name
    );
    table.grid(&["two_sigma_pct"], "policy", "writes_per_mb").print();
    table.save("fig8_skew_sweep");
}
