//! Figure 2 — amortized steady-state write cost of Full, ChooseBest
//! (δ = 1/20), and TestMixed across dataset sizes 20–100 MB, under
//! Uniform (2a) and Normal(σ = 0.5 %, ω = 10⁴) (2b).
//!
//! Setup: K0 = 1 MB (250 blocks), 1 MB buffer cache, 50/50 insert/delete
//! mix, measured after the §V-A steady-state criterion.
//!
//! ```text
//! cargo run --release --bin fig2_amortized_small -- [--sizes=20,40,..] \
//!     [--workload=uniform|normal|both] [--measure-mb=50] [--seed=1]
//! ```

use lsm_bench::{
    make_tree, measure, steady_state, workloads_flag, Args, ExperimentScale, PolicyCase, Table,
};
use lsm_tree::PolicySpec;
use workloads::volume_requests;

fn main() {
    let args = Args::from_env();
    let sizes: Vec<u64> = args.list_or("sizes", &[20, 40, 60, 80, 100]);
    let measure_mb: f64 = args.get_or("measure-mb", 100.0);
    let seed: u64 = args.get_or("seed", 1);
    let workloads = Args::or_exit(workloads_flag(&args, 2, "both"));
    args.done();

    let scale = ExperimentScale::small();
    let cases = [
        PolicyCase { name: "Full", spec: PolicySpec::Full, preserve: true },
        PolicyCase { name: "ChooseBest", spec: PolicySpec::ChooseBest, preserve: true },
        PolicyCase { name: "TestMixed", spec: PolicySpec::TestMixed, preserve: true },
    ];
    let cfg = scale.config(100);
    let requests = volume_requests(measure_mb, cfg.record_size());

    let mut table = Table::new(["workload", "size_mb", "policy", "writes_per_mb"]);
    for kind in workloads {
        for &size in &sizes {
            for case in &cases {
                let bytes = scale.dataset_bytes(size);
                let mut tree = make_tree(&cfg, case.options(), bytes);
                let mut wl = steady_state(&mut tree, kind, seed, bytes);
                let r = measure(&mut tree, &mut *wl, requests, false);
                table.row([
                    kind.name().to_string(),
                    size.to_string(),
                    case.name.to_string(),
                    format!("{:.2}", r.writes_per_mb),
                ]);
            }
        }
    }
    println!("\n== Figure 2 — blocks written per 1MB of requests ==");
    table.grid(&["workload", "size_mb"], "policy", "writes_per_mb").print();
    table.save("fig2_amortized_small");
}
