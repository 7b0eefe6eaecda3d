//! Figure 5 — the measured cost curve C(τ₂) for a 4-level LSM-tree, under
//! Uniform (5a) and Normal(σ = 0.5 %, ω = 10⁴) (5b), in τ increments of
//! 10 %.
//!
//! The paper's claims this reproduces: C(τ) is roughly quadratic with a
//! unique local minimum (Theorem 5), and the optimal τ is *smaller* under
//! the skewed Normal workload, because partial merges benefit more from
//! skew so Mixed should switch back to ChooseBest sooner.
//!
//! The tree must have exactly 4 levels so that τ₂ is the only threshold
//! (β covers the bottom). The default geometry shrinks K0 so a modest
//! dataset yields h = 4; `--paper-scale` uses the paper's 1 MB K0 with a
//! correspondingly larger dataset.
//!
//! ```text
//! cargo run --release --bin fig5_threshold_curve -- [--k0-blocks=100] \
//!     [--size-mb=60] [--workload=uniform|normal|both] [--cycles=2] [--seed=1]
//! ```

use lsm_bench::{make_tree, steady_state, workloads_flag, Args, PolicyCase, Table};
use lsm_tree::policy::learn::{measure_threshold_cost, LearnOptions};
use lsm_tree::policy::MixedParams;
use lsm_tree::{LsmConfig, PolicySpec};

fn main() {
    let args = Args::from_env();
    let paper = args.flag("paper-scale");
    let k0_blocks: usize = args.get_or("k0-blocks", if paper { 250 } else { 100 });
    let size_mb: u64 = args.get_or("size-mb", if paper { 150 } else { 60 });
    let cycles: usize = args.get_or("cycles", 2);
    let seed: u64 = args.get_or("seed", 1);
    let workloads = Args::or_exit(workloads_flag(&args, 2, "both"));
    args.done();

    let cfg = LsmConfig {
        payload_size: 100,
        k0_blocks,
        cache_blocks: k0_blocks,
        merge_rate: 1.0 / 20.0,
        ..LsmConfig::default()
    };
    let bytes = size_mb * 1024 * 1024;
    let opts = LearnOptions { cycles_per_measurement: cycles, ..LearnOptions::default() };
    let mut table = Table::new(["workload", "tau", "cost_per_block_to_l1"]);
    for kind in workloads {
        // Fresh steady-state 4-level tree per workload.
        let case = PolicyCase { name: "Mixed", spec: PolicySpec::TestMixed, preserve: true };
        let mut tree = make_tree(&cfg, case.options(), bytes);
        let mut wl = steady_state(&mut tree, kind, seed, bytes);
        assert_eq!(
            tree.height(),
            4,
            "Figure 5 needs a 4-level tree; got h={} — adjust --size-mb / --k0-blocks",
            tree.height()
        );
        let prefix = MixedParams::default();
        let mut best = (0.0f64, f64::INFINITY);
        for i in 0..=10 {
            let tau = i as f64 / 10.0;
            let m = measure_threshold_cost(&mut tree, &mut wl, &opts, 2, &prefix, tau)
                .expect("measurement")
                .expect("cycle completed");
            table.row([kind.name().to_string(), format!("{tau:.1}"), format!("{:.4}", m.cost)]);
            if m.cost < best.1 {
                best = (tau, m.cost);
            }
        }
        println!("{}: minimum at τ2 = {:.1} (C = {:.3})", kind.name(), best.0, best.1);
    }
    println!("\n== Figure 5 — C(τ2), cost per block merged into L1 ==");
    table.grid(&["tau"], "workload", "cost_per_block_to_l1").print();
    table.save("fig5_threshold_curve");
}
