//! Ablation — golden-section vs linear threshold search (§IV-C).
//!
//! Theorem 5 makes −C(τ) unimodal, so the learner can ternary-search the
//! discretized grid in O(log |D_τ|) measurements instead of |D_τ|. Each
//! measurement costs a full cycle of the level being tuned, so fewer
//! measurements mean cheaper (re-)learning. This run reports, for both
//! strategies: the chosen τ, the number of cycle measurements, and the
//! requests consumed.
//!
//! ```text
//! cargo run --release --bin abl_learning_search -- [--size-mb=60] [--k0-blocks=100]
//! ```

use lsm_bench::{make_tree, steady_state, Args, PolicyCase, Table, WorkloadKind};
use lsm_tree::policy::learn::{learn_mixed_params, LearnOptions};
use lsm_tree::{LsmConfig, PolicySpec};

fn main() {
    let args = Args::from_env();
    let size_mb: u64 = args.get_or("size-mb", 60);
    let k0_blocks: usize = args.get_or("k0-blocks", 100);
    let seed: u64 = args.get_or("seed", 1);
    args.done();

    let cfg = LsmConfig {
        k0_blocks,
        cache_blocks: k0_blocks.max(64),
        merge_rate: 1.0 / 20.0,
        ..LsmConfig::default()
    };
    let bytes = size_mb * 1024 * 1024;

    println!("\n== Ablation: threshold search strategy (4-level tree, Uniform, {size_mb} MB) ==");
    let mut table = Table::new(["strategy", "tau2", "beta", "measurements", "requests"]);
    for (name, golden) in [("golden_section", true), ("linear_scan", false)] {
        let case = PolicyCase { name: "Mixed", spec: PolicySpec::TestMixed, preserve: true };
        let mut tree = make_tree(&cfg, case.options(), bytes);
        let mut wl = steady_state(&mut tree, WorkloadKind::Uniform, seed, bytes);
        assert_eq!(tree.height(), 4, "this ablation needs h = 4; got {}", tree.height());
        let requests_before = tree.stats().total_requests();
        let opts = LearnOptions {
            golden_section: golden,
            cycles_per_measurement: 1,
            max_requests_per_measurement: 50_000_000,
            ..LearnOptions::default()
        };
        let report = learn_mixed_params(&mut tree, &mut wl, &opts).expect("learning");
        let spent = tree.stats().total_requests() - requests_before;
        let tau2 = report.params.thresholds.get(&2).copied().unwrap_or(f64::NAN);
        table.row([
            name.to_string(),
            format!("{tau2:.1}"),
            report.params.beta.to_string(),
            report.measurements.len().to_string(),
            spent.to_string(),
        ]);
        eprintln!(
            "  {name}: τ2*={tau2:.1}, {} measurements, {spent} requests",
            report.measurements.len()
        );
    }
    table.print();
    table.save("abl_learning_search");
}
