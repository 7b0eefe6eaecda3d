//! Figure 7 — steady-state request processing time per 1 MB of requests
//! under Normal, for all seven policies.
//!
//! The paper stresses that wall time is platform-dependent; the claim this
//! binary verifies is *ordinal*: the ranking of policies by running time
//! largely matches the ranking by writes, with Mixed winning (occasionally
//! losing to ChooseBest by a small margin), and the range-selection CPU
//! overhead staying a small fraction of total time.
//!
//! ```text
//! cargo run --release --bin fig7_running_time -- [--sizes=200,...] \
//!     [--measure-mb=60] [--paper-scale] [--seed=1]
//! ```

use lsm_bench::{
    make_tree, measure, policy_matrix, steady_state, Args, ExperimentScale, Table, WorkloadKind,
};
use workloads::volume_requests;

fn main() {
    let args = Args::from_env();
    let scale = ExperimentScale::large(args.flag("paper-scale"));
    let seed: u64 = args.get_or("seed", 1);
    let measure_mb: f64 = args.get_or("measure-mb", 120.0);
    let sizes: Vec<u64> = args.list_or("sizes", &[200, 800, 1600, 2000]);
    args.done();

    let cfg = scale.config(100);
    let requests = volume_requests(measure_mb, cfg.record_size());
    let mut table = Table::new(["paper_size_mb", "policy", "seconds_per_mb", "writes_per_mb"]);
    for &size in &sizes {
        for case in &policy_matrix() {
            let bytes = scale.dataset_bytes(size);
            let mut tree = make_tree(&cfg, case.options(), bytes);
            let mut wl = steady_state(&mut tree, WorkloadKind::normal_default(), seed, bytes);
            let r = measure(&mut tree, &mut *wl, requests, case.learns());
            table.row([
                size.to_string(),
                case.name.to_string(),
                format!("{:.5}", r.seconds_per_mb()),
                format!("{:.2}", r.writes_per_mb),
            ]);
            eprintln!("  [{size}MB] {}: {:.4} s/MB", case.name, r.seconds_per_mb());
        }
    }
    println!("\n== Figure 7 (Normal, scale {}) — seconds per 1MB of requests ==", scale.name);
    table.grid(&["paper_size_mb"], "policy", "seconds_per_mb").print();
    table.save("fig7_running_time");
}
