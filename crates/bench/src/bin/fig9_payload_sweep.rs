//! Figure 9 — effect of record payload size (25 B … 4000 B) on
//! steady-state write cost for a 300 MB Uniform dataset, all seven
//! policies.
//!
//! Paper claims verified here:
//! * "-P" policies are flat across payload sizes (no preservation);
//! * block-preserving policies improve as payloads grow (fewer records
//!   per block → whole blocks fit gaps more often);
//! * at 4000-byte payloads a block holds one record, every block can be
//!   preserved, and all preserving policies converge to the same cost.
//!
//! ```text
//! cargo run --release --bin fig9_payload_sweep -- [--size-mb=300] \
//!     [--payloads=25,100,250,1000,4000] [--measure-mb=60] [--seed=1]
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
    let payloads: Vec<usize> = args.list_or("payloads", &[25, 100, 250, 1000, 4000]);
    args.done();

    let bytes = scale.dataset_bytes(size_mb);
    let mut table = Table::new([
        "payload_bytes",
        "policy",
        "writes_per_mb",
        "preserved_per_mb",
        "records_per_block",
    ]);
    for &payload in &payloads {
        let cfg = scale.config(payload);
        let b = cfg.block_capacity();
        let requests = volume_requests(measure_mb, cfg.record_size());
        for case in &policy_matrix() {
            let mut tree = make_tree(&cfg, case.options(), bytes);
            let mut wl = steady_state(&mut tree, WorkloadKind::Uniform, seed, bytes);
            let r = measure(&mut tree, &mut *wl, requests, case.learns());
            table.row([
                payload.to_string(),
                case.name.to_string(),
                format!("{:.2}", r.writes_per_mb),
                format!("{:.2}", r.blocks_preserved as f64 / r.volume_mb.max(1e-9)),
                b.to_string(),
            ]);
            eprintln!("  [{payload}B, B={b}] {}: {:.0} writes/MB", case.name, r.writes_per_mb);
        }
    }
    println!(
        "\n== Figure 9 (Uniform, {size_mb} MB paper-size, scale {}) — writes per 1MB vs payload ==",
        scale.name
    );
    table.grid(&["payload_bytes"], "policy", "writes_per_mb").print();
    table.save("fig9_payload_sweep");
}
