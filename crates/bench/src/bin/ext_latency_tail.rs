//! Extension experiment — request-latency tails: the availability case
//! for partial merges (§I, Theorem 2) made visible.
//!
//! "Their rationale for having shorter merges is to increase the index's
//! availability for other operations" — a full merge stalls every request
//! behind a whole-level rewrite, while ChooseBest bounds each merge by
//! δ(1/Γ+1)·K_i blocks. This run drives identical steady-state workloads
//! through each policy, timing every request, and reports the latency
//! distribution: means are similar, tails differ by orders of magnitude.
//!
//! ```text
//! cargo run --release --bin ext_latency_tail -- [--size-mb=40] [--measure-mb=60]
//! ```

use std::time::Instant;

use lsm_bench::{make_tree, steady_state, Args, ExperimentScale, PolicyCase, Table, WorkloadKind};
use lsm_tree::observe::Histogram;
use lsm_tree::PolicySpec;
use workloads::volume_requests;

fn main() {
    let args = Args::from_env();
    let size_mb: u64 = args.get_or("size-mb", 40);
    let measure_mb: f64 = args.get_or("measure-mb", 60.0);
    let seed: u64 = args.get_or("seed", 1);
    args.done();

    let scale = ExperimentScale::small();
    let cfg = scale.config(100);
    let bytes = scale.dataset_bytes(size_mb);
    let requests = volume_requests(measure_mb, cfg.record_size());
    let cases = [
        PolicyCase { name: "Full", spec: PolicySpec::Full, preserve: true },
        PolicyCase { name: "RR", spec: PolicySpec::RoundRobin, preserve: true },
        PolicyCase { name: "ChooseBest", spec: PolicySpec::ChooseBest, preserve: true },
        PolicyCase { name: "TestMixed", spec: PolicySpec::TestMixed, preserve: true },
    ];

    println!(
        "\n== Extension: request latency tails (Uniform, {size_mb} MB steady state, {measure_mb} MB measured) =="
    );
    println!("(micro-seconds per request; the paper's availability argument for partial merges)");
    let mut table =
        Table::new(["policy", "mean_us", "p50_us", "p99_us", "p999_us", "p9999_us", "max_us"]);
    for case in &cases {
        let mut tree = make_tree(&cfg, case.options(), bytes);
        let mut wl = steady_state(&mut tree, WorkloadKind::Uniform, seed, bytes);
        let mut hist = Histogram::new();
        for _ in 0..requests {
            let req = wl.next_request();
            let t0 = Instant::now();
            tree.apply(req).expect("apply");
            hist.record(t0.elapsed().as_nanos() as u64);
        }
        let us = |q: f64| format!("{:.2}", hist.quantile(q) as f64 / 1_000.0);
        let (mean, max) = (hist.mean() / 1_000.0, hist.max() as f64 / 1_000.0);
        table.row([
            case.name.to_string(),
            format!("{mean:.3}"),
            us(0.50),
            us(0.99),
            us(0.999),
            us(0.9999),
            format!("{max:.1}"),
        ]);
        eprintln!("  {}: mean {mean:.2} µs, p99.9 {} µs, max {max:.0} µs", case.name, us(0.999));
    }
    table.print();
    println!("\n(Full's max latency is a whole-level rewrite; ChooseBest's is Theorem-2-bounded.)");
    table.save("ext_latency_tail");
}
