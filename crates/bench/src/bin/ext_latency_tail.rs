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

use lsm_bench::report::fmt_f;
use lsm_bench::{prepared_tree, Args, Csv, ExperimentScale, PolicyCase, Table, WorkloadKind};
use lsm_tree::observe::Histogram;
use lsm_tree::PolicySpec;
use workloads::volume_requests;

fn main() {
    let args = Args::from_env();
    let size_mb: u64 = args.get_or("size-mb", 40);
    let measure_mb: f64 = args.get_or("measure-mb", 60.0);
    let seed: u64 = args.get_or("seed", 1);

    let scale = ExperimentScale::small();
    let cfg = scale.config(100);
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
        Table::new(["policy", "mean", "p50", "p99", "p99.9", "p99.99", "max", "max/mean"]);
    let mut csv = Csv::new(
        "ext_latency_tail",
        &["policy", "mean_us", "p50_us", "p99_us", "p999_us", "p9999_us", "max_us"],
    );

    for case in &cases {
        let (mut tree, mut wl) =
            prepared_tree(&cfg, case, WorkloadKind::Uniform, seed, scale.dataset_bytes(size_mb));
        let mut hist = Histogram::new();
        for _ in 0..requests {
            let req = wl.next_request();
            let t0 = Instant::now();
            tree.apply(req).expect("apply");
            hist.record(t0.elapsed().as_nanos() as u64);
        }
        let us = |v: u64| v as f64 / 1_000.0;
        let mean = hist.mean() / 1_000.0;
        table.row([
            case.name.to_string(),
            fmt_f(mean, 2),
            fmt_f(us(hist.quantile(0.50)), 1),
            fmt_f(us(hist.quantile(0.99)), 1),
            fmt_f(us(hist.quantile(0.999)), 1),
            fmt_f(us(hist.quantile(0.9999)), 1),
            fmt_f(us(hist.max()), 0),
            fmt_f(us(hist.max()) / mean.max(1e-9), 0),
        ]);
        csv.row(&[
            case.name.to_string(),
            format!("{mean:.3}"),
            format!("{:.2}", us(hist.quantile(0.50))),
            format!("{:.2}", us(hist.quantile(0.99))),
            format!("{:.2}", us(hist.quantile(0.999))),
            format!("{:.2}", us(hist.quantile(0.9999))),
            format!("{:.1}", us(hist.max())),
        ]);
        eprintln!(
            "  {}: mean {mean:.2} µs, p99.9 {:.0} µs, max {:.0} µs",
            case.name,
            us(hist.quantile(0.999)),
            us(hist.max())
        );
    }
    table.print();
    println!("\n(Full's max latency is a whole-level rewrite; ChooseBest's is Theorem-2-bounded.)");
    let path = csv.write().expect("write csv");
    println!("wrote {}", path.display());
}
