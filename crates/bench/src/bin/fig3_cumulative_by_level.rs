//! Figures 3 & 4 — cumulative blocks written, by level, over time, for a
//! 20 MB index in a Uniform steady state: Full vs ChooseBest (Fig 3) plus
//! TestMixed (Fig 4).
//!
//! The paper's qualitative signatures this binary reproduces:
//! * Full's L2 series is a step function with equal-height jumps;
//! * Full's L1 series has jumps that grow within each L2 cycle;
//! * ChooseBest's series are smooth with constant slope;
//! * TestMixed's L1 series sits far below both, its L2 series ≈ Full's.
//!
//! ```text
//! cargo run --release --bin fig3_cumulative_by_level -- [--size-mb=20] \
//!     [--total-mb=250] [--step-mb=2.5] [--with-testmixed] [--seed=1]
//! ```

use lsm_bench::{make_tree, steady_state, Args, ExperimentScale, PolicyCase, Table, WorkloadKind};
use lsm_tree::PolicySpec;
use workloads::{run_requests, volume_requests, CostMeter};

fn main() {
    let args = Args::from_env();
    let size_mb: u64 = args.get_or("size-mb", 20);
    let total_mb: f64 = args.get_or("total-mb", 250.0);
    let step_mb: f64 = args.get_or("step-mb", 2.5);
    let seed: u64 = args.get_or("seed", 1);
    let with_testmixed = args.flag("with-testmixed") || args.get("with-testmixed").is_none();
    args.done();

    let scale = ExperimentScale::small();
    let cfg = scale.config(100);
    let mut cases = vec![
        PolicyCase { name: "Full", spec: PolicySpec::Full, preserve: true },
        PolicyCase { name: "ChooseBest", spec: PolicySpec::ChooseBest, preserve: true },
    ];
    if with_testmixed {
        cases.push(PolicyCase { name: "TestMixed", spec: PolicySpec::TestMixed, preserve: true });
    }

    let steps = (total_mb / step_mb).ceil() as usize;
    let step_requests = volume_requests(step_mb, cfg.record_size());

    let mut timeline = Table::new(["policy", "timeline_mb", "level", "cumulative_writes"]);
    // The end of each level's series, and how its second half compares
    // with its first.
    let mut summary =
        Table::new(["policy", "level", "cumulative_writes", "slope(last/first half)"]);
    for case in &cases {
        eprintln!("running {} ...", case.name);
        let bytes = scale.dataset_bytes(size_mb);
        let mut tree = make_tree(&cfg, case.options(), bytes);
        let mut wl = steady_state(&mut tree, WorkloadKind::Uniform, seed, bytes);
        let meter = CostMeter::start(&tree);
        let mut per_level: Vec<Vec<u64>> = vec![Vec::new(); tree.levels().len()];
        for _ in 0..steps {
            run_requests(&mut tree, &mut *wl, step_requests).expect("run step");
            let r = meter.read(&tree);
            for (lvl, cum) in r.per_level_writes.iter().enumerate() {
                if lvl < per_level.len() {
                    per_level[lvl].push(*cum);
                }
            }
        }
        for (lvl, cums) in per_level.iter().enumerate() {
            for (i, cum) in cums.iter().enumerate() {
                timeline.row([
                    case.name.to_string(),
                    format!("{:.1}", (i + 1) as f64 * step_mb),
                    format!("L{}", lvl + 1),
                    cum.to_string(),
                ]);
            }
            let last = cums.last().copied().unwrap_or(0);
            if last == 0 {
                continue;
            }
            let half = cums[(cums.len() / 2).max(1) - 1] as f64;
            let ratio = if half > 0.0 { (last as f64 - half) / half } else { 0.0 };
            summary.row([
                case.name.to_string(),
                format!("L{}", lvl + 1),
                last.to_string(),
                format!("{ratio:.2}"),
            ]);
        }
    }

    println!("\n== Figures 3/4 — cumulative blocks written by level after {total_mb} MB ==");
    summary.print();
    timeline.save("fig3_cumulative_by_level");
    println!("(plot timeline_mb vs cumulative_writes per policy/level)");
}
