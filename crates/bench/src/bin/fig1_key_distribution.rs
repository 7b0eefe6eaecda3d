//! Figure 1 — key distribution in the lowest two levels of a 3-level
//! LSM-tree at a random instant of a steady-state Uniform workload, under
//! a partial merge policy.
//!
//! The paper's observation: L2 (the bottom) mirrors the workload's uniform
//! distribution, while L1 is skewed — sparsest just after the range most
//! recently merged down, densest in the range to be merged next. The
//! marker column shows where the next merge would begin.
//!
//! ```text
//! cargo run --release --bin fig1_key_distribution -- [--size-mb=20] \
//!     [--buckets=100] [--policy=rr|choosebest] [--seed=1]
//! ```

use lsm_bench::report::fmt_f;
use lsm_bench::{prepared_tree, Args, Csv, ExperimentScale, PolicyCase, Table, WorkloadKind};
use lsm_tree::{LsmTree, PolicySpec};
use workloads::{run_requests, volume_requests};

/// Per-bucket record frequency of one level, from fence metadata (records
/// of a block are attributed to its key midpoint — exact enough at 100
/// buckets over 10⁹ keys).
fn histogram(tree: &LsmTree, level_idx: usize, buckets: usize, domain: u64) -> Vec<f64> {
    let mut counts = vec![0f64; buckets];
    let level = &tree.levels()[level_idx];
    let mut total = 0f64;
    for h in level.handles() {
        let mid = h.min / 2 + h.max / 2;
        let b = ((mid as u128 * buckets as u128) / domain as u128) as usize;
        counts[b.min(buckets - 1)] += f64::from(h.count);
        total += f64::from(h.count);
    }
    if total > 0.0 {
        for c in &mut counts {
            *c /= total;
        }
    }
    counts
}

/// The `--policy` the figure is drawn for; an unknown name is an error
/// naming the accepted ones (the name labels the table and the CSV).
fn policy_case(args: &Args) -> Result<PolicyCase, String> {
    let cases = [
        ("rr", PolicyCase { name: "RR", spec: PolicySpec::RoundRobin, preserve: true }),
        (
            "choosebest",
            PolicyCase { name: "ChooseBest", spec: PolicySpec::ChooseBest, preserve: true },
        ),
    ];
    args.one_of("policy", "rr", &cases)
}

fn main() {
    let args = Args::from_env();
    let size_mb: u64 = args.get_or("size-mb", 20);
    let buckets: usize = args.get_or("buckets", 100);
    let seed: u64 = args.get_or("seed", 1);
    let policy = policy_case(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });

    let scale = ExperimentScale::small();
    let cfg = scale.config(100);
    let domain = lsm_bench::setup::KEY_DOMAIN;

    let (mut tree, mut wl) =
        prepared_tree(&cfg, &policy, WorkloadKind::Uniform, seed, scale.dataset_bytes(size_mb));
    // Run to "a random time instant" well into the steady state.
    let extra = volume_requests(25.0, cfg.record_size());
    run_requests(&mut tree, &mut *wl, extra).expect("steady run");

    assert!(tree.height() >= 3, "need at least 3 levels (L0, L1, L2); got h={}", tree.height());
    let l1 = histogram(&tree, 0, buckets, domain);
    let l2 = histogram(&tree, tree.levels().len() - 1, buckets, domain);

    // Where would the next merge from L1 begin? (The RR cursor; for
    // ChooseBest, the chosen window's start is what matters, but the RR
    // cursor position is the paper's marker.)
    let cursor = tree.levels()[0].rr_cursor.unwrap_or(0);
    let cursor_bucket = ((cursor as u128 * buckets as u128) / domain as u128) as usize;

    println!(
        "== Figure 1 ({} policy, {} MB, h={}) — key frequency by bucket ==",
        policy.name,
        size_mb,
        tree.height()
    );
    println!("next merge from L1 starts after bucket {cursor_bucket} (marked ->)\n");
    let mut table = Table::new(["bucket", "L1_freq", "L2_freq", "mark"]);
    let mut csv =
        Csv::new("fig1_key_distribution", &["bucket", "l1_freq", "l2_freq", "next_merge_marker"]);
    for b in 0..buckets {
        let mark = if b == cursor_bucket { "->" } else { "" };
        table.row([b.to_string(), fmt_f(l1[b], 4), fmt_f(l2[b], 4), mark.to_string()]);
        csv.row(&[
            b.to_string(),
            format!("{:.6}", l1[b]),
            format!("{:.6}", l2[b]),
            usize::from(b == cursor_bucket).to_string(),
        ]);
    }
    table.print();

    // Summary statistics demonstrating the paper's skew claim.
    let spread = |h: &[f64]| {
        let max = h.iter().cloned().fold(0.0, f64::max);
        let nonzero = h.iter().filter(|&&x| x > 0.0).count().max(1);
        let mean = h.iter().sum::<f64>() / nonzero as f64;
        max / mean
    };
    println!("\nL1 max/mean bucket frequency: {:.2}  (skewed under partial merges)", spread(&l1));
    println!("L2 max/mean bucket frequency: {:.2}  (≈1 — uniform, like the workload)", spread(&l2));
    let path = csv.write().expect("write csv");
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unknown_policy_is_an_error_not_round_robin() {
        let parse =
            |flags: &[&str]| policy_case(&Args::parse_from(flags.iter().map(|f| f.to_string())));
        assert_eq!(parse(&[]).unwrap().name, "RR");
        assert_eq!(parse(&["--policy=choosebest"]).unwrap().name, "ChooseBest");
        let err = parse(&["--policy=choose_best"]).unwrap_err();
        assert_eq!(err, "unknown --policy=choose_best (expected rr|choosebest)");
    }
}
