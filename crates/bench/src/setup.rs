//! The §V protocol every figure and ablation measures with, in three
//! steps: [`make_tree`] builds a tree on a simulated device sized for the
//! dataset, [`steady_state`] fills it with inserts and runs the 50/50 mix
//! until the §V-A criterion holds, and [`measure`] learns `Mixed`'s
//! parameters when asked, then counts what `n` requests cost. Beside them:
//! the geometry presets, the seven-policy matrix and the workload names.

use lsm_tree::policy::learn::{learn_mixed_params, LearnOptions};
use lsm_tree::policy::MixedParams;
use lsm_tree::{LsmConfig, LsmTree, PolicySpec, TreeOptions};
use workloads::driver::Workload;
use workloads::{
    fill_to_bytes, reach_steady_state, run_requests, CostMeter, CostReading, InsertRatio, Normal,
    Tpc, Uniform,
};

use crate::Args;

/// Geometry preset. The paper's two setups are
///
/// * small (Figures 1–5): `K0` = 1 MB (250 blocks), 1 MB extra cache,
///   δ = 1/20, datasets 20–100 MB;
/// * large (Figures 6–10): `K0` = 16 MB (4000 blocks), 16 MB cache
///   (100 MB for Fig 6), δ = 0.07 (0.05 for §V-A), datasets 0.2–8 GB.
///
/// `laptop` divides the large setup by 8 — `K0` = 2 MB and datasets 25 MB
/// to 1 GB — preserving Γ, δ, ε and the dataset-size/level-capacity ratios
/// (and therefore the 3→4 level transition) while fitting in RAM and
/// minutes instead of hours. Figure shapes are scale-invariant in these
/// ratios; see EXPERIMENTS.md.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentScale {
    /// Human-readable name.
    pub name: &'static str,
    /// K0 in blocks.
    pub k0_blocks: usize,
    /// Buffer-cache blocks.
    pub cache_blocks: usize,
    /// Merge rate δ.
    pub merge_rate: f64,
    /// Divide the paper's dataset megabytes by this to get actual MB.
    pub size_divisor: u64,
}

impl ExperimentScale {
    /// The small-experiment setup of Figures 1–5 (runs as-is on a laptop).
    pub fn small() -> Self {
        ExperimentScale {
            name: "small(paper)",
            k0_blocks: 250,
            cache_blocks: 250,
            merge_rate: 1.0 / 20.0,
            size_divisor: 1,
        }
    }

    /// The paper's large setup (Figures 6–10) at full size.
    pub fn paper_large() -> Self {
        ExperimentScale {
            name: "large(paper)",
            k0_blocks: 4000,
            cache_blocks: 4000,
            merge_rate: 0.05,
            size_divisor: 1,
        }
    }

    /// The large setup scaled down 8× (default for Figures 6–10).
    pub fn laptop_large() -> Self {
        ExperimentScale {
            name: "large(laptop/8)",
            k0_blocks: 500,
            cache_blocks: 500,
            merge_rate: 0.05,
            size_divisor: 8,
        }
    }

    /// Pick the large scale from a `--paper-scale` flag.
    pub fn large(paper: bool) -> Self {
        if paper {
            Self::paper_large()
        } else {
            Self::laptop_large()
        }
    }

    /// Config for this scale with the given payload size.
    pub fn config(&self, payload_size: usize) -> LsmConfig {
        LsmConfig {
            payload_size,
            k0_blocks: self.k0_blocks,
            cache_blocks: self.cache_blocks,
            merge_rate: self.merge_rate,
            ..LsmConfig::default()
        }
    }

    /// Actual dataset bytes for a paper-figure dataset of `paper_mb`.
    pub fn dataset_bytes(&self, paper_mb: u64) -> u64 {
        paper_mb * 1024 * 1024 / self.size_divisor
    }
}

/// One policy under test: name as it appears in the paper's legends,
/// the spec, and whether block preservation is on ("-P" = off).
#[derive(Debug, Clone)]
pub struct PolicyCase {
    /// Legend name (e.g. "ChooseBest-P").
    pub name: &'static str,
    /// Which policy.
    pub spec: PolicySpec,
    /// Block preservation enabled?
    pub preserve: bool,
}

impl PolicyCase {
    /// Tree options running this case.
    pub fn options(&self) -> TreeOptions {
        TreeOptions::builder().policy(self.spec.clone()).preserve_blocks(self.preserve).build()
    }

    /// Does [`measure`] learn this case's parameters first (`Mixed`)?
    pub fn learns(&self) -> bool {
        matches!(self.spec, PolicySpec::Mixed(_))
    }
}

/// The seven-policy matrix of Figure 6. `Mixed` is created with TestMixed
/// parameters; callers that learn parameters replace them afterwards.
pub fn policy_matrix() -> Vec<PolicyCase> {
    vec![
        PolicyCase { name: "Full-P", spec: PolicySpec::Full, preserve: false },
        PolicyCase { name: "Full", spec: PolicySpec::Full, preserve: true },
        PolicyCase { name: "RR-P", spec: PolicySpec::RoundRobin, preserve: false },
        PolicyCase { name: "RR", spec: PolicySpec::RoundRobin, preserve: true },
        PolicyCase { name: "ChooseBest-P", spec: PolicySpec::ChooseBest, preserve: false },
        PolicyCase { name: "ChooseBest", spec: PolicySpec::ChooseBest, preserve: true },
        PolicyCase {
            name: "Mixed",
            spec: PolicySpec::Mixed(MixedParams::default()),
            preserve: true,
        },
    ]
}

/// Which workload drives the experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadKind {
    /// Uniform inserts/deletes (§V).
    Uniform,
    /// Normal(σ, ω) — σ as a fraction of the domain.
    Normal {
        /// σ / domain.
        sigma: f64,
        /// Inserts per hotspot location.
        omega: u64,
    },
    /// TPC-C-like NEW_ORDER.
    Tpc,
}

/// Key domain used throughout (the paper's `[0, 10^9]`).
pub const KEY_DOMAIN: u64 = 1_000_000_000;

impl WorkloadKind {
    /// The paper's default Normal parameters (σ = 0.5 %, ω = 10⁴).
    pub fn normal_default() -> Self {
        WorkloadKind::Normal { sigma: 0.005, omega: 10_000 }
    }

    /// Instantiate the generator.
    pub fn build(&self, seed: u64, payload: usize, ratio: InsertRatio) -> Box<dyn Workload> {
        match *self {
            WorkloadKind::Uniform => Box::new(Uniform::new(seed, KEY_DOMAIN, payload, ratio)),
            WorkloadKind::Normal { sigma, omega } => {
                Box::new(Normal::new(seed, KEY_DOMAIN, payload, ratio, sigma, omega))
            }
            WorkloadKind::Tpc => Box::new(Tpc::new(seed, 64, 10, payload, ratio)),
        }
    }

    /// Legend name.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadKind::Uniform => "Uniform",
            WorkloadKind::Normal { .. } => "Normal",
            WorkloadKind::Tpc => "TPC",
        }
    }
}

/// The paper's three workloads under the names `--workload` takes.
pub fn workload_names() -> [(&'static str, WorkloadKind); 3] {
    [
        ("uniform", WorkloadKind::Uniform),
        ("normal", WorkloadKind::normal_default()),
        ("tpc", WorkloadKind::Tpc),
    ]
}

/// The workloads `--workload` names out of the first `n` of
/// [`workload_names`]: one by its name, or all `n` under `all` (the
/// default). Any other name is an error listing the accepted ones.
pub fn workloads_flag(args: &Args, n: usize, all: &str) -> Result<Vec<WorkloadKind>, String> {
    let named = &workload_names()[..n];
    let mut choices: Vec<(&str, Vec<WorkloadKind>)> =
        named.iter().map(|(name, kind)| (*name, vec![*kind])).collect();
    choices.push((all, named.iter().map(|(_, kind)| *kind).collect()));
    args.one_of("workload", all, &choices)
}

/// Blocks of simulated device for `dataset_bytes` of data. Peak usage
/// happens when a full merge holds both the old and the new copy of the
/// two largest levels at once (just after a level-count transition): ~4×
/// the dataset. Capacity is cheap on the simulated device (frames allocate
/// lazily), so it gets 6× the dataset, and at least 8 192 blocks.
pub fn device_blocks(cfg: &LsmConfig, dataset_bytes: u64) -> u64 {
    (dataset_bytes / cfg.block_size as u64 * 6).max(8192)
}

/// Build a tree for `dataset_bytes` of data on a fresh simulated device of
/// [`device_blocks`].
pub fn make_tree(cfg: &LsmConfig, opts: TreeOptions, dataset_bytes: u64) -> LsmTree {
    LsmTree::with_mem_device(cfg.clone(), opts, device_blocks(cfg, dataset_bytes))
        .expect("valid experiment configuration")
}

/// Requests [`steady_state`] spends at most in the 50/50 mix; the §V-A
/// criterion holds long before this at every size the binaries run.
const STEADY_STATE_CAP: u64 = 200_000_000;

/// Fill `tree` to `dataset_bytes` with inserts of `kind`, then run the
/// 50/50 mix until the §V-A steady-state criterion holds. Returns the
/// workload, positioned at the steady mix.
pub fn steady_state(
    tree: &mut LsmTree,
    kind: WorkloadKind,
    seed: u64,
    dataset_bytes: u64,
) -> Box<dyn Workload> {
    let mut wl = kind.build(seed, tree.config().payload_size, InsertRatio::INSERT_ONLY);
    fill_to_bytes(tree, &mut *wl, dataset_bytes).expect("fill phase failed");
    reach_steady_state(tree, &mut *wl, STEADY_STATE_CAP).expect("steady-state phase failed");
    wl
}

/// Measure `requests` requests of `wl` on `tree`. Under `learn`, the
/// Mixed learner first fits the tree's thresholds and β on the same
/// stream (each measurement capped at 40× the measured volume).
pub fn measure(
    tree: &mut LsmTree,
    wl: &mut dyn Workload,
    requests: u64,
    learn: bool,
) -> CostReading {
    if learn {
        let opts =
            LearnOptions { max_requests_per_measurement: requests * 40, ..LearnOptions::default() };
        let report = learn_mixed_params(tree, wl, &opts).expect("learning failed");
        eprintln!(
            "  learned Mixed params: thresholds {:?}, beta {}",
            report.params.thresholds, report.params.beta
        );
        wl.set_ratio(InsertRatio::HALF);
    }
    let meter = CostMeter::start(tree);
    run_requests(tree, wl, requests).expect("measurement run");
    meter.read(tree)
}

/// Blocks the levels occupy over the fewest that would hold their
/// records: the space the relaxed layout costs.
pub fn space_overhead(tree: &LsmTree) -> f64 {
    let blocks: usize = tree.levels().iter().map(|l| l.num_blocks()).sum();
    let records: u64 = tree.levels().iter().map(|l| l.records()).sum();
    blocks as f64 / (records as usize).div_ceil(tree.config().block_capacity()).max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::InsertRatio;

    #[test]
    fn scales_preserve_ratios() {
        let paper = ExperimentScale::paper_large();
        let laptop = ExperimentScale::laptop_large();
        // Same δ; K0 and dataset sizes both divided by 8 → identical
        // dataset/K_i ratios at every paper size.
        assert_eq!(paper.merge_rate, laptop.merge_rate);
        assert_eq!(paper.k0_blocks, laptop.k0_blocks * laptop.size_divisor as usize);
        let paper_ratio = paper.dataset_bytes(1600) as f64
            / (paper.config(100).level_capacity_blocks(2) * 4096) as f64;
        let laptop_ratio = laptop.dataset_bytes(1600) as f64
            / (laptop.config(100).level_capacity_blocks(2) * 4096) as f64;
        assert!((paper_ratio - laptop_ratio).abs() < 1e-9);
        assert_eq!(ExperimentScale::large(true), paper);
        assert_eq!(ExperimentScale::large(false), laptop);
    }

    #[test]
    fn small_scale_matches_figure2_setup() {
        let s = ExperimentScale::small();
        assert_eq!(s.k0_blocks, 250); // 1 MB of 4 KiB blocks (paper: 250)
        assert!((s.merge_rate - 0.05).abs() < 1e-12);
        assert_eq!(s.dataset_bytes(20), 20 * 1024 * 1024);
    }

    #[test]
    fn policy_matrix_is_the_papers_seven() {
        let names: Vec<&str> = policy_matrix().iter().map(|c| c.name).collect();
        assert_eq!(names, ["Full-P", "Full", "RR-P", "RR", "ChooseBest-P", "ChooseBest", "Mixed"]);
        let learners: Vec<&str> =
            policy_matrix().iter().filter(|c| c.learns()).map(|c| c.name).collect();
        assert_eq!(learners, ["Mixed"]);
    }

    #[test]
    fn workload_kinds_build() {
        for kind in [WorkloadKind::Uniform, WorkloadKind::normal_default(), WorkloadKind::Tpc] {
            let mut wl = kind.build(1, 8, InsertRatio::INSERT_ONLY);
            for _ in 0..10 {
                let _ = wl.next_request();
            }
            assert!(!kind.name().is_empty());
        }
    }

    #[test]
    fn make_tree_provisions_headroom() {
        let cfg = ExperimentScale::small().config(100);
        let case = PolicyCase { name: "t", spec: PolicySpec::Full, preserve: true };
        let tree = make_tree(&cfg, case.options(), 8 * 1024 * 1024);
        // 6× the dataset in blocks, at least.
        assert!(tree.store().free_blocks() >= 6 * (8 * 1024 * 1024) / 4096 - 1);
    }

    #[test]
    fn an_unknown_workload_is_an_error_listing_the_names() {
        let parse = |flags: &[&str], n, all| {
            workloads_flag(&Args::parse_from(flags.iter().map(|f| f.to_string())), n, all)
        };
        let every = [WorkloadKind::Uniform, WorkloadKind::normal_default(), WorkloadKind::Tpc];
        assert_eq!(parse(&[], 3, "all"), Ok(every.to_vec()));
        assert_eq!(parse(&[], 2, "both"), Ok(every[..2].to_vec()));
        assert_eq!(parse(&["--workload=tpc"], 3, "all"), Ok(vec![WorkloadKind::Tpc]));
        let err = parse(&["--workload=normals"], 3, "all").unwrap_err();
        assert_eq!(err, "unknown --workload=normals (expected uniform|normal|tpc|all)");
        let err = parse(&["--workload=tpc"], 2, "both").unwrap_err();
        assert_eq!(err, "unknown --workload=tpc (expected uniform|normal|both)");
    }
}
