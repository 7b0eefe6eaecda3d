//! Learning the Mixed-policy parameters (§IV-C).
//!
//! The learner fits `(τ₂, …, τ_{h−2}, β)` **top-down**: Theorem 4 shows the
//! optimal setting of a level's parameter does not depend on the settings
//! of lower levels, so each τ can be fixed in turn while lower levels run
//! `Full` (into the level being measured's next level) and `ChooseBest`
//! below — exactly the measurement protocol of Definition 1.
//!
//! Each measurement observes a *cycle* of level `L_i`: the span between two
//! consecutive full merges from `L_i` into `L_{i+1}` (the first empties
//! `L_i` and starts the cycle; the next marks that `L_i` refilled). Within
//! a cycle we read cost off the tree's per-level statistics:
//! `C = (blocks written into L_1..L_i) / (blocks merged into L_1)`.
//!
//! Theorem 5 shows `C(τ)` is quadratic with a unique minimum under mild
//! assumptions, so `−C` is unimodal and golden-section / ternary search
//! over the discretized grid `D_τ` needs only `O(log |D_τ|)` measurements.
//! The paper also notes a linear scan ("start from τ = 0 and stop when
//! C(τ) starts to increase") is adequate for a coarse grid; both are
//! provided.
//!
//! A [`DecisionLedger`](crate::policy::ledger::DecisionLedger) attached to
//! the tree keeps recording across the learner's `set_policy` swaps — the
//! ledger lives on the tree, not the policy — so a post-mortem of a run
//! that included learning shows the forced-mode probe decisions too, each
//! tagged with the policy name that made it.

use std::collections::BTreeMap;
use std::sync::Arc;

use observe::{Event, VecSink};

use crate::error::Result;
use crate::policy::{ForcedMode, MixedParams, MixedPolicy};
use crate::record::RequestSource;
use crate::stats::TreeStats;
use crate::tree::LsmTree;

/// Options controlling the learning procedure.
#[derive(Debug, Clone)]
pub struct LearnOptions {
    /// The discretized threshold domain `D_τ` (must be sorted ascending).
    pub tau_grid: Vec<f64>,
    /// Cycles averaged per measurement.
    pub cycles_per_measurement: usize,
    /// Use ternary (golden-section style) search instead of a linear scan.
    pub golden_section: bool,
    /// Hard cap on requests spent per measurement (guards against a
    /// workload that never completes a cycle).
    pub max_requests_per_measurement: u64,
}

impl Default for LearnOptions {
    fn default() -> Self {
        LearnOptions {
            tau_grid: (0..=10).map(|i| i as f64 / 10.0).collect(),
            cycles_per_measurement: 1,
            golden_section: true,
            max_requests_per_measurement: 50_000_000,
        }
    }
}

/// One data point observed during learning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Target paper-level whose threshold was being probed (bottom level
    /// measurements report the bottom index and τ = 0/1 for β = false/true).
    pub level: usize,
    /// The probed τ (or β encoded as 0.0 / 1.0 for the bottom level).
    pub tau: f64,
    /// Measured amortized cost per block merged into L1.
    pub cost: f64,
}

/// The outcome of learning.
#[derive(Debug, Clone)]
pub struct LearnReport {
    /// Fitted parameters ready for `PolicySpec::Mixed`.
    pub params: MixedParams,
    /// Every measurement taken, in order.
    pub measurements: Vec<Measurement>,
    /// Total requests consumed by learning.
    pub requests_spent: u64,
}

/// Learn `(τ₂, …, τ_{h−2}, β)` for the index's *current* height by driving
/// `tree` with requests from `source`. The caller should have brought the
/// index to its steady state first (stable dataset size). The learner
/// leaves the tree running the fitted Mixed policy.
pub fn learn_mixed_params<S: RequestSource + ?Sized>(
    tree: &mut LsmTree,
    source: &mut S,
    opts: &LearnOptions,
) -> Result<LearnReport> {
    assert!(!opts.tau_grid.is_empty(), "tau grid must be non-empty");
    let h = tree.height();
    let bottom = h - 1; // paper index of the bottom level
    let mut report = LearnReport {
        params: MixedParams { thresholds: BTreeMap::new(), default_tau: 0.0, beta: true },
        measurements: Vec::new(),
        requests_spent: 0,
    };

    // Internal levels 2 ..= h-2, top-down.
    for target in 2..=bottom.saturating_sub(1) {
        if target < 2 {
            continue;
        }
        let prefix = report.params.clone();
        let best = learn_one_threshold(tree, source, opts, target, &prefix, &mut report)?;
        report.params.thresholds.insert(target, best);
    }

    // β for the bottom level: compare full vs partial merges into it over
    // matched request volumes.
    let prefix = report.params.clone();
    let (beta, _spent) = learn_beta(tree, source, opts, bottom, &prefix, &mut report)?;
    report.params.beta = beta;

    // Leave the tree running the fitted policy.
    tree.set_policy(Box::new(MixedPolicy::new(report.params.clone())));
    Ok(report)
}

/// Measure `C(prefix, τ)` for one candidate threshold of `target` —
/// exposed publicly so the Figure-5 harness can sweep the whole grid.
pub fn measure_threshold_cost<S: RequestSource + ?Sized>(
    tree: &mut LsmTree,
    source: &mut S,
    opts: &LearnOptions,
    target: usize,
    prefix: &MixedParams,
    tau: f64,
) -> Result<Option<Measurement>> {
    let h = tree.height();
    let mut params = prefix.clone();
    params.thresholds.insert(target, tau);
    let mut policy = MixedPolicy::new(params);
    // Definition 1: full merges from L_target into L_{target+1}; ChooseBest
    // into everything deeper.
    policy.overrides.insert(target + 1, ForcedMode::Full);
    for lvl in (target + 2)..h {
        policy.overrides.insert(lvl, ForcedMode::Partial);
    }
    tree.set_policy(Box::new(policy));
    let cost = measure_cycles(
        tree,
        source,
        /* boundary into */ target + 1,
        /* cost levels ≤ */ target,
        opts.cycles_per_measurement,
        opts.max_requests_per_measurement,
    )?;
    Ok(cost.map(|(c, _requests)| Measurement { level: target, tau, cost: c }))
}

fn learn_one_threshold<S: RequestSource + ?Sized>(
    tree: &mut LsmTree,
    source: &mut S,
    opts: &LearnOptions,
    target: usize,
    prefix: &MixedParams,
    report: &mut LearnReport,
) -> Result<f64> {
    let grid = &opts.tau_grid;
    let mut cache: BTreeMap<usize, f64> = BTreeMap::new();

    // Measure grid index `i`, memoized.
    macro_rules! f {
        ($i:expr) => {{
            let i: usize = $i;
            if let Some(&c) = cache.get(&i) {
                c
            } else {
                let m = measure_threshold_cost(tree, source, opts, target, prefix, grid[i])?
                    .map(|m| m.cost)
                    .unwrap_or(f64::INFINITY);
                if m.is_finite() {
                    report.measurements.push(Measurement { level: target, tau: grid[i], cost: m });
                }
                cache.insert(i, m);
                m
            }
        }};
    }

    let best_idx = if opts.golden_section {
        // Discrete ternary search over a unimodal objective.
        let mut lo = 0usize;
        let mut hi = grid.len() - 1;
        while hi - lo >= 3 {
            let m1 = lo + (hi - lo) / 3;
            let m2 = hi - (hi - lo) / 3;
            debug_assert!(m1 < m2);
            if f!(m1) <= f!(m2) {
                hi = m2 - 1;
            } else {
                lo = m1 + 1;
            }
        }
        let mut best = lo;
        for i in lo..=hi {
            if f!(i) < f!(best) {
                best = i;
            }
        }
        best
    } else {
        // Linear scan: stop when the cost starts to increase (§IV-C).
        let mut best = 0usize;
        for i in 0..grid.len() {
            let c = f!(i);
            if c < f!(best) {
                best = i;
            } else if c > f!(best) && i > best {
                break;
            }
        }
        best
    };
    Ok(grid[best_idx])
}

fn learn_beta<S: RequestSource + ?Sized>(
    tree: &mut LsmTree,
    source: &mut S,
    opts: &LearnOptions,
    bottom: usize,
    prefix: &MixedParams,
    report: &mut LearnReport,
) -> Result<(bool, u64)> {
    // β = true: cycles are delimited by full merges into the bottom level.
    let mut params_true = prefix.clone();
    params_true.beta = true;
    tree.set_policy(Box::new(MixedPolicy::new(params_true)));
    let full_result = measure_cycles(
        tree,
        source,
        bottom,
        bottom,
        opts.cycles_per_measurement,
        opts.max_requests_per_measurement,
    )?;
    let Some((c_full, requests_full)) = full_result else {
        // The bottom never cycles (e.g. h too small or workload too light):
        // keep partial merges.
        report.measurements.push(Measurement { level: bottom, tau: 0.0, cost: f64::NAN });
        return Ok((false, 0));
    };
    report.measurements.push(Measurement { level: bottom, tau: 1.0, cost: c_full });

    // β = false: no natural cycle; measure over the same request volume.
    // The β = true measurement ends just after a full merge into the
    // bottom, leaving the second-to-last level empty — a state β = false
    // would never reach on its own. Warm up over an equal volume first so
    // the measurement reflects β = false's own steady state (levels full).
    let mut params_false = prefix.clone();
    params_false.beta = false;
    tree.set_policy(Box::new(MixedPolicy::new(params_false)));
    for _ in 0..requests_full.max(1) {
        tree.apply(source.next_request())?;
    }
    let c_partial = measure_volume(tree, source, bottom, requests_full.max(1))?;
    report.measurements.push(Measurement { level: bottom, tau: 0.0, cost: c_partial });

    Ok((c_full <= c_partial, requests_full))
}

/// Drive the tree until `cycles` complete cycles of merges into
/// `boundary_level` have been observed (a cycle is delimited by *full*
/// merges into that level). Returns the amortized cost
/// `(writes into L1..=cost_levels) / (blocks merged into L1)` and the
/// number of requests the measured cycles spanned, or `None` if the cap
/// was hit before the cycles completed.
fn measure_cycles<S: RequestSource + ?Sized>(
    tree: &mut LsmTree,
    source: &mut S,
    boundary_level: usize,
    cost_levels: usize,
    cycles: usize,
    max_requests: u64,
) -> Result<Option<(f64, u64)>> {
    // Attach a probe sink for the duration of the measurement. Any sink the
    // caller had registered keeps receiving every event — the probe rides
    // on the same handle — and the original handle is restored before
    // returning.
    let prev = tree.sink().clone();
    let probe = Arc::new(VecSink::new());
    let layered = prev.and(Arc::clone(&probe) as _);
    tree.set_sink(layered);
    let out = measure_cycles_inner(
        tree,
        source,
        &probe,
        boundary_level,
        cost_levels,
        cycles,
        max_requests,
    );
    tree.set_sink(prev);
    out
}

fn measure_cycles_inner<S: RequestSource + ?Sized>(
    tree: &mut LsmTree,
    source: &mut S,
    probe: &VecSink,
    boundary_level: usize,
    cost_levels: usize,
    cycles: usize,
    max_requests: u64,
) -> Result<Option<(f64, u64)>> {
    let b = tree.config().block_capacity() as f64;
    let mut start: Option<(TreeStats, u64)> = None;
    let mut completed = 0usize;
    let mut acc_cost = 0.0f64;
    let mut acc_requests = 0u64;

    for req_no in 0..max_requests {
        tree.apply(source.next_request())?;
        for ev in probe.drain() {
            let Event::MergeFinish { target_level, full, .. } = ev else { continue };
            if target_level != boundary_level || !full {
                continue;
            }
            // A full merge into `boundary_level` = cycle boundary.
            if let Some((snap, snap_req)) = start.take() {
                let now = tree.stats().clone();
                let writes: u64 = (1..=cost_levels)
                    .map(|l| now.level(l).blocks_written - snap.level(l).blocks_written)
                    .sum();
                let records_l1 = now.level(1).records_in - snap.level(1).records_in;
                if records_l1 > 0 {
                    acc_cost += writes as f64 / (records_l1 as f64 / b);
                    acc_requests += req_no - snap_req;
                    completed += 1;
                }
            }
            if completed >= cycles {
                return Ok(Some((acc_cost / completed as f64, acc_requests)));
            }
            start = Some((tree.stats().clone(), req_no));
        }
    }
    Ok(None)
}

/// Amortized cost over a fixed request volume (used for β = false, which
/// has no cycle boundary).
fn measure_volume<S: RequestSource + ?Sized>(
    tree: &mut LsmTree,
    source: &mut S,
    cost_levels: usize,
    requests: u64,
) -> Result<f64> {
    let b = tree.config().block_capacity() as f64;
    let snap = tree.stats().clone();
    for _ in 0..requests {
        tree.apply(source.next_request())?;
    }
    let now = tree.stats();
    let writes: u64 =
        (1..=cost_levels).map(|l| now.level(l).blocks_written - snap.level(l).blocks_written).sum();
    let records_l1 = now.level(1).records_in - snap.level(1).records_in;
    if records_l1 == 0 {
        return Ok(f64::INFINITY);
    }
    Ok(writes as f64 / (records_l1 as f64 / b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LsmConfig;
    use crate::policy::PolicySpec;
    use crate::record::Request;
    use crate::tree::TreeOptions;
    use bytes::Bytes;

    /// Deterministic 50/50 insert/delete source over a bounded key space,
    /// tracking liveness so deletes always hit existing keys.
    struct TestSource {
        state: u64,
        live: Vec<u64>,
        positions: std::collections::HashMap<u64, usize>,
        space: u64,
    }

    impl TestSource {
        fn new(seed: u64, space: u64) -> Self {
            TestSource {
                state: seed,
                live: Vec::new(),
                positions: std::collections::HashMap::new(),
                space,
            }
        }
        fn rng(&mut self) -> u64 {
            self.state =
                self.state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.state >> 11
        }
    }

    impl RequestSource for TestSource {
        fn next_request(&mut self) -> Request {
            let coin = self.rng();
            if coin.is_multiple_of(2) || self.live.len() < 10 {
                let k = self.rng() % self.space;
                if !self.positions.contains_key(&k) {
                    self.positions.insert(k, self.live.len());
                    self.live.push(k);
                }
                Request::Put(k, Bytes::from(vec![1u8; 4]))
            } else {
                let idx = (self.rng() as usize) % self.live.len();
                let k = self.live.swap_remove(idx);
                if idx < self.live.len() {
                    self.positions.insert(self.live[idx], idx);
                }
                self.positions.remove(&k);
                Request::Delete(k)
            }
        }
    }

    fn small_tree() -> LsmTree {
        let cfg = LsmConfig {
            block_size: 256,
            payload_size: 4,
            k0_blocks: 4,
            gamma: 4,
            cache_blocks: 128,
            merge_rate: 0.25,
            ..LsmConfig::default()
        };
        LsmTree::with_mem_device(
            cfg,
            TreeOptions::builder().policy(PolicySpec::ChooseBest).build(),
            1 << 17,
        )
        .unwrap()
    }

    #[test]
    fn learner_converges_on_small_tree() {
        let mut tree = small_tree();
        let mut src = TestSource::new(42, 3000);
        // Grow to a steady-state size first (h >= 3 so β exists), then
        // keep it stable with the 50/50 source.
        for k in 0..2000u64 {
            tree.put(k, vec![1u8; 4]).unwrap();
            src.positions.insert(k, src.live.len());
            src.live.push(k);
        }
        assert!(tree.height() >= 3, "h = {}", tree.height());
        let opts = LearnOptions {
            cycles_per_measurement: 1,
            max_requests_per_measurement: 200_000,
            ..LearnOptions::default()
        };
        let report = learn_mixed_params(&mut tree, &mut src, &opts).unwrap();
        assert!(!report.measurements.is_empty() || tree.height() == 3);
        // The fitted policy must now be live on the tree.
        assert_eq!(tree.policy_name(), "Mixed");
        // And the tree still works.
        tree.put(7, vec![9u8; 4]).unwrap();
        assert!(tree.get(7).unwrap().is_some());
    }

    #[test]
    fn ledger_survives_policy_swaps_during_learning() {
        let ledger = Arc::new(crate::policy::ledger::DecisionLedger::new(64));
        let cfg = LsmConfig {
            block_size: 256,
            payload_size: 4,
            k0_blocks: 4,
            gamma: 4,
            cache_blocks: 128,
            merge_rate: 0.25,
            ..LsmConfig::default()
        };
        let mut tree = LsmTree::with_mem_device(
            cfg,
            TreeOptions::builder()
                .policy(PolicySpec::ChooseBest)
                .ledger(Arc::clone(&ledger))
                .build(),
            1 << 17,
        )
        .unwrap();
        let mut src = TestSource::new(11, 3000);
        for k in 0..2000u64 {
            tree.put(k, vec![1u8; 4]).unwrap();
            src.positions.insert(k, src.live.len());
            src.live.push(k);
        }
        let before = ledger.decisions();
        assert!(before > 0, "growth must have recorded decisions");
        let opts = LearnOptions {
            cycles_per_measurement: 1,
            max_requests_per_measurement: 100_000,
            ..LearnOptions::default()
        };
        learn_mixed_params(&mut tree, &mut src, &opts).unwrap();
        assert!(
            ledger.decisions() > before,
            "the ledger must keep recording across the learner's set_policy swaps"
        );
        assert!(
            ledger.rows().iter().any(|r| r.policy == "Mixed"),
            "probe decisions are tagged with the policy that made them"
        );
    }

    #[test]
    fn measure_volume_reports_finite_cost() {
        let mut tree = small_tree();
        let mut src = TestSource::new(7, 2000);
        for _ in 0..2000 {
            tree.apply(src.next_request()).unwrap();
        }
        let c = measure_volume(&mut tree, &mut src, 1, 3000).unwrap();
        assert!(c.is_finite() && c > 0.0, "cost was {c}");
    }

    #[test]
    fn measure_cycles_hits_cap_gracefully() {
        let mut tree = small_tree();
        let mut src = TestSource::new(9, 2000);
        // boundary level 9 never receives merges → cap must end the loop.
        let out = measure_cycles(&mut tree, &mut src, 9, 1, 1, 500).unwrap();
        assert!(out.is_none());
    }
}
