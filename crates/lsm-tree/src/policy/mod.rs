//! Merge policies (§III–§IV).
//!
//! When a level overflows, a *merge policy* decides which blocks leave it:
//!
//! * [`FullPolicy`] — the original LSM behaviour: merge the whole level.
//! * [`RrPolicy`] — round-robin partial merges of rate δ (≈ LevelDB).
//! * [`ChooseBestPolicy`] — partial merges that pick the window overlapping
//!   the fewest target blocks (a strictly stronger HyperLevelDB).
//! * [`MixedPolicy`] — the paper's contribution: ChooseBest by default,
//!   switching to Full merges into a level while that level is small
//!   (below its threshold τ), and into the bottom level when β is set.
//!
//! Policies see only fence metadata through a [`MergeCtx`]; selection never
//! reads data blocks.

pub mod learn;
pub mod ledger;
pub mod window;

use std::collections::BTreeMap;

use crate::level::Level;
use crate::memtable::RunMeta;
use crate::record::Key;
use window::{choose_best_aligned_window, choose_best_window, rr_window, Window};

/// What the policy decided to merge out of the overflowing source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeChoice {
    /// Merge the entire source level down.
    Full,
    /// Merge the given window of source blocks (indices into the source's
    /// run list — physical blocks for on-SSD levels, virtual blocks of `B`
    /// records for L0).
    Window(Window),
}

/// Everything a policy may consult when choosing a merge.
pub struct MergeCtx<'a> {
    /// Fence metadata of the overflowing source level (virtual blocks when
    /// the source is L0).
    pub src_runs: &'a [RunMeta],
    /// The target level (source's next level down).
    pub target: &'a Level,
    /// δ·K of the *source* level: how many blocks a partial merge takes.
    pub window_blocks: usize,
    /// Paper index of the target level (≥ 1).
    pub target_paper_level: usize,
    /// `K_i` of the target level, in blocks.
    pub target_capacity: usize,
    /// Is the target the bottom level?
    pub target_is_bottom: bool,
    /// The source's round-robin cursor (largest key previously merged out).
    pub src_rr_cursor: Option<Key>,
}

/// A merge policy. Implementations must be deterministic functions of the
/// context — all cross-merge state (RR cursors) lives in the tree so that
/// it survives level relabelling. That is also why `choose` takes `&self`:
/// a maintenance step consults the policy from its unlocked half, sharing
/// it with the tree by `Arc`, with no lock of the policy's own.
pub trait MergePolicy: Send + Sync {
    /// Short name for reports ("Full", "RR", "ChooseBest", "Mixed", …).
    fn name(&self) -> &'static str;
    /// Choose what to merge out of the overflowing source.
    fn choose(&self, ctx: &MergeCtx<'_>) -> MergeChoice;
}

/// The original LSM policy: always merge the whole level (§III-A).
#[derive(Debug, Default, Clone, Copy)]
pub struct FullPolicy;

impl MergePolicy for FullPolicy {
    fn name(&self) -> &'static str {
        "Full"
    }
    fn choose(&self, _ctx: &MergeCtx<'_>) -> MergeChoice {
        MergeChoice::Full
    }
}

/// Round-robin partial merges (§III-B), LevelDB-style.
#[derive(Debug, Default, Clone, Copy)]
pub struct RrPolicy;

impl MergePolicy for RrPolicy {
    fn name(&self) -> &'static str {
        "RR"
    }
    fn choose(&self, ctx: &MergeCtx<'_>) -> MergeChoice {
        MergeChoice::Window(rr_window(ctx.src_runs, ctx.src_rr_cursor, ctx.window_blocks))
    }
}

/// Minimum-overlap partial merges restricted to pre-partitioned, aligned
/// windows — the HyperLevelDB-granularity variant discussed in §VI. Used
/// by the ablation harness to quantify what arbitrary-range selection
/// buys over SSTable-granularity selection.
#[derive(Debug, Default, Clone, Copy)]
pub struct ChooseBestAlignedPolicy;

impl MergePolicy for ChooseBestAlignedPolicy {
    fn name(&self) -> &'static str {
        "ChooseBestAligned"
    }
    fn choose(&self, ctx: &MergeCtx<'_>) -> MergeChoice {
        MergeChoice::Window(choose_best_aligned_window(
            ctx.src_runs,
            ctx.target.handles(),
            ctx.window_blocks,
        ))
    }
}

/// Minimum-overlap partial merges (§III-C).
#[derive(Debug, Default, Clone, Copy)]
pub struct ChooseBestPolicy;

impl MergePolicy for ChooseBestPolicy {
    fn name(&self) -> &'static str {
        "ChooseBest"
    }
    fn choose(&self, ctx: &MergeCtx<'_>) -> MergeChoice {
        MergeChoice::Window(choose_best_window(
            ctx.src_runs,
            ctx.target.handles(),
            ctx.window_blocks,
        ))
    }
}

/// Parameters of the Mixed policy (§IV-B): per-level thresholds
/// `τ_i` for internal levels `2 ≤ i ≤ h−2` and the Boolean decision β for
/// the bottom level.
#[derive(Debug, Clone, PartialEq)]
pub struct MixedParams {
    /// Learned thresholds, keyed by *target* paper-level index.
    pub thresholds: BTreeMap<usize, f64>,
    /// Threshold assumed for levels without a learned entry (e.g. a level
    /// created after learning finished).
    pub default_tau: f64,
    /// Whether merges into the bottom level are full.
    pub beta: bool,
}

impl Default for MixedParams {
    fn default() -> Self {
        MixedParams { thresholds: BTreeMap::new(), default_tau: 0.0, beta: true }
    }
}

impl MixedParams {
    /// The TestMixed configuration of §IV-A: ChooseBest everywhere except
    /// full merges into the bottom level.
    pub fn test_mixed() -> Self {
        MixedParams::default()
    }

    /// τ for merges into `target_paper_level`.
    pub fn tau(&self, target_paper_level: usize) -> f64 {
        self.thresholds.get(&target_paper_level).copied().unwrap_or(self.default_tau)
    }
}

/// Per-level forced behaviour used while *learning* parameters (§IV-C):
/// the measurement of `C(τ_2, …, τ_i)` runs Full for merges from `L_i`
/// into `L_{i+1}` and ChooseBest below.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForcedMode {
    /// Force full merges into this level.
    Full,
    /// Force ChooseBest partial merges into this level.
    Partial,
}

/// The Mixed policy (§IV-B).
#[derive(Debug, Clone, Default)]
pub struct MixedPolicy {
    /// Operating parameters.
    pub params: MixedParams,
    /// Temporary per-target-level overrides used by the learner.
    pub overrides: BTreeMap<usize, ForcedMode>,
}

impl MixedPolicy {
    /// A Mixed policy with the given parameters.
    pub fn new(params: MixedParams) -> Self {
        MixedPolicy { params, overrides: BTreeMap::new() }
    }
}

impl MergePolicy for MixedPolicy {
    fn name(&self) -> &'static str {
        "Mixed"
    }

    fn choose(&self, ctx: &MergeCtx<'_>) -> MergeChoice {
        let partial = || {
            MergeChoice::Window(choose_best_window(
                ctx.src_runs,
                ctx.target.handles(),
                ctx.window_blocks,
            ))
        };
        if let Some(mode) = self.overrides.get(&ctx.target_paper_level) {
            return match mode {
                ForcedMode::Full => MergeChoice::Full,
                ForcedMode::Partial => partial(),
            };
        }
        // Rule 1: merges from L0 into L1 are always partial — emptying L0
        // buys nothing since L0 lives in memory (§IV-B).
        if ctx.target_paper_level == 1 {
            return partial();
        }
        // Rule 3: the bottom level is governed by β.
        if ctx.target_is_bottom {
            return if self.params.beta { MergeChoice::Full } else { partial() };
        }
        // Rule 2: full merges into an internal level while it is below its
        // threshold fraction of capacity.
        let tau = self.params.tau(ctx.target_paper_level);
        let s = ctx.target.num_blocks() as f64;
        if s < tau * ctx.target_capacity as f64 {
            MergeChoice::Full
        } else {
            partial()
        }
    }
}

/// Which policy to run — the unit of comparison in the paper's evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicySpec {
    /// Original LSM full merges.
    Full,
    /// Round-robin partial merges (≈ LevelDB).
    RoundRobin,
    /// Minimum-overlap partial merges (≥ HyperLevelDB).
    ChooseBest,
    /// ChooseBest at SSTable granularity (≈ HyperLevelDB, §VI).
    ChooseBestAligned,
    /// ChooseBest everywhere, Full into the bottom level (§IV-A).
    TestMixed,
    /// The threshold-based Mixed policy (§IV-B).
    Mixed(MixedParams),
}

impl PolicySpec {
    /// Instantiate the policy.
    pub fn build(&self) -> Box<dyn MergePolicy> {
        match self {
            PolicySpec::Full => Box::new(FullPolicy),
            PolicySpec::RoundRobin => Box::new(RrPolicy),
            PolicySpec::ChooseBest => Box::new(ChooseBestPolicy),
            PolicySpec::ChooseBestAligned => Box::new(ChooseBestAlignedPolicy),
            PolicySpec::TestMixed => Box::new(MixedPolicy::new(MixedParams::test_mixed())),
            PolicySpec::Mixed(params) => Box::new(MixedPolicy::new(params.clone())),
        }
    }

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            PolicySpec::Full => "Full",
            PolicySpec::RoundRobin => "RR",
            PolicySpec::ChooseBest => "ChooseBest",
            PolicySpec::ChooseBestAligned => "ChooseBestAligned",
            PolicySpec::TestMixed => "TestMixed",
            PolicySpec::Mixed(_) => "Mixed",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockHandle;
    use sim_ssd::BlockId;

    fn runs(ranges: &[(Key, Key)]) -> Vec<RunMeta> {
        ranges.iter().map(|&(lo, hi)| RunMeta { min: lo, max: hi, count: 4 }).collect()
    }

    fn level(ranges: &[(Key, Key)]) -> Level {
        let mut l = Level::new();
        for (i, &(lo, hi)) in ranges.iter().enumerate() {
            l.push(BlockHandle {
                id: BlockId(i as u64),
                min: lo,
                max: hi,
                count: 4,
                tombstones: 0,
                bloom: None,
            });
        }
        l
    }

    fn ctx<'a>(
        src: &'a [RunMeta],
        target: &'a Level,
        window: usize,
        target_paper_level: usize,
        capacity: usize,
        is_bottom: bool,
    ) -> MergeCtx<'a> {
        MergeCtx {
            src_runs: src,
            target,
            window_blocks: window,
            target_paper_level,
            target_capacity: capacity,
            target_is_bottom: is_bottom,
            src_rr_cursor: None,
        }
    }

    #[test]
    fn full_policy_always_full() {
        let src = runs(&[(0, 9), (10, 19)]);
        let t = level(&[(0, 50)]);
        assert_eq!(FullPolicy.choose(&ctx(&src, &t, 1, 2, 100, false)), MergeChoice::Full);
    }

    #[test]
    fn rr_policy_uses_cursor_from_ctx() {
        let src = runs(&[(0, 9), (10, 19), (20, 29)]);
        let t = level(&[]);
        let mut c = ctx(&src, &t, 1, 2, 100, false);
        c.src_rr_cursor = Some(9);
        let choice = RrPolicy.choose(&c);
        assert_eq!(choice, MergeChoice::Window(Window { start: 1, len: 1 }));
    }

    #[test]
    fn choose_best_policy_picks_gap() {
        let src = runs(&[(0, 9), (40, 45), (100, 109)]);
        let t = level(&[(0, 20), (95, 120)]);
        let choice = ChooseBestPolicy.choose(&ctx(&src, &t, 1, 2, 100, false));
        assert_eq!(choice, MergeChoice::Window(Window { start: 1, len: 1 }));
    }

    #[test]
    fn mixed_always_partial_into_l1() {
        let src = runs(&[(0, 9), (10, 19)]);
        let t = level(&[]);
        let m = MixedPolicy::new(MixedParams {
            thresholds: BTreeMap::new(),
            default_tau: 1.0, // would force Full anywhere else
            beta: true,
        });
        let choice = m.choose(&ctx(&src, &t, 1, 1, 100, false));
        assert!(matches!(choice, MergeChoice::Window(_)));
    }

    #[test]
    fn mixed_beta_controls_bottom() {
        let src = runs(&[(0, 9), (10, 19)]);
        let t = level(&[(0, 50)]);
        let on = MixedPolicy::new(MixedParams { beta: true, ..MixedParams::default() });
        assert_eq!(on.choose(&ctx(&src, &t, 1, 3, 100, true)), MergeChoice::Full);
        let off = MixedPolicy::new(MixedParams { beta: false, ..MixedParams::default() });
        assert!(matches!(off.choose(&ctx(&src, &t, 1, 3, 100, true)), MergeChoice::Window(_)));
    }

    #[test]
    fn mixed_threshold_switches_with_level_size() {
        let src = runs(&[(0, 9), (10, 19)]);
        let mut params = MixedParams::default();
        params.thresholds.insert(2, 0.5);
        let m = MixedPolicy::new(params);
        // Target has 1 block, capacity 10 → S < τK (1 < 5) → Full.
        let small = level(&[(0, 50)]);
        assert_eq!(m.choose(&ctx(&src, &small, 1, 2, 10, false)), MergeChoice::Full);
        // Target has 6 blocks ≥ 5 → partial.
        let big = level(&[(0, 5), (10, 15), (20, 25), (30, 35), (40, 45), (50, 55)]);
        assert!(matches!(m.choose(&ctx(&src, &big, 1, 2, 10, false)), MergeChoice::Window(_)));
    }

    #[test]
    fn overrides_beat_everything() {
        let src = runs(&[(0, 9), (10, 19)]);
        let t = level(&[(0, 50)]);
        let mut m = MixedPolicy::new(MixedParams { beta: false, ..MixedParams::default() });
        m.overrides.insert(3, ForcedMode::Full);
        assert_eq!(m.choose(&ctx(&src, &t, 1, 3, 100, true)), MergeChoice::Full);
        m.overrides.insert(3, ForcedMode::Partial);
        assert!(matches!(m.choose(&ctx(&src, &t, 1, 3, 100, true)), MergeChoice::Window(_)));
    }

    #[test]
    fn test_mixed_is_choosebest_plus_full_bottom() {
        let src = runs(&[(0, 9), (10, 19)]);
        let t = level(&[(0, 50)]);
        let m = MixedPolicy::new(MixedParams::test_mixed());
        // Internal level with τ=0: S < 0 never holds → partial.
        assert!(matches!(m.choose(&ctx(&src, &t, 1, 2, 100, false)), MergeChoice::Window(_)));
        // Bottom: β = true → Full.
        assert_eq!(m.choose(&ctx(&src, &t, 1, 2, 100, true)), MergeChoice::Full);
    }

    #[test]
    fn spec_builds_named_policies() {
        for (spec, name) in [
            (PolicySpec::Full, "Full"),
            (PolicySpec::RoundRobin, "RR"),
            (PolicySpec::ChooseBest, "ChooseBest"),
            (PolicySpec::TestMixed, "Mixed"),
            (PolicySpec::Mixed(MixedParams::default()), "Mixed"),
        ] {
            let p = spec.build();
            assert_eq!(p.name(), name);
        }
        assert_eq!(PolicySpec::TestMixed.name(), "TestMixed");
    }
}
