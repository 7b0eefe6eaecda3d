//! Merge policies (§III–§IV).
//!
//! When a level overflows, a *merge policy* decides which blocks leave it.
//! A policy is a value, [`PolicySpec`] (Full, RR, ChooseBest, Mixed, …),
//! and [`PolicySpec::choose`] is the decision. It also fixes how many runs
//! a level holds ([`PolicySpec::fan_in`]): one under every leveled policy,
//! up to `fan_in` under Stepped-Merge (§VI), whose merges are always of a
//! whole level's runs and decide nothing. Policies see only fence
//! metadata through a [`MergeCtx`]; selection never reads data blocks.
//! [`predicted_writes`] is the cost model decisions are judged by,
//! [`window`] holds the window selections, [`ledger`] records decisions
//! with their candidate tables and [`learn`] fits Mixed's parameters.

pub mod learn;
pub mod ledger;
pub mod window;

use std::collections::BTreeMap;
use std::iter;

use crate::block::BlockHandle;
use crate::error::{LsmError, Result};
use crate::level::Level;
use crate::memtable::RunMeta;
use crate::record::Key;
use window::{choose_best_aligned_window, choose_best_window, fence_scan, rr_window, Window};

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

/// The cost model, in blocks written, none preserved: a window of `w`
/// blocks whose key span overlaps `v` target blocks costs `w + v`; a full
/// merge of `n` source over `m` target blocks, `n + m`. `overlap` is `v`
/// when the caller has it from a fence scan; `None` counts it.
pub fn predicted_writes(
    src: &[RunMeta],
    target: &[BlockHandle],
    choice: MergeChoice,
    overlap: Option<usize>,
) -> u64 {
    let (taken, rewritten) = match choice {
        MergeChoice::Full => (src.len(), target.len()),
        MergeChoice::Window(w) => (
            w.len,
            overlap.unwrap_or_else(|| fence_scan(src, target, iter::once(w)).map(|(_, v)| v).sum()),
        ),
    };
    (taken + rewritten) as u64
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
    /// Per-target-level behaviour forced while *learning* (§IV-C), ahead
    /// of every rule; empty outside learning.
    pub forced: BTreeMap<usize, ForcedMode>,
}

/// The TestMixed setting of §IV-A: ChooseBest everywhere except full
/// merges into the bottom level.
impl Default for MixedParams {
    fn default() -> Self {
        MixedParams {
            thresholds: BTreeMap::new(),
            default_tau: 0.0,
            beta: true,
            forced: BTreeMap::new(),
        }
    }
}

impl MixedParams {
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

/// A merge policy — the unit of comparison in the paper's evaluation.
/// [`choose`](Self::choose) is a deterministic function of the context:
/// cross-merge state (RR cursors) lives in the tree, so a maintenance step
/// consults the policy from its unlocked half by `Arc`, with no lock.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicySpec {
    /// Original LSM full merges (§III-A).
    Full,
    /// Round-robin partial merges (≈ LevelDB, §III-B).
    RoundRobin,
    /// Minimum-overlap partial merges (≥ HyperLevelDB, §III-C).
    ChooseBest,
    /// ChooseBest at SSTable granularity (≈ HyperLevelDB, §VI).
    ChooseBestAligned,
    /// ChooseBest everywhere, Full into the bottom level (§IV-A).
    TestMixed,
    /// The threshold-based Mixed policy (§IV-B).
    Mixed(MixedParams),
    /// Stepped-Merge (Jagadish et al., VLDB 1997; the paper's §VI
    /// baseline, Cassandra's and HBase's default shape): a flush writes
    /// the memtable as a new run of L1, and a level holding `fan_in` runs
    /// merges all of them into one run at the front of the next level.
    /// Each record is written once a level, but a lookup probes up to
    /// `fan_in - 1` runs a level. `fan_in ≥ 2`.
    SteppedMerge {
        /// Runs a level accumulates before they merge one level down.
        fan_in: usize,
    },
}

impl PolicySpec {
    /// Choose what to merge out of the overflowing source.
    pub fn choose(&self, ctx: &MergeCtx<'_>) -> MergeChoice {
        match self {
            PolicySpec::Full => MergeChoice::Full,
            PolicySpec::RoundRobin => {
                MergeChoice::Window(rr_window(ctx.src_runs, ctx.src_rr_cursor, ctx.window_blocks))
            }
            PolicySpec::ChooseBest => choose_best(ctx),
            PolicySpec::ChooseBestAligned => MergeChoice::Window(choose_best_aligned_window(
                ctx.src_runs,
                ctx.target.handles(),
                ctx.window_blocks,
            )),
            PolicySpec::TestMixed => mixed(&MixedParams::default(), ctx),
            PolicySpec::Mixed(params) => mixed(params, ctx),
            // A stepped merge takes every run of its level.
            PolicySpec::SteppedMerge { .. } => MergeChoice::Full,
        }
    }

    /// Stepped-Merge's fan-in; `None` for a leveled policy, under which
    /// every level is one run.
    pub fn fan_in(&self) -> Option<usize> {
        match *self {
            PolicySpec::SteppedMerge { fan_in } => Some(fan_in),
            _ => None,
        }
    }

    /// Whether this policy can run a tree whose levels hold `runs` runs
    /// each, top down, the last run holding `bottom_tombstones` tombstones:
    /// a leveled policy one run in every level (and at least one level) and
    /// a bottom with no tombstone, which no leveled merge leaves and none
    /// to come would drop; Stepped-Merge at most `fan_in` a level —
    /// `fan_in` being a merge still to run. Else, or for a fan-in under 2,
    /// an [`LsmError::Config`].
    pub fn admit(&self, runs: &[usize], bottom_tombstones: u64) -> Result<()> {
        let fits = match self.fan_in() {
            Some(fan_in) if fan_in < 2 => return Err(LsmError::Config("fan-in under 2".into())),
            Some(fan_in) => runs.iter().all(|&n| n <= fan_in),
            None if bottom_tombstones > 0 => {
                let msg = format!("{self:?} cannot hold {bottom_tombstones} bottom tombstones");
                return Err(LsmError::Config(msg));
            }
            None => !runs.is_empty() && runs.iter().all(|&n| n == 1),
        };
        let misfit = || LsmError::Config(format!("{self:?} cannot hold levels of {runs:?} runs"));
        fits.then_some(()).ok_or_else(misfit)
    }

    /// Short name for reports, matching the paper's figures. TestMixed is
    /// Mixed with its §IV-A parameters and reports as "Mixed".
    pub fn name(&self) -> &'static str {
        match self {
            PolicySpec::Full => "Full",
            PolicySpec::RoundRobin => "RR",
            PolicySpec::ChooseBest => "ChooseBest",
            PolicySpec::ChooseBestAligned => "ChooseBestAligned",
            PolicySpec::TestMixed | PolicySpec::Mixed(_) => "Mixed",
            PolicySpec::SteppedMerge { .. } => "SteppedMerge",
        }
    }
}

fn choose_best(ctx: &MergeCtx<'_>) -> MergeChoice {
    MergeChoice::Window(choose_best_window(ctx.src_runs, ctx.target.handles(), ctx.window_blocks))
}

/// The Mixed policy's rules (§IV-B), after any forced mode of learning.
fn mixed(params: &MixedParams, ctx: &MergeCtx<'_>) -> MergeChoice {
    if let Some(mode) = params.forced.get(&ctx.target_paper_level) {
        return match mode {
            ForcedMode::Full => MergeChoice::Full,
            ForcedMode::Partial => choose_best(ctx),
        };
    }
    // Rule 1: merges from L0 into L1 are always partial — emptying L0
    // buys nothing since L0 lives in memory (§IV-B).
    if ctx.target_paper_level == 1 {
        return choose_best(ctx);
    }
    // Rule 3: the bottom level is governed by β.
    if ctx.target_is_bottom {
        return if params.beta { MergeChoice::Full } else { choose_best(ctx) };
    }
    // Rule 2: full merges into an internal level while it is below its
    // threshold fraction of capacity.
    let tau = params.tau(ctx.target_paper_level);
    if (ctx.target.num_blocks() as f64) < tau * ctx.target_capacity as f64 {
        MergeChoice::Full
    } else {
        choose_best(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(PolicySpec::Full.choose(&ctx(&src, &t, 1, 2, 100, false)), MergeChoice::Full);
    }

    #[test]
    fn rr_policy_uses_cursor_from_ctx() {
        let src = runs(&[(0, 9), (10, 19), (20, 29)]);
        let t = level(&[]);
        let mut c = ctx(&src, &t, 1, 2, 100, false);
        c.src_rr_cursor = Some(9);
        let choice = PolicySpec::RoundRobin.choose(&c);
        assert_eq!(choice, MergeChoice::Window(Window { start: 1, len: 1 }));
    }

    #[test]
    fn choose_best_policy_picks_gap() {
        let src = runs(&[(0, 9), (40, 45), (100, 109)]);
        let t = level(&[(0, 20), (95, 120)]);
        let choice = PolicySpec::ChooseBest.choose(&ctx(&src, &t, 1, 2, 100, false));
        assert_eq!(choice, MergeChoice::Window(Window { start: 1, len: 1 }));
    }

    #[test]
    fn mixed_always_partial_into_l1() {
        let src = runs(&[(0, 9), (10, 19)]);
        let t = level(&[]);
        let m = PolicySpec::Mixed(MixedParams {
            default_tau: 1.0, // would force Full anywhere else
            ..MixedParams::default()
        });
        let choice = m.choose(&ctx(&src, &t, 1, 1, 100, false));
        assert!(matches!(choice, MergeChoice::Window(_)));
    }

    #[test]
    fn mixed_beta_controls_bottom() {
        let src = runs(&[(0, 9), (10, 19)]);
        let t = level(&[(0, 50)]);
        let on = PolicySpec::Mixed(MixedParams { beta: true, ..MixedParams::default() });
        assert_eq!(on.choose(&ctx(&src, &t, 1, 3, 100, true)), MergeChoice::Full);
        let off = PolicySpec::Mixed(MixedParams { beta: false, ..MixedParams::default() });
        assert!(matches!(off.choose(&ctx(&src, &t, 1, 3, 100, true)), MergeChoice::Window(_)));
    }

    #[test]
    fn mixed_threshold_switches_with_level_size() {
        let src = runs(&[(0, 9), (10, 19)]);
        let mut params = MixedParams::default();
        params.thresholds.insert(2, 0.5);
        let m = PolicySpec::Mixed(params);
        // Target has 1 block, capacity 10 → S < τK (1 < 5) → Full.
        let small = level(&[(0, 50)]);
        assert_eq!(m.choose(&ctx(&src, &small, 1, 2, 10, false)), MergeChoice::Full);
        // Target has 6 blocks ≥ 5 → partial.
        let big = level(&[(0, 5), (10, 15), (20, 25), (30, 35), (40, 45), (50, 55)]);
        assert!(matches!(m.choose(&ctx(&src, &big, 1, 2, 10, false)), MergeChoice::Window(_)));
    }

    #[test]
    fn forced_modes_beat_everything() {
        let src = runs(&[(0, 9), (10, 19)]);
        let t = level(&[(0, 50)]);
        let mut params = MixedParams { beta: false, ..MixedParams::default() };
        params.forced.insert(3, ForcedMode::Full);
        let m = PolicySpec::Mixed(params.clone());
        assert_eq!(m.choose(&ctx(&src, &t, 1, 3, 100, true)), MergeChoice::Full);
        params.forced.insert(3, ForcedMode::Partial);
        let m = PolicySpec::Mixed(params);
        assert!(matches!(m.choose(&ctx(&src, &t, 1, 3, 100, true)), MergeChoice::Window(_)));
    }

    #[test]
    fn test_mixed_is_choosebest_plus_full_bottom() {
        let src = runs(&[(0, 9), (10, 19)]);
        let t = level(&[(0, 50)]);
        let m = PolicySpec::TestMixed;
        // Internal level with τ=0: S < 0 never holds → partial.
        assert!(matches!(m.choose(&ctx(&src, &t, 1, 2, 100, false)), MergeChoice::Window(_)));
        // Bottom: β = true → Full.
        assert_eq!(m.choose(&ctx(&src, &t, 1, 2, 100, true)), MergeChoice::Full);
    }

    #[test]
    fn spec_names_match_the_figures() {
        for (spec, name) in [
            (PolicySpec::Full, "Full"),
            (PolicySpec::RoundRobin, "RR"),
            (PolicySpec::ChooseBest, "ChooseBest"),
            (PolicySpec::ChooseBestAligned, "ChooseBestAligned"),
            (PolicySpec::TestMixed, "Mixed"),
            (PolicySpec::Mixed(MixedParams::default()), "Mixed"),
            (PolicySpec::SteppedMerge { fan_in: 3 }, "SteppedMerge"),
        ] {
            assert_eq!(spec.name(), name);
        }
    }

    #[test]
    fn a_policy_admits_the_run_shapes_it_can_hold() {
        let stepped = |fan_in| PolicySpec::SteppedMerge { fan_in };
        assert!(PolicySpec::ChooseBest.admit(&[1, 1, 1], 0).is_ok());
        assert!(stepped(3).admit(&[1, 1, 1], 0).is_ok(), "a leveled shape is a stepped one");
        assert!(stepped(3).admit(&[1], 5).is_ok(), "a stepped bottom may hold tombstones");
        assert!(stepped(3).admit(&[], 0).is_ok() && stepped(3).admit(&[3, 0, 2], 0).is_ok());
        for (spec, runs, bottom_tombstones) in [
            (PolicySpec::ChooseBest, &[1, 2][..], 0),
            (PolicySpec::Full, &[1, 0], 0),
            (PolicySpec::RoundRobin, &[], 0),
            (PolicySpec::ChooseBest, &[1, 1], 1),
            (stepped(2), &[1, 3], 0),
            (stepped(1), &[], 0),
            (stepped(0), &[1], 0),
        ] {
            match spec.admit(runs, bottom_tombstones) {
                Err(LsmError::Config(_)) => {}
                other => panic!("{spec:?} admitted {runs:?}, {bottom_tombstones}: {other:?}"),
            }
        }
    }

    #[test]
    fn predicted_writes_is_taken_plus_rewritten() {
        let src = runs(&[(0, 9), (10, 19), (20, 29)]);
        let t = level(&[(5, 12), (40, 50)]);
        let w = MergeChoice::Window(Window { start: 1, len: 2 });
        assert_eq!(predicted_writes(&src, t.handles(), w, None), 2 + 1);
        assert_eq!(predicted_writes(&src, t.handles(), w, Some(0)), 2, "a given count is used");
        assert_eq!(predicted_writes(&src, t.handles(), MergeChoice::Full, None), 3 + 2);
    }
}
