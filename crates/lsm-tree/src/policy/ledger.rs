//! Decision ledger: what the merge policy chose, what it predicted, and
//! what actually happened.
//!
//! Every merge decision in this design is a bet: the policy looks at fence
//! metadata, predicts the write cost of each candidate (window or full
//! merge), and commits to one. A [`DecisionLedger`] records the whole bet —
//! the candidate table with per-candidate predicted costs, the choice, and
//! (once the merge's `MergeFinish` fires) the actual block writes — so a
//! post-mortem or `lsm_doctor --ledger` can answer "was the policy's model
//! of the world right, and how much did its choices cost versus the best
//! candidate in hindsight?".
//!
//! **Predicted cost** is the one cost model, [`predicted_writes`]: a
//! window of `w` blocks overlapping `v` target blocks rewrites `w + v`
//! blocks; a full merge of `n` source over `m` target blocks rewrites
//! `n + m`.
//! **Regret** of one decision is `predicted(chosen) − min over candidates
//! of predicted`, i.e. hindsight is measured inside the same cost model
//! the policy uses (the model's own error is tracked separately as
//! `|actual − predicted|`). ChooseBest always has zero regret by
//! construction — a window costs `w + v ≤ n + m` — which is exactly the
//! paper's near-write-optimality argument made auditable.
//!
//! The ledger keeps the last `keep` rows in full (bounded like the flight
//! recorder) plus exact cumulative totals over *all* rows ever recorded.
//! It is attached via [`TreeOptions::ledger`](crate::tree::TreeOptions);
//! when absent the tree does not even enumerate candidates, so the device
//! image and stats are untouched either way.
//!

use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;

use observe::Json;

use crate::block::BlockHandle;
use crate::memtable::RunMeta;
use crate::policy::window::{fence_scan, Window};
use crate::policy::{predicted_writes, MergeChoice};

/// One candidate the policy could have chosen, with its predicted write
/// cost in blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// The candidate merge (window or full).
    pub choice: MergeChoice,
    /// Predicted block writes if this candidate were merged.
    pub predicted: u64,
}

impl Candidate {
    fn to_json(self) -> Json {
        let (kind, start, len) = match self.choice {
            MergeChoice::Full => ("full", Json::Null, Json::Null),
            MergeChoice::Window(w) => ("window", Json::from(w.start), Json::from(w.len)),
        };
        Json::obj([
            ("kind", Json::from(kind)),
            ("start", start),
            ("len", len),
            ("predicted", Json::from(self.predicted)),
        ])
    }
}

/// Enumerate the candidate set for one merge decision: every window a
/// policy can choose — each `window`-sized run of source blocks, then the
/// tail windows shorter than it that RR and the aligned variant choose at
/// the end of the source, overlaps counted by the one fence scan — then
/// the full merge, each with its predicted cost. Only called when a ledger
/// is attached.
pub fn enumerate_candidates(
    src_runs: &[RunMeta],
    target: &[BlockHandle],
    window: usize,
) -> Vec<Candidate> {
    let n = src_runs.len();
    let every = (0..n).map(|start| Window { start, len: window.min(n - start) });
    let windows = fence_scan(src_runs, target, every)
        .map(|(w, overlap)| (MergeChoice::Window(w), Some(overlap)));
    windows
        .chain([(MergeChoice::Full, None)])
        .map(|(choice, overlap)| Candidate {
            choice,
            predicted: predicted_writes(src_runs, target, choice, overlap),
        })
        .collect()
}

/// One recorded merge decision. `actual` is `None` between the decision
/// and its `MergeFinish`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionRow {
    /// Monotone decision id (0-based, never reset).
    pub id: u64,
    /// Name of the policy that made the choice.
    pub policy: &'static str,
    /// Paper index of the merge's target level.
    pub target_level: usize,
    /// What the policy chose.
    pub chosen: MergeChoice,
    /// Predicted write cost of the chosen candidate.
    pub predicted: u64,
    /// The cheapest candidate (best in hindsight under the cost model).
    pub best: Candidate,
    /// The full candidate table, windows left-to-right then Full.
    pub candidates: Vec<Candidate>,
    /// Actual block writes reported by the merge's `MergeFinish`.
    pub actual: Option<u64>,
}

impl DecisionRow {
    /// Regret of this decision: chosen predicted cost minus the best
    /// candidate's predicted cost.
    pub fn regret(&self) -> u64 {
        self.predicted.saturating_sub(self.best.predicted)
    }

    /// Render as a JSON object.
    pub fn to_json(&self) -> Json {
        let chosen = Candidate { choice: self.chosen, predicted: self.predicted };
        Json::obj([
            ("id", Json::from(self.id)),
            ("policy", Json::from(self.policy)),
            ("target_level", Json::from(self.target_level)),
            ("chosen", chosen.to_json()),
            ("best", self.best.to_json()),
            ("regret", Json::from(self.regret())),
            ("candidates", Json::arr(self.candidates.iter().map(|c| c.to_json()))),
            ("actual", self.actual.map(Json::from).unwrap_or(Json::Null)),
        ])
    }
}

/// Cumulative per-level (and overall) totals across every decision ever
/// recorded, including rows the ring has since evicted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LedgerTotals {
    /// Decisions recorded.
    pub decisions: u64,
    /// Of which were full merges.
    pub full_merges: u64,
    /// Decisions whose `MergeFinish` has been reconciled.
    pub closed: u64,
    /// Sum of chosen predicted costs.
    pub predicted: u64,
    /// Sum of actual writes over closed decisions.
    pub actual: u64,
    /// Sum of per-decision regret (chosen − best predicted).
    pub regret: u64,
    /// Sum of `|actual − predicted|` over closed decisions.
    pub model_error: u64,
}

impl LedgerTotals {
    fn absorb_open(&mut self, row: &DecisionRow) {
        self.decisions += 1;
        if row.chosen == MergeChoice::Full {
            self.full_merges += 1;
        }
        self.predicted += row.predicted;
        self.regret += row.regret();
    }

    fn absorb_close(&mut self, predicted: u64, actual: u64) {
        self.closed += 1;
        self.actual += actual;
        self.model_error += actual.abs_diff(predicted);
    }

    /// Render as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("decisions", Json::from(self.decisions)),
            ("full_merges", Json::from(self.full_merges)),
            ("closed", Json::from(self.closed)),
            ("predicted", Json::from(self.predicted)),
            ("actual", Json::from(self.actual)),
            ("regret", Json::from(self.regret)),
            ("model_error", Json::from(self.model_error)),
        ])
    }
}

/// A closed decision, returned by [`DecisionLedger::close`] so the tree
/// can emit the matching `LedgerOutcome` event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClosedDecision {
    /// Paper index of the merge's target level.
    pub target_level: usize,
    /// Whether the chosen merge was full.
    pub full: bool,
    /// Number of candidates considered.
    pub candidates: usize,
    /// Predicted write cost of the chosen candidate.
    pub predicted: u64,
    /// Predicted write cost of the best candidate.
    pub best_predicted: u64,
    /// Actual block writes of the merge.
    pub actual: u64,
}

#[derive(Debug, Default)]
struct LedgerState {
    next_id: u64,
    rows: VecDeque<DecisionRow>,
    dropped_rows: u64,
    totals: LedgerTotals,
    per_level: BTreeMap<usize, LedgerTotals>,
}

/// Bounded ledger of merge decisions (see module docs). Shareable across
/// threads; one small mutex-guarded update per decision and per
/// `MergeFinish`.
#[derive(Debug)]
pub struct DecisionLedger {
    keep: usize,
    state: Mutex<LedgerState>,
}

impl Default for DecisionLedger {
    fn default() -> Self {
        DecisionLedger::new(512)
    }
}

impl DecisionLedger {
    /// A ledger retaining the last `keep` full rows (at least 1); totals
    /// cover every row ever recorded regardless.
    pub fn new(keep: usize) -> Self {
        DecisionLedger { keep: keep.max(1), state: Mutex::new(LedgerState::default()) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LedgerState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Record a decision at choice time; returns a token to pass to
    /// [`close`](Self::close) when the merge's actual writes are known.
    /// `candidates` must be non-empty and contain `chosen` with predicted
    /// cost `predicted` (debug-asserted).
    pub fn open(
        &self,
        policy: &'static str,
        target_level: usize,
        candidates: Vec<Candidate>,
        chosen: MergeChoice,
        predicted: u64,
    ) -> u64 {
        debug_assert!(!candidates.is_empty());
        debug_assert!(
            candidates.iter().any(|c| c.choice == chosen && c.predicted == predicted),
            "chosen candidate must appear in the candidate table"
        );
        // First-on-ties keeps "best" deterministic: windows are generated
        // left-to-right with Full last, matching ChooseBest's tie-break. A
        // tail window, narrower than the table's widest, takes less and so
        // costs less for that alone: it is listed, so that a choice of it
        // has its row, but it is no rival.
        let width = |c: &Candidate| match c.choice {
            MergeChoice::Window(w) => Some(w.len),
            MergeChoice::Full => None,
        };
        let widest = candidates.iter().filter_map(width).max();
        let best = candidates
            .iter()
            .copied()
            .filter(|c| width(c).is_none() || width(c) == widest)
            .min_by_key(|c| c.predicted)
            .expect("candidates is non-empty");
        let mut state = self.lock();
        let id = state.next_id;
        state.next_id += 1;
        let row = DecisionRow {
            id,
            policy,
            target_level,
            chosen,
            predicted,
            best,
            candidates,
            actual: None,
        };
        state.totals.absorb_open(&row);
        state.per_level.entry(target_level).or_default().absorb_open(&row);
        if state.rows.len() == self.keep {
            state.rows.pop_front();
            state.dropped_rows += 1;
        }
        state.rows.push_back(row);
        id
    }

    /// Reconcile a decision with the actual writes from its `MergeFinish`.
    /// Returns the closed summary for event emission, or `None` if the row
    /// was already evicted from the ring (in which case nothing is
    /// recorded — the evicted row's prediction is gone, so `closed`,
    /// `actual`, and `model_error` would be dishonest).
    pub fn close(&self, token: u64, actual: u64) -> Option<ClosedDecision> {
        let mut state = self.lock();
        let pos = state.rows.iter().rposition(|r| r.id == token);
        let closed = pos.map(|p| {
            let row = &mut state.rows[p];
            row.actual = Some(actual);
            ClosedDecision {
                target_level: row.target_level,
                full: row.chosen == MergeChoice::Full,
                candidates: row.candidates.len(),
                predicted: row.predicted,
                best_predicted: row.best.predicted,
                actual,
            }
        });
        if let Some(c) = closed {
            state.totals.absorb_close(c.predicted, actual);
            state.per_level.entry(c.target_level).or_default().absorb_close(c.predicted, actual);
        }
        closed
    }

    /// Copy of the retained rows, oldest first.
    pub fn rows(&self) -> Vec<DecisionRow> {
        self.lock().rows.iter().cloned().collect()
    }

    /// Decisions recorded since creation (including evicted rows).
    pub fn decisions(&self) -> u64 {
        self.lock().totals.decisions
    }

    /// Rows evicted from the ring to stay within `keep`.
    pub fn dropped_rows(&self) -> u64 {
        self.lock().dropped_rows
    }

    /// Cumulative totals over all decisions.
    pub fn totals(&self) -> LedgerTotals {
        self.lock().totals
    }

    /// Cumulative totals per target paper level.
    pub fn per_level(&self) -> BTreeMap<usize, LedgerTotals> {
        self.lock().per_level.clone()
    }

    /// Cumulative regret in blocks (chosen minus best predicted cost).
    pub fn cumulative_regret(&self) -> u64 {
        self.lock().totals.regret
    }

    /// Forget everything — used between torture cycles.
    pub fn clear(&self) {
        *self.lock() = LedgerState::default();
    }

    /// Render the ledger as one JSON object:
    /// `{keep, dropped_rows, totals, per_level, rows: [...]}`.
    pub fn to_json(&self) -> Json {
        let state = self.lock();
        Json::obj([
            ("keep", Json::from(self.keep)),
            ("dropped_rows", Json::from(state.dropped_rows)),
            ("totals", state.totals.to_json()),
            (
                "per_level",
                Json::obj(state.per_level.iter().map(|(lvl, t)| (lvl.to_string(), t.to_json()))),
            ),
            ("rows", Json::arr(state.rows.iter().map(DecisionRow::to_json))),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::window::Window;

    fn win(start: usize, len: usize, predicted: u64) -> Candidate {
        Candidate { choice: MergeChoice::Window(Window { start, len }), predicted }
    }

    fn full(predicted: u64) -> Candidate {
        Candidate { choice: MergeChoice::Full, predicted }
    }

    #[test]
    fn open_close_tracks_regret_and_model_error() {
        let ledger = DecisionLedger::new(8);
        let cands = vec![win(0, 2, 5), win(1, 2, 3), full(10)];
        let chosen = cands[0].choice;
        let t = ledger.open("RR", 2, cands, chosen, 5);
        assert_eq!(ledger.cumulative_regret(), 2, "chosen 5 vs best 3");
        let closed = ledger.close(t, 7).expect("row still retained");
        assert_eq!(closed.predicted, 5);
        assert_eq!(closed.best_predicted, 3);
        assert_eq!(closed.actual, 7);
        assert!(!closed.full);
        assert_eq!(closed.candidates, 3);
        let totals = ledger.totals();
        assert_eq!(totals.decisions, 1);
        assert_eq!(totals.closed, 1);
        assert_eq!(totals.model_error, 2, "|7 - 5|");
        let rows = ledger.rows();
        assert_eq!(rows[0].actual, Some(7));
        assert_eq!(rows[0].regret(), 2);
    }

    #[test]
    fn best_tie_break_is_first_candidate() {
        let ledger = DecisionLedger::new(8);
        let cands = vec![win(0, 1, 4), win(1, 1, 4), full(4)];
        ledger.open("ChooseBest", 1, cands, MergeChoice::Window(Window { start: 0, len: 1 }), 4);
        let rows = ledger.rows();
        assert_eq!(rows[0].best.choice, MergeChoice::Window(Window { start: 0, len: 1 }));
        assert_eq!(rows[0].regret(), 0);
    }

    #[test]
    fn ring_evicts_but_totals_survive() {
        let ledger = DecisionLedger::new(2);
        let mut tokens = Vec::new();
        for i in 0..4u64 {
            tokens.push(ledger.open(
                "Full",
                1,
                vec![full(i + 1), win(0, 1, 1)],
                MergeChoice::Full,
                i + 1,
            ));
        }
        assert_eq!(ledger.rows().len(), 2);
        assert_eq!(ledger.dropped_rows(), 2);
        assert_eq!(ledger.decisions(), 4);
        // Closing an evicted row is a no-op: its predicted cost is gone,
        // so neither `closed` nor `model_error` can be updated honestly.
        assert!(ledger.close(tokens[0], 9).is_none());
        assert_eq!(ledger.totals().closed, 0);
        // Closing a retained row works normally.
        assert!(ledger.close(tokens[3], 9).is_some());
        assert_eq!(ledger.totals().closed, 1);
    }

    #[test]
    fn per_level_totals_split_by_target() {
        let ledger = DecisionLedger::new(8);
        let a = ledger.open("Mixed", 1, vec![win(0, 1, 2), full(5)], MergeChoice::Full, 5);
        let b = ledger.open(
            "Mixed",
            2,
            vec![win(0, 1, 2), full(5)],
            MergeChoice::Window(Window { start: 0, len: 1 }),
            2,
        );
        ledger.close(a, 5);
        ledger.close(b, 2);
        let per = ledger.per_level();
        assert_eq!(per[&1].regret, 3);
        assert_eq!(per[&1].full_merges, 1);
        assert_eq!(per[&2].regret, 0);
        assert_eq!(per[&2].full_merges, 0);
        assert_eq!(ledger.totals().regret, 3);
    }

    #[test]
    fn json_rendering_parses_and_clear_resets() {
        let ledger = DecisionLedger::new(4);
        let t = ledger.open(
            "RR",
            3,
            vec![win(0, 2, 6), full(8)],
            MergeChoice::Window(Window { start: 0, len: 2 }),
            6,
        );
        ledger.close(t, 6);
        let doc = ledger.to_json().render();
        let parsed = Json::parse(&doc).expect("ledger JSON parses");
        let Json::Obj(pairs) = parsed else { panic!("not an object") };
        assert!(pairs.iter().any(|(k, _)| k == "totals"));
        assert!(pairs.iter().any(|(k, _)| k == "rows"));
        ledger.clear();
        assert_eq!(ledger.decisions(), 0);
        assert!(ledger.rows().is_empty());
    }

    #[test]
    fn enumerate_candidates_windows_then_full() {
        use crate::block::BlockHandle;
        use sim_ssd::BlockId;
        let src = vec![
            RunMeta { min: 0, max: 9, count: 4 },
            RunMeta { min: 10, max: 19, count: 4 },
            RunMeta { min: 20, max: 29, count: 4 },
        ];
        let target = vec![BlockHandle {
            id: BlockId(0),
            min: 5,
            max: 12,
            count: 4,
            tombstones: 0,
            bloom: None,
        }];
        let cands = enumerate_candidates(&src, &target, 2);
        // Two windows (starts 0 and 1), the tail window RR takes from a
        // cursor past block 1, then the full merge.
        assert_eq!(cands.len(), 4);
        assert_eq!(cands[0].choice, MergeChoice::Window(Window { start: 0, len: 2 }));
        assert_eq!(cands[0].predicted, 2 + 1, "window [0,19] overlaps the one target");
        assert_eq!(cands[1].predicted, 2 + 1, "window [10,29] also overlaps it");
        assert_eq!(cands[2].choice, MergeChoice::Window(Window { start: 2, len: 1 }));
        assert_eq!(cands[2].predicted, 1, "the tail [20,29] overlaps nothing");
        assert_eq!(cands[3].choice, MergeChoice::Full);
        assert_eq!(cands[3].predicted, 3 + 1, "n_src + n_target");
        let rr = crate::policy::window::rr_window(&src, Some(19), 2);
        assert_eq!(MergeChoice::Window(rr), cands[2].choice);
    }

    #[test]
    fn a_tail_window_is_listed_but_is_no_rival() {
        let ledger = DecisionLedger::new(8);
        let cands = vec![win(0, 2, 5), win(1, 2, 3), win(2, 1, 1), full(10)];
        ledger.open("ChooseBest", 1, cands.clone(), cands[1].choice, 3);
        ledger.open("RR", 1, cands.clone(), cands[2].choice, 1);
        let rows = ledger.rows();
        assert_eq!(rows[0].best, cands[1], "the cheapest window of full width");
        assert_eq!(rows.iter().map(DecisionRow::regret).collect::<Vec<_>>(), [0, 0]);
    }
}
