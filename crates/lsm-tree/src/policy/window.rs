//! Merge-window selection over fence metadata.
//!
//! Both `RR` and `ChooseBest` pick a run of `δ·K` consecutive source blocks
//! to merge down. All the information they need lives in the in-memory
//! fence entries — "there is no need to scan actual data" (§III-C). The
//! `ChooseBest` scan is the paper's single simultaneous pass over the two
//! sorted lists of key ranges, maintaining the enclosed target subsequence
//! with two monotone pointers: O(n + m) for n source and m target blocks.
//! It is written once, `fence_scan`, and prices the windows of
//! ChooseBest, of its aligned variant and of the decision ledger's
//! candidate table.

use crate::block::BlockHandle;
use crate::memtable::RunMeta;
use crate::record::Key;

/// A selected window of source blocks: `start..start + len` (indices into
/// the source run list).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// First selected source block.
    pub start: usize,
    /// Number of selected blocks.
    pub len: usize,
}

/// Round-robin selection (§III-B): the sequence of up to `window` blocks
/// starting with the first block whose smallest key is greater than the
/// cursor (the largest key of the previous selection); if no such block
/// remains, the first `window` blocks.
pub fn rr_window(src: &[RunMeta], cursor: Option<Key>, window: usize) -> Window {
    debug_assert!(!src.is_empty());
    let start = cursor.map_or(0, |k| src.partition_point(|r| r.min <= k));
    let start = if start < src.len() { start } else { 0 };
    let len = window.min(src.len() - start);
    Window { start, len }
}

/// The §III-C fence scan: each of `windows`, whose starts and ends must
/// never decrease, paired with the number of target blocks its key span
/// overlaps — `hi - lo` for `lo` the first block with `max >= span.min`
/// and `hi` the first with `min > span.max`, pointers that only move
/// forward over the sorted, disjoint target.
pub(crate) fn fence_scan<'a>(
    src: &'a [RunMeta],
    target: &'a [BlockHandle],
    windows: impl Iterator<Item = Window> + 'a,
) -> impl Iterator<Item = (Window, usize)> + 'a {
    let (mut lo, mut hi) = (0usize, 0usize);
    windows.map(move |w| {
        let kmin = src[w.start].min;
        let kmax = src[w.start + w.len - 1].max;
        while lo < target.len() && target[lo].max < kmin {
            lo += 1;
        }
        hi = hi.max(lo);
        while hi < target.len() && target[hi].min <= kmax {
            hi += 1;
        }
        (w, hi - lo)
    })
}

/// The leftmost window of least overlap. Zero overlap is a global minimum,
/// so the scan stops at the first one.
fn leftmost_min(priced: impl Iterator<Item = (Window, usize)>) -> Window {
    let mut best = (Window { start: 0, len: 0 }, usize::MAX);
    for (w, overlap) in priced {
        if overlap < best.1 {
            best = (w, overlap);
            if overlap == 0 {
                break;
            }
        }
    }
    best.0
}

/// ChooseBest selection (§III-C): among all runs of `window` consecutive
/// source blocks, the one whose key span overlaps the fewest target
/// blocks; leftmost on ties. When the source has at most `window` blocks,
/// the whole source is selected.
pub fn choose_best_window(src: &[RunMeta], target: &[BlockHandle], window: usize) -> Window {
    leftmost_min(scan_window_candidates(src, target, window))
}

/// ChooseBest restricted to *aligned* windows — the selection granularity
/// of systems that pre-partition each level into fixed SSTables and pick
/// the best one (HyperLevelDB, §VI). Candidate windows start only at
/// multiples of the window size (the last one shorter when `window` does
/// not divide n), so there are ~1/δ candidates instead of n − δn.
/// Strictly weaker than [`choose_best_window`]; the ablation harness
/// quantifies the gap.
pub fn choose_best_aligned_window(
    src: &[RunMeta],
    target: &[BlockHandle],
    window: usize,
) -> Window {
    debug_assert!(!src.is_empty());
    let n = src.len();
    let aligned =
        (0..n).step_by(window).map(move |start| Window { start, len: window.min(n - start) });
    leftmost_min(fence_scan(src, target, aligned))
}

/// Every window of `window` consecutive source blocks, left to right, with
/// its target-overlap count: the candidates [`choose_best_window`] scans,
/// and the first the decision ledger tabulates. When the source has at
/// most `window` blocks the whole source is the only candidate.
pub fn scan_window_candidates<'a>(
    src: &'a [RunMeta],
    target: &'a [BlockHandle],
    window: usize,
) -> impl Iterator<Item = (Window, usize)> + 'a {
    debug_assert!(!src.is_empty());
    let len = window.min(src.len());
    fence_scan(src, target, (0..=src.len() - len).map(move |start| Window { start, len }))
}

/// Number of target blocks overlapping the key span of
/// `src[window.start .. window.start + window.len]`, counted block by
/// block: the brute-force reference the tests check the fence scan
/// against.
pub fn window_overlap(src: &[RunMeta], target: &[BlockHandle], window: Window) -> usize {
    let kmin = src[window.start].min;
    let kmax = src[window.start + window.len - 1].max;
    target.iter().filter(|h| h.overlaps(kmin, kmax)).count()
}

/// Convert fence entries to the policy-facing run metadata.
pub fn runs_of_handles(handles: &[BlockHandle]) -> Vec<RunMeta> {
    handles.iter().map(|h| RunMeta { min: h.min, max: h.max, count: h.count }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_ssd::BlockId;

    fn run(min: Key, max: Key) -> RunMeta {
        RunMeta { min, max, count: 4 }
    }

    fn th(min: Key, max: Key) -> BlockHandle {
        BlockHandle { id: BlockId(0), min, max, count: 4, tombstones: 0, bloom: None }
    }

    #[test]
    fn rr_starts_at_cursor_successor() {
        let src = vec![run(0, 9), run(10, 19), run(20, 29), run(30, 39)];
        assert_eq!(rr_window(&src, None, 2), Window { start: 0, len: 2 });
        assert_eq!(rr_window(&src, Some(9), 2), Window { start: 1, len: 2 });
        assert_eq!(rr_window(&src, Some(10), 2), Window { start: 2, len: 2 });
        // Cursor past everything wraps to the front.
        assert_eq!(rr_window(&src, Some(50), 2), Window { start: 0, len: 2 });
        // Tail shorter than the window.
        assert_eq!(rr_window(&src, Some(29), 3), Window { start: 3, len: 1 });
    }

    #[test]
    fn choose_best_takes_everything_when_small() {
        let src = vec![run(0, 9), run(10, 19)];
        let target = vec![th(0, 100)];
        assert_eq!(choose_best_window(&src, &target, 5), Window { start: 0, len: 2 });
    }

    #[test]
    fn choose_best_finds_minimum_overlap() {
        // Target blocks: [0,9] [10,19] [20,29] [30,39] [40,49]
        let target: Vec<BlockHandle> = (0..5).map(|i| th(i * 10, i * 10 + 9)).collect();
        // Source: window of 1. A narrow source block [12,13] overlaps one
        // target; [8,21] overlaps three.
        let src = vec![run(8, 21), run(25, 26), run(45, 49)];
        let w = choose_best_window(&src, &target, 1);
        assert_eq!(w.start, 1, "the narrow middle block overlaps only one target");
        assert_eq!(window_overlap(&src, &target, w), 1);
    }

    #[test]
    fn choose_best_prefers_zero_overlap_gap() {
        let target = vec![th(0, 9), th(100, 109)];
        let src = vec![run(5, 8), run(40, 60), run(105, 108)];
        let w = choose_best_window(&src, &target, 1);
        assert_eq!(w.start, 1, "the middle source block hits the gap");
        assert_eq!(window_overlap(&src, &target, w), 0);
    }

    #[test]
    fn choose_best_leftmost_on_ties() {
        let target = vec![th(0, 100)];
        let src = vec![run(0, 9), run(10, 19), run(20, 29)];
        let w = choose_best_window(&src, &target, 1);
        assert_eq!(w.start, 0);
    }

    #[test]
    fn choose_best_matches_brute_force() {
        // Deterministic pseudo-random layout; compare against brute force.
        let mut state = 12345u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % 1000
        };
        for trial in 0..50 {
            let mut src_points: Vec<u64> = (0..20).map(|_| next()).collect();
            src_points.sort_unstable();
            src_points.dedup();
            let src: Vec<RunMeta> = src_points
                .windows(2)
                .map(|w| RunMeta { min: w[0], max: w[1] - 1, count: 4 })
                .collect();
            let mut tgt_points: Vec<u64> = (0..30).map(|_| next()).collect();
            tgt_points.sort_unstable();
            tgt_points.dedup();
            let target: Vec<BlockHandle> =
                tgt_points.windows(2).map(|w| th(w[0], w[1] - 1)).collect();
            if src.len() < 4 || target.is_empty() {
                continue;
            }
            let window = 3;
            let got = choose_best_window(&src, &target, window);
            let brute: usize = (0..=(src.len() - window))
                .map(|s| window_overlap(&src, &target, Window { start: s, len: window }))
                .min()
                .unwrap();
            assert_eq!(
                window_overlap(&src, &target, got),
                brute,
                "trial {trial}: scan disagrees with brute force"
            );
        }
    }

    #[test]
    fn candidate_scan_agrees_with_choose_best() {
        let mut state = 987654u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % 1000
        };
        for trial in 0..50 {
            let mut src_points: Vec<u64> = (0..20).map(|_| next()).collect();
            src_points.sort_unstable();
            src_points.dedup();
            let src: Vec<RunMeta> = src_points
                .windows(2)
                .map(|w| RunMeta { min: w[0], max: w[1] - 1, count: 4 })
                .collect();
            let mut tgt_points: Vec<u64> = (0..30).map(|_| next()).collect();
            tgt_points.sort_unstable();
            tgt_points.dedup();
            let target: Vec<BlockHandle> =
                tgt_points.windows(2).map(|w| th(w[0], w[1] - 1)).collect();
            if src.len() < 4 || target.is_empty() {
                continue;
            }
            let window = 3;
            let cands: Vec<_> = scan_window_candidates(&src, &target, window).collect();
            assert_eq!(cands.len(), src.len() - window + 1, "one candidate per start");
            for &(w, ov) in &cands {
                assert_eq!(
                    ov,
                    window_overlap(&src, &target, w),
                    "trial {trial}: candidate overlap disagrees with brute force"
                );
            }
            // The leftmost-minimum candidate is exactly what the
            // selection scan picks.
            let best = cands.iter().min_by_key(|&&(w, ov)| (ov, w.start)).expect("nonempty").0;
            assert_eq!(
                best,
                choose_best_window(&src, &target, window),
                "trial {trial}: ledger candidates disagree with ChooseBest"
            );
        }
    }

    #[test]
    fn candidate_scan_small_source_is_single_whole_window() {
        let src = vec![run(0, 9), run(10, 19)];
        let target = vec![th(5, 12)];
        let cands: Vec<_> = scan_window_candidates(&src, &target, 5).collect();
        assert_eq!(cands, vec![(Window { start: 0, len: 2 }, 1)]);
    }

    #[test]
    fn runs_of_handles_copies_metadata() {
        let hs = vec![th(3, 9), th(12, 20)];
        let runs = runs_of_handles(&hs);
        assert_eq!(runs.len(), 2);
        assert_eq!((runs[0].min, runs[0].max, runs[0].count), (3, 9, 4));
        assert_eq!((runs[1].min, runs[1].max), (12, 20));
    }
}
