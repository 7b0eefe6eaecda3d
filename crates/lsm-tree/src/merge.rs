//! The flexible, block-preserving merge operation (§II-B).
//!
//! A merge takes a run of records leaving a level — either records
//! extracted from the in-memory L0 or a *subsequence* `X` of a level's data
//! blocks — and merges them into the overlapping blocks `Y` of the target
//! level, producing the output run `Z`:
//!
//! 1. `Y` is the minimal run of target blocks whose key ranges intersect
//!    `X`'s key span; it is bulk-deleted from the target.
//! 2. `X` and `Y` are merged in one pass, as bytes: the loop compares the
//!    two heads and moves the longest run of one side that precedes the
//!    other side's head — never past the end of the input block it is in —
//!    into the output frame with one copy ([`FrameBuilder`]); no `Record`
//!    is taken out of a block. Where both hold a key, `X`'s (newer) record
//!    stands; a tombstone is dropped once no deeper level can hold its key.
//! 3. **Block preservation**: whenever the next record to output begins an
//!    input block whose whole key range fits before the next record of the
//!    other input, the block can be adopted into `Z` unmodified — zero
//!    writes — provided the pairwise-waste checks and the slack budget
//!    `w ≤ m·ε·δ·K·B − B + 1` allow it.
//! 4. `Z` is bulk-inserted where `Y` was; pairwise waste violations at the
//!    seams are repaired by fusing neighbouring blocks (at most one extra
//!    write per seam); a level whose overall waste exceeds ε is compacted
//!    in one pass.
//!
//! None of this touches the level it works on. The engine reads the level
//! through a `LevelDraft` and leaves behind one splice (`Y`'s range out,
//! `Z` in, widened by whatever the seam fixes and a compaction replaced)
//! plus two lists of blocks — written, and no longer referenced
//! (`StepBlocks`). Whoever owns the level installs the splice and frees
//! the second list afterwards, or, if the merge failed, frees the first
//! and installs nothing. [`MergeEngine::merge_into`] does exactly that on a
//! `&mut Level`; the tree does it per maintenance step, with its lock
//! released for everything but the install.

use std::borrow::Borrow;
use std::sync::Arc;

use crate::block::{BlockHandle, DataBlock, FrameBuilder};
use crate::error::{LsmError, Result};
use crate::level::{Level, LevelDraft};
use crate::record::{Key, Record};
use crate::store::{Store, WriteBatch};

/// Staged output blocks per coalesced device write.
const WRITE_CHUNK: usize = 16;

/// What a merge pushes down into the target level.
#[derive(Debug)]
pub enum MergeSource {
    /// Records extracted from the memory-resident L0 (already sorted).
    Records(Vec<Record>),
    /// A subsequence of data blocks removed from an on-SSD level.
    Blocks(Vec<BlockHandle>),
}

impl MergeSource {
    /// Number of records entering the merge.
    pub fn record_count(&self) -> u64 {
        match self {
            MergeSource::Records(r) => r.len() as u64,
            MergeSource::Blocks(hs) => hs.iter().map(|h| u64::from(h.count)).sum(),
        }
    }

    /// Key span `[min, max]` of the source (None when empty).
    pub fn key_span(&self) -> Option<(Key, Key)> {
        match self {
            MergeSource::Records(r) => Some((r.first()?.key, r.last()?.key)),
            MergeSource::Blocks(hs) => Some((hs.first()?.min, hs.last()?.max)),
        }
    }
}

/// Result of one merge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeOutcome {
    /// Blocks written into the target (including seam fix-ups).
    pub writes: u64,
    /// Input blocks adopted into the output without rewriting.
    pub preserved: u64,
    /// Input blocks whose records were read (logical reads).
    pub reads: u64,
    /// Records that survived into the target.
    pub out_records: u64,
    /// Largest key of the merged range (drives round-robin cursors).
    pub max_key: Key,
}

/// Result of a compaction pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactOutcome {
    /// Blocks written by the rewrite.
    pub writes: u64,
    /// Blocks read.
    pub reads: u64,
}

/// The blocks one maintenance step touched, kept apart from the levels it
/// edits so nothing is released while a reader could still follow a fence
/// to it. Exactly one list is ever released
/// ([`Store::free_all`]): `retired` once the step's edits are installed,
/// `created` if they never are.
#[derive(Debug, Default)]
pub(crate) struct StepBlocks {
    /// Blocks the step wrote that are on the device.
    pub(crate) created: Vec<BlockHandle>,
    /// Blocks the step's edits leave unreferenced: consumed inputs, lost
    /// (quarantined) blocks, and blocks the step itself wrote and then
    /// superseded.
    pub(crate) retired: Vec<BlockHandle>,
}

/// The write side of a merge or compaction. Records arrive as bytes in the
/// frame being filled; a frame that reaches `b` records is sealed, staged
/// and landed in coalesced device writes (adjacent ids become single
/// syscalls on a file backend); blocks that landed are entered in `created`.
struct Output<'a, 'b> {
    store: &'a Store,
    /// `B` — records per output block.
    b: usize,
    /// The block being filled.
    frame: FrameBuilder,
    /// The output run so far: sealed blocks, and whatever the caller adopts.
    handles: Vec<BlockHandle>,
    /// Blocks sealed.
    writes: u64,
    batch: WriteBatch<'a>,
    /// Staged since the last flush.
    staged: Vec<BlockHandle>,
    created: &'b mut Vec<BlockHandle>,
}

impl<'a, 'b> Output<'a, 'b> {
    fn new(store: &'a Store, b: usize, created: &'b mut Vec<BlockHandle>) -> Self {
        let (frame, batch) = (store.frame_builder(b), store.write_batch());
        Output {
            store,
            b,
            frame,
            handles: Vec::new(),
            writes: 0,
            batch,
            staged: Vec::new(),
            created,
        }
    }

    fn push(&mut self, r: &Record) -> Result<()> {
        self.frame.push(r)?;
        if self.frame.len() == self.b {
            self.seal()?;
        }
        Ok(())
    }

    /// Records `range` of `block`, cut where an output block fills up.
    fn append(&mut self, block: &DataBlock, mut range: std::ops::Range<usize>) -> Result<()> {
        while !range.is_empty() {
            let cut = range.end.min(range.start + self.b - self.frame.len());
            self.frame.extend(block, range.start..cut)?;
            range.start = cut;
            if self.frame.len() == self.b {
                self.seal()?;
            }
        }
        Ok(())
    }

    /// Close the block being filled, if it holds anything: its frame is
    /// staged and its handle joins the run. Returns the empty slots it adds
    /// to the level.
    fn seal(&mut self) -> Result<usize> {
        if self.frame.is_empty() {
            return Ok(0);
        }
        let frame = std::mem::replace(&mut self.frame, self.store.frame_builder(self.b));
        let h = self.batch.stage_frame(frame.finish()?)?;
        self.staged.push(h.clone());
        // Bound staged memory; ids are allocated in order, so a chunk of
        // consecutive stages still coalesces into few syscalls.
        if self.batch.pending() >= WRITE_CHUNK {
            self.flush()?;
        }
        self.writes += 1;
        let empty = h.empty_slots(self.b);
        self.handles.push(h);
        Ok(empty)
    }

    /// Land what is staged. A failed flush released everything it covered,
    /// so nothing staged since the last successful one is ever entered.
    fn flush(&mut self) -> Result<()> {
        self.batch.flush()?;
        self.created.append(&mut self.staged);
        Ok(())
    }

    /// Land everything; the output run and the number of blocks written.
    fn finish(mut self) -> Result<(Vec<BlockHandle>, u64)> {
        self.flush()?;
        Ok((self.handles, self.writes))
    }
}

/// One input of a merge: a record run in memory, or a sequence of blocks
/// opened lazily — a block is only read when its records are needed, so
/// preservation decisions cost no I/O; they are made from fence metadata
/// alone (§III-C). Whichever it is, the other kind's fields stay empty.
#[derive(Default)]
struct Stream {
    recs: Vec<Record>,
    rpos: usize,
    handles: Vec<BlockHandle>,
    hpos: usize,
    /// The open block, `handles[hpos]`, and the next record in it.
    current: Option<Arc<DataBlock>>,
    cpos: usize,
    /// Blocks that were opened (retired by the merge): the logical reads.
    opened: Vec<BlockHandle>,
    /// Blocks that failed their integrity check while being opened: their
    /// records are lost. The merge drops them from the structure, which
    /// is their read repair.
    lost: Vec<BlockHandle>,
}

impl Stream {
    fn new(src: MergeSource) -> Self {
        match src {
            MergeSource::Records(recs) => Stream { recs, ..Stream::default() },
            MergeSource::Blocks(handles) => Stream { handles, ..Stream::default() },
        }
    }

    /// Key of the head record — for an unopened block its fence minimum,
    /// which is that record's key and costs no read.
    fn peek_key(&self) -> Option<Key> {
        match &self.current {
            Some(block) => Some(block.key(self.cpos)),
            None => self
                .handles
                .get(self.hpos)
                .map_or_else(|| self.recs.get(self.rpos).map(|r| r.key), |h| Some(h.min)),
        }
    }

    /// The upcoming unopened block, if the stream is exactly at its start.
    fn block_at_start(&self) -> Option<&BlockHandle> {
        self.handles.get(self.hpos).filter(|_| self.current.is_none())
    }

    /// Make the head record readable, opening the head block if the stream
    /// stands at its start. `false` when that block turned out to be
    /// corrupt: the stream has skipped past it (its records are lost) and
    /// the caller must re-evaluate the stream heads.
    fn open(&mut self, store: &Store) -> Result<bool> {
        if self.current.is_some() || self.handles.is_empty() {
            return Ok(true);
        }
        let h = &self.handles[self.hpos];
        match store.read_retiring(h) {
            Ok(block) => {
                self.opened.push(h.clone());
                self.current = Some(block);
                self.cpos = 0;
                Ok(true)
            }
            Err(LsmError::Degraded { .. }) => {
                self.lost.push(h.clone());
                self.hpos += 1;
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }

    /// Put the open block back with record `next` at the head — or move on
    /// to the next block when it is used up.
    fn resume(&mut self, block: Arc<DataBlock>, next: usize) {
        if next < block.len() {
            (self.current, self.cpos) = (Some(block), next);
        } else {
            self.hpos += 1;
        }
    }

    /// Drop the head record of the open block.
    fn skip(&mut self) {
        let block = self.current.take().expect("an open block");
        self.resume(block, self.cpos + 1);
    }

    /// Move the head run — the records with keys up to `last`, to the end
    /// of the open block at most — into `out`, minus the tombstones
    /// `rides_down` refuses; each stretch of a block's records that stays
    /// moves with one copy. The stream must be [`open`](Stream::open).
    fn drain(
        &mut self,
        last: Key,
        rides_down: &mut impl FnMut(Key) -> bool,
        out: &mut Output<'_, '_>,
    ) -> Result<()> {
        let Some(block) = self.current.take() else {
            while let Some(r) = self.recs.get(self.rpos).filter(|r| r.key <= last) {
                if !r.is_tombstone() || rides_down(r.key) {
                    out.push(r)?;
                }
                self.rpos += 1;
            }
            return Ok(());
        };
        let (mut kept, mut i) = (self.cpos, self.cpos);
        for (key, tombstone) in block.heads(i).take_while(|&(key, _)| key <= last) {
            if tombstone && !rides_down(key) {
                out.append(&block, kept..i)?;
                kept = i + 1;
            }
            i += 1;
        }
        out.append(&block, kept..i)?;
        self.resume(block, i);
        Ok(())
    }
}

/// The merge engine: every block-level change to a level is computed here.
pub struct MergeEngine<'a> {
    store: &'a Store,
    /// `B` — records per block.
    b: usize,
    /// ε — maximum waste factor.
    eps: f64,
    /// Whether block preservation is enabled (the `-P` policy variants
    /// disable it).
    preserve: bool,
    /// Whether the pairwise waste constraint is enforced. Always true in
    /// normal operation; the ablation harness turns it off to demonstrate
    /// why §II-B needs it (nearly-empty block runs accumulate otherwise).
    pairwise: bool,
}

impl<'a> MergeEngine<'a> {
    /// An engine over `store` with geometry `b` (records/block) and waste
    /// bound `eps`. `preserve` enables block-preserving merges.
    pub fn new(store: &'a Store, b: usize, eps: f64, preserve: bool) -> Self {
        MergeEngine { store, b, eps, preserve, pairwise: true }
    }

    /// Disable or enable the pairwise waste constraint (ablation only).
    pub fn with_pairwise(mut self, pairwise: bool) -> Self {
        self.pairwise = pairwise;
        self
    }

    /// Merge `src` into `target`. `below` are the levels deeper than the
    /// target (empty when the target is the bottom level) — used to decide
    /// when tombstones may be dropped.
    ///
    /// The engine updates the target's waste bookkeeping (`m`, slack, `w`)
    /// and repairs pairwise-waste violations at the seams, but the caller
    /// remains responsible for the level-wise waste check (compaction) and
    /// for source-side fix-ups.
    ///
    /// Compute, then install, then free: the merge runs against `target`
    /// as it stands, the result goes in as one splice, and only then are
    /// the consumed blocks released. On an error `target` is untouched and
    /// every block the merge had written is released.
    pub fn merge_into(
        &self,
        target: &mut Level,
        below: &[Level],
        src: MergeSource,
    ) -> Result<MergeOutcome> {
        self.on_level(target, |draft, blocks| self.merge(draft, below, src, blocks))
    }

    /// Run `compute` against a draft of `level`, then install its edit and
    /// free what it replaced — or, if it failed, free what it wrote.
    fn on_level<T>(
        &self,
        level: &mut Level,
        compute: impl FnOnce(&mut LevelDraft<'_>, &mut StepBlocks) -> Result<T>,
    ) -> Result<T> {
        let mut blocks = StepBlocks::default();
        let mut draft = LevelDraft::new(level);
        match compute(&mut draft, &mut blocks) {
            Ok(outcome) => {
                let edit = draft.finish();
                level.apply(edit);
                self.store.free_all(&blocks.retired)?;
                Ok(outcome)
            }
            Err(e) => {
                let _ = self.store.free_all(&blocks.created);
                Err(e)
            }
        }
    }

    /// The compute half of [`merge_into`](MergeEngine::merge_into): merge
    /// `src` into the (unedited) draft of the target level, reading the
    /// level but changing only the draft. Blocks written and blocks left
    /// unreferenced are entered in `blocks`; nothing is freed.
    pub(crate) fn merge<L: Borrow<Level>>(
        &self,
        target: &mut LevelDraft<'_>,
        below: &[L],
        src: MergeSource,
        blocks: &mut StepBlocks,
    ) -> Result<MergeOutcome> {
        let Some((kmin, kmax)) = src.key_span() else {
            return Ok(MergeOutcome::default());
        };
        let src_records = src.record_count();
        let StepBlocks { created, retired } = blocks;

        // The overlapping run Y leaves the target.
        let base = target.base();
        let yrange = base.overlap_indices(kmin, kmax);
        let insert_pos = yrange.start;
        let y_handles = base.handles()[yrange.clone()].to_vec();

        // Waste bookkeeping for the preservation budget (§II-B): this
        // merge earns ε · (records merged in) of slack.
        target.edit.merges_since_compaction += 1;
        target.edit.slack_budget += self.eps * src_records as f64;
        let slack_budget = target.edit.slack_budget;

        let is_bottom = below.is_empty();

        // Y's first block may start before X does.
        let first_key = y_handles.first().map_or(kmin, |h| h.min.min(kmin));
        let mut xs = Stream::new(src);
        let mut ys = Stream::new(MergeSource::Blocks(y_handles));

        let mut outcome = MergeOutcome { max_key: kmax, ..MergeOutcome::default() };
        let mut w = target.edit.waste_delta;

        let prev_target_count: Option<u32> =
            insert_pos.checked_sub(1).map(|i| base.handles()[i].count);

        // Only a tombstone's fate depends on what lies below the target: it
        // rides down while some deeper level could still hold its key.
        // Merge keys ascend from `first_key`, so each deeper level's fences
        // are walked by a cursor that only moves forward.
        let mut deeper: Vec<(&[BlockHandle], usize)> = below
            .iter()
            .map(|l| l.borrow().handles())
            .map(|fences| (fences, fences.partition_point(|h| h.max < first_key)))
            .collect();
        let mut rides_down = |key: Key| {
            deeper.iter_mut().any(|(fences, at)| {
                while fences.get(*at).is_some_and(|h| h.max < key) {
                    *at += 1;
                }
                fences.get(*at).is_some_and(|h| h.min <= key)
            })
        };

        let mut out = Output::new(self.store, self.b, created);

        // The paper updates w by "subtracting those in the Y blocks already
        // processed", i.e. at open time: `ys.opened[..y_seen]` are in.
        let empty_slots =
            |hs: &[BlockHandle]| hs.iter().map(|h| h.empty_slots(self.b) as i64).sum::<i64>();
        let mut y_seen = 0usize;

        loop {
            w -= empty_slots(&ys.opened[y_seen..]);
            y_seen = ys.opened.len();
            let (xk, yk) = (xs.peek_key(), ys.peek_key());
            let from_x = match (xk, yk) {
                (None, None) => break,
                (Some(x), Some(y)) if x == y => {
                    // X is the newer level: its record stands for the pair.
                    // A lost X block leaves Y untouched; a lost Y block
                    // simply contributes no older record.
                    if xs.open(self.store)? {
                        if ys.open(self.store)? {
                            ys.skip();
                        }
                        xs.drain(x, &mut rides_down, &mut out)?;
                    }
                    continue;
                }
                (Some(x), Some(y)) => x < y,
                (x, _) => x.is_some(),
            };
            let (side, other_next) = if from_x { (&mut xs, yk) } else { (&mut ys, xk) };

            // Preservation opportunity?
            let adopt = self.preserve
                && side.block_at_start().is_some_and(|h| {
                    other_next.is_none_or(|k| h.max < k)
                        && self.preservation_allowed(
                            h,
                            out.frame.len(),
                            out.handles.last(),
                            prev_target_count,
                            w,
                            slack_budget,
                            from_x,
                            is_bottom,
                        )
                });
            if adopt {
                // Close the block being filled, then adopt the input block.
                w += out.seal()? as i64;
                let h = side.handles[side.hpos].clone();
                side.hpos += 1;
                if from_x {
                    // An adopted X block adds its empty slots to the
                    // target's waste; an adopted Y block is net zero (its
                    // slots were already part of the target).
                    w += h.empty_slots(self.b) as i64;
                }
                outcome.preserved += 1;
                out.handles.push(h);
                continue;
            }

            // Ordinary path: the head run of this side — everything before
            // the other side's head, to the end of its input block at most
            // (the next block gets its own adoption test). A lost head
            // block just means re-evaluating the heads.
            if side.open(self.store)? {
                side.drain(other_next.map_or(Key::MAX, |k| k - 1), &mut rides_down, &mut out)?;
            }
        }
        w -= empty_slots(&ys.opened[y_seen..]);

        // Final partial block. If it would violate the pairwise constraint
        // against the previous output block, fuse the two instead (at most
        // one extra write — the §II-B bound).
        if !out.frame.is_empty() {
            let prev_count = out.handles.last().map(|h| h.count).or(prev_target_count);
            let prev_ok =
                !self.pairwise || prev_count.is_none_or(|c| c as usize + out.frame.len() > self.b);
            if !prev_ok && !out.handles.is_empty() {
                // The previous output block may still be staged; it is
                // about to be read back, which needs its frame on the
                // device.
                out.flush()?;
                let prev = out.handles.pop().expect("checked non-empty");
                w -= prev.empty_slots(self.b) as i64;
                match self.store.read_block(&prev) {
                    Ok(prev_block) => {
                        outcome.reads += 1;
                        out.frame.prepend(&prev_block)?;
                    }
                    // A freshly adopted block turned out corrupt: drop it
                    // (its records are lost) and flush the buffer on its
                    // own. The pairwise seam no longer exists.
                    Err(LsmError::Degraded { .. }) => {}
                    Err(e) => return Err(e),
                }
                retired.push(prev);
            }
            w += out.seal()? as i64;
        }

        // Land every remaining staged output block before the handles are
        // handed to the draft.
        let (out, writes) = out.finish()?;
        outcome.writes = writes;
        outcome.out_records = out.iter().map(|h| u64::from(h.count)).sum();

        // Subtract the empty slots of every Y block whose records were
        // consumed (they left the target). A lost Y block also left it,
        // taking its empty slots (and, regrettably, its records) with it.
        w -= empty_slots(&ys.opened) + empty_slots(&ys.lost);
        outcome.reads += (xs.opened.len() + ys.opened.len()) as u64;

        // Consumed and lost input blocks are in neither level once this
        // merge is installed.
        for stream in [xs, ys] {
            retired.extend(stream.opened);
            retired.extend(stream.lost);
        }

        // Splice Z into the target where Y was.
        let z_len = out.len();
        target.replace(yrange, out);
        target.edit.waste_delta = w;

        // Seam repairs (§II-B cases 1 & 3): at the front of Z — or, when
        // everything consolidated away, at the one seam Y's removal left —
        // then at its back, which a front fuse has shifted left by one. The
        // preservation checks already guarantee pairwise validity *inside*
        // Z and against the preceding block in the common case; these
        // checks catch the degenerate small-merge cases, costing at most
        // one extra write each.
        let mut fused = 0;
        for seam in [Some(insert_pos), (z_len > 0).then_some(insert_pos + z_len)] {
            let Some(seam) = seam else { continue };
            if let Some(fix) = self.fix_pair_if_needed(target, seam - fused, blocks)? {
                outcome.writes += fix.writes;
                outcome.reads += fix.reads;
                fused += 1;
            }
        }
        Ok(outcome)
    }

    /// All §II-B conditions for adopting block `h` into the output.
    #[allow(clippy::too_many_arguments)]
    fn preservation_allowed(
        &self,
        h: &BlockHandle,
        buffered: usize,
        last_out: Option<&BlockHandle>,
        prev_target_count: Option<u32>,
        w: i64,
        slack_budget: f64,
        from_x: bool,
        is_bottom: bool,
    ) -> bool {
        // Tombstones must not reach the bottom level; a block containing
        // them cannot be adopted there.
        if is_bottom && h.tombstones > 0 {
            return false;
        }
        // The buffer, if any, becomes a (possibly non-full) block b≺
        // between the previous block and h: check prev vs b≺ and b≺ vs h,
        // or prev vs h directly.
        if self.pairwise {
            let prev = last_out.map(|b| b.count).or(prev_target_count).map(|c| c as usize);
            let next = h.count as usize;
            // What comes right before h, and what (if anything) before that.
            let (before, earlier) =
                if buffered > 0 { (Some(buffered), prev) } else { (prev, None) };
            let fit_one_block = |a: Option<usize>, b: usize| a.is_some_and(|a| a + b <= self.b);
            if fit_one_block(before, next) || fit_one_block(earlier, buffered) {
                return false;
            }
        }
        // Slack budget: the flush of b≺ adds its empty slots; adopting an
        // X block adds the block's own empty slots (a Y block is net zero).
        let mut prospective = w;
        if buffered > 0 {
            prospective += (self.b - buffered) as i64;
        }
        if from_x {
            prospective += h.empty_slots(self.b) as i64;
        }
        (prospective as f64) <= slack_budget - (self.b as f64 - 1.0)
    }

    /// If blocks `idx-1` and `idx` of the drafted level violate the
    /// pairwise waste constraint, fuse them into one block. Used for the
    /// seams created by bulk deletes and inserts; adjusts the draft's `w`.
    pub(crate) fn fix_pair_if_needed(
        &self,
        level: &mut LevelDraft<'_>,
        idx: usize,
        blocks: &mut StepBlocks,
    ) -> Result<Option<CompactOutcome>> {
        if !self.pairwise || idx == 0 || idx >= level.num_blocks() {
            return Ok(None);
        }
        let (a, b) = (level.get(idx - 1), level.get(idx));
        if (a.count as usize) + (b.count as usize) > self.b {
            return Ok(None);
        }
        let (a, b) = (a.clone(), b.clone());
        // If either block of the pair is corrupt, fusing is impossible:
        // drop the corrupt block from the level instead (read repair). The
        // level shrinks by one either way, so callers' index arithmetic
        // stays valid.
        let mut fused = self.store.frame_builder(self.b);
        for (at, h) in [(idx - 1, &a), (idx, &b)] {
            match self.store.read_block(h) {
                Ok(block) => fused.extend(&block, 0..block.len())?,
                Err(LsmError::Degraded { .. }) => {
                    level.replace(at..at + 1, Vec::new());
                    level.edit.waste_delta -= h.empty_slots(self.b) as i64;
                    blocks.retired.push(h.clone());
                    return Ok(Some(CompactOutcome { writes: 0, reads: 0 }));
                }
                Err(e) => return Err(e),
            }
        }
        let fused = self.store.write_frame(fused.finish()?)?;
        blocks.created.push(fused.clone());
        level.edit.waste_delta += fused.empty_slots(self.b) as i64
            - a.empty_slots(self.b) as i64
            - b.empty_slots(self.b) as i64;
        blocks.retired.extend([a, b]);
        level.replace(idx - 1..idx + 1, vec![fused]);
        Ok(Some(CompactOutcome { writes: 1, reads: 2 }))
    }

    /// Rewrite `level` compactly in one pass (§II-B compaction), resetting
    /// its waste bookkeeping. Returns the I/O spent. Like
    /// [`merge_into`](MergeEngine::merge_into): compute, install, free; an
    /// error leaves `level` as it was.
    pub fn compact_level(&self, level: &mut Level) -> Result<CompactOutcome> {
        self.on_level(level, |draft, blocks| self.compact(draft, blocks))
    }

    /// The compute half of [`compact_level`](MergeEngine::compact_level),
    /// on a level draft.
    pub(crate) fn compact(
        &self,
        level: &mut LevelDraft<'_>,
        blocks: &mut StepBlocks,
    ) -> Result<CompactOutcome> {
        // Every handle is about to be retired, so this copy is the list
        // of retired blocks, not an extra.
        let old: Vec<BlockHandle> = level.iter().cloned().collect();
        let mut reads = 0;
        let mut out = Output::new(self.store, self.b, &mut blocks.created);
        for h in &old {
            match self.store.read_retiring(h) {
                Ok(block) => {
                    reads += 1;
                    out.append(&block, 0..block.len())?;
                }
                // The block's records are lost; compaction drops it from
                // the level (read repair) and keeps going.
                Err(LsmError::Degraded { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        out.seal()?;
        let (new_handles, writes) = out.finish()?;
        blocks.retired.extend(old);
        level.replace(0..level.num_blocks(), new_handles);
        level.edit.merges_since_compaction = 0;
        level.edit.slack_budget = 0.0;
        level.edit.waste_delta = 0;
        Ok(CompactOutcome { writes, reads })
    }

    /// Does `level` currently need a compaction? True when its waste factor
    /// exceeds ε *and* compaction would actually reduce its block count.
    pub fn needs_compaction(&self, level: &Level) -> bool {
        self.wasteful(level.num_blocks(), level.records())
    }

    /// [`needs_compaction`](MergeEngine::needs_compaction) of a level of
    /// `num_blocks` blocks holding `records` records.
    pub(crate) fn wasteful(&self, num_blocks: usize, records: u64) -> bool {
        if num_blocks < 2 {
            return false;
        }
        let minimal = (records as usize).div_ceil(self.b);
        let slots = (num_blocks * self.b) as u64;
        num_blocks > minimal && (slots - records) as f64 / slots as f64 > self.eps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::lies_within;
    use crate::record::OpKind;
    use sim_ssd::{BlockDevice, MemDevice};

    // Geometry for tests: 256-byte blocks, 4-byte payloads.
    // record = 8+1+4+4 = 17 bytes; B = (256-16)/17 = 14. Use explicit B.
    const BS: usize = 256;
    const B: usize = 14;
    const EPS: f64 = 0.2;

    fn store() -> Store {
        Store::in_memory(4096, BS, 64)
    }

    fn put(k: Key) -> Record {
        Record::put(k, vec![k as u8; 4])
    }

    fn puts(keys: impl IntoIterator<Item = Key>) -> Vec<Record> {
        keys.into_iter().map(put).collect()
    }

    /// Build a level from record chunks, one block per chunk.
    fn level_of(store: &Store, chunks: &[Vec<Record>]) -> Level {
        let mut l = Level::new();
        for chunk in chunks {
            let h = store.write_block(chunk.clone()).unwrap();
            l.push(h);
        }
        l
    }

    fn read_all_keys(store: &Store, level: &Level) -> Vec<Key> {
        let mut out = Vec::new();
        for h in level.handles() {
            let b = store.read_block(h).unwrap();
            out.extend(b.keys());
        }
        out
    }

    #[test]
    fn merge_records_into_empty_level_packs_full_blocks() {
        let s = store();
        let eng = MergeEngine::new(&s, B, EPS, true);
        let mut target = Level::new();
        let recs = puts(0..30u64);
        let out = eng.merge_into(&mut target, &[], MergeSource::Records(recs)).unwrap();
        // 30 records at B=14 → blocks of 14,14,2 — but the trailing 2 is
        // fused with the previous block? 14+2=16 > 14, pairwise fine, so 3.
        assert_eq!(out.writes, 3);
        assert_eq!(out.out_records, 30);
        assert_eq!(target.num_blocks(), 3);
        assert_eq!(target.records(), 30);
        assert_eq!(read_all_keys(&s, &target), (0..30u64).collect::<Vec<_>>());
        assert!(target.validate(B, EPS).is_ok());
    }

    #[test]
    fn merged_blocks_in_cache_do_not_pin_the_input_frames() {
        // Zero-copy decode makes every record read from an input block a
        // view into that block's frame. The output blocks a merge seeds the
        // cache with must own their own frames: an input frame is freed
        // with its block, not kept alive by the cache.
        let dev = Arc::new(MemDevice::with_block_size(4096, BS));
        let s = Store::new(Arc::clone(&dev) as Arc<dyn BlockDevice>, 64, 0);
        let eng = MergeEngine::new(&s, B, EPS, false);
        let mut target = level_of(&s, &[puts((0..28u64).step_by(2)), puts((28..56u64).step_by(2))]);
        let source = level_of(&s, &[puts((1..29u64).step_by(2)), puts((29..57u64).step_by(2))]);
        let inputs: Vec<BlockHandle> =
            target.handles().iter().chain(source.handles()).cloned().collect();
        // Holding the input frames keeps their addresses from being reused,
        // so "outside every input frame" below cannot pass by accident.
        let input_frames: Vec<bytes::Bytes> =
            inputs.iter().map(|h| dev.read(h.id).unwrap()).collect();

        let src = MergeSource::Blocks(source.handles().to_vec());
        let out = eng.merge_into(&mut target, &[], src).unwrap();
        assert_eq!(out.preserved, 0, "every input block is rewritten");
        for h in &inputs {
            assert!(dev.read(h.id).is_err(), "input block {} was not freed", h.id);
        }
        let reads = s.io_snapshot().reads;
        for h in target.handles() {
            let cached = s.read_block(h).unwrap();
            for r in cached.iter() {
                assert!(
                    !input_frames.iter().any(|frame| lies_within(&r.payload, frame)),
                    "cached output block {} views a freed input frame",
                    h.id
                );
            }
        }
        assert_eq!(s.io_snapshot().reads, reads, "the checked blocks were the cached ones");
        assert_eq!(read_all_keys(&s, &target), (0..56u64).collect::<Vec<_>>());
    }

    #[test]
    fn merge_consolidates_puts_upper_wins() {
        let s = store();
        let eng = MergeEngine::new(&s, B, EPS, true);
        let mut target = level_of(&s, &[puts(0..10u64)]);
        let newer: Vec<Record> = (0..10u64).map(|k| Record::put(k, vec![0xFF; 4])).collect();
        eng.merge_into(&mut target, &[], MergeSource::Records(newer)).unwrap();
        assert_eq!(target.records(), 10);
        for h in target.handles() {
            let b = s.read_block(h).unwrap();
            for r in b.iter() {
                assert_eq!(&r.payload[..], &[0xFF; 4], "upper version must win");
            }
        }
    }

    #[test]
    fn tombstones_cancel_and_vanish_at_bottom() {
        let s = store();
        let eng = MergeEngine::new(&s, B, EPS, true);
        let mut target = level_of(&s, &[puts(0..10u64)]);
        let dels: Vec<Record> = (0..5u64).map(Record::delete).collect();
        let out = eng.merge_into(&mut target, &[], MergeSource::Records(dels)).unwrap();
        assert_eq!(target.records(), 5);
        assert_eq!(read_all_keys(&s, &target), vec![5, 6, 7, 8, 9]);
        assert_eq!(out.out_records, 5);
    }

    #[test]
    fn tombstones_ride_down_when_key_may_exist_below() {
        let s = store();
        let eng = MergeEngine::new(&s, B, EPS, true);
        let below = level_of(&s, &[puts(0..10u64)]);
        let mut target = Level::new();
        let dels: Vec<Record> = (2..4u64).map(Record::delete).collect();
        eng.merge_into(&mut target, std::slice::from_ref(&below), MergeSource::Records(dels))
            .unwrap();
        assert_eq!(target.records(), 2, "tombstones kept for deeper levels");
        let h = &target.handles()[0];
        let blk = s.read_block(h).unwrap();
        assert!(blk.iter().all(|r| r.op == OpKind::Delete));
    }

    #[test]
    fn lone_tombstone_dropped_when_nothing_below() {
        let s = store();
        let eng = MergeEngine::new(&s, B, EPS, true);
        let below = level_of(&s, &[puts(100..110u64)]); // disjoint keys
        let mut target = Level::new();
        let dels: Vec<Record> = (2..4u64).map(Record::delete).collect();
        let out = eng
            .merge_into(&mut target, std::slice::from_ref(&below), MergeSource::Records(dels))
            .unwrap();
        assert_eq!(out.out_records, 0);
        assert!(target.is_empty());
    }

    #[test]
    fn disjoint_x_blocks_are_preserved_into_gap() {
        let s = store();
        let eng = MergeEngine::new(&s, B, EPS, true);
        // Target: [0..14) and [100..114); X: one full block [40..54).
        let mut target = level_of(&s, &[puts(0..14u64), puts(100..114u64)]);
        // Earn slack first: pretend earlier merges banked budget.
        target.slack_budget = 100.0;
        let x = level_of(&s, &[puts(40..54u64)]);
        let x_handles = x.handles().to_vec();
        let io_before = s.io_snapshot();
        let out = eng.merge_into(&mut target, &[], MergeSource::Blocks(x_handles)).unwrap();
        let io_after = s.io_snapshot();
        assert_eq!(out.preserved, 1, "whole X block falls in the gap");
        assert_eq!(out.writes, 0);
        assert_eq!(io_after.writes - io_before.writes, 0, "no device writes at all");
        assert_eq!(
            io_after.reads - io_before.reads,
            0,
            "adoption is decided from fences alone: the adopted block is never read"
        );
        assert_eq!(target.num_blocks(), 3);
        assert_eq!(target.records(), 42);
        assert!(target.validate(B, EPS).is_ok());
    }

    #[test]
    fn preservation_disabled_rewrites_everything() {
        let s = store();
        let eng = MergeEngine::new(&s, B, EPS, false);
        let mut target = level_of(&s, &[puts(0..14u64), puts(100..114u64)]);
        target.slack_budget = 100.0;
        let x = level_of(&s, &[puts(40..54u64)]);
        let out =
            eng.merge_into(&mut target, &[], MergeSource::Blocks(x.handles().to_vec())).unwrap();
        assert_eq!(out.preserved, 0);
        assert!(out.writes >= 1);
    }

    #[test]
    fn slack_budget_blocks_preservation_of_sparse_blocks() {
        let s = store();
        let eng = MergeEngine::new(&s, B, EPS, true);
        let mut target = level_of(&s, &[puts(0..14u64), puts(100..114u64)]);
        // No banked slack: budget after this merge = eps * 8 ≈ 1.6, and
        // preserving a block with 6 empty slots needs w ≤ budget − B + 1,
        // which fails. (The 8-record X block has 6 empty slots.)
        assert_eq!(target.slack_budget, 0.0);
        let x = level_of(&s, &[puts(40..48u64)]); // 8 records, 6 empty slots
        let out =
            eng.merge_into(&mut target, &[], MergeSource::Blocks(x.handles().to_vec())).unwrap();
        assert_eq!(out.preserved, 0, "slack check must refuse");
        assert_eq!(out.writes, 1);
        assert!(target.validate(B, EPS).is_ok());
    }

    #[test]
    fn y_blocks_outside_key_span_survive_untouched() {
        let s = store();
        let eng = MergeEngine::new(&s, B, EPS, true);
        let mut target = level_of(&s, &[puts(0..14u64), puts(50..64u64), puts(100..114u64)]);
        let before_first = target.handles()[0].id;
        let before_last = target.handles()[2].id;
        // X overlaps only the middle block.
        let recs = puts(55..60u64);
        eng.merge_into(&mut target, &[], MergeSource::Records(recs)).unwrap();
        assert_eq!(target.handles()[0].id, before_first);
        assert_eq!(target.handles()[target.num_blocks() - 1].id, before_last);
        assert_eq!(target.records(), 42, "55..60 already present: consolidation");
    }

    #[test]
    fn trailing_y_blocks_preserved_when_x_exhausts_first() {
        let s = store();
        let eng = MergeEngine::new(&s, B, EPS, true);
        // Y = two full blocks 0..14, 20..34. X = 3 records hitting the
        // first block only; but key span [0,2] overlaps just block 0,
        // so block 1 is never part of Y. Make X span both: keys 0, 1, 25.
        let mut target = level_of(&s, &[puts(0..14u64), puts(20..34u64)]);
        target.slack_budget = 100.0;
        let recs = vec![put(0), put(1), put(25)];
        let out = eng.merge_into(&mut target, &[], MergeSource::Records(recs)).unwrap();
        // Both Y blocks are read and rewritten except where preservation
        // applies; block 1 contains key 25 (overwritten) so it can't be
        // preserved wholesale. Just check logical consistency.
        assert_eq!(target.records(), 28);
        assert!(out.writes >= 1);
        assert!(target.validate(B, EPS).is_ok());
    }

    #[test]
    fn seam_fix_fuses_tiny_neighbours() {
        let s = store();
        let eng = MergeEngine::new(&s, B, EPS, true);
        // Target has a small block [0..4) and a small block [20..24):
        // 4 + 4 ≤ 14 would violate pairwise, so build them apart with a
        // middle block, then merge records that consolidate the middle
        // away, forcing the seam check.
        let mut target = level_of(&s, &[puts(0..4u64), puts(10..14u64), puts(20..24u64)]);
        // This layout violates pairwise from the start (4+4 ≤ 14) — it is
        // a synthetic pre-state. Delete the middle block's records so the
        // merge leaves [0..4) adjacent to [20..24) and must fuse them.
        let dels: Vec<Record> = (10..14u64).map(Record::delete).collect();
        let out = eng.merge_into(&mut target, &[], MergeSource::Records(dels)).unwrap();
        assert_eq!(target.records(), 8);
        assert_eq!(target.num_blocks(), 1, "seam fix must fuse tiny neighbours");
        assert!(out.writes >= 1);
        assert!(target.validate(B, EPS).is_ok());
    }

    #[test]
    fn empty_source_is_a_no_op() {
        let s = store();
        let eng = MergeEngine::new(&s, B, EPS, true);
        let mut target = level_of(&s, &[puts(0..14u64)]);
        let out = eng.merge_into(&mut target, &[], MergeSource::Records(vec![])).unwrap();
        assert_eq!(out, MergeOutcome::default());
        assert_eq!(target.num_blocks(), 1);
    }

    #[test]
    fn compact_level_rewrites_minimally() {
        let s = store();
        let eng = MergeEngine::new(&s, B, EPS, true);
        // Three blocks of 6 records each (pairwise ok: 6+6 < 14? No —
        // 12 ≤ 14 violates pairwise; this is a synthetic wasteful state).
        let mut level = level_of(&s, &[puts(0..6u64), puts(20..26u64), puts(40..46u64)]);
        level.merges_since_compaction = 5;
        level.waste_delta = 24;
        let out = eng.compact_level(&mut level).unwrap();
        assert_eq!(out.reads, 3);
        assert_eq!(out.writes, 2); // 18 records → 14 + 4
        assert_eq!(level.num_blocks(), 2);
        assert_eq!(level.records(), 18);
        assert_eq!(level.merges_since_compaction, 0);
        assert_eq!(level.waste_delta, 0);
        assert_eq!(read_all_keys(&s, &level).len(), 18);
    }

    #[test]
    fn needs_compaction_logic() {
        let s = store();
        let eng = MergeEngine::new(&s, B, EPS, true);
        let level = level_of(&s, &[puts(0..14u64), puts(20..34u64)]);
        assert!(!eng.needs_compaction(&level), "full blocks, no waste");
        // Wasteful but minimal-block-count level: 2 blocks, 16 records.
        let sparse = level_of(&s, &[puts(0..8u64), puts(20..28u64)]);
        assert!(!eng.needs_compaction(&sparse), "ceil(16/14)=2 is minimal");
        // Wasteful and fusible: 3 blocks of 8 → minimal is 2.
        let fusible = level_of(&s, &[puts(0..8u64), puts(20..28u64), puts(40..48u64)]);
        assert!(eng.needs_compaction(&fusible));
        let single = level_of(&s, &[puts(0..2u64)]);
        assert!(!eng.needs_compaction(&single), "single block exempt");
    }

    #[test]
    fn merge_blocks_source_frees_consumed_blocks() {
        let s = store();
        let eng = MergeEngine::new(&s, B, EPS, false); // no preservation
        let mut target = level_of(&s, &[puts(5..19u64)]);
        let x = level_of(&s, &[puts(0..14u64)]);
        let live_before = s.live_blocks();
        eng.merge_into(&mut target, &[], MergeSource::Blocks(x.handles().to_vec())).unwrap();
        // X block and old Y block freed; new blocks allocated. Live count
        // must equal exactly the target's block count.
        assert_eq!(s.live_blocks(), target.num_blocks() as u64);
        assert!(live_before >= 2);
        assert_eq!(target.records(), 19); // 0..19 all distinct keys
    }

    #[test]
    fn waste_delta_tracks_level_empty_slots() {
        let s = store();
        let eng = MergeEngine::new(&s, B, EPS, true);
        let mut target = Level::new();
        // Merge 20 records: blocks 14 + 6 → waste_delta should equal the
        // level's actual empty slots (started from a compacted-empty state).
        eng.merge_into(&mut target, &[], MergeSource::Records(puts(0..20u64))).unwrap();
        assert_eq!(target.waste_delta as u64, target.empty_slots(B));
        // Second merge into the same level keeps the invariant.
        eng.merge_into(&mut target, &[], MergeSource::Records(puts(100..120u64))).unwrap();
        assert_eq!(target.waste_delta as u64, target.empty_slots(B));
    }

    #[test]
    fn corrupt_y_block_is_dropped_and_repaired() {
        use sim_ssd::{FaultDevice, FaultPlan, MemDevice};
        let inner = Arc::new(MemDevice::with_block_size(4096, BS));
        let dev = Arc::new(FaultDevice::new(inner, 7));
        // Cache of one block so device reads actually happen.
        let s = Store::new(Arc::clone(&dev) as Arc<dyn sim_ssd::BlockDevice>, 1, 0);
        let eng = MergeEngine::new(&s, B, EPS, true);
        let h0 = s.write_block(puts(0..14u64)).unwrap();
        dev.set_plan(FaultPlan::none().bit_flip_rate(1.0));
        let h1 = s.write_block(puts(20..34u64)).unwrap();
        dev.set_plan(FaultPlan::none());
        let mut target = Level::new();
        target.push(h0);
        target.push(h1.clone());
        // Evict h1's (clean) cached copy so the merge reads the corrupt frame.
        let _ = s.write_block(puts(500..514u64)).unwrap();

        let recs = vec![put(5), put(25)];
        let out = eng.merge_into(&mut target, &[], MergeSource::Records(recs)).unwrap();

        // h1's 14 records are lost; the overwrite of key 25 survives.
        assert_eq!(target.records(), 15);
        let keys = read_all_keys(&s, &target);
        assert_eq!(keys, (0..14u64).chain([25]).collect::<Vec<_>>());
        assert!(target.validate(B, EPS).is_ok());
        assert_eq!(out.out_records, 15);
        // The lost block is quarantined, repaired, and never referenced.
        assert_eq!(s.repaired_ids(), vec![h1.id.raw()]);
        assert_eq!(s.degraded_ranges(), vec![(20, 33)]);
        assert!(target.handles().iter().all(|h| h.id != h1.id));
    }

    #[test]
    fn compaction_drops_corrupt_blocks() {
        use sim_ssd::{FaultDevice, FaultPlan, MemDevice};
        let inner = Arc::new(MemDevice::with_block_size(4096, BS));
        let dev = Arc::new(FaultDevice::new(inner, 11));
        let s = Store::new(Arc::clone(&dev) as Arc<dyn sim_ssd::BlockDevice>, 1, 0);
        let eng = MergeEngine::new(&s, B, EPS, true);
        let mut level = Level::new();
        level.push(s.write_block(puts(0..6u64)).unwrap());
        dev.set_plan(FaultPlan::none().bit_flip_rate(1.0));
        let bad = s.write_block(puts(20..26u64)).unwrap();
        dev.set_plan(FaultPlan::none());
        level.push(bad.clone());
        level.push(s.write_block(puts(40..46u64)).unwrap());
        let _ = s.write_block(puts(500..506u64)).unwrap(); // evict

        let out = eng.compact_level(&mut level).unwrap();
        assert_eq!(out.reads, 2, "corrupt block contributes no read");
        assert_eq!(level.records(), 12);
        assert_eq!(read_all_keys(&s, &level), (0..6u64).chain(40..46).collect::<Vec<_>>());
        assert_eq!(s.repaired_ids(), vec![bad.id.raw()]);
    }

    #[test]
    fn merge_source_metadata() {
        let src = MergeSource::Records(puts(3..7u64));
        assert_eq!(src.record_count(), 4);
        assert_eq!(src.key_span(), Some((3, 6)));
        let empty = MergeSource::Records(vec![]);
        assert_eq!(empty.record_count(), 0);
        assert_eq!(empty.key_span(), None);
        let s = store();
        let lvl = level_of(&s, &[puts(0..5u64), puts(10..15u64)]);
        let src = MergeSource::Blocks(lvl.handles().to_vec());
        assert_eq!(src.record_count(), 10);
        assert_eq!(src.key_span(), Some((0, 14)));
    }
}
