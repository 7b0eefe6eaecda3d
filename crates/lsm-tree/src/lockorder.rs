//! Debug-build lock-order assertions for the concurrent write path.
//!
//! The scheduler's whole deadlock-freedom argument is one rule: **never
//! hold a tree (shard) lock and the scheduler state lock at the same
//! time** (see [`crate::scheduler`] module docs). The rule is easy to
//! state and easy to break silently — a refactor that calls
//! [`MergeScheduler::notify`](crate::MergeScheduler) from inside a shard
//! critical section compiles fine and deadlocks only under load. This
//! module makes the rule executable: a shard marks each tree-lock
//! critical section with one [`TreeLockGuard`], which says what the
//! section may do ([`Hold`]), and the scheduler calls
//! [`assert_no_tree_lock`] before taking its state lock.
//!
//! A second rule rides on the same marker: **the section that installs a
//! maintenance step does no device I/O** — it is what every put and get
//! on the shard waits for. The install marks its hold [`Hold::NoIo`], and
//! the store's device read, write and trim paths call
//! [`assert_io_allowed`].
//!
//! A third rule keeps the WAL's fsync off every hold but one: **no fsync
//! under a tree lock, except inside a checkpoint** — the shard's
//! checkpoint fsyncs, writes the manifest and cuts the log under its
//! write lock, and marks that hold [`Hold::Checkpoint`]. The WAL calls
//! [`assert_fsync_allowed`] before every fsync.
//!
//! In debug builds a violation of any rule panics at the offending
//! call site; in release builds everything compiles to nothing.

#[cfg(debug_assertions)]
use std::cell::Cell;

/// What a tree-lock section may do besides reading and writing memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hold {
    /// Nothing more: the install of a maintenance step.
    NoIo,
    /// Device I/O, but no fsync: the inline cascade.
    Io,
    /// Device I/O and a WAL fsync: a checkpoint.
    Checkpoint,
}

#[cfg(debug_assertions)]
thread_local! {
    /// Tree-lock sections the current thread is inside, by [`Hold`]
    /// (re-entrant sections nest).
    static HOLDS: Cell<[usize; 3]> = const { Cell::new([0; 3]) };
}

#[cfg(debug_assertions)]
fn holds() -> [usize; 3] {
    HOLDS.with(Cell::get)
}

/// RAII marker for "this thread is inside a tree-lock critical section".
/// Acquire with [`tree_lock_held`] right after taking a shard's lock and
/// keep it alive for exactly as long as the lock guard.
#[derive(Debug)]
#[must_use = "the marker must live as long as the tree lock guard"]
pub struct TreeLockGuard {
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    hold: Hold,
}

/// Mark the current thread as holding a tree lock, for a section of kind
/// `hold`, until the returned guard drops.
pub fn tree_lock_held(hold: Hold) -> TreeLockGuard {
    #[cfg(debug_assertions)]
    HOLDS.with(|h| {
        let mut n = h.get();
        n[hold as usize] += 1;
        h.set(n);
    });
    TreeLockGuard { hold }
}

impl Drop for TreeLockGuard {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        HOLDS.with(|h| {
            let mut n = h.get();
            n[self.hold as usize] = n[self.hold as usize].saturating_sub(1);
            h.set(n);
        });
    }
}

/// Panic (debug builds only) if the current thread holds a tree lock
/// outside a checkpoint. Called by the WAL before every fsync.
#[inline]
pub fn assert_fsync_allowed(context: &str) {
    #[cfg(debug_assertions)]
    {
        let n = holds();
        assert!(
            n[Hold::NoIo as usize] + n[Hold::Io as usize] == 0,
            "lock-order violation: {context} under a tree lock — only a checkpoint fsyncs there"
        );
    }
    #[cfg(not(debug_assertions))]
    let _ = context;
}

/// Panic (debug builds only) if the current thread is inside a no-I/O
/// tree-lock section. Called by the store before every device read,
/// write and trim.
#[inline]
pub fn assert_io_allowed(context: &str) {
    #[cfg(debug_assertions)]
    assert!(
        holds()[Hold::NoIo as usize] == 0,
        "lock-order violation: {context} inside a no-I/O tree-lock section \
         — installing a maintenance step must not touch the device"
    );
    #[cfg(not(debug_assertions))]
    let _ = context;
}

/// Panic (debug builds only) if the current thread holds a tree lock.
/// Called by the scheduler immediately before it takes its state lock.
#[inline]
pub fn assert_no_tree_lock(context: &str) {
    #[cfg(debug_assertions)]
    {
        let depth: usize = holds().iter().sum();
        assert!(
            depth == 0,
            "lock-order violation: {context} while holding a tree lock \
             (depth {depth}) — tree locks and scheduler state locks must never \
             be held together"
        );
    }
    #[cfg(not(debug_assertions))]
    let _ = context;
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;

    #[test]
    fn no_lock_means_no_panic() {
        assert_no_tree_lock("unit test");
        let g = tree_lock_held(Hold::Io);
        drop(g);
        assert_no_tree_lock("after drop");
    }

    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn violation_panics_in_debug() {
        let _g = tree_lock_held(Hold::Io);
        assert_no_tree_lock("unit test violation");
    }

    #[test]
    fn io_is_refused_only_inside_a_no_io_section() {
        assert_io_allowed("no lock");
        let plain = tree_lock_held(Hold::Io);
        assert_io_allowed("plain tree lock");
        let install = tree_lock_held(Hold::NoIo);
        assert!(std::panic::catch_unwind(|| assert_io_allowed("install")).is_err());
        assert!(std::panic::catch_unwind(|| assert_no_tree_lock("install")).is_err());
        drop(install);
        assert_io_allowed("install section left");
        drop(plain);
    }

    #[test]
    fn a_fsync_under_a_tree_lock_is_refused_outside_a_checkpoint() {
        assert_fsync_allowed("no lock");
        // The inline write path holds the lock with I/O allowed: no fsync.
        let inline = tree_lock_held(Hold::Io);
        assert!(std::panic::catch_unwind(|| assert_fsync_allowed("inline")).is_err());
        drop(inline);
        let checkpoint = tree_lock_held(Hold::Checkpoint);
        assert_fsync_allowed("checkpoint");
        assert_io_allowed("checkpoint");
        assert!(std::panic::catch_unwind(|| assert_no_tree_lock("checkpoint")).is_err());
        drop(checkpoint);
        assert_fsync_allowed("after");
    }

    #[test]
    fn nesting_tracks_depth() {
        let a = tree_lock_held(Hold::Io);
        let b = tree_lock_held(Hold::Io);
        drop(b);
        // Still held: dropping the inner marker must not clear the outer.
        let caught = std::panic::catch_unwind(|| assert_no_tree_lock("nested"));
        assert!(caught.is_err(), "outer tree lock must still be visible");
        drop(a);
        assert_no_tree_lock("all dropped");
    }
}
