//! Debug-build lock-order assertions for the concurrent write path.
//!
//! The scheduler's whole deadlock-freedom argument is one rule: **never
//! hold a tree (shard) lock and the scheduler state lock at the same
//! time** (see [`crate::scheduler`] module docs). The rule is easy to
//! state and easy to break silently — a refactor that calls
//! [`MergeScheduler::notify`](crate::MergeScheduler) from inside a shard
//! critical section compiles fine and deadlocks only under load. This
//! module makes the rule executable: a shard marks its tree-lock
//! critical sections with a [`TreeLockGuard`], and the scheduler calls
//! [`assert_no_tree_lock`] before taking its state lock.
//!
//! A second rule rides on the same marker: **the section that installs a
//! maintenance step does no device I/O** — it is what every put and get
//! on the shard waits for. The install takes its marker with
//! [`tree_lock_held_no_io`], and the store's device read, write and trim
//! paths call [`assert_io_allowed`].
//!
//! In debug builds a violation of either rule panics at the offending
//! call site; in release builds everything compiles to nothing.

#[cfg(debug_assertions)]
use std::cell::Cell;

#[cfg(debug_assertions)]
thread_local! {
    /// Tree-lock depth of the current thread (re-entrant sections nest).
    static TREE_LOCK_DEPTH: Cell<usize> = const { Cell::new(0) };
    /// How many of those sections forbid device I/O.
    static NO_IO_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// RAII marker for "this thread is inside a tree-lock critical section".
/// Acquire with [`tree_lock_held`] (or [`tree_lock_held_no_io`]) right
/// after taking a shard's lock and keep it alive for exactly as long as
/// the lock guard.
#[derive(Debug)]
#[must_use = "the marker must live as long as the tree lock guard"]
pub struct TreeLockGuard {
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    no_io: bool,
}

fn mark(no_io: bool) -> TreeLockGuard {
    #[cfg(debug_assertions)]
    {
        TREE_LOCK_DEPTH.with(|d| d.set(d.get() + 1));
        if no_io {
            NO_IO_DEPTH.with(|d| d.set(d.get() + 1));
        }
    }
    TreeLockGuard { no_io }
}

/// Mark the current thread as holding a tree lock until the returned
/// guard drops.
pub fn tree_lock_held() -> TreeLockGuard {
    mark(false)
}

/// [`tree_lock_held`] for a section that must not touch the device: the
/// install of a maintenance step.
pub fn tree_lock_held_no_io() -> TreeLockGuard {
    mark(true)
}

impl Drop for TreeLockGuard {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        {
            TREE_LOCK_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
            if self.no_io {
                NO_IO_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
            }
        }
    }
}

/// Panic (debug builds only) if the current thread is inside a no-I/O
/// tree-lock section. Called by the store before every device read,
/// write and trim.
#[inline]
pub fn assert_io_allowed(context: &str) {
    #[cfg(debug_assertions)]
    NO_IO_DEPTH.with(|d| {
        assert!(
            d.get() == 0,
            "lock-order violation: {context} inside a no-I/O tree-lock section \
             — installing a maintenance step must not touch the device"
        );
    });
    #[cfg(not(debug_assertions))]
    let _ = context;
}

/// Panic (debug builds only) if the current thread holds a tree lock.
/// Called by the scheduler immediately before it takes its state lock.
#[inline]
pub fn assert_no_tree_lock(context: &str) {
    #[cfg(debug_assertions)]
    TREE_LOCK_DEPTH.with(|d| {
        assert!(
            d.get() == 0,
            "lock-order violation: {context} while holding a tree lock \
             (depth {}) — tree locks and scheduler state locks must never \
             be held together",
            d.get()
        );
    });
    #[cfg(not(debug_assertions))]
    let _ = context;
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;

    #[test]
    fn no_lock_means_no_panic() {
        assert_no_tree_lock("unit test");
        let g = tree_lock_held();
        drop(g);
        assert_no_tree_lock("after drop");
    }

    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn violation_panics_in_debug() {
        let _g = tree_lock_held();
        assert_no_tree_lock("unit test violation");
    }

    #[test]
    fn io_is_refused_only_inside_a_no_io_section() {
        assert_io_allowed("no lock");
        let plain = tree_lock_held();
        assert_io_allowed("plain tree lock");
        let install = tree_lock_held_no_io();
        assert!(std::panic::catch_unwind(|| assert_io_allowed("install")).is_err());
        assert!(std::panic::catch_unwind(|| assert_no_tree_lock("install")).is_err());
        drop(install);
        assert_io_allowed("install section left");
        drop(plain);
    }

    #[test]
    fn nesting_tracks_depth() {
        let a = tree_lock_held();
        let b = tree_lock_held();
        drop(b);
        // Still held: dropping the inner marker must not clear the outer.
        let caught = std::panic::catch_unwind(|| assert_no_tree_lock("nested"));
        assert!(caught.is_err(), "outer tree lock must still be visible");
        drop(a);
        assert_no_tree_lock("all dropped");
    }
}
