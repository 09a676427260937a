//! Rank-checked lock wrappers enforcing the HAIL lock hierarchy.
//!
//! Every lock in the engine is an [`OrderedMutex`] / [`OrderedRwLock`]
//! carrying a [`LockRank`] — the one enum encoding the full documented
//! hierarchy (see ARCHITECTURE.md, "Concurrency invariants &
//! enforcement"; `tests/architecture_tables.rs` keeps the two in
//! lockstep). A thread may only acquire a lock whose rank is *strictly
//! below* every rank it already holds, which makes lock-order
//! deadlocks impossible by construction: any cycle would need at least
//! one edge going up the order.
//!
//! In debug builds a thread-local stack of held ranks verifies this on
//! every acquisition and panics naming **both** locks on an
//! out-of-order or same-rank re-entrant acquisition; there is no
//! switch to turn it off. In release builds the checking code is compiled out
//! entirely (`cfg(debug_assertions)`) and the wrappers are
//! zero-overhead newtypes over `std::sync` (`hail-bench`'s
//! `sync.ordered_mutex_acquire_ns` probe tracks it).
//!
//! Poison policy: [`OrderedMutex::acquire`] and the `OrderedRwLock`
//! accessors recover from poisoning via
//! `unwrap_or_else(PoisonError::into_inner)`. Every guarded region in
//! the engine leaves its structure consistent before any call that can
//! panic (writes are complete assignments, not staged mutations), so a
//! panicked worker must not cascade into wedging a shared structure
//! such as the advisor's `SelectivityFeedback` store.
//!
//! This crate is the one place the raw `std::sync` locks may appear:
//! the workspace `clippy.toml` disallows them everywhere else.
//!
//! It also holds the engine's one ordered fan-out, [`run_ordered`]
//! (module [`executor`]): a leaf crate, so the split pool and job
//! manager in `hail-mr` and the upload client in `hail-core` share it.

#![allow(
    clippy::disallowed_types,
    reason = "the ranked wrappers are built on the raw std::sync locks"
)]

pub mod executor;

pub use executor::run_ordered;

use std::fmt;
use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// The global lock hierarchy, highest rank first. A thread holding a
/// lock may only acquire locks of *strictly lower* rank.
///
/// The variant order here is the canonical rank table; ARCHITECTURE.md
/// embeds the same table between `lock-rank-table` markers and
/// `tests/architecture_tables.rs` fails if the two drift.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum LockRank {
    /// `ReindexAdvisor` trigger state — held across `SelectivityFeedback`
    /// reads (crates/exec/src/adapt.rs).
    AdvisorState = 3,
    /// `SelectivityFeedback` per-class observations, the re-indexing
    /// advisor's evidence (crates/exec/src/feedback.rs). The engine feeds
    /// the store from one thread, between adaptive rounds, and no plan
    /// reads it; the lock and this rank stay as frozen-suite residue,
    /// because the `hail-bench` suite absorbs through a shared `Arc`
    /// (`absorb(&self)`) and the residue `PlannerConfig::feedback` field
    /// needs the store to stay `Sync`. They go with the suite's residue.
    Feedback = 2,
    /// Per-job map-side scratch accumulators (crates/mr/src/shuffle.rs).
    MapScratch = 1,
    /// The empty `ScanShareRegistry`'s lock, kept as frozen-suite
    /// residue: a leaf nothing is acquired under
    /// (crates/exec/src/sharing.rs).
    ShareRegistry = 0,
}

impl LockRank {
    /// All ranks, highest first — the same order as the declaration and
    /// the ARCHITECTURE.md table.
    pub const ALL: [LockRank; 4] = [
        LockRank::AdvisorState,
        LockRank::Feedback,
        LockRank::MapScratch,
        LockRank::ShareRegistry,
    ];
}

impl fmt::Display for LockRank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(debug_assertions)]
mod check {
    use super::LockRank;
    use std::cell::RefCell;

    thread_local! {
        /// Ranks (with lock names) this thread currently holds, in
        /// acquisition order. Acquisition order is strictly descending
        /// rank, so the last entry is always the minimum.
        static HELD: RefCell<Vec<(LockRank, &'static str)>> = const { RefCell::new(Vec::new()) };
    }

    /// Records an acquisition, panicking (naming both locks) if `rank`
    /// is not strictly below everything already held.
    pub(super) fn on_acquire(rank: LockRank, name: &'static str) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(&(held_rank, held_name)) = held.last() {
                assert!(
                    rank < held_rank,
                    "lock hierarchy violation: acquiring `{name}` ({rank:?}, rank {}) \
                     while holding `{held_name}` ({held_rank:?}, rank {}); \
                     acquisitions must strictly descend the LockRank order \
                     (see ARCHITECTURE.md, Concurrency invariants & enforcement)",
                    rank as u8,
                    held_rank as u8,
                );
            }
            held.push((rank, name));
        });
    }

    /// Records a release. Guards can drop in any order, so remove the
    /// matching entry wherever it sits (ranks are unique in the stack:
    /// same-rank re-acquisition panics in `on_acquire`).
    pub(super) fn on_release(rank: LockRank) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|&(r, _)| r == rank) {
                held.remove(pos);
            }
        });
    }
}

#[cfg(debug_assertions)]
fn on_acquire(rank: LockRank, name: &'static str) {
    check::on_acquire(rank, name);
}
#[cfg(not(debug_assertions))]
#[inline(always)]
fn on_acquire(_rank: LockRank, _name: &'static str) {}

#[cfg(debug_assertions)]
fn on_release(rank: LockRank) {
    check::on_release(rank);
}
#[cfg(not(debug_assertions))]
#[inline(always)]
fn on_release(_rank: LockRank) {}

/// Pops the rank entry when a guard drops.
struct Release(LockRank);
impl Drop for Release {
    fn drop(&mut self) {
        on_release(self.0);
    }
}

/// A [`LockRank`]-carrying `std::sync::Mutex`. Acquire with
/// [`acquire`](OrderedMutex::acquire) — there is deliberately no
/// `lock()` returning a `Result`; poisoning is always recovered.
pub struct OrderedMutex<T: ?Sized> {
    rank: LockRank,
    name: &'static str,
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// Wraps `value` in a mutex at `rank`. `name` appears in
    /// hierarchy-violation panics and `Debug` output.
    pub const fn new(rank: LockRank, name: &'static str, value: T) -> Self {
        Self {
            rank,
            name,
            inner: Mutex::new(value),
        }
    }

    /// Consumes the mutex, recovering the value even if poisoned.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> OrderedMutex<T> {
    /// Locks, checking the rank order in debug builds and recovering
    /// from poisoning. Panics (naming both locks) on a hierarchy
    /// violation.
    pub fn acquire(&self) -> OrderedMutexGuard<'_, T> {
        on_acquire(self.rank, self.name);
        let release = Release(self.rank);
        let guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        OrderedMutexGuard {
            guard,
            _release: release,
        }
    }

    /// Mutable access without locking (requires `&mut self`, so no
    /// rank bookkeeping applies). Recovers from poisoning.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: fmt::Debug> fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedMutex")
            .field("rank", &self.rank)
            .field("name", &self.name)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Guard for an [`OrderedMutex`].
pub struct OrderedMutexGuard<'a, T: ?Sized> {
    guard: MutexGuard<'a, T>,
    _release: Release,
}

impl<T: ?Sized> std::ops::Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> std::ops::DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// A [`LockRank`]-carrying `std::sync::RwLock`. Readers and writers
/// follow the same rank rule: a read lock still excludes writers, so
/// it participates in deadlock cycles exactly like a mutex.
pub struct OrderedRwLock<T: ?Sized> {
    rank: LockRank,
    name: &'static str,
    inner: RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    /// Wraps `value` in an rwlock at `rank`.
    pub const fn new(rank: LockRank, name: &'static str, value: T) -> Self {
        Self {
            rank,
            name,
            inner: RwLock::new(value),
        }
    }

    /// Consumes the lock, recovering the value even if poisoned.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> OrderedRwLock<T> {
    /// Shared lock, rank-checked, poison-recovering.
    pub fn read(&self) -> OrderedReadGuard<'_, T> {
        on_acquire(self.rank, self.name);
        let release = Release(self.rank);
        let guard = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        OrderedReadGuard {
            guard,
            _release: release,
        }
    }

    /// Exclusive lock, rank-checked, poison-recovering.
    pub fn write(&self) -> OrderedWriteGuard<'_, T> {
        on_acquire(self.rank, self.name);
        let release = Release(self.rank);
        let guard = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        OrderedWriteGuard {
            guard,
            _release: release,
        }
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: fmt::Debug> fmt::Debug for OrderedRwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedRwLock")
            .field("rank", &self.rank)
            .field("name", &self.name)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Shared guard for an [`OrderedRwLock`].
pub struct OrderedReadGuard<'a, T: ?Sized> {
    guard: RwLockReadGuard<'a, T>,
    _release: Release,
}

impl<T: ?Sized> std::ops::Deref for OrderedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

/// Exclusive guard for an [`OrderedRwLock`].
pub struct OrderedWriteGuard<'a, T: ?Sized> {
    guard: RwLockWriteGuard<'a, T>,
    _release: Release,
}

impl<T: ?Sized> std::ops::Deref for OrderedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> std::ops::DerefMut for OrderedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_order_matches_discriminants() {
        // ALL is highest-first and the discriminants strictly descend.
        for pair in LockRank::ALL.windows(2) {
            assert!(
                pair[0] > pair[1],
                "{:?} must rank above {:?}",
                pair[0],
                pair[1]
            );
        }
        assert_eq!(LockRank::ALL.len(), 4);
        assert_eq!(LockRank::ShareRegistry as u8, 0);
        assert_eq!(LockRank::AdvisorState as u8, 3);
    }

    #[test]
    fn descending_acquisition_is_allowed() {
        let advisor = OrderedMutex::new(LockRank::AdvisorState, "advisor", 1u32);
        let scratch = OrderedMutex::new(LockRank::MapScratch, "scratch", 2u32);
        let reg = OrderedMutex::new(LockRank::ShareRegistry, "registry", 3u32);
        let a = advisor.acquire();
        let b = scratch.acquire();
        let c = reg.acquire();
        assert_eq!(*a + *b + *c, 6);
        drop((a, b, c));
        // Dropping restores a clean stack: re-acquiring top rank works.
        let _again = advisor.acquire();
    }

    #[test]
    fn release_order_need_not_mirror_acquisition() {
        let advisor = OrderedRwLock::new(LockRank::AdvisorState, "advisor", ());
        let feedback = OrderedRwLock::new(LockRank::Feedback, "feedback", ());
        let a = advisor.read();
        let b = feedback.read();
        drop(a); // release the *higher* rank first
        drop(b);
        let _w = advisor.write();
    }

    #[test]
    fn poisoned_lock_is_recovered_not_propagated() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::Arc;
        let m = Arc::new(OrderedMutex::new(LockRank::Feedback, "poisoned", 7u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _ = catch_unwind(AssertUnwindSafe(|| {
                let _g = m2.acquire();
                panic!("worker dies holding the lock");
            }));
        })
        .join();
        // acquire() must hand the value back, not propagate the poison.
        assert_eq!(*m.acquire(), 7);
        let mut owned = Arc::try_unwrap(m).expect("sole owner");
        assert_eq!(*owned.get_mut(), 7);
        assert_eq!(owned.into_inner(), 7);
    }

    // The inversion-injection test: checking only exists in debug
    // builds, so it runs in a fresh thread (thread-local stack) and
    // only there.
    #[cfg(debug_assertions)]
    #[test]
    fn inversion_panics_naming_both_locks() {
        let err = std::thread::spawn(|| {
            let feedback = OrderedRwLock::new(LockRank::Feedback, "feedback", ());
            let advisor = OrderedMutex::new(LockRank::AdvisorState, "advisor-state", ());
            let _held = feedback.read();
            let _bad = advisor.acquire(); // AdvisorState after Feedback: inverted
        })
        .join()
        .expect_err("inverted acquisition must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("panic payload is a string");
        assert!(
            msg.contains("advisor-state"),
            "panic must name the acquired lock: {msg}"
        );
        assert!(
            msg.contains("feedback"),
            "panic must name the held lock: {msg}"
        );
        assert!(
            msg.contains("hierarchy"),
            "panic must say what went wrong: {msg}"
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    fn same_rank_reentry_panics() {
        let err = std::thread::spawn(|| {
            let a = OrderedMutex::new(LockRank::Feedback, "feedback-a", ());
            let b = OrderedMutex::new(LockRank::Feedback, "feedback-b", ());
            let _held = a.acquire();
            let _bad = b.acquire(); // same rank while held: forbidden
        })
        .join()
        .expect_err("same-rank acquisition must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("panic payload is a string");
        assert!(
            msg.contains("feedback-a") && msg.contains("feedback-b"),
            "{msg}"
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    fn panic_unwinding_releases_held_ranks() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let feedback = OrderedRwLock::new(LockRank::Feedback, "feedback", ());
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _g = feedback.write();
            panic!("die holding feedback");
        }));
        // The unwound guard must have popped its rank: acquiring a
        // higher rank on this thread is legal again.
        let advisor = OrderedMutex::new(LockRank::AdvisorState, "advisor", ());
        let _a = advisor.acquire();
    }
}
