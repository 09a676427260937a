//! Cross-job in-flight block interest: which blocks the admitted jobs
//! of a [`crate::manager::JobManager`] batch are still going to read.
//!
//! The manager registers every admitted job's input block set at
//! dequeue time (an [`InterestGuard`]), the chunked drive loop releases
//! each chunk's blocks as soon as the chunk's reads are consumed, and
//! the guard's `Drop` releases whatever is left (error paths, partial
//! runs). Observers subscribed with [`InFlightBlocks::on_drained`] are
//! told when a block's interest count drains to zero — the execution
//! layer's scan-share registry uses exactly that signal to evict its
//! retained decoded blocks, so sharing windows track admission windows.
//!
//! Lock discipline (ranks enforced by `hail-sync`; see
//! ARCHITECTURE.md, "Concurrency invariants & enforcement"): the
//! interest-count mutex ([`LockRank::InterestCounts`]) is never held
//! while calling out — drain observers run *after* the counts lock is
//! dropped, under the observer-list mutex ([`LockRank::ObserverList`]),
//! which ranks just above the scan-share registry leaf so an observer
//! may evict retained decodes but must not call back into this
//! tracker or take any higher-ranked lock.

use hail_sync::{LockRank, OrderedMutex};
use hail_types::BlockId;
use std::collections::BTreeMap;
use std::sync::Arc;

type DrainObserver = Box<dyn Fn(&[BlockId]) + Send + Sync>;

/// Reference-counted interest in block ids across in-flight jobs.
pub struct InFlightBlocks {
    counts: OrderedMutex<BTreeMap<BlockId, usize>>,
    observers: OrderedMutex<Vec<DrainObserver>>,
}

impl Default for InFlightBlocks {
    fn default() -> Self {
        InFlightBlocks {
            counts: OrderedMutex::new(LockRank::InterestCounts, "inflight-counts", BTreeMap::new()),
            observers: OrderedMutex::new(LockRank::ObserverList, "inflight-observers", Vec::new()),
        }
    }
}

impl InFlightBlocks {
    pub fn new() -> Self {
        InFlightBlocks::default()
    }

    /// Declares interest in `blocks` (one count per occurrence) and
    /// returns the guard that owes the matching releases.
    pub fn register(self: &Arc<Self>, blocks: &[BlockId]) -> InterestGuard {
        let mut remaining: BTreeMap<BlockId, usize> = BTreeMap::new();
        {
            let mut counts = self.counts.acquire();
            for &b in blocks {
                *counts.entry(b).or_insert(0) += 1;
                *remaining.entry(b).or_insert(0) += 1;
            }
        }
        InterestGuard {
            tracker: Arc::clone(self),
            remaining: OrderedMutex::new(
                LockRank::InterestCounts,
                "interest-guard-remaining",
                remaining,
            ),
        }
    }

    /// Current interest count for one block.
    pub fn interest(&self, block: BlockId) -> usize {
        self.counts.acquire().get(&block).copied().unwrap_or(0)
    }

    /// Subscribes a drain observer: called with every batch of blocks
    /// whose interest count just reached zero. Runs without the counts
    /// lock held; must not call back into this tracker.
    pub fn on_drained(&self, observer: impl Fn(&[BlockId]) + Send + Sync + 'static) {
        self.observers.acquire().push(Box::new(observer));
    }

    /// Number of subscribed drain observers (observer dedup support for
    /// layers that must not subscribe twice).
    pub fn observer_count(&self) -> usize {
        self.observers.acquire().len()
    }

    fn release(&self, blocks: &[BlockId]) {
        let drained: Vec<BlockId> = {
            let mut counts = self.counts.acquire();
            blocks
                .iter()
                .filter_map(|&b| match counts.get_mut(&b) {
                    Some(n) if *n > 1 => {
                        *n -= 1;
                        None
                    }
                    Some(_) => {
                        counts.remove(&b);
                        Some(b)
                    }
                    None => None,
                })
                .collect()
        };
        if drained.is_empty() {
            return;
        }
        // The counts lock is dropped; observers see a consistent "these
        // blocks drained" batch and may take their own (leaf) locks.
        for observer in self.observers.acquire().iter() {
            observer(&drained);
        }
    }
}

/// RAII interest held by one admitted job. Release early per chunk via
/// [`InterestGuard::release_blocks`]; `Drop` releases the remainder, so
/// an error mid-job never leaks interest counts.
pub struct InterestGuard {
    tracker: Arc<InFlightBlocks>,
    remaining: OrderedMutex<BTreeMap<BlockId, usize>>,
}

impl InterestGuard {
    /// Releases this guard's interest in `blocks` (one count per
    /// occurrence). Blocks the guard no longer holds are ignored, so
    /// per-chunk release followed by `Drop` never double-releases.
    pub fn release_blocks(&self, blocks: &[BlockId]) {
        let to_release: Vec<BlockId> = {
            let mut remaining = self.remaining.acquire();
            blocks
                .iter()
                .filter(|&&b| match remaining.get_mut(&b) {
                    Some(n) if *n > 1 => {
                        *n -= 1;
                        true
                    }
                    Some(_) => {
                        remaining.remove(&b);
                        true
                    }
                    None => false,
                })
                .copied()
                .collect()
        };
        if !to_release.is_empty() {
            self.tracker.release(&to_release);
        }
    }
}

impl Drop for InterestGuard {
    fn drop(&mut self) {
        let rest: Vec<BlockId> = self
            .remaining
            .get_mut()
            .iter()
            .flat_map(|(&b, &n)| std::iter::repeat_n(b, n))
            .collect();
        if !rest.is_empty() {
            self.tracker.release(&rest);
        }
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_types,
    reason = "a test-only recorder, not an engine lock, so it carries no LockRank"
)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn register_release_and_drain_notifications() {
        let tracker = Arc::new(InFlightBlocks::new());
        let drained = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&drained);
        tracker.on_drained(move |blocks| sink.lock().unwrap().extend_from_slice(blocks));

        let g1 = tracker.register(&[1, 2, 3]);
        let g2 = tracker.register(&[2, 3, 4]);
        assert_eq!(tracker.interest(2), 2);
        assert_eq!(tracker.interest(1), 1);
        assert_eq!(tracker.interest(9), 0);

        g1.release_blocks(&[1, 2]);
        // Block 1 drained (only g1 held it); block 2 still held by g2.
        assert_eq!(*drained.lock().unwrap(), vec![1]);
        assert_eq!(tracker.interest(2), 1);

        drop(g2);
        drop(g1); // releases only its remaining block 3
        let mut all = drained.lock().unwrap().clone();
        all.sort_unstable();
        assert_eq!(all, vec![1, 2, 3, 4]);
        for b in 1..=4 {
            assert_eq!(tracker.interest(b), 0);
        }
    }

    #[test]
    fn double_release_is_ignored() {
        let tracker = Arc::new(InFlightBlocks::new());
        let drains = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&drains);
        tracker.on_drained(move |blocks| {
            counter.fetch_add(blocks.len(), Ordering::SeqCst);
        });
        let g = tracker.register(&[7]);
        g.release_blocks(&[7]);
        g.release_blocks(&[7]); // no interest left in the guard
        drop(g);
        assert_eq!(drains.load(Ordering::SeqCst), 1);
        assert_eq!(tracker.interest(7), 0);
    }

    #[test]
    fn duplicate_blocks_count_per_occurrence() {
        let tracker = Arc::new(InFlightBlocks::new());
        let g = tracker.register(&[5, 5]);
        assert_eq!(tracker.interest(5), 2);
        g.release_blocks(&[5]);
        assert_eq!(tracker.interest(5), 1);
        drop(g);
        assert_eq!(tracker.interest(5), 0);
    }
}
