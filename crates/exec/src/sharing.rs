//! Cooperative scan sharing: one physical decode serves every
//! concurrent job that wants the same block the same way.
//!
//! HAIL's multi-job premise (and the lesson of the first multi-job
//! measurement: 4× job concurrency bought only 1.04× throughput) is
//! that overlapping jobs should not each pay for their own reads of the
//! same blocks. The
//! [`ScanShareRegistry`] is the rendezvous: the first job to want a
//! `(block, replica, shape)` becomes the **producer** — it decodes the
//! replica once ([`crate::path::AccessPath::produce_decoded`]) — and
//! every other in-flight job that wants the same key **attaches** to
//! that decode, applying only its own residual predicate/projection
//! ([`crate::path::AccessPath::apply_residual`]).
//!
//! # Accounting and determinism
//!
//! A consumer's [`hail_mr::TaskStats`] are *synthesized*, not skipped:
//! the residual charges its ledger exactly what a solo read would have
//! (the replica's stored length is a property of the replica, so
//! `Datanode::charge_replica_read` replays the identical seek + byte
//! charges without touching the bytes). Every report field therefore
//! stays bit-for-bit identical to a solo run. The only trace of
//! sharing is the dedicated telemetry pair
//! [`hail_mr::TaskStats::blocks_read_shared`] /
//! [`hail_mr::TaskStats::shared_bytes_saved`] — which job of an
//! overlapping pair produces vs. attaches is a race, so those two
//! counters (and nothing else) are excluded from the determinism
//! contract.
//!
//! # Retention and eviction
//!
//! Produced decodes are retained so late-arriving jobs can still
//! attach, bounded three ways:
//!
//! 1. **Admission-window interest**: when a `JobManager`'s
//!    [`hail_mr::InFlightBlocks`] tracker is attached
//!    ([`ScanShareRegistry::attach_in_flight`]), its drain signal — no
//!    admitted job is still going to read the block — evicts the
//!    block's entries. With a one-job `JobManager` admission is
//!    serial, so entries never survive into the next job and attach
//!    counts are exactly zero.
//! 2. **Capacity**: at most [`RETAINED_CAP`] produced entries, oldest
//!    evicted first.
//! 3. **Invalidation**: [`ScanShareRegistry::clear`] drops everything —
//!    callers must invoke it after in-place replica rewrites
//!    (`apply_reindex`), whose content changes would otherwise be
//!    invisible to the registry's keying.
//!
//! # Locking
//!
//! The registry's mutex sits at [`LockRank::ShareRegistry`] — the
//! **leaf** of the hierarchy enforced by `hail-sync` (see
//! ARCHITECTURE.md, "Concurrency invariants & enforcement"): it is
//! never held while decoding, applying residuals, or doing I/O. A
//! producer inserts an in-flight marker, *releases the lock*, decodes,
//! then publishes. Waiters block on the registry's condvar holding no
//! other engine lock, so a waiter can never hold up the producer it
//! waits on.
//!
//! The in-flight marker is protected by an RAII cleanup guard, so a
//! producer that **panics** mid-decode (not just one that returns an
//! error) still removes its marker and wakes waiters into
//! [`Acquired::Fallback`] — without it, a worker panic would strand
//! the marker and every later acquirer of that key would wait forever.
//!
//! Set `HAIL_DISABLE_SCAN_SHARING`
//! ([`hail_core::knobs::scan_sharing_enabled`]) to opt out: every read degrades to
//! today's independent path with identical results.

use hail_index::IndexedBlock;
use hail_mr::InFlightBlocks;
use hail_sync::{LockRank, OrderedCondvar, OrderedMutex};
use hail_types::{BlockId, DatanodeId};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Retained produced-decode cap (entries, not bytes): a backstop for
/// registries running without an in-flight tracker, where no drain
/// signal bounds retention.
pub const RETAINED_CAP: usize = 256;

/// The access-path *shape* of a shareable decode: what the producer's
/// decode must have done for a consumer's residual to be valid against
/// it. Part of the registry key — reads with different shapes never
/// share.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShareShape {
    /// Full sequential replica read with checksum verification, parsed
    /// as an `IndexedBlock` (the PAX [`crate::path::FullScan`]).
    PaxVerified,
    /// Unverified whole-replica peek parsed as an `IndexedBlock` (the
    /// [`crate::path::ClusteredIndexScan`], which prices index +
    /// partition ranges itself).
    PaxPeek,
}

/// One decoded block, shareable across jobs. Immutable by construction:
/// consumers only read it.
#[derive(Clone)]
pub struct DecodedBlock {
    indexed: Arc<IndexedBlock>,
}

impl DecodedBlock {
    pub fn new(indexed: IndexedBlock) -> Self {
        DecodedBlock {
            indexed: Arc::new(indexed),
        }
    }

    pub fn indexed(&self) -> &IndexedBlock {
        &self.indexed
    }
}

/// Registry key: a decode is shareable only between reads of the same
/// block, from the same replica, with the same access-path shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShareKey {
    pub block: BlockId,
    pub replica: DatanodeId,
    pub shape: ShareShape,
}

/// Outcome of [`ScanShareRegistry::acquire`].
pub enum Acquired {
    /// This caller decoded the block; the decode is now published for
    /// others to attach to.
    Produced(DecodedBlock),
    /// Another job's decode served this caller.
    Attached(DecodedBlock),
    /// No shared decode is (or became) available — read independently.
    Fallback,
}

enum Entry {
    /// A producer is decoding; `waiters` callers block on the condvar.
    InFlight,
    /// A published decode, retained for late attachers.
    Produced { decoded: DecodedBlock, tick: u64 },
}

/// RAII ownership of an [`Entry::InFlight`] marker: while `armed`,
/// dropping (including during panic unwinding) removes the marker and
/// wakes waiters so they fall back to independent reads.
struct MarkerCleanup<'a> {
    registry: &'a ScanShareRegistry,
    key: ShareKey,
    armed: bool,
}

impl Drop for MarkerCleanup<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.registry.entries.acquire().remove(&self.key);
            self.registry.published.notify_all();
        }
    }
}

#[derive(Default)]
struct Telemetry {
    produced: AtomicU64,
    attached: AtomicU64,
    fallback: AtomicU64,
}

/// Point-in-time registry counters (telemetry; see the module docs for
/// why these are outside the determinism contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShareStats {
    /// Physical decodes performed through the registry.
    pub produced: u64,
    /// Reads served by attaching to another job's decode.
    pub attached: u64,
    /// Reads that fell back to an independent path (producer failure).
    pub fallback: u64,
}

/// The shared block-read service. See the module docs for the
/// protocol; one registry is shared by every concurrent job whose
/// format carries it ([`crate::PlannedInputFormat::scan_share`]).
pub struct ScanShareRegistry {
    entries: OrderedMutex<HashMap<ShareKey, Entry>>,
    published: OrderedCondvar,
    tick: AtomicU64,
    telemetry: Telemetry,
    /// Trackers already subscribed to (ptr-identity dedup, so repeated
    /// batch wiring never stacks duplicate observers). Same leaf rank
    /// as `entries`; the two are never held together.
    attached_trackers: OrderedMutex<Vec<Weak<InFlightBlocks>>>,
}

impl fmt::Debug for ScanShareRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        f.debug_struct("ScanShareRegistry")
            .field("retained", &self.retained())
            .field("produced", &stats.produced)
            .field("attached", &stats.attached)
            .field("fallback", &stats.fallback)
            .finish()
    }
}

impl Default for ScanShareRegistry {
    fn default() -> Self {
        ScanShareRegistry {
            entries: OrderedMutex::new(
                LockRank::ShareRegistry,
                "scan-share-entries",
                HashMap::new(),
            ),
            published: OrderedCondvar::new(),
            tick: AtomicU64::new(0),
            telemetry: Telemetry::default(),
            attached_trackers: OrderedMutex::new(
                LockRank::ShareRegistry,
                "scan-share-trackers",
                Vec::new(),
            ),
        }
    }
}

impl ScanShareRegistry {
    pub fn new() -> Self {
        ScanShareRegistry::default()
    }

    /// One shared read of `key`: attach to a published decode, wait for
    /// an in-flight producer, or become the producer by running
    /// `produce` (outside the registry lock). A producer error — or
    /// panic — removes the marker and wakes waiters with
    /// [`Acquired::Fallback`]; the error itself is returned only to the
    /// producer, so each caller still surfaces its own failures.
    pub fn acquire<E>(
        &self,
        key: ShareKey,
        produce: impl FnOnce() -> std::result::Result<DecodedBlock, E>,
    ) -> std::result::Result<Acquired, E> {
        {
            let mut entries = self.entries.acquire();
            loop {
                match entries.get(&key) {
                    Some(Entry::Produced { decoded, .. }) => {
                        self.telemetry.attached.fetch_add(1, Ordering::Relaxed);
                        return Ok(Acquired::Attached(decoded.clone()));
                    }
                    Some(Entry::InFlight) => {
                        // Producer in flight: wait for it to publish or
                        // fail. The condvar releases the registry lock,
                        // and the producer never blocks on the registry
                        // while decoding, so this always makes progress.
                        entries = self.published.wait(entries);
                        if entries.get(&key).is_none() {
                            // Producer failed and removed its marker:
                            // read independently rather than racing to
                            // re-produce behind its error.
                            self.telemetry.fallback.fetch_add(1, Ordering::Relaxed);
                            return Ok(Acquired::Fallback);
                        }
                    }
                    None => {
                        entries.insert(key, Entry::InFlight);
                        break;
                    }
                }
            }
        }
        // From here this caller owns the in-flight marker. The cleanup
        // guard removes it and wakes waiters on *any* exit that did not
        // publish — error return or unwinding panic alike — so a dying
        // producer can never strand waiters on a marker nobody owns.
        let mut cleanup = MarkerCleanup {
            registry: self,
            key,
            armed: true,
        };
        // Produce outside the lock (this is the actual read + decode,
        // exactly as an independent read performs it).
        let decoded = produce()?;
        cleanup.armed = false;
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut entries = self.entries.acquire();
        entries.insert(
            key,
            Entry::Produced {
                decoded: decoded.clone(),
                tick,
            },
        );
        self.enforce_cap(&mut entries);
        drop(entries);
        self.published.notify_all();
        self.telemetry.produced.fetch_add(1, Ordering::Relaxed);
        Ok(Acquired::Produced(decoded))
    }

    /// Evicts every published decode of the given blocks (the in-flight
    /// tracker's drain signal: no admitted job wants them any more).
    /// In-flight markers are left alone — their producer's job still
    /// holds its own interest.
    pub fn evict_blocks(&self, blocks: &[BlockId]) {
        let mut entries = self.entries.acquire();
        entries.retain(|key, entry| {
            !(matches!(entry, Entry::Produced { .. }) && blocks.contains(&key.block))
        });
    }

    /// Drops every published decode. **Must** be called after in-place
    /// replica rewrites (`apply_reindex`): the registry keys on (block,
    /// replica, shape), not content, so a rewrite would otherwise serve
    /// stale decodes to later attachers.
    pub fn clear(&self) {
        self.entries
            .acquire()
            .retain(|_, entry| matches!(entry, Entry::InFlight));
    }

    /// Number of currently retained published decodes.
    pub fn retained(&self) -> usize {
        self.entries
            .acquire()
            .values()
            .filter(|e| matches!(e, Entry::Produced { .. }))
            .count()
    }

    /// Point-in-time telemetry counters.
    pub fn stats(&self) -> ShareStats {
        ShareStats {
            produced: self.telemetry.produced.load(Ordering::Relaxed),
            attached: self.telemetry.attached.load(Ordering::Relaxed),
            fallback: self.telemetry.fallback.load(Ordering::Relaxed),
        }
    }

    /// Subscribes this registry to a manager's in-flight tracker:
    /// drained blocks evict their retained decodes, bounding sharing
    /// windows to admission windows. Idempotent per (registry, tracker)
    /// pair — re-wiring the same batch infrastructure never stacks
    /// observers.
    pub fn attach_in_flight(self: &Arc<Self>, tracker: &Arc<InFlightBlocks>) {
        {
            let mut attached = self.attached_trackers.acquire();
            attached.retain(|w| w.strong_count() > 0);
            if attached
                .iter()
                .any(|w| w.upgrade().is_some_and(|t| Arc::ptr_eq(&t, tracker)))
            {
                return;
            }
            attached.push(Arc::downgrade(tracker));
        }
        let registry = Arc::downgrade(self);
        tracker.on_drained(move |blocks| {
            if let Some(registry) = registry.upgrade() {
                registry.evict_blocks(blocks);
            }
        });
    }

    fn enforce_cap(&self, entries: &mut HashMap<ShareKey, Entry>) {
        loop {
            let produced = entries
                .iter()
                .filter_map(|(k, e)| match e {
                    Entry::Produced { tick, .. } => Some((*tick, *k)),
                    Entry::InFlight => None,
                })
                .collect::<Vec<_>>();
            if produced.len() <= RETAINED_CAP {
                return;
            }
            if let Some(&(_, oldest)) = produced.iter().min_by_key(|(tick, _)| *tick) {
                entries.remove(&oldest);
            } else {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hail_pax::PaxBlockBuilder;
    use hail_types::{DataType, Field, HailError, Result, Schema, StorageConfig};

    fn decoded_block() -> DecodedBlock {
        let schema = Schema::new(vec![Field::new("k", DataType::Int)]).unwrap();
        let mut builder = PaxBlockBuilder::new(schema, StorageConfig::default());
        for line in ["1", "2", "3"] {
            builder.push_line(line).unwrap();
        }
        let pax = builder.finish().unwrap();
        DecodedBlock::new(IndexedBlock::assemble(pax, None).unwrap())
    }

    fn key(block: BlockId) -> ShareKey {
        ShareKey {
            block,
            replica: 0,
            shape: ShareShape::PaxVerified,
        }
    }

    #[test]
    fn produce_then_attach_then_evict() {
        let reg = Arc::new(ScanShareRegistry::new());
        let got = reg
            .acquire::<HailError>(key(1), || Ok(decoded_block()))
            .unwrap();
        assert!(matches!(got, Acquired::Produced(_)));
        // Second acquire attaches without invoking produce.
        let got = reg
            .acquire::<HailError>(key(1), || panic!("must not re-produce"))
            .unwrap();
        assert!(matches!(got, Acquired::Attached(_)));
        assert_eq!(reg.stats().produced, 1);
        assert_eq!(reg.stats().attached, 1);
        assert_eq!(reg.retained(), 1);

        // A different shape is a different key.
        let other = ShareKey {
            shape: ShareShape::PaxPeek,
            ..key(1)
        };
        let got = reg
            .acquire::<HailError>(other, || Ok(decoded_block()))
            .unwrap();
        assert!(matches!(got, Acquired::Produced(_)));

        reg.evict_blocks(&[1]);
        assert_eq!(reg.retained(), 0);
        let got = reg
            .acquire::<HailError>(key(1), || Ok(decoded_block()))
            .unwrap();
        assert!(matches!(got, Acquired::Produced(_)));
    }

    #[test]
    fn producer_failure_falls_back_waiters_and_heals() {
        let reg = Arc::new(ScanShareRegistry::new());
        let barrier = Arc::new(std::sync::Barrier::new(2));

        std::thread::scope(|scope| {
            let producer_reg = Arc::clone(&reg);
            let producer_barrier = Arc::clone(&barrier);
            let producer = scope.spawn(move || {
                producer_reg.acquire(key(9), || -> Result<DecodedBlock> {
                    producer_barrier.wait(); // waiter is about to queue
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    Err(HailError::DeadDatanode(0))
                })
            });
            barrier.wait();
            // This caller finds the in-flight marker and waits; the
            // producer's failure must wake it with Fallback.
            let got = reg
                .acquire::<HailError>(key(9), || panic!("waiter never produces"))
                .unwrap();
            assert!(matches!(got, Acquired::Fallback));
            assert!(matches!(
                producer.join().unwrap(),
                Err(HailError::DeadDatanode(0))
            ));
        });

        // The failed key self-heals: the next acquire produces afresh.
        let got = reg
            .acquire::<HailError>(key(9), || Ok(decoded_block()))
            .unwrap();
        assert!(matches!(got, Acquired::Produced(_)));
        assert_eq!(reg.stats().fallback, 1);
    }

    #[test]
    fn producer_panic_unstrands_waiters_and_heals() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let reg = Arc::new(ScanShareRegistry::new());
        let barrier = Arc::new(std::sync::Barrier::new(2));

        std::thread::scope(|scope| {
            let producer_reg = Arc::clone(&reg);
            let producer_barrier = Arc::clone(&barrier);
            let producer = scope.spawn(move || {
                catch_unwind(AssertUnwindSafe(|| {
                    let _ = producer_reg.acquire(key(11), || -> Result<DecodedBlock> {
                        producer_barrier.wait(); // waiter is about to queue
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        panic!("producer dies mid-decode");
                    });
                }))
            });
            barrier.wait();
            // Without the RAII marker cleanup this wait would hang
            // forever on the stranded InFlight marker.
            let got = reg
                .acquire::<HailError>(key(11), || panic!("waiter never produces"))
                .unwrap();
            assert!(matches!(got, Acquired::Fallback));
            assert!(producer.join().unwrap().is_err(), "producer panicked");
        });

        // The panicked key self-heals: the next acquire produces afresh.
        let got = reg
            .acquire::<HailError>(key(11), || Ok(decoded_block()))
            .unwrap();
        assert!(matches!(got, Acquired::Produced(_)));
        assert_eq!(reg.stats().fallback, 1);
    }

    #[test]
    fn clear_drops_everything_and_cap_bounds_retention() {
        let reg = ScanShareRegistry::new();
        for b in 0..(RETAINED_CAP as u64 + 10) {
            reg.acquire::<HailError>(key(b), || Ok(decoded_block()))
                .unwrap();
        }
        assert_eq!(reg.retained(), RETAINED_CAP);
        // The oldest entries were the ones evicted.
        assert!(matches!(
            reg.acquire::<HailError>(key(0), || Ok(decoded_block()))
                .unwrap(),
            Acquired::Produced(_)
        ));
        reg.clear();
        assert_eq!(reg.retained(), 0);
    }

    #[test]
    fn drain_signal_evicts_via_attached_tracker() {
        let reg = Arc::new(ScanShareRegistry::new());
        let tracker = Arc::new(InFlightBlocks::new());
        reg.attach_in_flight(&tracker);
        reg.attach_in_flight(&tracker); // idempotent
        assert_eq!(tracker.observer_count(), 1);

        let guard = tracker.register(&[3]);
        reg.acquire::<HailError>(key(3), || Ok(decoded_block()))
            .unwrap();
        assert_eq!(reg.retained(), 1);
        drop(guard); // drains block 3 → evicts its decode
        assert_eq!(reg.retained(), 0);
    }
}
