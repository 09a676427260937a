//! What is left of cooperative scan sharing: an empty registry the
//! `hail-bench` suite still names. The engine reads every block with one
//! plain [`crate::AccessPath::execute`]; see ARCHITECTURE.md, "Scan
//! sharing, measured and removed".

use hail_sync::{LockRank, OrderedMutex};

/// Kept as frozen-suite residue: the `hail-bench` suite times
/// [`ScanShareRegistry::retained`] as its `sync.ordered_mutex_acquire_ns`
/// probe. Nothing in the engine builds one.
#[derive(Debug)]
pub struct ScanShareRegistry {
    lock: OrderedMutex<()>,
}

impl Default for ScanShareRegistry {
    fn default() -> Self {
        ScanShareRegistry {
            lock: OrderedMutex::new(LockRank::ShareRegistry, "scan-share-registry", ()),
        }
    }
}

impl ScanShareRegistry {
    pub fn new() -> Self {
        ScanShareRegistry::default()
    }

    /// Always 0. Takes the registry's lock once, uncontended, and
    /// nothing else, so the probe that times it still times one
    /// `OrderedMutex` acquire.
    pub fn retained(&self) -> usize {
        drop(self.lock.acquire());
        0
    }
}
