//! What is left of cooperative scan sharing: an empty registry the
//! `hail-bench` suite still names. The engine reads every block with one
//! plain [`crate::AccessPath::execute`]; see ARCHITECTURE.md, "Scan
//! sharing, measured and removed".

use std::sync::PoisonError;

/// Kept as frozen-suite residue: the `hail-bench` suite times
/// [`ScanShareRegistry::retained`] as its `sync.ordered_mutex_acquire_ns`
/// probe. Nothing in the engine builds one.
#[derive(Debug, Default)]
pub struct ScanShareRegistry {
    #[allow(
        clippy::disallowed_types,
        reason = "frozen-suite residue: the suite times one uncontended acquire; a leaf lock"
    )]
    lock: std::sync::Mutex<()>,
}

impl ScanShareRegistry {
    pub fn new() -> Self {
        ScanShareRegistry::default()
    }

    /// Always 0. Takes the registry's lock once, uncontended, and
    /// nothing else, so the probe that times it still times one mutex
    /// acquire.
    pub fn retained(&self) -> usize {
        drop(self.lock.lock().unwrap_or_else(PoisonError::into_inner));
        0
    }
}
