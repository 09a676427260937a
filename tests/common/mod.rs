//! Shared by the integration tests that sweep scan sharing on and off.

use hail::prelude::*;
use hail_bench::SharedJobInfra;
use hail_exec::ScanShareRegistry;
use std::sync::Arc;

/// Every `(scan sharing, jobs in flight, job parallelism)` setting the
/// managed sweeps run: sharing on and off — the two
/// `HAIL_DISABLE_SCAN_SHARING` settings — at concurrency 1, 2 and 4,
/// where the two concurrent jobs at concurrency 2 also read two splits
/// each at once.
pub fn settings() -> impl Iterator<Item = (bool, usize, usize)> {
    [true, false]
        .into_iter()
        .flat_map(|sharing| [(1, 1), (2, 2), (4, 1)].map(|(conc, j)| (sharing, conc, j)))
}

/// Infrastructure whose scan-share registry exists exactly when
/// `sharing` — whatever the environment says.
pub fn infra(sharing: bool) -> SharedJobInfra {
    SharedJobInfra {
        plan_cache: Arc::new(PlanCache::default()),
        feedback: Some(Arc::new(SelectivityFeedback::default())),
        scan_share: sharing.then(|| Arc::new(ScanShareRegistry::new())),
    }
}
