//! Shared by the integration tests that sweep scan sharing on and off.

use hail::prelude::*;
use hail_bench::SharedJobInfra;
use hail_exec::ScanShareRegistry;
use std::sync::Arc;

/// Every `(scan sharing, jobs in flight)` setting the managed sweeps
/// run: sharing on and off — the two `HAIL_DISABLE_SCAN_SHARING`
/// settings — at concurrency 1, 2 and 4.
pub fn settings() -> impl Iterator<Item = (bool, usize)> {
    [true, false]
        .into_iter()
        .flat_map(|sharing| [1, 2, 4].map(|conc| (sharing, conc)))
}

/// Infrastructure for `max_jobs` concurrent jobs with serial executors,
/// sized as `shared_job_pool` sizes it, whose pool carries a scan-share
/// registry exactly when `sharing` — whatever the environment says.
pub fn infra(max_jobs: usize, sharing: bool) -> SharedJobInfra {
    let pool = JobPool::new(JobPoolConfig {
        workers: max_jobs,
        budget: max_jobs,
        per_node_slots: None,
    })
    .with_scan_share(sharing.then(|| Arc::new(ScanShareRegistry::new())));
    SharedJobInfra {
        plan_cache: Arc::new(PlanCache::default()),
        feedback: Some(Arc::new(SelectivityFeedback::default())),
        pool: Arc::new(pool),
    }
}
