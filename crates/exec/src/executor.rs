//! The parallel executors: an intra-split worker pool
//! ([`ExecutorContext`]) fanning one split's independent block reads
//! across OS threads, and a job-level work-stealing pool ([`JobPool`])
//! overlapping whole splits across the job — every read still going
//! through the single [`crate::path::AccessPath::execute`] seam.
//!
//! HAIL's planning layer makes each block read cheap; this module makes
//! the cheap reads *compound*: a multi-block split (the product of
//! `HailSplitting`, §4.3) no longer serializes its block reads on one
//! thread. The design constraints, in order:
//!
//! 1. **Determinism.** Results are merged in split order regardless of
//!    completion order, and `TaskStats` merging is associative, so a
//!    run at any parallelism is bit-for-bit identical to the serial
//!    run — same records in the same order, same statistics, same
//!    simulated-clock costs. `parallelism = 1` takes the exact
//!    pre-executor code path (no worker threads, no buffering).
//! 2. **One seam.** Workers share one `Sync` [`crate::QueryPlanner`]
//!    handle and call `execute_block` exactly as the serial path does;
//!    no read bypasses the planner.
//! 3. **Slot accounting.** The scheduler's simulated per-node
//!    `NodeSlots` accounting is untouched (simulated time never depends
//!    on real parallelism); the executor optionally mirrors that
//!    discipline at the physical layer with a per-node slot gate
//!    bounding concurrent reads against any single datanode.
//!
//! Errors are deterministic too: the error of the **lowest-indexed**
//! failing block is reported, so the winner of a completion race never
//! changes what the caller sees. Tasks above a known failure are
//! skipped (their results could never influence the outcome); tasks
//! below it always run, in case one fails at a lower index still.

use crate::sharing::ScanShareRegistry;
use hail_sync::{LockRank, OrderedCondvar, OrderedMutex};
use hail_types::{DatanodeId, Result};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Executor knobs: worker-pool width and the optional per-node slot
/// cap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutorConfig {
    /// Worker threads fanning out one split's block reads. `1` is
    /// serial execution on the caller's thread (the exact pre-executor
    /// behavior).
    pub parallelism: usize,
    /// Maximum concurrent block reads against any one datanode, the
    /// physical-layer analog of the scheduler's per-node `SlotPool`
    /// accounting. `None` (default) lets the worker pool alone bound
    /// concurrency.
    pub per_node_slots: Option<usize>,
}

impl Default for ExecutorConfig {
    /// Serial unless the `HAIL_PARALLELISM` knob
    /// ([`hail_core::knobs::parallelism`]) overrides, no per-node cap.
    fn default() -> Self {
        ExecutorConfig {
            parallelism: hail_core::knobs::parallelism(),
            per_node_slots: None,
        }
    }
}

impl ExecutorConfig {
    /// Strictly serial execution, ignoring the environment override.
    pub fn serial() -> Self {
        ExecutorConfig {
            parallelism: 1,
            per_node_slots: None,
        }
    }

    /// A pool of `parallelism` workers (clamped to at least 1).
    pub fn with_parallelism(parallelism: usize) -> Self {
        ExecutorConfig {
            parallelism: parallelism.max(1),
            per_node_slots: None,
        }
    }

    /// Builder-style per-node slot cap.
    pub fn with_per_node_slots(mut self, slots: usize) -> Self {
        self.per_node_slots = Some(slots.max(1));
        self
    }
}

/// Per-node in-flight read accounting: the executor-layer counterpart
/// of the scheduler's `NodeSlots`, bounding how many workers read from
/// one datanode at once. (The scheduler's simulated slot pools are
/// about *when* tasks run in simulated time; this gate is about real
/// I/O concurrency against one node's disk.)
///
/// Since the job-overlap change the gate is **shared job-wide**: one
/// instance, owned by the [`JobPool`], bounds the combined pressure of
/// every concurrently executing split (and their intra-split workers)
/// against any single datanode — not just one split's. Permits are
/// held only for the duration of a single block read (never across
/// blocks, never while waiting on another permit), so the gate cannot
/// deadlock; its mutex sits at [`LockRank::NodeGate`] — strictly below
/// the `JobPool`'s scheduling state and strictly above the planner's
/// locks (enforced by `hail-sync`; see ARCHITECTURE.md, "Concurrency
/// invariants & enforcement").
#[derive(Debug)]
pub struct NodeGate {
    in_flight: OrderedMutex<BTreeMap<DatanodeId, usize>>,
    freed: OrderedCondvar,
    slots_per_node: usize,
}

impl NodeGate {
    /// A gate admitting at most `slots_per_node` concurrent reads
    /// against any one datanode (clamped to at least 1).
    pub fn new(slots_per_node: usize) -> Self {
        NodeGate {
            in_flight: OrderedMutex::new(LockRank::NodeGate, "node-gate", BTreeMap::new()),
            freed: OrderedCondvar::new(),
            slots_per_node: slots_per_node.max(1),
        }
    }

    /// Blocks until `node` has a free slot, then occupies one. The
    /// returned guard frees the slot on drop.
    pub fn acquire(&self, node: DatanodeId) -> NodePermit<'_> {
        let mut counts = self.in_flight.acquire();
        while counts.get(&node).copied().unwrap_or(0) >= self.slots_per_node {
            counts = self.freed.wait(counts);
        }
        *counts.entry(node).or_insert(0) += 1;
        NodePermit { gate: self, node }
    }
}

/// RAII slot occupation; releasing wakes blocked workers.
pub struct NodePermit<'a> {
    gate: &'a NodeGate,
    node: DatanodeId,
}

impl Drop for NodePermit<'_> {
    fn drop(&mut self) {
        let mut counts = self.gate.in_flight.acquire();
        if let Some(n) = counts.get_mut(&self.node) {
            *n = n.saturating_sub(1);
        }
        self.gate.freed.notify_all();
    }
}

/// A scoped worker pool executing independent indexed tasks.
///
/// One context is built per split read; its workers live only for the
/// duration of [`ExecutorContext::run`] (via [`std::thread::scope`]),
/// so borrowed planner/cluster state needs no `'static` bounds and no
/// threads outlive the read.
#[derive(Debug, Clone)]
pub struct ExecutorContext {
    config: ExecutorConfig,
    /// A job-wide [`NodeGate`] this context gates through instead of
    /// building its own per-read gate from
    /// [`ExecutorConfig::per_node_slots`]. Set by the [`JobPool`] so
    /// concurrent splits share one per-node bound.
    shared_gate: Option<Arc<NodeGate>>,
    /// The cross-job scan-share registry, when this context executes a
    /// managed job whose block decodes may be shared with other
    /// in-flight jobs ([`crate::sharing`]). `None` reads every block
    /// independently.
    scan_share: Option<Arc<ScanShareRegistry>>,
}

impl ExecutorContext {
    pub fn new(config: ExecutorConfig) -> Self {
        ExecutorContext {
            config,
            shared_gate: None,
            scan_share: None,
        }
    }

    /// A serial context (parallelism 1).
    pub fn serial() -> Self {
        ExecutorContext::new(ExecutorConfig::serial())
    }

    /// Builder-style job-wide gate: when set, every read of this
    /// context acquires permits from `gate` (shared with the rest of
    /// the job) rather than a private per-read gate, and
    /// [`ExecutorConfig::per_node_slots`] is ignored.
    pub fn with_shared_gate(mut self, gate: Option<Arc<NodeGate>>) -> Self {
        self.shared_gate = gate;
        self
    }

    /// The configured worker count.
    pub fn parallelism(&self) -> usize {
        self.config.parallelism.max(1)
    }

    /// True if a job-wide [`NodeGate`] is attached to this context.
    pub fn has_shared_gate(&self) -> bool {
        self.shared_gate.is_some()
    }

    /// Builder-style scan-share registry: when set, block reads driven
    /// by this context may attach to (or produce for) decodes shared
    /// with other in-flight jobs.
    pub fn with_scan_share(mut self, scan_share: Option<Arc<ScanShareRegistry>>) -> Self {
        self.scan_share = scan_share;
        self
    }

    /// The attached cross-job scan-share registry, if any.
    pub fn scan_share(&self) -> Option<&Arc<ScanShareRegistry>> {
        self.scan_share.as_ref()
    }

    /// The worker count that would actually run `n` tasks.
    pub fn workers_for(&self, n: usize) -> usize {
        self.parallelism().min(n).max(1)
    }

    /// Runs tasks `0..n`, returning their results **in index order**.
    ///
    /// `node_of(i)` names the datanode task `i` reads from, consulted
    /// only when a [`ExecutorConfig::per_node_slots`] cap is set.
    /// With one worker the tasks run sequentially on the caller's
    /// thread; otherwise workers pull indices from a shared counter and
    /// write results into per-index slots, and the merge replays them
    /// in index order. On failure the error of the lowest-indexed
    /// failing task is returned — independent of completion order:
    /// once a failure at index `f` is known, workers skip every task
    /// above `f` (those can never influence the result), while tasks
    /// below `f` still run in case one of them fails at a lower index.
    pub fn run<T, F, N>(&self, n: usize, node_of: N, task: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(usize) -> Result<T> + Sync,
        N: Fn(usize) -> Option<DatanodeId> + Sync,
    {
        let workers = self.workers_for(n);
        if workers <= 1 {
            if let Some(gate) = &self.shared_gate {
                // Serial read inside a parallel job: same in-order,
                // stop-at-first-error semantics, but each block read
                // still takes a permit from the job-wide gate so
                // concurrent splits respect the shared per-node bound.
                return (0..n)
                    .map(|i| {
                        let _permit = node_of(i).map(|node| gate.acquire(node));
                        task(i)
                    })
                    .collect();
            }
            // Serial: the exact historical behavior, in-order on the
            // calling thread, stopping at the first error.
            return (0..n).map(task).collect();
        }

        let own_gate = if self.shared_gate.is_none() {
            self.config.per_node_slots.map(NodeGate::new)
        } else {
            None
        };
        let gate: Option<&NodeGate> = self.shared_gate.as_deref().or(own_gate.as_ref());
        let next = AtomicUsize::new(0);
        // Lowest failing index seen so far (monotonically decreasing).
        let failed_at = AtomicUsize::new(usize::MAX);
        let slots: Vec<OrderedMutex<Option<Result<T>>>> = (0..n)
            .map(|_| OrderedMutex::new(LockRank::PoolDeque, "executor-task-slot", None))
            .collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    // Indices are pulled in increasing order, so once i
                    // passes n or a known failure there is nothing
                    // smaller left to pull: stop instead of burning
                    // I/O on results the merge would discard.
                    if i >= n || i > failed_at.load(Ordering::Relaxed) {
                        break;
                    }
                    let _permit = gate.and_then(|g| node_of(i).map(|node| g.acquire(node)));
                    let result = task(i);
                    if result.is_err() {
                        failed_at.fetch_min(i, Ordering::Relaxed);
                    }
                    *slots[i].acquire() = Some(result);
                });
            }
        });

        // Merge in index order. Every slot below the final failed_at is
        // filled (skipping requires being above a failure), so the
        // lowest-index error is always reached before any skipped slot.
        let mut out = Vec::with_capacity(n);
        for slot in slots {
            let result = slot
                .into_inner()
                .expect("executor worker left a pre-failure task slot unfilled");
            out.push(result?);
        }
        Ok(out)
    }
}

/// A job's global thread budget, shared between the [`JobPool`]'s
/// split-level workers and the intra-split [`ExecutorContext`] workers
/// each split read spawns: the total number of concurrently running
/// executor threads never exceeds `total`.
///
/// The pool seeds the counter with its split workers; each split read
/// then *claims* extra intra-split workers from whatever is left
/// ([`SplitLease::claim_intra`]) and releases them when the read
/// finishes. A split worker whose deque (and every steal target) has
/// drained releases its own seed share too, so late, long splits can
/// widen their intra-split fan-out as the job tail empties.
#[derive(Debug)]
pub struct ParallelismBudget {
    total: usize,
    in_use: AtomicUsize,
}

impl ParallelismBudget {
    /// A budget of `total` concurrent threads (clamped to at least 1).
    pub fn new(total: usize) -> Self {
        ParallelismBudget {
            total: total.max(1),
            in_use: AtomicUsize::new(0),
        }
    }

    /// The budget's ceiling.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Threads currently accounted against the budget.
    pub fn in_use(&self) -> usize {
        self.in_use.load(Ordering::Relaxed)
    }

    /// Claims up to `want` threads, returning how many were granted
    /// (possibly 0 — never blocks).
    fn claim(&self, want: usize) -> usize {
        let mut current = self.in_use.load(Ordering::Relaxed);
        loop {
            let granted = want.min(self.total.saturating_sub(current));
            if granted == 0 {
                return 0;
            }
            match self.in_use.compare_exchange_weak(
                current,
                current + granted,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return granted,
                Err(now) => current = now,
            }
        }
    }

    /// [`ParallelismBudget::claim`], but always grants at least one
    /// thread even on a fully claimed budget — a [`JobPool::run`] call
    /// must make progress on the caller's thread no matter what. With
    /// `k` concurrent `run` calls sharing one pool, combined threads
    /// exceed `total` by at most `k − 1` (one guaranteed worker each);
    /// a single run never exceeds the budget.
    fn claim_workers(&self, want: usize) -> usize {
        let mut current = self.in_use.load(Ordering::Relaxed);
        loop {
            let granted = want.min(self.total.saturating_sub(current)).max(1);
            match self.in_use.compare_exchange_weak(
                current,
                current + granted,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return granted,
                Err(now) => current = now,
            }
        }
    }

    fn release(&self, n: usize) {
        if n > 0 {
            self.in_use.fetch_sub(n, Ordering::Relaxed);
        }
    }
}

/// Extra intra-split workers claimed from a [`ParallelismBudget`];
/// released on drop.
#[derive(Debug)]
pub struct IntraClaim<'a> {
    budget: &'a ParallelismBudget,
    granted: usize,
}

impl IntraClaim<'_> {
    /// Total workers the split read may use: the caller's own thread
    /// plus every extra thread granted.
    pub fn workers(&self) -> usize {
        1 + self.granted
    }
}

impl Drop for IntraClaim<'_> {
    fn drop(&mut self) {
        self.budget.release(self.granted);
    }
}

/// What a [`JobPool`] worker hands each split task: access to the
/// job-wide budget (for intra-split worker claims) and the shared
/// per-node gate.
#[derive(Debug, Clone, Copy)]
pub struct SplitLease<'a> {
    budget: &'a ParallelismBudget,
    gate: Option<&'a Arc<NodeGate>>,
    scan_share: Option<&'a Arc<ScanShareRegistry>>,
}

impl<'a> SplitLease<'a> {
    /// Claims intra-split workers toward `want` total (including the
    /// split's own thread) from the job's global budget. Never blocks;
    /// grants whatever is free, down to just the caller's own thread.
    pub fn claim_intra(&self, want: usize) -> IntraClaim<'a> {
        IntraClaim {
            budget: self.budget,
            granted: self.budget.claim(want.max(1) - 1),
        }
    }

    /// The job-wide per-node gate, if the job configured one.
    pub fn shared_gate(&self) -> Option<Arc<NodeGate>> {
        self.gate.cloned()
    }

    /// The pool's cross-job scan-share registry, if one is attached.
    pub fn scan_share(&self) -> Option<Arc<ScanShareRegistry>> {
        self.scan_share.cloned()
    }
}

/// [`JobPool`] knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPoolConfig {
    /// Split-level workers: how many whole splits may execute at once.
    pub workers: usize,
    /// Global thread budget shared by split workers and their
    /// intra-split claims (raised to at least `workers`).
    pub budget: usize,
    /// Per-node concurrent-read cap, enforced by one job-wide
    /// [`NodeGate`] across every split. `None` disables gating.
    pub per_node_slots: Option<usize>,
}

/// The job-level work-stealing pool: [`ExecutorContext`] generalized
/// from "blocks of one split" to "splits of one job".
///
/// Each worker owns a deque seeded with a round-robin share of the
/// split indices; it drains its own deque from the front and, when
/// empty, steals from the back of a sibling's. Three properties carry
/// over from the intra-split executor unchanged:
///
/// 1. **Deterministic results** — per-split results land in index
///    slots and are merged in split order, never completion order.
/// 2. **Deterministic errors** — the lowest-indexed failure wins;
///    splits above a known failure are skipped, splits below it always
///    run.
/// 3. **One budget** — the pool's split workers and every intra-split
///    worker they claim share one [`ParallelismBudget`], so
///    `HAIL_PARALLELISM`-style knobs bound *total* threads, not
///    threads per layer. The per-node [`NodeGate`] is likewise shared
///    job-wide.
#[derive(Debug)]
pub struct JobPool {
    workers: usize,
    budget: ParallelismBudget,
    gate: Option<Arc<NodeGate>>,
    scan_share: Option<Arc<ScanShareRegistry>>,
}

impl JobPool {
    pub fn new(config: JobPoolConfig) -> Self {
        let workers = config.workers.max(1);
        JobPool {
            workers,
            budget: ParallelismBudget::new(config.budget.max(workers)),
            gate: config
                .per_node_slots
                .map(|slots| Arc::new(NodeGate::new(slots))),
            scan_share: None,
        }
    }

    /// Builder-style cross-job scan-share registry: a pool shared by
    /// concurrent managed jobs attaches one so overlapping block
    /// decodes are produced once and shared ([`crate::sharing`]).
    pub fn with_scan_share(mut self, scan_share: Option<Arc<ScanShareRegistry>>) -> Self {
        self.scan_share = scan_share;
        self
    }

    /// The pool's cross-job scan-share registry, if one is attached.
    pub fn scan_share(&self) -> Option<&Arc<ScanShareRegistry>> {
        self.scan_share.as_ref()
    }

    /// The job-wide thread budget.
    pub fn budget(&self) -> &ParallelismBudget {
        &self.budget
    }

    /// Runs split tasks `0..n`, returning their results **in index
    /// order**; on failure the error of the lowest-indexed failing
    /// split is returned. Each task receives a [`SplitLease`] for
    /// claiming intra-split workers and the shared gate.
    pub fn run<T, F>(&self, n: usize, task: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(usize, &SplitLease<'_>) -> Result<T> + Sync,
    {
        self.run_capped(n, self.workers, task)
    }

    /// [`JobPool::run`] with the caller's split-level fan-out
    /// additionally capped at `cap` — the seam a pool shared across
    /// concurrent jobs needs. The pool's `workers` and budget stay the
    /// cluster-wide bound; each job passes its own `job_parallelism`
    /// as `cap` so one greedy job cannot monopolise the shared pool,
    /// and the additive budget claim squeezes simultaneous callers
    /// down to the global total. Results and errors are identical to
    /// [`JobPool::run`] at every `cap` — the cap only bounds overlap.
    pub fn run_capped<T, F>(&self, n: usize, cap: usize, task: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(usize, &SplitLease<'_>) -> Result<T> + Sync,
    {
        let workers = self.workers.min(cap.max(1)).min(n).max(1);
        // The split workers themselves occupy budget while they live —
        // claimed additively against the total (never `store`d), so a
        // pool shared across concurrent `run` calls both keeps a
        // consistent count and respects the global bound: a second
        // concurrent run is squeezed down to the budget's remainder
        // (but always gets one worker). Each parallel worker releases
        // its own seat on exit; the sequential path releases its single
        // seat itself.
        let workers = self.budget.claim_workers(workers);
        self.run_seeded(n, workers, &task)
    }

    fn run_seeded<T, F>(&self, n: usize, workers: usize, task: &F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(usize, &SplitLease<'_>) -> Result<T> + Sync,
    {
        if workers <= 1 {
            // Sequential: in split order on the caller's thread,
            // stopping at the first error — with budget and gate still
            // live so intra-split reads behave identically.
            let lease = SplitLease {
                budget: &self.budget,
                gate: self.gate.as_ref(),
                scan_share: self.scan_share.as_ref(),
            };
            let out = (0..n).map(|i| task(i, &lease)).collect();
            self.budget.release(1);
            return out;
        }

        // Per-worker deques, seeded round-robin so early (often larger,
        // often lower-indexed) splits start immediately everywhere.
        let deques: Vec<OrderedMutex<VecDeque<usize>>> = (0..workers)
            .map(|w| {
                OrderedMutex::new(
                    LockRank::PoolDeque,
                    "pool-deque",
                    (w..n).step_by(workers).collect(),
                )
            })
            .collect();
        // Lowest failing split index seen so far.
        let failed_at = AtomicUsize::new(usize::MAX);
        let slots: Vec<OrderedMutex<Option<Result<T>>>> = (0..n)
            .map(|_| OrderedMutex::new(LockRank::PoolDeque, "pool-split-slot", None))
            .collect();
        std::thread::scope(|scope| {
            for w in 0..workers {
                let deques = &deques;
                let slots = &slots;
                let failed_at = &failed_at;
                let lease = SplitLease {
                    budget: &self.budget,
                    gate: self.gate.as_ref(),
                    scan_share: self.scan_share.as_ref(),
                };
                scope.spawn(move || {
                    loop {
                        // Own deque first (front); when it drains,
                        // steal from the back of the first sibling
                        // still holding work. The task set is static
                        // (no pushes after seeding), so finding every
                        // deque empty means the job tail is done.
                        let mut next = deques[w].acquire().pop_front();
                        if next.is_none() {
                            for (v, d) in deques.iter().enumerate() {
                                if v == w {
                                    continue;
                                }
                                next = d.acquire().pop_back();
                                if next.is_some() {
                                    break;
                                }
                            }
                        }
                        let Some(i) = next else { break };
                        if i > failed_at.load(Ordering::Relaxed) {
                            // Past a known failure: skip (its result
                            // could never influence the outcome) but
                            // keep draining — lower indices may remain.
                            continue;
                        }
                        let result = task(i, &lease);
                        if result.is_err() {
                            failed_at.fetch_min(i, Ordering::Relaxed);
                        }
                        *slots[i].acquire() = Some(result);
                    }
                    // This worker is done: its budget share frees up
                    // for the surviving splits' intra-split claims.
                    self.budget.release(1);
                });
            }
        });

        // Merge in split order: every slot below the final failed_at is
        // filled, so the lowest-index error is reached before any
        // skipped (None) slot.
        let mut out = Vec::with_capacity(n);
        for slot in slots {
            let result = slot
                .into_inner()
                .expect("job pool worker left a pre-failure split slot unfilled");
            out.push(result?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hail_types::HailError;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_are_in_index_order_at_any_parallelism() {
        for parallelism in [1, 2, 4, 8] {
            let ctx = ExecutorContext::new(ExecutorConfig::with_parallelism(parallelism));
            let out = ctx
                .run(
                    17,
                    |_| None,
                    |i| {
                        // Finish later tasks first under contention.
                        if i % 3 == 0 {
                            std::thread::yield_now();
                        }
                        Ok(i * 10)
                    },
                )
                .unwrap();
            assert_eq!(out, (0..17).map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn lowest_index_error_wins() {
        let ctx = ExecutorContext::new(ExecutorConfig::with_parallelism(4));
        let err = ctx
            .run(
                16,
                |_| None,
                |i| {
                    if i == 11 || i == 3 {
                        Err(HailError::Job(format!("task {i}")))
                    } else {
                        Ok(i)
                    }
                },
            )
            .unwrap_err();
        assert_eq!(err.to_string(), HailError::Job("task 3".into()).to_string());
    }

    #[test]
    fn serial_runs_on_caller_thread_and_stops_at_first_error() {
        let ctx = ExecutorContext::serial();
        let caller = std::thread::current().id();
        let ran = AtomicUsize::new(0);
        let err = ctx
            .run(
                10,
                |_| None,
                |i| {
                    assert_eq!(std::thread::current().id(), caller);
                    ran.fetch_add(1, Ordering::Relaxed);
                    if i == 4 {
                        Err(HailError::Job("boom".into()))
                    } else {
                        Ok(())
                    }
                },
            )
            .unwrap_err();
        assert!(err.to_string().contains("boom"));
        // Old behavior: nothing past the failing block runs.
        assert_eq!(ran.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn known_failure_skips_higher_indexed_tasks() {
        use std::sync::atomic::AtomicBool;
        let ctx = ExecutorContext::new(ExecutorConfig::with_parallelism(4));
        let ran = AtomicUsize::new(0);
        // Tasks other than the failing one block until the failure has
        // *started*, then linger long enough for it to be recorded —
        // so no worker can pull a second task before the skip flag is
        // set, and the run-count bound is workers, not wall clock.
        let failing_started = AtomicBool::new(false);
        let err = ctx
            .run(
                40,
                |_| None,
                |i| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    if i == 0 {
                        failing_started.store(true, Ordering::SeqCst);
                        Err(HailError::Job("early".into()))
                    } else {
                        let deadline =
                            std::time::Instant::now() + std::time::Duration::from_secs(5);
                        while !failing_started.load(Ordering::SeqCst)
                            && std::time::Instant::now() < deadline
                        {
                            std::thread::yield_now();
                        }
                        std::thread::sleep(std::time::Duration::from_millis(5));
                        Ok(i)
                    }
                },
            )
            .unwrap_err();
        assert!(err.to_string().contains("early"));
        let ran = ran.load(Ordering::SeqCst);
        // Typically exactly `workers` tasks start (the non-failing
        // ones park on the flag until the failure is underway), but
        // the recording races the linger, so only assert what cannot
        // flake on an oversubscribed machine: at least one task above
        // the failure was skipped.
        assert!(
            ran < 40,
            "tasks above a known failure should be skipped, ran {ran}/40"
        );
    }

    #[test]
    fn per_node_slot_gate_bounds_concurrency() {
        let ctx = ExecutorContext::new(ExecutorConfig::with_parallelism(8).with_per_node_slots(2));
        let in_flight = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        // All 24 tasks target the same node: the gate must keep at most
        // 2 concurrent despite 8 workers.
        ctx.run(
            24,
            |_| Some(0),
            |_| {
                let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(1));
                in_flight.fetch_sub(1, Ordering::SeqCst);
                Ok(())
            },
        )
        .unwrap();
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "peak {} exceeded the per-node cap",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn distinct_nodes_do_not_contend_for_slots() {
        let ctx = ExecutorContext::new(ExecutorConfig::with_parallelism(4).with_per_node_slots(1));
        let peak = AtomicUsize::new(0);
        let in_flight = AtomicUsize::new(0);
        // Four tasks on four distinct nodes: all may run at once.
        ctx.run(4, Some, |_| {
            let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(2));
            in_flight.fetch_sub(1, Ordering::SeqCst);
            Ok(())
        })
        .unwrap();
        assert!(
            peak.load(Ordering::SeqCst) >= 2,
            "distinct nodes blocked each other"
        );
    }

    #[test]
    fn config_defaults_and_builders() {
        assert_eq!(ExecutorConfig::serial().parallelism, 1);
        assert_eq!(ExecutorConfig::with_parallelism(0).parallelism, 1);
        let capped = ExecutorConfig::with_parallelism(4).with_per_node_slots(0);
        assert_eq!(capped.per_node_slots, Some(1));
        assert_eq!(ExecutorContext::new(capped).workers_for(2), 2);
    }

    fn pool(workers: usize, budget: usize) -> JobPool {
        JobPool::new(JobPoolConfig {
            workers,
            budget,
            per_node_slots: None,
        })
    }

    #[test]
    fn job_pool_results_in_index_order_at_any_width() {
        for workers in [1, 2, 4, 8] {
            let out = pool(workers, workers)
                .run(19, |i, _| {
                    if i % 3 == 0 {
                        std::thread::yield_now();
                    }
                    Ok(i * 7)
                })
                .unwrap();
            assert_eq!(out, (0..19).map(|i| i * 7).collect::<Vec<_>>());
        }
    }

    #[test]
    fn job_pool_lowest_index_error_wins() {
        let err = pool(4, 4)
            .run(16, |i, _| {
                if i == 2 || i == 13 {
                    Err(HailError::Job(format!("split {i}")))
                } else {
                    Ok(i)
                }
            })
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            HailError::Job("split 2".into()).to_string()
        );
    }

    /// With two workers and worker 0 stuck on its first split, its
    /// remaining deque entries must be stolen and completed by the
    /// sibling — the whole batch finishes, and the stolen indices run
    /// on a different thread than the stuck one.
    #[test]
    #[allow(
        clippy::disallowed_types,
        reason = "a test-only recorder, not an engine lock, so it carries no LockRank"
    )]
    fn job_pool_steals_drained_work() {
        use std::sync::Mutex as StdMutex;
        let ran_by: StdMutex<BTreeMap<usize, std::thread::ThreadId>> =
            StdMutex::new(BTreeMap::new());
        pool(2, 2)
            .run(8, |i, _| {
                if i == 0 {
                    // Worker 0's first task: hold it long enough for
                    // the sibling to drain everything else.
                    std::thread::sleep(std::time::Duration::from_millis(40));
                }
                ran_by
                    .lock()
                    .unwrap()
                    .insert(i, std::thread::current().id());
                Ok(i)
            })
            .unwrap();
        let ran_by = ran_by.into_inner().unwrap();
        assert_eq!(ran_by.len(), 8, "every split ran");
        // Indices 2,4,6 were seeded to the stuck worker's deque; at
        // least one must have been stolen by the other thread.
        let stuck = ran_by[&0];
        assert!(
            [2usize, 4, 6].iter().any(|i| ran_by[i] != stuck),
            "no split was stolen from the stuck worker"
        );
    }

    /// The global budget is shared: split workers plus every
    /// intra-split claim never exceed the total, and claims free up as
    /// splits (and then workers) finish.
    #[test]
    fn job_pool_budget_bounds_total_threads() {
        let p = pool(2, 4);
        let peak_in_use = AtomicUsize::new(0);
        p.run(12, |_, lease| {
            let claim = lease.claim_intra(100);
            // 2 split workers seeded + at most 2 extra grantable.
            assert!(claim.workers() <= 3);
            let now = p.budget().in_use();
            peak_in_use.fetch_max(now, Ordering::SeqCst);
            assert!(now <= p.budget().total());
            Ok(())
        })
        .unwrap();
        assert!(peak_in_use.load(Ordering::SeqCst) <= 4);
        assert_eq!(p.budget().in_use(), 0, "budget fully released after run");
        // The budget never sinks below the worker count.
        assert_eq!(pool(4, 1).budget().total(), 4);
    }

    /// One job-wide gate bounds concurrent reads against a node across
    /// *splits*, not just within one — four concurrently executing
    /// splits all reading node 0 through their own `ExecutorContext`s
    /// never overlap when the shared gate has one slot.
    #[test]
    fn shared_gate_bounds_cross_split_concurrency() {
        let p = JobPool::new(JobPoolConfig {
            workers: 4,
            budget: 8,
            per_node_slots: Some(1),
        });
        let in_flight = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        p.run(4, |_, lease| {
            let ctx = ExecutorContext::new(ExecutorConfig::with_parallelism(2))
                .with_shared_gate(lease.shared_gate());
            ctx.run(
                3,
                |_| Some(0),
                |_| {
                    let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                    Ok(())
                },
            )
            .map(|_| ())
        })
        .unwrap();
        assert_eq!(
            peak.load(Ordering::SeqCst),
            1,
            "the job-wide gate must serialize all reads against node 0"
        );
    }
}
