//! Observed selectivities: the [`SelectivityFeedback`] store, the
//! re-indexing advisor's evidence.
//!
//! Planning reads none of it. The [`crate::planner::QueryPlanner`]
//! prices every block from the namenode's main-memory `Dir_rep` (§4.3),
//! the query and the static [`crate::planner::SelectivityEstimate`]
//! alone, so no plan depends on another job. What this module keeps is
//! the evidence [`crate::adapt::ReindexAdvisor`] decides from:
//! [`SelectivityFeedback`] aggregates the observed per-block
//! selectivities that `AccessPath::execute` records into
//! `TaskStats::selectivity`, and the adaptive loop
//! (`hail_bench::run_adaptive_workload`) absorbs every finished job's
//! reports into it between rounds, jobs in submission order.
//!
//! # Concurrency
//!
//! The store is a single rank-checked [`OrderedRwLock`] at
//! [`LockRank::Feedback`] (see ARCHITECTURE.md, "Concurrency invariants
//! & enforcement"). The engine feeds it from one thread, between
//! rounds; the lock stays because the `hail-bench` suite absorbs
//! through a shared `Arc` (`absorb(&self)`), and the frozen-suite
//! residue [`crate::planner::PlannerConfig::feedback`] needs the type
//! to stay `Sync`. [`SelectivityFeedback::absorb`] folds a whole
//! batch under one write-lock section, so a reader sees none or all of
//! it. Acquisitions recover from poisoning.

use hail_core::{CmpOp, HailQuery, Predicate};
use hail_mr::TaskStats;
use hail_sync::{LockRank, OrderedRwLock};
use std::collections::BTreeMap;

/// True if the query has an equality predicate on `column` — the
/// predicate *class* under which observations are keyed, and the same
/// bit that drives bitmap-path candidacy in the planner.
pub fn has_eq_on(query: &HailQuery, column: usize) -> bool {
    query
        .predicates
        .iter()
        .any(|p| matches!(p, Predicate::Cmp { column: c, op: CmpOp::Eq, .. } if *c == column))
}

/// One per-column selectivity the planner priced a plan with — always
/// the static [`crate::planner::SelectivityEstimate`] — kept on the
/// [`crate::planner::BlockPlan`] so `explain()` can print it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectivityChoice {
    pub column: usize,
    pub value: f64,
}

/// Per-observation decay of the feedback store: the effective
/// observation window is `1 / (1 - FEEDBACK_DECAY)` = 20 blocks.
const FEEDBACK_DECAY: f64 = 0.95;

#[derive(Debug, Clone, Copy, Default)]
struct ColumnFeedback {
    /// Decayed observation weight, bounded by `1 / (1 - FEEDBACK_DECAY)`.
    weight: f64,
    /// Decayed sum of observed selectivities.
    weighted_sum: f64,
    /// Raw observation count (diagnostics).
    observations: u64,
}

/// Aggregated per-column selectivity observations: the re-indexing
/// advisor's evidence.
///
/// Every `AccessPath::execute` that can attribute its row counts to a
/// single filter column records a `TaskStats::selectivity` observation
/// (`matched / total` rows of one block). [`SelectivityFeedback::absorb`]
/// folds those in with exponential decay, which caps the total
/// observation weight (old blocks fade), and
/// [`SelectivityFeedback::observed`] reports the decayed mean.
///
/// Observations are keyed by `(column, predicate class)` — equality vs
/// range — so a broad range query (`@1 between(0, 1000)` matching most
/// rows) cannot mask the evidence of needle lookups (`@1 = 42`). Within
/// one class the store is literal-blind, like any column-granularity
/// statistic: different ranges over the same column share a mean, and
/// the decay is what lets it track a workload shift.
#[derive(Debug)]
pub struct SelectivityFeedback {
    inner: OrderedRwLock<BTreeMap<(usize, bool), ColumnFeedback>>,
}

impl Default for SelectivityFeedback {
    fn default() -> Self {
        SelectivityFeedback {
            inner: OrderedRwLock::new(LockRank::Feedback, "selectivity-feedback", BTreeMap::new()),
        }
    }
}

impl SelectivityFeedback {
    /// Folds one observation into a (column, class) cell. Callers hold
    /// the write lock — `absorb` folds a whole task's batch under one
    /// lock section.
    fn fold(
        inner: &mut BTreeMap<(usize, bool), ColumnFeedback>,
        column: usize,
        eq: bool,
        matched: u64,
        total: u64,
    ) {
        if total == 0 {
            return;
        }
        let obs = (matched as f64 / total as f64).clamp(0.0, 1.0);
        let f = inner.entry((column, eq)).or_default();
        f.weight = f.weight * FEEDBACK_DECAY + 1.0;
        f.weighted_sum = f.weighted_sum * FEEDBACK_DECAY + obs;
        f.observations += 1;
    }

    /// Records one block's observed selectivity for a column under a
    /// predicate class (`eq` = equality, else range).
    pub fn observe(&self, column: usize, eq: bool, matched: u64, total: u64) {
        let mut inner = self.inner.write();
        Self::fold(&mut inner, column, eq, matched, total);
    }

    /// Folds every observation a finished task recorded — what the
    /// adaptive loop runs for each task of each finished job, in
    /// submission order. The whole batch is absorbed under one
    /// write-lock section, so a concurrent reader sees either none or
    /// all of a task's evidence — never a torn prefix.
    pub fn absorb(&self, stats: &TaskStats) {
        if stats.selectivity.is_empty() {
            return;
        }
        let mut inner = self.inner.write();
        for obs in &stats.selectivity {
            Self::fold(&mut inner, obs.column, obs.eq, obs.matched, obs.total);
        }
    }

    /// The decayed observed mean for a (column, class), with its
    /// weight, if any observation has been recorded.
    pub fn observed(&self, column: usize, eq: bool) -> Option<(f64, f64)> {
        let inner = self.inner.read();
        inner
            .get(&(column, eq))
            .filter(|f| f.weight > 0.0)
            .map(|f| (f.weighted_sum / f.weight, f.weight))
    }

    /// Raw observation count for a (column, class) (diagnostics).
    pub fn observation_count(&self, column: usize, eq: bool) -> u64 {
        let inner = self.inner.read();
        inner
            .get(&(column, eq))
            .map(|f| f.observations)
            .unwrap_or(0)
    }

    /// Every `(column, predicate class)` with recorded evidence, in
    /// deterministic (column, class) order — the enumeration the
    /// re-indexing advisor walks when it looks for sustained evidence
    /// of a selective predicate on an unindexed column.
    pub fn observed_classes(&self) -> Vec<(usize, bool)> {
        let inner = self.inner.read();
        inner
            .iter()
            .filter(|(_, f)| f.weight > 0.0)
            .map(|(&k, _)| k)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observations_decay_and_their_weight_is_bounded() {
        let fb = SelectivityFeedback::default();
        assert_eq!(fb.observed(0, false), None);
        assert_eq!(fb.observation_count(0, false), 0);

        // The first observation is the mean, at weight one.
        fb.observe(0, false, 100, 100);
        assert_eq!(fb.observed(0, false), Some((1.0, 1.0)));

        // Sustained evidence converges toward the observed value…
        for _ in 0..60 {
            fb.observe(0, false, 100, 100);
        }
        let (many, weight) = fb.observed(0, false).unwrap();
        assert!((many - 1.0).abs() < 1e-12, "sustained evidence: {many}");
        // …but the decay bounds the weight, so fresh contrary evidence
        // can still move the mean back.
        assert!(
            weight <= 1.0 / (1.0 - FEEDBACK_DECAY) + 1e-9,
            "weight bounded: {weight}"
        );
        for _ in 0..60 {
            fb.observe(0, false, 0, 100);
        }
        let (back, _) = fb.observed(0, false).unwrap();
        assert!(back < 0.1, "decay lets the mean recover: {back}");
        assert_eq!(fb.observation_count(0, false), 121);

        // Empty blocks are ignored rather than recorded as 0/0.
        fb.observe(1, false, 0, 0);
        assert!(fb.observed(1, false).is_none());
        assert_eq!(fb.observation_count(1, false), 0);
        assert_eq!(fb.observed_classes(), vec![(0, false)]);
    }

    /// Observations are class-keyed: a broad range scan on a column
    /// leaves that column's *equality* evidence untouched, so the
    /// advisor sees needle lookups through their own evidence.
    #[test]
    fn feedback_classes_do_not_cross_poison() {
        let fb = SelectivityFeedback::default();
        // A broad range query observes ~everything matching.
        for _ in 0..30 {
            fb.observe(0, false, 99, 100);
        }
        let (range_mean, _) = fb.observed(0, false).unwrap();
        assert!(range_mean > 0.98, "range class learned: {range_mean}");
        // The eq class has no evidence yet…
        assert_eq!(fb.observed(0, true), None);
        assert_eq!(fb.observation_count(0, true), 0);
        // …and learns independently.
        for _ in 0..5 {
            fb.observe(0, true, 1, 1000);
        }
        let (eq_mean, _) = fb.observed(0, true).unwrap();
        assert!(eq_mean < 0.01, "eq class unpoisoned: {eq_mean}");
        assert_eq!(fb.observation_count(0, true), 5);
        assert_eq!(fb.observation_count(0, false), 30);
        assert_eq!(fb.observed_classes(), vec![(0, false), (0, true)]);
    }
}
