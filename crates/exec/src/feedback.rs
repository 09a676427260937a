//! Observed-selectivity feedback: the [`SelectivityFeedback`] store.
//!
//! The base [`crate::planner::QueryPlanner`] is stateless: a job plans
//! each block once, when its splits are cut, and its split reads execute
//! that plan (`PlannedInputFormat`); every new job probes the synopses
//! and prices every `(replica, access path)` candidate again, against
//! the namenode's main-memory `Dir_rep` (§4.3). This module holds the
//! one piece of cross-query planning state: [`SelectivityFeedback`]
//! aggregates the observed per-block selectivities that
//! `AccessPath::execute` records into `TaskStats::selectivity`, and
//! blends them (decayed, bounded by a prior weight) into the static
//! [`crate::planner::SelectivityEstimate`] for subsequent plans.
//!
//! # Concurrency and lock hierarchy
//!
//! The store is **thread-safe** behind `Arc`: one instance may be
//! shared by every `QueryPlanner` a job constructs — including the
//! threads reading a job's splits (and concurrent jobs' splits) in
//! parallel. Internally it is a single rank-checked [`OrderedRwLock`]
//! at [`LockRank::Feedback`] (see ARCHITECTURE.md, "Concurrency
//! invariants & enforcement"), never held across an
//! `AccessPath::execute` call. Acquisitions recover from poisoning, so
//! a worker panicking mid-read cannot wedge every other job's planner.
//! Feedback absorption ([`SelectivityFeedback::absorb`]) runs under one
//! continuous write-lock section, so an in-flight `plan_block` observes
//! either none or all of a batch — never a torn prefix.

use hail_core::{CmpOp, HailQuery, Predicate};
use hail_mr::TaskStats;
use hail_sync::{LockRank, OrderedRwLock};
use std::collections::BTreeMap;

/// True if the query has an equality predicate on `column` — the
/// predicate *class* under which selectivity feedback is keyed, and the
/// same bit that drives bitmap-path candidacy in the planner.
pub fn has_eq_on(query: &HailQuery, column: usize) -> bool {
    query
        .predicates
        .iter()
        .any(|p| matches!(p, Predicate::Cmp { column: c, op: CmpOp::Eq, .. } if *c == column))
}

/// Where a plan's per-column selectivity estimate came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SelectivitySource {
    /// The static [`crate::planner::SelectivityEstimate`] prior.
    Prior,
    /// Observed execution feedback blended into the prior; `weight` is
    /// the decayed number of block observations behind it.
    Observed { weight: f64 },
}

/// One per-column selectivity the planner priced a plan with, kept on
/// the [`crate::planner::BlockPlan`] so `explain()` can say where each
/// number came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectivityChoice {
    pub column: usize,
    pub value: f64,
    pub source: SelectivitySource,
}

/// Per-observation decay of the feedback store: the effective
/// observation window is `1 / (1 - FEEDBACK_DECAY)` = 20 blocks.
const FEEDBACK_DECAY: f64 = 0.95;

/// Weight of the static prior in the feedback blend, in units of
/// observed blocks.
const PRIOR_WEIGHT: f64 = 2.0;

#[derive(Debug, Clone, Copy, Default)]
struct ColumnFeedback {
    /// Decayed observation weight, bounded by `1 / (1 - FEEDBACK_DECAY)`.
    weight: f64,
    /// Decayed sum of observed selectivities.
    weighted_sum: f64,
    /// Raw observation count (diagnostics).
    observations: u64,
}

/// Aggregated per-column selectivity observations, fed back into
/// planning.
///
/// Every `AccessPath::execute` that can attribute its row counts to a
/// single filter column records a `TaskStats::selectivity` observation
/// (`matched / total` rows of one block). [`SelectivityFeedback::absorb`]
/// folds those in with exponential decay, and
/// [`SelectivityFeedback::adjusted`] blends the decayed mean with the
/// static prior under a fixed prior weight. The bounds matter: the decay
/// caps the total observation weight (old blocks fade), and the prior
/// weight keeps any single skewed block from swinging an estimate to its
/// own selectivity — sustained evidence moves plans, outliers do not.
///
/// Observations are keyed by `(column, predicate class)` — equality vs
/// range — so a broad range query (`@1 between(0, 1000)` matching most
/// rows) cannot poison the estimate a needle lookup (`@1 = 42`) is
/// priced with. Within one class the store is literal-blind, like any
/// column-granularity statistic: different ranges over the same column
/// share an estimate, and the decay is what lets it track a workload
/// shift.
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

    /// Folds every observation a finished task recorded — the
    /// `TaskStats` → feedback plumbing the input formats run after each
    /// split. The whole batch is absorbed under one write-lock section,
    /// so a concurrent `plan_block` prices against either none or all
    /// of a task's evidence — never a torn prefix.
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

    /// The effective selectivity for a (column, class): the static
    /// `prior` when nothing was observed, otherwise the prior-weighted
    /// blend `(prior·Wp + Σ decayed obs) / (Wp + W)`.
    pub fn adjusted(&self, column: usize, eq: bool, prior: f64) -> (f64, SelectivitySource) {
        let inner = self.inner.read();
        match inner.get(&(column, eq)).filter(|f| f.weight > 0.0) {
            None => (prior, SelectivitySource::Prior),
            Some(f) => {
                let blended = (prior * PRIOR_WEIGHT + f.weighted_sum) / (PRIOR_WEIGHT + f.weight);
                (
                    blended.clamp(0.0, 1.0),
                    SelectivitySource::Observed { weight: f.weight },
                )
            }
        }
    }

    /// Drops all accumulated feedback.
    pub fn clear(&self) {
        self.inner.write().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feedback_decays_and_is_bounded_by_prior() {
        let fb = SelectivityFeedback::default();
        assert_eq!(
            fb.adjusted(0, false, 0.05),
            (0.05, SelectivitySource::Prior)
        );

        // One wildly skewed block cannot drag the estimate to itself.
        fb.observe(0, false, 100, 100);
        let (one_obs, src) = fb.adjusted(0, false, 0.05);
        assert!(matches!(src, SelectivitySource::Observed { .. }));
        assert!(
            one_obs < 0.5,
            "one block observation stays bounded: {one_obs}"
        );

        // Sustained evidence converges toward the observed value…
        for _ in 0..60 {
            fb.observe(0, false, 100, 100);
        }
        let (many, _) = fb.adjusted(0, false, 0.05);
        assert!(many > 0.85, "sustained evidence dominates: {many}");
        // …but the decay bounds the weight, so the prior never fully
        // disappears and fresh contrary evidence can still move it back.
        let (_, weight) = fb.observed(0, false).unwrap();
        assert!(
            weight <= 1.0 / (1.0 - FEEDBACK_DECAY) + 1e-9,
            "weight bounded: {weight}"
        );
        for _ in 0..60 {
            fb.observe(0, false, 0, 100);
        }
        let (back, _) = fb.adjusted(0, false, 0.05);
        assert!(back < 0.1, "decay lets estimates recover: {back}");
        assert_eq!(fb.observation_count(0, false), 121);

        // Empty blocks are ignored rather than recorded as 0/0.
        fb.observe(1, false, 0, 0);
        assert!(fb.observed(1, false).is_none());
        fb.clear();
        assert!(fb.observed(0, false).is_none());
    }

    /// Observations are class-keyed: a broad range scan on a column
    /// leaves that column's *equality* estimate untouched, so needle
    /// lookups are still priced from their own evidence.
    #[test]
    fn feedback_classes_do_not_cross_poison() {
        let fb = SelectivityFeedback::default();
        // A broad range query observes ~everything matching.
        for _ in 0..30 {
            fb.observe(0, false, 99, 100);
        }
        let (range_est, _) = fb.adjusted(0, false, 0.05);
        assert!(range_est > 0.8, "range class learned: {range_est}");
        // The eq class still answers from the prior…
        assert_eq!(
            fb.adjusted(0, true, 0.001),
            (0.001, SelectivitySource::Prior)
        );
        // …and learns independently.
        for _ in 0..5 {
            fb.observe(0, true, 1, 1000);
        }
        let (eq_est, _) = fb.adjusted(0, true, 0.001);
        assert!(eq_est < 0.01, "eq class unpoisoned: {eq_est}");
    }
}
