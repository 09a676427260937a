//! Concurrency stress tests for the cross-query planner state: many
//! threads plan blocks (and read whole splits) against one shared
//! `SelectivityFeedback` store while feedback absorption runs against
//! them.
//!
//! The properties under test:
//!
//! - **Atomic absorption.** A concurrent `plan_block` prices against
//!   none or all of an absorbed batch, never a torn prefix, and the
//!   final observation count equals exactly what was fed in.
//! - **Stateless plans under contention.** Every plan served during
//!   the storm equals what a planner without the store prices at the
//!   same selectivity.
//! - **Racing reads.** Split reads racing on threads return the serial
//!   run's records and, absorbed in split order, leave its feedback
//!   state.

use hail::exec::{PlannerConfig, SelectivitySource};
use hail::mr::{read_one_split, SplitSource, SplitTask, TaskStats};
use hail::prelude::*;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::VarChar),
    ])
    .unwrap()
}

fn setup(rows: usize) -> (DfsCluster, Dataset) {
    setup_with(rows, &ReplicaIndexConfig::first_indexed(3, &[0]))
}

fn setup_with(rows: usize, design: &ReplicaIndexConfig) -> (DfsCluster, Dataset) {
    let mut storage = StorageConfig::test_scale(4 * 1024);
    storage.index_partition_size = 16;
    let mut cluster = DfsCluster::new(4, storage);
    let text: String = (0..rows)
        .map(|i| format!("{}|w{i}\n", (i * 7) % 500))
        .collect();
    let dataset = upload_hail(&mut cluster, &schema(), "t", &[(0, text)], design).unwrap();
    (cluster, dataset)
}

/// What one plan priced against and chose, as bit patterns: the
/// selectivity, its feedback weight (0 for the prior), the access path,
/// the replica and the price.
type PlanBits = (u64, u64, AccessPathKind, usize, u64);

/// The stress test: planner threads plan one block over and over while
/// a feedback thread absorbs batches of observations into the store they
/// price with. Every plan must have seen a whole number of batches, and
/// must equal a stateless pricing at the selectivity it reports.
#[test]
fn plan_block_vs_feedback_absorption() {
    let (cluster, dataset) = setup(2000);
    let block = dataset.blocks[0];
    let feedback = Arc::new(SelectivityFeedback::default());
    let query = HailQuery::parse("@1 between(40, 90)", "{@2}", &schema()).unwrap();

    const PLANNERS: usize = 3;
    const FEEDBACK_BATCHES: u64 = 1000;
    const OBS_PER_BATCH: u64 = 4;
    let batch = TaskStats {
        selectivity: (0..OBS_PER_BATCH)
            .map(|i| SelectivityObservation {
                column: 0,
                eq: false,
                matched: 100 + 50 * i,
                total: 1000,
            })
            .collect(),
        ..Default::default()
    };
    let plans = AtomicU64::new(0);
    let absorbed = AtomicBool::new(false);

    let seen: Vec<BTreeSet<PlanBits>> = std::thread::scope(|scope| {
        let planners: Vec<_> = (0..PLANNERS)
            .map(|_| {
                let (cluster, feedback, query) = (&cluster, &feedback, &query);
                let (plans, absorbed) = (&plans, &absorbed);
                scope.spawn(move || {
                    let config = PlannerConfig {
                        feedback: Some(Arc::clone(feedback)),
                        ..Default::default()
                    };
                    let planner = QueryPlanner::with_config(cluster, config);
                    let mut seen = BTreeSet::new();
                    while !absorbed.load(Ordering::Acquire) {
                        let bp = planner
                            .plan_block(DatasetFormat::HailPax, block, query)
                            .unwrap();
                        let choice = bp.selectivity[0];
                        let weight = match choice.source {
                            SelectivitySource::Prior => 0.0,
                            SelectivitySource::Observed { weight } => weight,
                        };
                        seen.insert((
                            choice.value.to_bits(),
                            weight.to_bits(),
                            bp.kind,
                            bp.replica,
                            bp.est_seconds.to_bits(),
                        ));
                        plans.fetch_add(1, Ordering::Release);
                    }
                    seen
                })
            })
            .collect();
        // Absorb batch after batch, each once some plan ran since the
        // last one, so the planners see many states.
        for _ in 0..FEEDBACK_BATCHES {
            let before = plans.load(Ordering::Acquire);
            while plans.load(Ordering::Acquire) == before {
                std::thread::yield_now();
            }
            feedback.absorb(&batch);
        }
        absorbed.store(true, Ordering::Release);
        planners.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Atomic absorption: exactly the fed batches landed…
    assert_eq!(
        feedback.observation_count(0, false),
        FEEDBACK_BATCHES * OBS_PER_BATCH
    );
    // …and every plan priced against a whole number of them: the
    // (estimate, weight) a serial store reports after each batch.
    let serial = SelectivityFeedback::default();
    let prior = PlannerConfig::default().estimate.for_column(0);
    let mut boundaries = BTreeSet::from([(prior.to_bits(), 0f64.to_bits())]);
    for _ in 0..FEEDBACK_BATCHES {
        serial.absorb(&batch);
        let (value, source) = serial.adjusted(0, false, prior);
        let SelectivitySource::Observed { weight } = source else {
            panic!("observed after a batch");
        };
        boundaries.insert((value.to_bits(), weight.to_bits()));
    }
    let states: BTreeSet<_> = seen.iter().flatten().collect();
    for &&(value, weight, ..) in &states {
        assert!(
            boundaries.contains(&(value, weight)),
            "a plan priced against a torn batch: selectivity {} at weight {}",
            f64::from_bits(value),
            f64::from_bits(weight)
        );
    }
    let distinct: BTreeSet<_> = states.iter().map(|s| (s.0, s.1)).collect();
    assert!(distinct.len() > 1, "the planners saw the store move");

    // Stateless plans: each equals a store-less pricing at the
    // selectivity it reports.
    for &&(value, _, kind, replica, price) in &states {
        let config = PlannerConfig {
            estimate: SelectivityEstimate::uniform(f64::from_bits(value)),
            ..Default::default()
        };
        let fresh = QueryPlanner::with_config(&cluster, config)
            .plan_block(DatasetFormat::HailPax, block, &query)
            .unwrap();
        assert_eq!((fresh.kind, fresh.replica), (kind, replica));
        assert_eq!(fresh.est_seconds.to_bits(), price);
    }
}

/// Whole split reads racing through one shared feedback store, with and
/// without the split-time plan. Under it the reads plan nothing again;
/// without it each read plans all its blocks. Both rounds return the
/// serial records, and, absorbed in split order, leave the serial
/// feedback state.
#[test]
fn concurrent_read_splits_share_adaptive_state() {
    let (cluster, dataset) = setup(4000);
    let blocks = dataset.blocks.len() as u64;
    let query = HailQuery::parse("@1 between(40, 90)", "{@2}", &schema()).unwrap();
    let feedback = Arc::new(SelectivityFeedback::default());
    // Deferred, as in a managed batch: the store is read-only while the
    // splits race, and absorbed afterwards in split order.
    let format =
        PlannedInputFormat::new(dataset.clone(), query.clone()).with_planner(PlannerConfig {
            feedback: Some(Arc::clone(&feedback)),
            defer_feedback: true,
            ..Default::default()
        });
    let plan = format.splits(&cluster, &dataset.blocks).unwrap();
    assert!(plan.splits.len() >= 2);
    let absorb = |reads: &[TaskStats]| {
        reads.iter().for_each(|stats| feedback.absorb(stats));
        feedback.observed(0, false)
    };

    // Serial oracle.
    let serial: Vec<TaskStats> = plan
        .splits
        .iter()
        .map(|split| {
            read_one_split(&format, &cluster, split, split.locations[0], &mut |_| {}).unwrap()
        })
        .collect();
    let serial_records: u64 = serial.iter().map(|t| t.records).sum();
    let serial_feedback = absorb(&serial);

    // All splits at once, each read on its own thread, with or without
    // the split-time plan.
    let race = |source: Option<&SplitSource>| -> Vec<TaskStats> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = plan
                .splits
                .iter()
                .map(|split| {
                    let format = &format;
                    let cluster = &cluster;
                    scope.spawn(move || {
                        let task = SplitTask {
                            split,
                            task_node: split.locations[0],
                            source,
                        };
                        let mut reads = format.read_split_batch(cluster, &[task], None).unwrap();
                        reads.pop().unwrap().stats
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    };
    for source in [None, plan.source.as_ref()] {
        feedback.clear();
        let totals = race(source);
        let records: u64 = totals.iter().map(|t| t.records).sum();
        assert_eq!(records, serial_records);
        let replanned: u64 = totals.iter().map(|t| t.blocks_replanned).sum();
        match source {
            Some(_) => assert_eq!(replanned, 0, "the split-time plan serves"),
            None => assert_eq!(replanned, blocks, "each read plans its blocks"),
        }
        assert_eq!(absorb(&totals), serial_feedback);
    }
}
