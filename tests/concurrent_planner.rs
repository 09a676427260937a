//! Concurrency stress tests for planning beside the advisor's evidence
//! store: many threads plan blocks (and read whole splits) with a
//! `SelectivityFeedback` store plugged into their planner configuration
//! while absorption runs against it.
//!
//! The properties under test:
//!
//! - **Atomic absorption.** A concurrent reader of the store sees none
//!   or all of an absorbed batch, never a torn prefix, and the final
//!   observation count equals exactly what was fed in.
//! - **Stateless plans under contention.** Every plan served during
//!   the storm equals the default configuration's plan: planning reads
//!   nothing from the store.
//! - **Racing reads.** Split reads racing on threads return the serial
//!   run's records, write nothing into the store, and their statistics,
//!   absorbed in split order, leave the serial run's evidence.

use hail::exec::{BlockPlan, PlannerConfig};
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

/// What one plan priced with and chose, as bit patterns: the
/// selectivity, the access path, the replica and the price.
type PlanBits = (u64, AccessPathKind, usize, u64);

fn plan_bits(bp: &BlockPlan) -> PlanBits {
    (
        bp.selectivity[0].value.to_bits(),
        bp.kind,
        bp.replica,
        bp.est_seconds.to_bits(),
    )
}

/// The store's state for column 0's range class, as bit patterns: the
/// decayed mean and its weight, `None` before any observation.
fn evidence_bits(feedback: &SelectivityFeedback) -> Option<(u64, u64)> {
    feedback
        .observed(0, false)
        .map(|(mean, weight)| (mean.to_bits(), weight.to_bits()))
}

/// The stress test: planner threads plan one block over and over, with
/// the store plugged into their configuration, while a feedback thread
/// absorbs batches of observations into it. Every plan must equal the
/// default configuration's, and every state the planner threads read
/// off the store must hold a whole number of batches.
#[test]
fn plan_block_vs_feedback_absorption() {
    let (cluster, dataset) = setup(2000);
    let block = dataset.blocks[0];
    let feedback = Arc::new(SelectivityFeedback::default());
    let query = HailQuery::parse("@1 between(40, 90)", "{@2}", &schema()).unwrap();
    let default_plan = QueryPlanner::new(&cluster)
        .plan_block(DatasetFormat::HailPax, block, &query)
        .unwrap();

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

    type Seen = (BTreeSet<PlanBits>, BTreeSet<Option<(u64, u64)>>);
    let seen: Vec<Seen> = std::thread::scope(|scope| {
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
                    let (mut seen_plans, mut seen_evidence) = (BTreeSet::new(), BTreeSet::new());
                    while !absorbed.load(Ordering::Acquire) {
                        let bp = planner
                            .plan_block(DatasetFormat::HailPax, block, query)
                            .unwrap();
                        seen_plans.insert(plan_bits(&bp));
                        seen_evidence.insert(evidence_bits(feedback));
                        plans.fetch_add(1, Ordering::Release);
                    }
                    (seen_plans, seen_evidence)
                })
            })
            .collect();
        // Absorb batch after batch, each once some plan ran since the
        // last one, so the planners run beside many states.
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

    // Stateless plans: whatever the store held, every plan is the
    // default configuration's.
    let served: BTreeSet<_> = seen.iter().flat_map(|(plans, _)| plans).collect();
    assert_eq!(
        served,
        BTreeSet::from([&plan_bits(&default_plan)]),
        "a plan read the store"
    );

    // Atomic absorption: exactly the fed batches landed…
    assert_eq!(
        feedback.observation_count(0, false),
        FEEDBACK_BATCHES * OBS_PER_BATCH
    );
    // …and every state a planner thread read held a whole number of
    // them: the (mean, weight) a serial store reports after each batch.
    let serial = SelectivityFeedback::default();
    let mut boundaries = BTreeSet::from([None]);
    for _ in 0..FEEDBACK_BATCHES {
        serial.absorb(&batch);
        boundaries.insert(evidence_bits(&serial));
    }
    let states: BTreeSet<_> = seen.iter().flat_map(|(_, evidence)| evidence).collect();
    for &&state in &states {
        assert!(
            boundaries.contains(&state),
            "a reader saw a torn batch: {:?}",
            state.map(|(m, w)| (f64::from_bits(m), f64::from_bits(w)))
        );
    }
    assert!(states.len() > 1, "the planners ran beside a moving store");
}

/// The evidence a run's statistics leave, absorbed in split order into
/// a fresh store.
fn absorbed(reads: &[TaskStats]) -> String {
    let store = SelectivityFeedback::default();
    reads.iter().for_each(|stats| store.absorb(stats));
    format!("{store:?}")
}

/// Whole split reads racing with a shared store plugged into their
/// format, with and without the split-time plan. Under it the reads
/// plan nothing again; without it each read plans all its blocks. Both
/// rounds return the serial records, write nothing into the store, and,
/// absorbed in split order, leave the serial evidence.
#[test]
fn concurrent_read_splits_share_adaptive_state() {
    let (cluster, dataset) = setup(4000);
    let blocks = dataset.blocks.len() as u64;
    let query = HailQuery::parse("@1 between(40, 90)", "{@2}", &schema()).unwrap();
    let feedback = Arc::new(SelectivityFeedback::default());
    let format =
        PlannedInputFormat::new(dataset.clone(), query.clone()).with_planner(PlannerConfig {
            feedback: Some(Arc::clone(&feedback)),
            ..Default::default()
        });
    let plan = format.splits(&cluster, &dataset.blocks).unwrap();
    assert!(plan.splits.len() >= 2);

    // Serial oracle.
    let serial: Vec<TaskStats> = plan
        .splits
        .iter()
        .map(|split| {
            read_one_split(&format, &cluster, split, split.locations[0], &mut |_| {}).unwrap()
        })
        .collect();
    let serial_records: u64 = serial.iter().map(|t| t.records).sum();
    let serial_evidence = absorbed(&serial);
    assert!(
        serial.iter().any(|t| !t.selectivity.is_empty()),
        "the reads observed selectivities"
    );

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
        let totals = race(source);
        let records: u64 = totals.iter().map(|t| t.records).sum();
        assert_eq!(records, serial_records);
        let replanned: u64 = totals.iter().map(|t| t.blocks_replanned).sum();
        match source {
            Some(_) => assert_eq!(replanned, 0, "the split-time plan serves"),
            None => assert_eq!(replanned, blocks, "each read plans its blocks"),
        }
        assert_eq!(absorbed(&totals), serial_evidence);
    }
    assert!(
        feedback.observed_classes().is_empty(),
        "a split read wrote into the store"
    );
}
