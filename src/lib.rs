//! # HAIL — Hadoop Aggressive Indexing Library (Rust reproduction)
//!
//! A from-scratch reproduction of *"Only Aggressive Elephants are Fast
//! Elephants"* (Dittrich et al., VLDB 2012): an HDFS-like replicated
//! block store whose upload pipeline creates a **different clustered
//! index on every block replica**, plus the MapReduce-side machinery
//! (the paper's `HailInputFormat` — here the one `PlannedInputFormat`
//! that also serves the Hadoop and Hadoop++ baselines — `HailSplitting`,
//! `@HailQuery` annotations) that exploits those indexes at query time.
//!
//! All query execution is unified behind `hail-exec`'s cost-based
//! `QueryPlanner`: per block, it consults the namenode's per-replica
//! index metadata, prices each `(replica, access path)` candidate with
//! the `hail-sim` cost model, and emits an explainable `QueryPlan` that
//! the scheduler and the record readers both consume. Every job plans
//! cold from the static selectivity estimates; the observed per-block
//! selectivities go into a `SelectivityFeedback` store that only the
//! re-indexing advisor reads.
//! See `ARCHITECTURE.md` for the full plan lifecycle.
//!
//! This crate is a facade re-exporting the workspace's layers:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`types`] | `hail-types` | schemas, values, rows, errors, access-path kinds |
//! | [`pax`] | `hail-pax` | PAX block layout, packets, checksums |
//! | [`index`] | `hail-index` | clustered/trojan/bitmap/inverted indexes |
//! | [`sim`] | `hail-sim` | hardware profiles and the cost model |
//! | [`sync`] | `hail-sync` | ranked lock wrappers (`LockRank`, debug hierarchy checking) |
//! | [`dfs`] | `hail-dfs` | namenode (`Dir_rep`), datanodes, upload pipelines |
//! | [`mr`] | `hail-mr` | MapReduce engine, three-method `InputFormat` trait, scheduler, failover |
//! | [`core`] | `hail-core` | upload clients, `@HailQuery`, Hadoop++ storage |
//! | [`exec`] | `hail-exec` | `AccessPath` trait, cost-based `QueryPlanner`, the one `PlannedInputFormat` |
//! | [`workloads`] | `hail-workloads` | UserVisits/Synthetic generators, Bob/Syn queries |
//!
//! ## Quickstart
//!
//! ```
//! use hail::prelude::*;
//!
//! // A 4-node cluster with small blocks (tests / demos).
//! let mut config = StorageConfig::test_scale(4096);
//! config.index_partition_size = 16;
//! let mut cluster = DfsCluster::new(4, config);
//!
//! // Upload a web log through the HAIL client with per-replica indexes
//! // on visitDate (@2) and ip (@1).
//! let schema = Schema::new(vec![
//!     Field::new("ip", DataType::VarChar),
//!     Field::new("visitDate", DataType::Date),
//! ]).unwrap();
//! let text = "1.2.3.4|1999-05-01\n5.6.7.8|2001-01-01\n";
//! let index_config = ReplicaIndexConfig::first_indexed(3, &[1, 0]);
//! let dataset = upload_hail(&mut cluster, &schema, "weblog",
//!     &[(0, text.to_string())], &index_config).unwrap();
//!
//! // An annotated query: filter on @2, project @1.
//! let query = HailQuery::parse("@2 between(1999-01-01, 2000-01-01)", "{@1}", &schema).unwrap();
//!
//! // The planner decides, per block, which replica and access path
//! // serve the query — inspectable before running anything.
//! let plan = QueryPlanner::new(&cluster).plan_dataset(&dataset, &query).unwrap();
//! assert!(plan.explain().contains("clustered-index-scan(@2)"));
//!
//! // The input format consumes the same planner layer end to end.
//! let spec = ClusterSpec::new(4, HardwareProfile::physical());
//! let format = PlannedInputFormat::new(dataset.clone(), query);
//! let job = MapJob::collecting("q1", dataset.blocks.clone(), &format);
//! let run = run_map_job(&cluster, &spec, &job).unwrap();
//! assert_eq!(run.output.len(), 1);
//! assert_eq!(run.output[0].to_string(), "1.2.3.4");
//! ```

#![forbid(unsafe_code)]

pub use hail_core as core;
pub use hail_dfs as dfs;
pub use hail_exec as exec;
pub use hail_index as index;
pub use hail_mr as mr;
pub use hail_pax as pax;
pub use hail_sim as sim;
pub use hail_sync as sync;
pub use hail_types as types;
pub use hail_workloads as workloads;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use hail_core::{
        upload_hadoop, upload_hadoop_plus_plus, upload_hail, upload_seconds, Dataset,
        DatasetFormat, HailQuery, Predicate,
    };
    pub use hail_dfs::{
        hail_upload_block, hdfs_upload_block, recover_logical_rows, rewrite_replica,
        verify_replica_equivalence, DfsCluster, FaultPlan,
    };
    pub use hail_exec::{
        apply_reindex, default_splits, hail_splits, read_hail_block, AccessPath,
        PlannedInputFormat, PlannerConfig, QueryPlan, QueryPlanner, ReindexAction, ReindexAdvisor,
        ReindexKind, ReindexOutcome, ReindexPolicy, SelectivityEstimate, SelectivityFeedback,
    };
    pub use hail_index::{
        ClusteredIndex, IndexKind, IndexedBlock, KeyBounds, ReplicaIndexConfig, SidecarMetadata,
        SidecarSpec, SortOrder,
    };
    pub use hail_mr::{
        run_map_job, run_map_job_with_failure, run_map_reduce_job, FailureScenario, InputFormat,
        JobManager, JobReport, JobRun, MapJob, MapRecord, MapReduceJob, PathCounts,
        SelectivityObservation, TaskStats, SPLIT_BATCH_CHUNK,
    };
    pub use hail_pax::{blocks_from_text, PaxBlock, PaxBlockBuilder};
    pub use hail_sim::{ClusterSpec, CostLedger, HardwareProfile, ScaleFactor};
    pub use hail_types::{
        AccessPathKind, DataType, Field, HailError, Result, Row, Schema, StorageConfig, Value,
    };
    pub use hail_workloads::{
        bob_queries, bob_schema, canonical, oracle_eval, synthetic_queries, synthetic_schema,
        SyntheticGenerator, UserVisitsGenerator,
    };
}
