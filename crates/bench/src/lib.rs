//! # hail-bench
//!
//! The experiment harness. Two programs drive it:
//! `benches/paper_figures.rs` prints every table and figure of the
//! paper's §6 (plus the §3 ablations) next to the paper's numbers and
//! asserts their shape, and the `hail-bench` suite (`src/bin/hail-bench`)
//! is the fixed end-to-end + per-layer benchmark.
//!
//! - [`setup`] — scaled testbeds, per-system upload, query execution
//! - [`paper`] — the paper's reported numbers, transcribed

#![forbid(unsafe_code)]

pub mod paper;
pub mod setup;

pub use setup::{
    make_shared_format, run_adaptive_workload, run_queries_managed, run_queries_managed_at,
    run_query, run_query_overlapped, run_query_with_failure, setup_hadoop, setup_hail,
    setup_hail_with_config, setup_hpp, syn_testbed, uv_testbed, AdaptiveRun, ExperimentScale,
    SharedJobInfra, SystemSetup, Testbed, LOGICAL_BLOCK,
};
