//! The engine's one fan-out: [`run_ordered`] runs a static set of
//! indexed tasks on up to `width` scoped threads and returns their
//! results in index order.
//!
//! It has two callers, each with its own kind of task: the
//! planner-backed input format reads whole splits of one job at
//! [`crate::MapJob::job_parallelism`], and the
//! [`crate::manager::JobManager`] runs whole jobs at its
//! `max_concurrent`. A split's blocks are read on the thread that reads
//! the split, so the map task (the paper's unit of parallel work) is
//! the unit here too.
//!
//! Determinism: results merge in index order, never completion order,
//! and on failure the error of the **lowest-indexed** failing task is
//! returned. Tasks above a known failure are skipped (their results
//! could never influence the outcome); tasks below it always run, in
//! case one fails at a lower index still. Nothing here takes a lock:
//! the task set is fixed up front and pulled in index order from one
//! counter, which balances load without per-worker queues.

use hail_types::Result;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs tasks `0..n` on at most `width` threads and returns their
/// results **in index order**.
///
/// At width 1 (or with fewer than two tasks) the tasks run on the
/// caller's thread, in order, stopping at the first error. Otherwise
/// scoped workers pull the next index from a shared counter and stop
/// pulling once the index passes the lowest failure seen so far; each
/// worker hands its `(index, result)` pairs back through its join
/// handle, and the merge sorts them by index, so the lowest-index error
/// wins. A panicking task panics the caller with the task's payload.
pub fn run_ordered<T, F>(n: usize, width: usize, task: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    let width = width.min(n);
    if width <= 1 {
        return (0..n).map(task).collect();
    }
    let next = AtomicUsize::new(0);
    // Lowest failing index seen so far (monotonically decreasing).
    let failed_at = AtomicUsize::new(usize::MAX);
    let mut done: Vec<(usize, Result<T>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..width)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        // Indices are pulled in increasing order, so once
                        // `i` passes `n` or a known failure there is
                        // nothing smaller left to pull.
                        if i >= n || i > failed_at.load(Ordering::Relaxed) {
                            return mine;
                        }
                        let result = task(i);
                        if result.is_err() {
                            failed_at.fetch_min(i, Ordering::Relaxed);
                        }
                        mine.push((i, result));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|worker| {
                worker
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    // Every index below the final failure ran (skipping requires being
    // above one), so in index order the lowest-index error is reached
    // before any gap.
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hail_types::HailError;
    use std::sync::atomic::AtomicBool;
    use std::time::{Duration, Instant};

    #[test]
    fn results_are_in_index_order_at_any_parallelism() {
        for width in [1, 2, 4, 8] {
            let out = run_ordered(17, width, |i| {
                // Finish later tasks first under contention.
                if i % 3 == 0 {
                    std::thread::yield_now();
                }
                Ok(i * 10)
            })
            .unwrap();
            assert_eq!(out, (0..17).map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn lowest_index_error_wins() {
        let err = run_ordered(16, 4, |i| {
            if i == 11 || i == 3 {
                Err(HailError::Job(format!("task {i}")))
            } else {
                Ok(i)
            }
        })
        .unwrap_err();
        assert_eq!(err.to_string(), HailError::Job("task 3".into()).to_string());
    }

    /// The input format's split pool: one job's splits, read at
    /// `job_parallelism`, merge in split order at every width.
    #[test]
    fn job_pool_results_in_index_order_at_any_width() {
        for workers in [1, 2, 4, 8] {
            let out = run_ordered(19, workers, |i| {
                if i % 3 == 0 {
                    std::thread::yield_now();
                }
                Ok(i * 7)
            })
            .unwrap();
            assert_eq!(out, (0..19).map(|i| i * 7).collect::<Vec<_>>());
        }
    }

    /// The input format's split pool reports the lowest failing split.
    #[test]
    fn job_pool_lowest_index_error_wins() {
        let err = run_ordered(16, 4, |i| {
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

    #[test]
    fn serial_runs_on_caller_thread_and_stops_at_first_error() {
        let caller = std::thread::current().id();
        let ran = AtomicUsize::new(0);
        let err = run_ordered(10, 1, |i| {
            assert_eq!(std::thread::current().id(), caller);
            ran.fetch_add(1, Ordering::Relaxed);
            if i == 4 {
                Err(HailError::Job("boom".into()))
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert!(err.to_string().contains("boom"));
        // Nothing past the failing task runs.
        assert_eq!(ran.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn known_failure_skips_higher_indexed_tasks() {
        let ran = AtomicUsize::new(0);
        // Tasks other than the failing one block until the failure has
        // *started*, then linger long enough for it to be recorded — so
        // no worker can pull a second task before the skip flag is set,
        // and the run-count bound is workers, not wall clock.
        let failing_started = AtomicBool::new(false);
        let err = run_ordered(40, 4, |i| {
            ran.fetch_add(1, Ordering::SeqCst);
            if i == 0 {
                failing_started.store(true, Ordering::SeqCst);
                Err(HailError::Job("early".into()))
            } else {
                let deadline = Instant::now() + Duration::from_secs(5);
                while !failing_started.load(Ordering::SeqCst) && Instant::now() < deadline {
                    std::thread::yield_now();
                }
                std::thread::sleep(Duration::from_millis(5));
                Ok(i)
            }
        })
        .unwrap_err();
        assert!(err.to_string().contains("early"));
        let ran = ran.load(Ordering::SeqCst);
        // Only assert what cannot flake on an oversubscribed machine: at
        // least one task above the failure was skipped.
        assert!(
            ran < 40,
            "tasks above a known failure should be skipped, ran {ran}/40"
        );
    }

    /// Task 0 is held until every other task has finished: at width 2
    /// the second worker must get through all of them on its own.
    #[test]
    fn a_slow_first_task_does_not_hold_back_the_others() {
        let others_done = AtomicUsize::new(0);
        let out = run_ordered(8, 2, |i| {
            if i == 0 {
                let deadline = Instant::now() + Duration::from_secs(10);
                while others_done.load(Ordering::SeqCst) < 7 && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(others_done.load(Ordering::SeqCst))
            } else {
                others_done.fetch_add(1, Ordering::SeqCst);
                Ok(i)
            }
        })
        .unwrap();
        assert_eq!(out[0], 7, "the other tasks waited on task 0");
        assert_eq!(out[1..], [1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    #[should_panic(expected = "task 3 panicked")]
    fn a_panicking_task_reaches_the_caller() {
        let _ = run_ordered(6, 2, |i| {
            if i == 3 {
                panic!("task 3 panicked");
            }
            Ok(i)
        });
    }
}
