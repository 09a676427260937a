//! The engine's one fan-out: [`run_ordered`] runs a static set of
//! indexed tasks on up to `width` threads — the caller and scoped
//! helpers — and returns their results in index order.
//!
//! It has three callers, each with its own kind of task: the job
//! manager runs whole jobs at its `max_concurrent`, the HAIL upload
//! client cuts and prepares runs of consecutive blocks, and the adaptive
//! rebuild prepares one replica rewrite per task; the last two go one
//! window at a time, at the machine's parallelism ([`machine_width`]),
//! and commit on the caller's thread. A job reads its splits in order on
//! its own thread, as a Hadoop record reader reads one split.
//!
//! Determinism: results merge in index order, never completion order,
//! and on failure the error of the **lowest-indexed** failing task is
//! returned. Tasks above a known failure are skipped (their results
//! could never influence the outcome); tasks below it always run, in
//! case one fails at a lower index still. Nothing here takes a lock:
//! the task set is fixed up front and pulled in index order from one
//! counter, which balances load without per-worker queues.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The machine's available parallelism, or 1 when it cannot be read:
/// the width the upload client and the adaptive rebuild prepare at.
pub fn machine_width() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs tasks `0..n` on at most `width` threads and returns their
/// results **in index order**.
///
/// At width 1 (or with fewer than two tasks) the tasks run on the
/// caller's thread, in order, stopping at the first error. Otherwise the
/// caller and `width - 1` scoped helper threads are the workers: each
/// pulls the next index from a shared counter and stops pulling once the
/// index passes the lowest failure seen so far; the helpers hand their
/// `(index, result)` pairs back through their join handles, and the
/// merge sorts them by index, so the lowest-index error wins. A
/// panicking task panics the caller with the task's payload.
pub fn run_ordered<T, E, F>(n: usize, width: usize, task: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let width = width.min(n);
    if width <= 1 {
        return (0..n).map(task).collect();
    }
    let next = AtomicUsize::new(0);
    // Lowest failing index seen so far (monotonically decreasing).
    let failed_at = AtomicUsize::new(usize::MAX);
    let work = || {
        let mut mine = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            // Indices are pulled in increasing order, so once `i` passes
            // `n` or a known failure there is nothing smaller left to
            // pull.
            if i >= n || i > failed_at.load(Ordering::Relaxed) {
                return mine;
            }
            let result = task(i);
            if result.is_err() {
                failed_at.fetch_min(i, Ordering::Relaxed);
            }
            mine.push((i, result));
        }
    };
    let mut done: Vec<(usize, Result<T, E>)> = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..width).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for helper in helpers {
            done.extend(
                helper
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        done
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
                Ok::<_, String>(i * 10)
            })
            .unwrap();
            assert_eq!(out, (0..17).map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn lowest_index_error_wins() {
        let err = run_ordered(16, 4, |i| {
            if i == 11 || i == 3 {
                Err(format!("task {i}"))
            } else {
                Ok(i)
            }
        })
        .unwrap_err();
        assert_eq!(err, "task 3");
    }

    /// A second task count: results merge in index order at every width.
    #[test]
    fn job_pool_results_in_index_order_at_any_width() {
        for workers in [1, 2, 4, 8] {
            let out = run_ordered(19, workers, |i| {
                if i % 3 == 0 {
                    std::thread::yield_now();
                }
                Ok::<_, String>(i * 7)
            })
            .unwrap();
            assert_eq!(out, (0..19).map(|i| i * 7).collect::<Vec<_>>());
        }
    }

    /// Two failures far apart: the lower one is reported.
    #[test]
    fn job_pool_lowest_index_error_wins() {
        let err = run_ordered(16, 4, |i| {
            if i == 2 || i == 13 {
                Err(format!("split {i}"))
            } else {
                Ok(i)
            }
        })
        .unwrap_err();
        assert_eq!(err, "split 2");
    }

    #[test]
    fn serial_runs_on_caller_thread_and_stops_at_first_error() {
        let caller = std::thread::current().id();
        let ran = AtomicUsize::new(0);
        let err = run_ordered(10, 1, |i| {
            assert_eq!(std::thread::current().id(), caller);
            ran.fetch_add(1, Ordering::Relaxed);
            if i == 4 {
                Err("boom")
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert_eq!(err, "boom");
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
                Err("early")
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
        assert_eq!(err, "early");
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
                Ok::<_, String>(others_done.load(Ordering::SeqCst))
            } else {
                others_done.fetch_add(1, Ordering::SeqCst);
                Ok(i)
            }
        })
        .unwrap();
        assert_eq!(out[0], 7, "the other tasks waited on task 0");
        assert_eq!(out[1..], [1, 2, 3, 4, 5, 6, 7]);
    }

    /// SplitMix64: the seeded generator behind the schedules below.
    fn next_u64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// What one task of a seeded schedule does before it returns.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        Return,
        Yield,
        SleepMicros(u64),
        Fail,
    }

    /// The whole contract under seeded schedules of tasks that return at
    /// once, yield, sleep or fail, at widths 2 to 8:
    ///
    /// - results are slotted by index, and every task runs exactly once;
    /// - a failing schedule returns the lowest failing index's error,
    ///   and every task below it ran exactly once;
    /// - indices are pulled in increasing order: when task `i` starts,
    ///   the only lower tasks not yet started are ones another worker has
    ///   pulled and not yet begun, at most one per other worker.
    #[test]
    fn seeded_schedules_keep_the_contract() {
        for seed in 0..48u64 {
            let mut rng = seed;
            let n = 64 + (next_u64(&mut rng) % 193) as usize;
            let width = 2 + (next_u64(&mut rng) % 7) as usize;
            let may_fail = seed % 2 == 1;
            let steps: Vec<Step> = (0..n)
                .map(|_| match next_u64(&mut rng) % 64 {
                    0..=35 => Step::Return,
                    36..=51 => Step::Yield,
                    52..=62 => Step::SleepMicros(next_u64(&mut rng) % 200),
                    _ if may_fail => Step::Fail,
                    _ => Step::Return,
                })
                .collect();
            let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let started: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
            let late_starts = AtomicUsize::new(0);
            let result = run_ordered(n, width, |i| {
                runs[i].fetch_add(1, Ordering::SeqCst);
                let unstarted_below = started[..i]
                    .iter()
                    .filter(|s| !s.load(Ordering::SeqCst))
                    .count();
                if unstarted_below >= width {
                    late_starts.fetch_add(1, Ordering::SeqCst);
                }
                started[i].store(true, Ordering::SeqCst);
                match steps[i] {
                    Step::Return => {}
                    Step::Yield => std::thread::yield_now(),
                    Step::SleepMicros(us) => std::thread::sleep(Duration::from_micros(us)),
                    Step::Fail => return Err(i),
                }
                Ok(i * 3 + 1)
            });
            let at = format!("seed {seed}, {n} tasks at width {width}");
            let runs: Vec<usize> = runs.iter().map(|r| r.load(Ordering::SeqCst)).collect();
            match steps.iter().position(|s| matches!(s, Step::Fail)) {
                None => {
                    assert_eq!(result, Ok((0..n).map(|i| i * 3 + 1).collect()), "{at}");
                    assert!(runs.iter().all(|&r| r == 1), "{at}: runs {runs:?}");
                }
                Some(lowest) => {
                    assert_eq!(result, Err(lowest), "{at}");
                    assert!(runs[..=lowest].iter().all(|&r| r == 1), "{at}: {runs:?}");
                    assert!(runs.iter().all(|&r| r <= 1), "{at}: runs {runs:?}");
                }
            }
            assert_eq!(late_starts.load(Ordering::SeqCst), 0, "{at}: a late start");
        }
    }

    #[test]
    #[should_panic(expected = "task 3 panicked")]
    fn a_panicking_task_reaches_the_caller() {
        let _ = run_ordered(6, 2, |i| {
            if i == 3 {
                panic!("task 3 panicked");
            }
            Ok::<_, String>(i)
        });
    }
}
