//! The engine's one fan-out: [`run_pipelined`] prepares indexed tasks on
//! up to `width` threads — the caller and scoped helpers — and commits
//! their results on the caller's thread, in index order, while later
//! tasks are still being prepared.
//!
//! It has three callers, each with its own kind of task: the job
//! manager runs whole jobs at its `max_concurrent` and commits each
//! job's result into the batch's list; the HAIL upload client cuts and
//! prepares one block per task and commits it to the cluster; the
//! adaptive rebuild prepares one replica rewrite per task and commits
//! it. The last two run at the machine's parallelism
//! ([`machine_width`]). A job reads its splits in order on its own
//! thread, as a Hadoop record reader reads one split.
//!
//! Determinism: results are committed in index order, never completion
//! order, so the first commit error is the **lowest-indexed** one, and
//! nothing after it is committed. A lookahead bounds how far preparing
//! runs ahead of committing: task `i` starts only once fewer than
//! `lookahead` tasks below it are uncommitted, so at most `lookahead`
//! results are held at once, and tasks far above a failure never run.
//!
//! Nothing here takes a lock. Tasks are pulled in index order from one
//! counter, which balances load without per-worker queues; helpers hand
//! their results to the caller through one `mpsc` channel and wait at
//! the lookahead gate in `thread::park`, which the caller ends after
//! every commit and when the run stops.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::thread::{self, Thread};

/// The machine's available parallelism, or 1 when it cannot be read:
/// the width the upload client and the adaptive rebuild prepare at.
pub fn machine_width() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Prepares tasks `0..n` on at most `width` threads and commits every
/// result on the caller's thread **in index order**, stopping at the
/// first commit error, which it returns.
///
/// Each thread that prepares makes its own state with `init` before its
/// first task and hands it to every task it prepares. Task `i` starts
/// only while `i < committed + lookahead` (`lookahead` is at least 1),
/// so at most `lookahead` tasks are prepared or being prepared beyond
/// the commits at any time.
///
/// At width 1 (or with fewer than two tasks) every task is prepared and
/// committed on the caller's thread, one after the other. Otherwise the
/// caller and `width - 1` scoped helper threads pull indices from one
/// counter. The caller commits the next result as soon as it exists;
/// when there is none, it prepares a task itself, and when the gate
/// lets it prepare none either, it waits for a helper's result. A
/// panicking task panics the caller with the task's payload once every
/// helper has stopped, wherever the other workers were waiting.
pub fn run_pipelined<S, T, E>(
    n: usize,
    width: usize,
    lookahead: usize,
    init: impl Fn() -> S + Sync,
    prepare: impl Fn(&mut S, usize) -> T + Sync,
    mut commit: impl FnMut(usize, T) -> Result<(), E>,
) -> Result<(), E>
where
    T: Send,
{
    let width = width.min(n);
    if width <= 1 {
        let mut state = init();
        for i in 0..n {
            commit(i, prepare(&mut state, i))?;
        }
        return Ok(());
    }
    let gate = Gate {
        n,
        lookahead: lookahead.clamp(1, n),
        next: AtomicUsize::new(0),
        committed: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
    };
    let (results, received) = mpsc::channel();
    thread::scope(|scope| {
        let helpers: Vec<Thread> = (1..width)
            .map(|_| {
                let results = results.clone();
                let (gate, init, prepare) = (&gate, &init, &prepare);
                let helper = scope.spawn(move || help(gate, init, prepare, results));
                helper.thread().clone()
            })
            .collect();
        drop(results);
        // Stops and wakes every helper however this thread leaves the
        // scope — done, at a commit error, or panicking — so that no
        // helper parks forever and the scope's join returns.
        let _stop = StopOnExit {
            gate: &gate,
            helpers: &helpers,
        };
        let mut state = None;
        // Result `i` waits in slot `i % lookahead`: only indices in
        // `committed..committed + lookahead` can have started.
        let mut ready: Vec<Option<T>> = (0..gate.lookahead).map(|_| None).collect();
        let mut committed = 0;
        while committed < n {
            if let Some(result) = ready[committed % gate.lookahead].take() {
                commit(committed, result)?;
                committed += 1;
                gate.committed.store(committed, Ordering::Relaxed);
                // Unparking publishes the store to the woken helper.
                helpers.iter().for_each(Thread::unpark);
                continue;
            }
            let prepared = match received.try_recv() {
                Ok(prepared) => prepared,
                Err(_) => match gate.claim() {
                    Claim::Task(i) => {
                        let state = state.get_or_insert_with(&init);
                        ready[i % gate.lookahead] = Some(prepare(state, i));
                        continue;
                    }
                    // The next result is being prepared by a helper, which
                    // sends it (or its panic) before it stops.
                    Claim::Wait | Claim::Done => received
                        .recv()
                        .expect("a helper holds the task being waited for"),
                },
            };
            match prepared {
                Prepared::Task(i, result) => ready[i % gate.lookahead] = Some(result),
                Prepared::Panicked(payload) => panic::resume_unwind(payload),
            }
        }
        Ok(())
    })
}

/// The shared state of one [`run_pipelined`] call. None of its atomics
/// publishes data — results travel through the channel — so all of
/// them are `Relaxed`; a helper that waits re-reads `committed` and
/// `stop` after `thread::park` returns, and the `unpark` that ends the
/// wait makes the stores before it visible.
struct Gate {
    n: usize,
    lookahead: usize,
    /// The lowest index no worker has claimed.
    next: AtomicUsize,
    /// How many results the caller has committed.
    committed: AtomicUsize,
    /// Set once the caller leaves the run; no task starts after it.
    stop: AtomicBool,
}

enum Claim {
    Task(usize),
    /// The gate is closed: wait for a commit.
    Wait,
    /// Every task is claimed, or the run stopped.
    Done,
}

impl Gate {
    /// Claims the next index if the lookahead lets it start.
    fn claim(&self) -> Claim {
        let mut next = self.next.load(Ordering::Relaxed);
        loop {
            if next >= self.n || self.stop.load(Ordering::Relaxed) {
                return Claim::Done;
            }
            if next >= self.committed.load(Ordering::Relaxed) + self.lookahead {
                return Claim::Wait;
            }
            match self.next.compare_exchange_weak(
                next,
                next + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Claim::Task(next),
                Err(seen) => next = seen,
            }
        }
    }
}

/// What a helper sends the caller.
enum Prepared<T> {
    Task(usize, T),
    Panicked(Box<dyn Any + Send>),
}

/// One helper's loop: prepares what the gate lets it claim and parks
/// while the gate is closed. A panic in `init` or `prepare` is caught
/// and sent to the caller, which holds the only receiver.
fn help<S, T>(
    gate: &Gate,
    init: &(impl Fn() -> S + Sync),
    prepare: &(impl Fn(&mut S, usize) -> T + Sync),
    results: Sender<Prepared<T>>,
) {
    let run = panic::catch_unwind(AssertUnwindSafe(|| {
        let mut state = None;
        loop {
            match gate.claim() {
                Claim::Task(i) => {
                    let state = state.get_or_insert_with(init);
                    // The receiver outlives the scope, so no send fails.
                    let _ = results.send(Prepared::Task(i, prepare(state, i)));
                }
                Claim::Wait => thread::park(),
                Claim::Done => return,
            }
        }
    }));
    if let Err(payload) = run {
        let _ = results.send(Prepared::Panicked(payload));
    }
}

/// Sets `stop` and wakes every helper when dropped.
struct StopOnExit<'a> {
    gate: &'a Gate,
    helpers: &'a [Thread],
}

impl Drop for StopOnExit<'_> {
    fn drop(&mut self) {
        self.gate.stop.store(true, Ordering::Relaxed);
        self.helpers.iter().for_each(Thread::unpark);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    /// Runs `task` on `0..n` and collects the committed results, which
    /// must arrive in index order.
    fn collect<T: Send, E: Send>(
        n: usize,
        width: usize,
        lookahead: usize,
        task: impl Fn(usize) -> Result<T, E> + Sync,
    ) -> Result<Vec<T>, E> {
        let mut out = Vec::with_capacity(n);
        run_pipelined(
            n,
            width,
            lookahead,
            || (),
            |(), i| task(i),
            |i, result| {
                assert_eq!(i, out.len(), "commits out of order");
                out.push(result?);
                Ok(())
            },
        )?;
        Ok(out)
    }

    #[test]
    fn results_are_in_index_order_at_any_parallelism() {
        for width in [1, 2, 4, 8] {
            for lookahead in [1, 3, 17] {
                let out = collect(17, width, lookahead, |i| {
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
    }

    #[test]
    fn lowest_index_error_wins() {
        let err = collect(16, 4, 8, |i| {
            if i == 11 || i == 3 {
                Err(format!("task {i}"))
            } else {
                Ok(i)
            }
        })
        .unwrap_err();
        assert_eq!(err, "task 3");
    }

    /// The job manager's shape, a lookahead of the whole batch: results
    /// are committed in index order at every width.
    #[test]
    fn job_pool_results_in_index_order_at_any_width() {
        for workers in [1, 2, 4, 8] {
            let out = collect(19, workers, 19, |i| {
                if i % 3 == 0 {
                    std::thread::yield_now();
                }
                Ok::<_, String>(i * 7)
            })
            .unwrap();
            assert_eq!(out, (0..19).map(|i| i * 7).collect::<Vec<_>>());
        }
    }

    /// Two failures far apart in a batch-wide lookahead: the lower one
    /// is reported.
    #[test]
    fn job_pool_lowest_index_error_wins() {
        let err = collect(16, 4, 16, |i| {
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
        let err = collect(10, 1, 10, |i| {
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

    /// Task 0 fails and so is never committed: the gate then lets no
    /// task at or above the lookahead start, however long the run waits.
    #[test]
    fn known_failure_skips_higher_indexed_tasks() {
        for width in [2, 4, 8] {
            let ran = AtomicUsize::new(0);
            let err = collect(40, width, 4, |i| {
                ran.fetch_add(1, Ordering::SeqCst);
                if i == 0 {
                    // Give the other workers time to reach the gate.
                    std::thread::sleep(Duration::from_millis(5));
                    Err("early")
                } else {
                    Ok(i)
                }
            })
            .unwrap_err();
            assert_eq!(err, "early");
            let ran = ran.load(Ordering::SeqCst);
            assert!(ran <= 4, "width {width}: {ran} tasks ran past the gate");
        }
    }

    /// Task 0 is held until every other task has finished: at width 2
    /// and a lookahead of the whole batch — the job manager's — the
    /// second worker must get through all of them on its own.
    #[test]
    fn a_slow_first_task_does_not_hold_back_the_others() {
        let others_done = AtomicUsize::new(0);
        let out = collect(8, 2, 8, |i| {
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

    /// Each thread that prepares builds its state once and keeps it.
    #[test]
    fn each_worker_keeps_its_own_state() {
        for width in [1, 2, 4] {
            let inits = AtomicUsize::new(0);
            let mut seen = Vec::new();
            let Ok(()) = run_pipelined(
                50,
                width,
                width * 2,
                || {
                    inits.fetch_add(1, Ordering::SeqCst);
                    (std::thread::current().id(), 0usize)
                },
                |(owner, uses), i| {
                    assert_eq!(*owner, std::thread::current().id());
                    *uses += 1;
                    i
                },
                |i, out| {
                    assert_eq!(i, out);
                    seen.push(out);
                    Ok::<_, std::convert::Infallible>(())
                },
            );
            assert_eq!(seen, (0..50).collect::<Vec<_>>());
            assert!(inits.load(Ordering::SeqCst) <= width, "width {width}");
        }
    }

    /// A helper that finds the gate closed parks, and the next commit
    /// wakes it: with a lookahead of 2 the helper is shut out after
    /// every task or two, yet it keeps preparing while the caller sleeps
    /// in its own tasks. Were it left parked, the caller would prepare
    /// every task but the first few itself. Whether a parked thread has
    /// been woken cannot be observed, so the test counts what the helper
    /// prepared, far below the half it gets when woken.
    #[test]
    fn a_helper_waiting_at_the_gate_wakes_at_the_next_commit() {
        let caller = std::thread::current().id();
        let on_helper = AtomicUsize::new(0);
        collect(200, 2, 2, |i| {
            if std::thread::current().id() == caller {
                std::thread::sleep(Duration::from_micros(200));
            } else {
                on_helper.fetch_add(1, Ordering::SeqCst);
            }
            Ok::<_, String>(i)
        })
        .unwrap();
        let on_helper = on_helper.load(Ordering::SeqCst);
        assert!(on_helper >= 10, "the helper prepared {on_helper} of 200");
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
    /// once, yield, sleep or fail, at widths 2 to 8 and lookaheads 1 to
    /// 24:
    ///
    /// - results are committed in index order, and every task runs at
    ///   most once;
    /// - a schedule without failures commits every task; a failing one
    ///   returns the lowest failing index's error, commits every task
    ///   below it, and ran each of those exactly once;
    /// - no task `i` starts while `i ≥ committed + lookahead`;
    /// - indices are pulled in increasing order: when task `i` starts,
    ///   the only lower tasks not yet started are ones another worker has
    ///   pulled and not yet begun, at most one per other worker.
    #[test]
    fn seeded_schedules_keep_the_contract() {
        for seed in 0..48u64 {
            let mut rng = seed;
            let n = 64 + (next_u64(&mut rng) % 193) as usize;
            let width = 2 + (next_u64(&mut rng) % 7) as usize;
            let lookahead = 1 + (next_u64(&mut rng) % 24) as usize;
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
            let (late_starts, early_starts) = (AtomicUsize::new(0), AtomicUsize::new(0));
            // Commits counted by the commits themselves, before the
            // executor's own count moves.
            let committed = AtomicUsize::new(0);
            let mut out = Vec::new();
            let result = run_pipelined(
                n,
                width,
                lookahead,
                || (),
                |(), i| {
                    runs[i].fetch_add(1, Ordering::SeqCst);
                    if i >= committed.load(Ordering::SeqCst) + lookahead {
                        early_starts.fetch_add(1, Ordering::SeqCst);
                    }
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
                },
                |i, result| {
                    assert_eq!(i, out.len(), "commits out of order");
                    out.push(result?);
                    committed.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                },
            );
            let at = format!("seed {seed}, {n} tasks at width {width}, lookahead {lookahead}");
            let runs: Vec<usize> = runs.iter().map(|r| r.load(Ordering::SeqCst)).collect();
            assert!(runs.iter().all(|&r| r <= 1), "{at}: runs {runs:?}");
            match steps.iter().position(|s| matches!(s, Step::Fail)) {
                None => {
                    assert_eq!(result, Ok(()), "{at}");
                    assert_eq!(out, (0..n).map(|i| i * 3 + 1).collect::<Vec<_>>(), "{at}");
                    assert!(runs.iter().all(|&r| r == 1), "{at}: runs {runs:?}");
                }
                Some(lowest) => {
                    assert_eq!(result, Err(lowest), "{at}");
                    assert_eq!(out.len(), lowest, "{at}");
                    assert!(runs[..=lowest].iter().all(|&r| r == 1), "{at}: {runs:?}");
                }
            }
            assert_eq!(
                early_starts.load(Ordering::SeqCst),
                0,
                "{at}: an early start"
            );
            assert_eq!(late_starts.load(Ordering::SeqCst), 0, "{at}: a late start");
        }
    }

    #[test]
    #[should_panic(expected = "task 3 panicked")]
    fn a_panicking_task_reaches_the_caller() {
        let _ = collect(6, 2, 2, |i| {
            if i == 3 {
                panic!("task 3 panicked");
            }
            Ok::<_, String>(i)
        });
    }

    /// The first helper to get a task panics once the caller's tasks are
    /// done and the other workers had time to reach the closed gate: at
    /// every width the caller panics with the task's payload instead of
    /// waiting for a commit that never comes.
    #[test]
    fn a_helper_panic_reaches_the_caller_while_the_others_wait_at_the_gate() {
        for width in 2..=8 {
            let caller = std::thread::current().id();
            let panicking = AtomicBool::new(false);
            let run = panic::catch_unwind(AssertUnwindSafe(|| {
                collect(64, width, width, |i| {
                    if std::thread::current().id() == caller {
                        // Hold the caller until a helper has a task, so
                        // one does at every width.
                        let deadline = Instant::now() + Duration::from_secs(10);
                        while !panicking.load(Ordering::SeqCst) && Instant::now() < deadline {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    } else if !panicking.swap(true, Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(20));
                        panic!("task {i} panicked on a helper");
                    }
                    Ok::<_, String>(i)
                })
            }));
            let payload = run.expect_err("the helper's panic reached the caller");
            let message = payload
                .downcast_ref::<String>()
                .expect("a formatted payload");
            assert!(
                message.ends_with("panicked on a helper"),
                "width {width}: {message}"
            );
        }
    }
}
