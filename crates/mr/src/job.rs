//! Job-level types: records, task statistics, job reports.

use hail_sim::{CostLedger, HardwareProfile, ScaleFactor};
use hail_types::{AccessPathKind, DatanodeId, Row};
use std::collections::BTreeMap;
use std::fmt;

/// One record handed to the map function.
///
/// Mirrors the `HailRecord` of §4.1: a (possibly projected) row plus a
/// flag marking bad records, which HAIL passes through to the map
/// function untouched.
#[derive(Debug, Clone, PartialEq)]
pub struct MapRecord {
    pub row: Row,
    /// True if this record came from the block's bad-record section; the
    /// row then holds a single string value with the raw line.
    pub bad: bool,
}

impl MapRecord {
    pub fn good(row: Row) -> Self {
        MapRecord { row, bad: false }
    }

    pub fn bad(line: String) -> Self {
        MapRecord {
            row: Row::new(vec![hail_types::Value::Str(line)]),
            bad: true,
        }
    }
}

/// Per-access-path block counts: how many blocks of a task (or job)
/// were served by each physical access path.
///
/// Filled by every read of the execution layer's `AccessPath`, so the
/// scheduler and experiment reports can show *how* data was read without
/// re-deriving replica or index choices themselves.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PathCounts(BTreeMap<AccessPathKind, u64>);

impl PathCounts {
    /// Records one block read via `kind`.
    pub fn record(&mut self, kind: AccessPathKind) {
        *self.0.entry(kind).or_insert(0) += 1;
    }

    /// Blocks read via `kind`.
    pub fn get(&self, kind: AccessPathKind) -> u64 {
        self.0.get(&kind).copied().unwrap_or(0)
    }

    /// Total blocks recorded.
    pub fn total(&self) -> u64 {
        self.0.values().sum()
    }

    /// Component-wise sum.
    pub fn merge(&mut self, other: &PathCounts) {
        for (&k, &n) in &other.0 {
            *self.0.entry(k).or_insert(0) += n;
        }
    }

    /// Iterates (kind, count) pairs in kind order.
    pub fn iter(&self) -> impl Iterator<Item = (AccessPathKind, u64)> + '_ {
        self.0.iter().map(|(&k, &n)| (k, n))
    }
}

impl fmt::Display for PathCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (k, n) in self.iter() {
            if !first {
                f.write_str(", ")?;
            }
            write!(f, "{k}×{n}")?;
            first = false;
        }
        if first {
            f.write_str("(none)")?;
        }
        Ok(())
    }
}

/// One block's observed selectivity on a single filter column: of
/// `total` rows in the block, `matched` satisfied the query's bounds on
/// `column`.
///
/// Recorded by the access paths that can attribute their row counts to
/// one column (index scans always can; a full scan only when the query
/// filters a single column). The adaptive loop aggregates them into
/// the re-indexing advisor's evidence store between rounds; no plan
/// reads them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectivityObservation {
    /// 0-based filter column the observation is about.
    pub column: usize,
    /// Predicate class: true when the query filtered this column with an
    /// equality predicate, false for range bounds. Evidence is
    /// aggregated per (column, class) so broad range scans don't mask
    /// the evidence of needle lookups.
    pub eq: bool,
    /// Rows of the block satisfying the query's bounds on `column`.
    pub matched: u64,
    /// Rows in the block.
    pub total: u64,
}

/// What one map task's record reader did, as reported by the
/// `InputFormat`.
#[derive(Debug, Clone, Default)]
pub struct TaskStats {
    /// Physical activity of the read (disk, seeks, CPU, remote bytes).
    pub ledger: CostLedger,
    /// True if the access pattern is latency-bound (index lookup: read
    /// index, seek, read partitions, post-filter) rather than a streaming
    /// scan; priced serially instead of pipelined.
    pub serial_pricing: bool,
    /// Records emitted to the map function.
    pub records: u64,
    /// True if this task had to fall back to a full scan because no
    /// replica with a matching index was reachable.
    pub fell_back_to_scan: bool,
    /// Which access path served each block of this task's split.
    pub paths: PathCounts,
    /// Per-block, per-column observed selectivities, for the re-indexing
    /// advisor's evidence store.
    pub selectivity: Vec<SelectivityObservation>,
    /// Blocks this task's read planned again instead of executing the
    /// plan its split was cut from: every block when there is no such
    /// plan (the baselines' per-block splits, pure scans, a single split
    /// read without one), else the blocks whose split-time plan no
    /// longer holds (a design change or a death moved the design epoch)
    /// or was degraded.
    pub blocks_replanned: u64,
    /// Blocks of this task's split skipped entirely (no candidate
    /// enumeration, no read) because a persisted zone-map or Bloom
    /// synopsis proved they contain no matching row.
    pub blocks_pruned: u64,
    /// Bytes of persisted synopsis sidecars consulted to prune this
    /// task's blocks: synopsis probes replace reads instead of serving
    /// them, so these bytes are not in the ledger's reads.
    pub synopsis_bytes_read: u64,
}

impl TaskStats {
    /// The record-reader time of this task on the given hardware.
    pub fn reader_seconds(&self, hw: &HardwareProfile, scale: ScaleFactor) -> f64 {
        if self.serial_pricing {
            self.ledger.serial_seconds(hw, scale)
        } else {
            self.ledger.pipelined_seconds(hw, scale)
        }
    }

    /// Merges another task's stats into this one (multi-block splits).
    ///
    /// Associative, and always applied **in block order** (a split's
    /// blocks are read on one thread, and splits merge in split order,
    /// never completion order), so even the one order-sensitive field
    /// (the `selectivity` observation sequence, whose order matters to
    /// the evidence store's decay) is bit-for-bit identical at any
    /// parallelism.
    pub fn merge(&mut self, other: &TaskStats) {
        self.ledger.add(&other.ledger);
        self.serial_pricing |= other.serial_pricing;
        self.records += other.records;
        self.fell_back_to_scan |= other.fell_back_to_scan;
        self.paths.merge(&other.paths);
        self.selectivity.extend_from_slice(&other.selectivity);
        self.blocks_replanned += other.blocks_replanned;
        self.blocks_pruned += other.blocks_pruned;
        self.synopsis_bytes_read += other.synopsis_bytes_read;
    }
}

/// Per-task outcome recorded by the scheduler.
#[derive(Debug, Clone)]
pub struct TaskReport {
    /// Index of the split this task processed.
    pub split: usize,
    /// Node the task ran on.
    pub node: DatanodeId,
    /// Simulated start/end times (seconds from job submission).
    pub start: f64,
    pub end: f64,
    /// Record-reader seconds within the task, in the **simulated**
    /// clock domain: the cost model's price for the summed per-block
    /// work of this split, independent of how long the read really
    /// took. This is the number every `T_ideal`/overhead computation
    /// uses.
    pub reader_seconds: f64,
    /// Measured **wall-clock** seconds this process actually spent
    /// inside the record reader for this split. Telemetry only: it must
    /// never feed the simulated accounting (mixing the domains is what
    /// would drive overhead negative once readers run in parallel).
    pub reader_wall_seconds: f64,
    /// True if the task is a re-execution after a failure.
    pub rerun: bool,
    pub stats: TaskStats,
}

/// The full accounting of one job execution.
#[derive(Debug, Clone)]
pub struct JobReport {
    pub job_name: String,
    /// Fixed job startup (JobClient staging etc.).
    pub startup_seconds: f64,
    /// Time the JobClient spent computing splits (Hadoop++ pays header
    /// reads here).
    pub split_phase_seconds: f64,
    /// Scheduled map tasks (including re-executions).
    pub tasks: Vec<TaskReport>,
    /// Number of input splits.
    pub split_count: usize,
    /// Total cluster map slots used for scheduling.
    pub total_slots: usize,
    /// End-to-end simulated job runtime.
    pub end_to_end_seconds: f64,
    /// Measured **wall-clock** seconds the job spent queued in a
    /// [`crate::manager::JobManager`] before it was admitted — zero for
    /// solo runs. Telemetry only, like
    /// [`TaskReport::reader_wall_seconds`]: it lives in the measured
    /// domain, never feeds the simulated accounting, and is the one
    /// report field (besides the per-task wall clocks) allowed to vary
    /// between a managed run and a solo run of the same job.
    pub queue_wait_seconds: f64,
}

impl JobReport {
    /// Average record-reader time across tasks (the paper's Fig. 6b/7b
    /// metric), in seconds — **simulated** clock, i.e. the summed
    /// per-block work as priced by the cost model, never the measured
    /// wall clock of a parallel reader.
    pub fn avg_reader_seconds(&self) -> f64 {
        if self.tasks.is_empty() {
            return 0.0;
        }
        self.tasks.iter().map(|t| t.reader_seconds).sum::<f64>() / self.tasks.len() as f64
    }

    /// Measured wall-clock seconds this process spent inside record
    /// readers, summed across all tasks. It is deliberately separate from
    /// the simulated reader work in [`JobReport::avg_reader_seconds`] so
    /// the paper-scale accounting below never mixes domains.
    pub fn reader_wall_seconds(&self) -> f64 {
        self.tasks.iter().map(|t| t.reader_wall_seconds).sum()
    }

    /// The paper's ideal execution time (§6.4.1):
    /// `#MapTasks / #ParallelMapTasks × Avg(T_RecordReader)`.
    ///
    /// Computed entirely in the simulated domain from
    /// [`JobReport::avg_reader_seconds`]; real parallelism neither
    /// shrinks it (it is *work*, not elapsed time) nor inflates the
    /// overhead below.
    pub fn ideal_seconds(&self) -> f64 {
        if self.total_slots == 0 {
            return 0.0;
        }
        let waves = self.tasks.len() as f64 / self.total_slots as f64;
        waves * self.avg_reader_seconds()
    }

    /// The paper's framework overhead: `T_end-to-end − T_ideal`.
    ///
    /// Both operands live in the simulated domain (`end_to_end_seconds`
    /// comes from the slot pools pricing the same summed reader work),
    /// so parallel runs report the identical, non-negative
    /// overhead of the serial run. Mixing in the measured
    /// [`JobReport::reader_wall_seconds`] would understate `T_ideal`
    /// and, conversely, a wall-clock end-to-end against summed reader
    /// work would go negative — which is why both stay out of this
    /// formula. The floor at zero only guards the fractional-waves
    /// approximation for pathologically uneven task durations.
    pub fn overhead_seconds(&self) -> f64 {
        (self.end_to_end_seconds - self.ideal_seconds()).max(0.0)
    }

    /// Number of map tasks (including reruns).
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Tasks that fell back to a full scan.
    pub fn fallback_count(&self) -> usize {
        self.tasks
            .iter()
            .filter(|t| t.stats.fell_back_to_scan)
            .count()
    }

    /// Blocks planned again at read time across all tasks (see
    /// [`TaskStats::blocks_replanned`]).
    pub fn blocks_replanned(&self) -> u64 {
        self.tasks.iter().map(|t| t.stats.blocks_replanned).sum()
    }

    /// Blocks skipped by synopsis pruning across all tasks (no
    /// candidate enumeration, no read).
    pub fn blocks_pruned(&self) -> u64 {
        self.tasks.iter().map(|t| t.stats.blocks_pruned).sum()
    }

    /// Bytes of persisted synopsis sidecars consulted across all tasks.
    pub fn synopsis_bytes_read(&self) -> u64 {
        self.tasks.iter().map(|t| t.stats.synopsis_bytes_read).sum()
    }

    /// Aggregated access-path usage across all tasks — how the job's
    /// blocks were physically read, as chosen by the planner layer.
    pub fn path_counts(&self) -> PathCounts {
        let mut total = PathCounts::default();
        for t in &self.tasks {
            total.merge(&t.stats.paths);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hail_types::Value;

    fn report_with(reader_times: &[f64], slots: usize) -> JobReport {
        JobReport {
            job_name: "t".into(),
            startup_seconds: 5.0,
            split_phase_seconds: 1.0,
            tasks: reader_times
                .iter()
                .enumerate()
                .map(|(i, &rr)| TaskReport {
                    split: i,
                    node: 0,
                    start: 0.0,
                    end: rr,
                    reader_seconds: rr,
                    reader_wall_seconds: rr / 4.0, // a quarter of the work
                    rerun: false,
                    stats: TaskStats::default(),
                })
                .collect(),
            split_count: reader_times.len(),
            total_slots: slots,
            end_to_end_seconds: 100.0,
            queue_wait_seconds: 0.0,
        }
    }

    #[test]
    fn ideal_formula() {
        let r = report_with(&[2.0, 4.0], 2);
        // avg rr = 3, waves = 1 → ideal = 3.
        assert!((r.ideal_seconds() - 3.0).abs() < 1e-12);
        assert!((r.overhead_seconds() - 97.0).abs() < 1e-12);
    }

    /// The two clock domains stay separate: a wall clock far shorter
    /// than the simulated reader work is reported, but the simulated
    /// ideal/overhead numbers are computed from summed reader work and
    /// cannot go negative because of it.
    #[test]
    fn wall_clock_never_leaks_into_simulated_overhead() {
        let r = report_with(&[2.0, 4.0], 2);
        assert!((r.avg_reader_seconds() - 3.0).abs() < 1e-12);
        // The helper's wall clock is a quarter of the work.
        assert!((r.reader_wall_seconds() - 1.5).abs() < 1e-12);
        // ideal_seconds is unchanged by the wall-clock speedup…
        assert!((r.ideal_seconds() - 3.0).abs() < 1e-12);
        // …and overhead stays the simulated difference, non-negative.
        assert!(r.overhead_seconds() >= 0.0);
        assert!((r.overhead_seconds() - 97.0).abs() < 1e-12);
    }

    #[test]
    fn empty_report() {
        let r = report_with(&[], 2);
        assert_eq!(r.avg_reader_seconds(), 0.0);
        assert_eq!(r.ideal_seconds(), 0.0);
        assert_eq!(r.task_count(), 0);
    }

    #[test]
    fn map_record_constructors() {
        let g = MapRecord::good(Row::new(vec![Value::Int(1)]));
        assert!(!g.bad);
        let b = MapRecord::bad("broken line".into());
        assert!(b.bad);
        assert_eq!(b.row.get(0).unwrap().as_str(), Some("broken line"));
    }

    #[test]
    fn stats_merge() {
        let mut a = TaskStats {
            records: 3,
            blocks_replanned: 1,
            ..Default::default()
        };
        let b = TaskStats {
            records: 4,
            serial_pricing: true,
            fell_back_to_scan: true,
            blocks_replanned: 5,
            blocks_pruned: 2,
            synopsis_bytes_read: 64,
            selectivity: vec![SelectivityObservation {
                column: 3,
                eq: false,
                matched: 10,
                total: 40,
            }],
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.records, 7);
        assert!(a.serial_pricing);
        assert!(a.fell_back_to_scan);
        assert_eq!(a.blocks_replanned, 6);
        assert_eq!(a.blocks_pruned, 2);
        assert_eq!(a.synopsis_bytes_read, 64);
        assert_eq!(a.selectivity, b.selectivity);
    }

    #[test]
    fn reader_seconds_pricing_modes() {
        use hail_sim::HardwareProfile;
        let mut stats = TaskStats::default();
        stats.ledger.disk_read = 50_000_000;
        stats.ledger.scan_cpu = 50_000_000;
        let hw = HardwareProfile::physical();
        let serial = TaskStats {
            serial_pricing: true,
            ..stats.clone()
        };
        assert!(
            serial.reader_seconds(&hw, ScaleFactor::unit())
                > stats.reader_seconds(&hw, ScaleFactor::unit())
        );
    }
}
