//! The shared chunked drive loop: the single place the engine turns a
//! batch of assigned splits into completed reads.
//!
//! Three drive sites used to open-code the same `chunks(64)` loop with
//! their own chunk-index bookkeeping — the normal execution phase of
//! [`crate::scheduler::run_map_job`], and the failover re-evaluation
//! and rerun passes of [`crate::failover::run_map_job_with_failure`].
//! They now all call [`ChunkedDrive::run`], so the chunk-boundary
//! discipline (fixed boundaries, per-chunk record drop, split-order
//! delivery) cannot silently diverge between them. Each task carries the
//! [`crate::SplitSource`] of the plan its split came from through to the
//! format unchanged.

use crate::inflight::InterestGuard;
use crate::input_format::{InputFormat, SplitRead, SplitTask};
use crate::scheduler::MapJob;
use hail_dfs::DfsCluster;
use hail_types::{BlockId, Result};

/// How many splits the drive loop reads per
/// [`InputFormat::read_split_batch`] call. Bounds peak memory: a
/// chunk's buffered records are consumed and dropped before the next
/// chunk is read, so a job over thousands of splits holds at most one
/// chunk's raw records — not the whole job's — while still giving the
/// format plenty of splits to overlap. The boundary is a fixed
/// constant, independent of any parallelism knob, so chunk barriers
/// (including the per-chunk feedback absorption inside the batch read)
/// fall identically at every setting.
pub const SPLIT_BATCH_CHUNK: usize = 64;

/// The shared drive loop over one batch of assigned splits.
///
/// Feeds the batch to [`InputFormat::read_split_batch`] in fixed
/// [`SPLIT_BATCH_CHUNK`]-sized chunks and hands each completed
/// [`SplitRead`] — tagged with its batch-wide index — to the caller's
/// sink, strictly in batch order. The sink consumes each read (maps
/// its records, collects its statistics) before the next chunk is
/// read, preserving the O(chunk) peak-memory bound at every call site.
pub struct ChunkedDrive<'a> {
    cluster: &'a DfsCluster,
    format: &'a dyn InputFormat,
    job_parallelism: Option<usize>,
    interest: Option<&'a InterestGuard>,
}

impl<'a> ChunkedDrive<'a> {
    /// A drive loop reading through `format` with an explicit job-level
    /// overlap bound (see [`MapJob::job_parallelism`]).
    pub fn new(
        cluster: &'a DfsCluster,
        format: &'a dyn InputFormat,
        job_parallelism: Option<usize>,
    ) -> Self {
        ChunkedDrive {
            cluster,
            format,
            job_parallelism,
            interest: None,
        }
    }

    /// The drive loop for one job: its format and its job-level
    /// parallelism override.
    pub fn for_job(cluster: &'a DfsCluster, job: &MapJob<'a>) -> Self {
        ChunkedDrive::new(cluster, job.format, job.job_parallelism)
    }

    /// Attaches a manager-registered interest guard: each chunk's block
    /// interest is released as soon as that chunk's reads are consumed,
    /// so cross-job drain signals (scan-share eviction) track the drive
    /// loop's actual progress instead of whole-job completion.
    pub fn with_interest(mut self, interest: Option<&'a InterestGuard>) -> Self {
        self.interest = interest;
        self
    }

    /// Drives `batch` to completion, invoking `sink(index, read)` for
    /// every split — `index` is the position within `batch` — strictly
    /// in batch order. Errors from the batch read surface immediately;
    /// chunks past a failing one are never read.
    pub fn run(
        &self,
        batch: &[SplitTask<'_>],
        mut sink: impl FnMut(usize, SplitRead),
    ) -> Result<()> {
        for (chunk_idx, chunk) in batch.chunks(SPLIT_BATCH_CHUNK).enumerate() {
            let chunk_start = chunk_idx * SPLIT_BATCH_CHUNK;
            let reads = self
                .format
                .read_split_batch(self.cluster, chunk, self.job_parallelism)?;
            for (offset, read) in reads.into_iter().enumerate() {
                sink(chunk_start + offset, read);
            }
            if let Some(guard) = self.interest {
                let blocks: Vec<BlockId> = chunk
                    .iter()
                    .flat_map(|t| t.split.blocks.iter().copied())
                    .collect();
                guard.release_blocks(&blocks);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_types,
    reason = "a test-only recorder, not an engine lock, so it carries no LockRank"
)]
mod tests {
    use super::*;
    use crate::input_format::{read_splits_sequentially, InputSplit, SplitPlan};
    use crate::job::{MapRecord, TaskStats};
    use hail_types::{BlockId, HailError, Row, StorageConfig, Value};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// Records the size of every `read_split_batch` call it serves.
    struct ChunkRecordingFormat {
        batch_sizes: Mutex<Vec<usize>>,
        fail_at: Option<u64>,
    }

    impl ChunkRecordingFormat {
        fn new() -> Self {
            ChunkRecordingFormat {
                batch_sizes: Mutex::new(Vec::new()),
                fail_at: None,
            }
        }
    }

    impl InputFormat for ChunkRecordingFormat {
        fn splits(&self, cluster: &DfsCluster, input: &[BlockId]) -> Result<SplitPlan> {
            let live = cluster.live_nodes();
            Ok(SplitPlan {
                splits: input
                    .iter()
                    .map(|&b| InputSplit::for_block(b, vec![live[b as usize % live.len()]]))
                    .collect(),
                ..Default::default()
            })
        }

        fn read_split_batch(
            &self,
            _cluster: &DfsCluster,
            batch: &[SplitTask<'_>],
            _job_parallelism: Option<usize>,
        ) -> Result<Vec<SplitRead>> {
            self.batch_sizes.lock().unwrap().push(batch.len());
            read_splits_sequentially(batch, |task, emit| {
                let block = task.split.blocks[0];
                if self.fail_at == Some(block) {
                    return Err(HailError::Job(format!("block {block}")));
                }
                emit(MapRecord::good(Row::new(vec![Value::Long(block as i64)])));
                Ok(TaskStats {
                    records: 1,
                    ..Default::default()
                })
            })
        }

        fn name(&self) -> &str {
            "chunk-recording"
        }
    }

    fn batch_of(splits: &[InputSplit]) -> Vec<SplitTask<'_>> {
        splits
            .iter()
            .map(|split| SplitTask {
                split,
                task_node: 0,
                source: None,
            })
            .collect()
    }

    /// The drive loop never hands the format more than one chunk of
    /// splits at a time, and the boundaries fall at fixed multiples of
    /// the chunk size regardless of batch length.
    #[test]
    fn chunks_are_bounded_and_fixed() {
        let cluster = DfsCluster::new(2, StorageConfig::default());
        let fmt = ChunkRecordingFormat::new();
        let plan = fmt.splits(&cluster, &(0..150).collect::<Vec<_>>()).unwrap();
        let batch = batch_of(&plan.splits);
        let drive = ChunkedDrive::new(&cluster, &fmt, None);
        let mut seen = Vec::new();
        drive
            .run(&batch, |i, read| seen.push((i, read.records.len())))
            .unwrap();
        assert_eq!(
            *fmt.batch_sizes.lock().unwrap(),
            vec![
                SPLIT_BATCH_CHUNK,
                SPLIT_BATCH_CHUNK,
                150 - 2 * SPLIT_BATCH_CHUNK
            ]
        );
        // The sink sees every split exactly once, in batch order, with
        // batch-wide indices.
        assert_eq!(seen.len(), 150);
        for (pos, (i, records)) in seen.iter().enumerate() {
            assert_eq!(*i, pos);
            assert_eq!(*records, 1);
        }
    }

    /// A read failure stops the drive at its chunk: later chunks are
    /// never requested, and the sink never sees a partial chunk.
    #[test]
    fn failure_stops_at_the_failing_chunk() {
        let cluster = DfsCluster::new(2, StorageConfig::default());
        let mut fmt = ChunkRecordingFormat::new();
        fmt.fail_at = Some(70); // second chunk
        let plan = fmt.splits(&cluster, &(0..200).collect::<Vec<_>>()).unwrap();
        let batch = batch_of(&plan.splits);
        let drive = ChunkedDrive::new(&cluster, &fmt, None);
        let sank = AtomicUsize::new(0);
        let err = drive
            .run(&batch, |_, _| {
                sank.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap_err();
        assert!(err.to_string().contains("block 70"));
        // Only the first (complete) chunk reached the sink; the third
        // chunk was never read.
        assert_eq!(sank.load(Ordering::Relaxed), SPLIT_BATCH_CHUNK);
        assert_eq!(fmt.batch_sizes.lock().unwrap().len(), 2);
    }
}
