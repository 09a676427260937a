//! The suite's datasets, its one physical design, and the oracle every
//! output is checked against.

use hail_bench::{Testbed, LOGICAL_BLOCK};
use hail_core::HailQuery;
use hail_index::ReplicaIndexConfig;
use hail_sim::{ClusterSpec, HardwareProfile, ScaleFactor};
use hail_types::{Row, StorageConfig};
use hail_workloads::{bob_schema, canonical, oracle_eval, UserVisitsGenerator};
use std::hash::{Hash, Hasher};

pub const DEFAULT_SEED: u64 = 0x5EED_CAFE;
pub const NODES: usize = 4;
const REPLICATION: usize = 3;
/// Values per index partition: the paper's 1,024 per 64 MB block is
/// ≈650 partitions; blocks of 1 000–3 750 rows get 16–59 of these.
const PARTITION_SIZE: usize = 64;

/// A UserVisits dataset: rows and blocks per node (4 nodes).
#[derive(Debug, Clone, Copy)]
pub struct DatasetSpec {
    pub rows_per_node: usize,
    pub blocks_per_node: usize,
}

/// 2.0 MB of text in 20 blocks: one upload of it is one ~120 ms op,
/// and a whole adaptive flip plus a failover job stays under 100 ms.
/// Five blocks per node, not four: 16 full-scan tasks on 8 map slots
/// are exactly two waves, and which seeds spill into a third is an
/// accident of replica sizes; 20 always take three.
pub const UV16K: DatasetSpec = DatasetSpec {
    rows_per_node: 4_000,
    blocks_per_node: 5,
};
/// 12.2 MB in 32 blocks: two full scans of it are one ~120 ms op.
pub const UV96K: DatasetSpec = DatasetSpec {
    rows_per_node: 24_000,
    blocks_per_node: 8,
};
/// 30.6 MB in 64 blocks of ~478 KB: enough blocks that planning,
/// pruning and split packing have something to do per job.
pub const UV240K: DatasetSpec = DatasetSpec {
    rows_per_node: 60_000,
    blocks_per_node: 16,
};

impl DatasetSpec {
    /// ≈1 % of the rows for the `--quick` smoke mode, same block
    /// structure (at least 16 rows per block so every block indexes).
    pub fn quick(self) -> DatasetSpec {
        DatasetSpec {
            rows_per_node: (self.rows_per_node / 100).max(self.blocks_per_node * 16),
            ..self
        }
    }
}

/// Builds the testbed from its public fields, as
/// `hail_bench::uv_testbed` does, but with the generator seed an
/// argument.
pub fn testbed(spec: DatasetSpec, seed: u64) -> Testbed {
    let generator = UserVisitsGenerator {
        seed,
        magic_rows_per_node: 5,
    };
    let texts = generator.generate(NODES, spec.rows_per_node);
    // Sized from the longest node's text, rounded up: the client cuts
    // at row ends, so a block size taken from a shorter node would leave
    // the longer ones a sliver of an extra block on some seeds — a
    // different block structure, not a different input of the same one.
    let longest = texts.iter().map(|(_, t)| t.len()).max().unwrap_or(1);
    let real_block = longest.div_ceil(spec.blocks_per_node).max(1);
    let scale = hail_bench::ExperimentScale {
        nodes: NODES,
        rows_per_node: spec.rows_per_node,
        blocks_per_node: spec.blocks_per_node,
        index_partition_size: PARTITION_SIZE,
        replication: REPLICATION,
    };
    Testbed {
        scale,
        schema: bob_schema(),
        texts,
        storage: StorageConfig {
            block_size: real_block,
            replication: REPLICATION,
            delimiter: '|',
            index_partition_size: PARTITION_SIZE,
        },
        spec: ClusterSpec::new(NODES, HardwareProfile::physical())
            .with_scale(ScaleFactor::from_block_sizes(real_block, LOGICAL_BLOCK)),
    }
}

pub fn text_bytes(tb: &Testbed) -> u64 {
    tb.texts.iter().map(|(_, t)| t.len() as u64).sum()
}

/// `IDX3_SYN`: clustered on visitDate / sourceIP / adRevenue, zone map
/// + Bloom on sourceIP and visitDate.
pub fn idx3_syn() -> ReplicaIndexConfig {
    ReplicaIndexConfig::first_indexed(REPLICATION, &[2, 0, 3])
        .with_synopses(0)
        .with_synopses(2)
}

/// Order-independent digest of a row multiset.
pub fn digest(rows: &[Row]) -> u64 {
    rows.iter().fold(0u64, |acc, row| {
        // DefaultHasher::new() is keyed with constants: deterministic,
        // and both sides of every comparison are hashed in-process.
        let mut h = std::collections::hash_map::DefaultHasher::new();
        row.hash(&mut h);
        acc.wrapping_add(h.finish())
    })
}

/// What a query must return: row count and digest, established by the
/// oracle during set-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub rows: usize,
    pub digest: u64,
}

impl Expected {
    pub fn of(rows: &[Row]) -> Expected {
        Expected {
            rows: rows.len(),
            digest: digest(rows),
        }
    }

    pub fn matches(&self, rows: &[Row]) -> bool {
        *self == Expected::of(rows)
    }
}

/// Compares `rows` with the text-level oracle row for row
/// (canonicalised) and returns the expectation timed ops are held to.
pub fn verify_against_oracle(
    tb: &Testbed,
    query: &HailQuery,
    rows: &[Row],
    what: &str,
) -> Result<Expected, String> {
    let oracle = oracle_eval(&tb.texts, &tb.schema, query);
    if canonical(rows) != canonical(&oracle) {
        return Err(format!(
            "{what}: {} rows differ from the oracle's {}",
            rows.len(),
            oracle.len()
        ));
    }
    Ok(Expected::of(&oracle))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hail_types::Value;

    #[test]
    fn digest_ignores_order_but_not_content() {
        let a = Row::new(vec![Value::Int(1), Value::Int(2)]);
        let b = Row::new(vec![Value::Int(3), Value::Int(4)]);
        assert_eq!(
            digest(&[a.clone(), b.clone()]),
            digest(&[b.clone(), a.clone()])
        );
        assert_ne!(
            digest(&[a.clone(), b.clone()]),
            digest(&[a.clone(), a.clone()])
        );
        assert!(Expected::of(&[a.clone(), b.clone()]).matches(&[b, a]));
    }

    #[test]
    fn testbed_follows_the_seed_and_the_block_count() {
        let spec = UV16K.quick();
        let one = testbed(spec, 1);
        let again = testbed(spec, 1);
        let other = testbed(spec, 2);
        assert_eq!(one.texts, again.texts);
        assert_ne!(one.texts, other.texts);
        assert_eq!(one.texts.len(), NODES);
        let longest = one.texts.iter().map(|(_, t)| t.len()).max().unwrap();
        assert_eq!(
            one.storage.block_size,
            longest.div_ceil(spec.blocks_per_node)
        );
    }
}
