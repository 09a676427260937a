//! Upload clients: standard HDFS, HAIL, and the naive two-pass ablation.
//!
//! Each node uploads its local portion of the dataset (the paper
//! generates 20 GB/13 GB *per node*). The cluster-wide upload time is the
//! slowest node's pipelined time, computed from the per-node cost
//! ledgers the upload fills.
//!
//! The HAIL client uses the pipeline's two phases: the pure per-block
//! [`prepare_hail_block`] runs for several blocks at once, off the chain
//! and a bounded number of blocks ahead, while [`commit_hail_block`]
//! streams, flushes and registers the blocks already prepared on the
//! caller's thread in node order, block order.

use crate::dataset::{Dataset, DatasetFormat};
use bytes::Bytes;
use hail_dfs::{
    commit_hail_block, hail_upload_block, hdfs_upload_block, prepare_hail_block, DfsCluster,
    FaultPlan, PreparedBlock,
};
use hail_index::ReplicaIndexConfig;
use hail_pax::{block_spans, PaxBlock, PaxBlockBuilder};
use hail_sim::ClusterSpec;
use hail_sync::{machine_width, run_pipelined};
use hail_types::{BlockId, DatanodeId, HailError, Result, Schema};

/// Computes the cluster-wide upload time from the per-node ledgers: each
/// node's client + datanode work forms one pipeline; the cluster finishes
/// when the slowest node does.
pub fn upload_seconds(cluster: &DfsCluster, spec: &ClusterSpec) -> f64 {
    cluster
        .upload_ledgers()
        .iter()
        .map(|l| l.pipelined_seconds(&spec.profile, spec.scale))
        .fold(0.0, f64::max)
}

/// Uploads text through the standard HDFS client: blocks are cut after a
/// constant number of bytes (rounded to the previous line end so the
/// baseline parses cleanly at query time; real HDFS splits mid-row and
/// patches it up in the record reader), stored as-is on every replica.
pub fn upload_hadoop(
    cluster: &mut DfsCluster,
    schema: &Schema,
    name: &str,
    node_texts: &[(DatanodeId, String)],
) -> Result<Dataset> {
    for (node, _) in node_texts {
        cluster.check_writer(*node)?;
    }
    let block_size = cluster.config().block_size;
    let mut blocks: Vec<BlockId> = Vec::new();
    for (node, text) in node_texts {
        let mut start = 0usize;
        let bytes = text.as_bytes();
        while start < bytes.len() {
            // Cut at the last newline within block_size.
            let hard_end = (start + block_size).min(bytes.len());
            let end = if hard_end == bytes.len() {
                hard_end
            } else {
                match bytes[start..hard_end].iter().rposition(|&b| b == b'\n') {
                    Some(nl) => start + nl + 1,
                    // A row longer than the remaining window (e.g. a
                    // final partial line spilling over the boundary):
                    // extend the block to the row's end rather than
                    // splitting it, which would turn one logical row
                    // into two garbage fragments on different blocks.
                    // Real HDFS splits mid-row and patches it up in the
                    // record reader; an oversized block models the same
                    // "the row stays whole" semantics.
                    None => bytes[hard_end..]
                        .iter()
                        .position(|&b| b == b'\n')
                        .map(|nl| hard_end + nl + 1)
                        .unwrap_or(bytes.len()),
                }
            };
            let chunk = Bytes::copy_from_slice(&bytes[start..end]);
            blocks.push(hdfs_upload_block(
                cluster,
                *node,
                chunk,
                &FaultPlan::none(),
            )?);
            start = end;
        }
    }
    Ok(Dataset::new(
        name,
        schema.clone(),
        blocks,
        DatasetFormat::HadoopText,
    ))
}

/// Uploads text through the HAIL client (Fig. 1): content-aware block
/// cutting, parse to binary PAX (charged to the node's client ledger),
/// then the HAIL pipeline sorts and indexes each replica.
///
/// Every node uploads its own portion at the same time, as in the paper:
/// cutting and [replica preparation](prepare_hail_block) fan out over up
/// to the machine's available parallelism (one worker per node at most),
/// one block per task, while the chain, the flushes and the
/// registrations commit on this thread in node order, block order. Block
/// ids, ledgers, replica bytes and `Dir_rep` are those of a
/// node-after-node upload; only the wall clock differs.
pub fn upload_hail(
    cluster: &mut DfsCluster,
    schema: &Schema,
    name: &str,
    node_texts: &[(DatanodeId, String)],
    index_config: &ReplicaIndexConfig,
) -> Result<Dataset> {
    upload_hail_at(
        cluster,
        schema,
        name,
        node_texts,
        index_config,
        machine_width(),
        prepare_hail_block,
    )
}

/// How the client prepares one cut block: [`prepare_hail_block`],
/// except in tests that damage a block on its way to the datanodes.
type Prepare = fn(&PaxBlock, &ReplicaIndexConfig) -> Result<PreparedBlock>;

/// Blocks each thread may prepare ahead of the commits: an upload at
/// width `w` holds at most `w × BLOCKS_AHEAD_PER_THREAD` prepared blocks
/// that are not yet committed, however many nodes and blocks it uploads.
const BLOCKS_AHEAD_PER_THREAD: usize = 4;

/// [`upload_hail`] on up to `width` threads, but no more than there are
/// nodes, each block through `prepare`.
///
/// The upload's blocks, in commit order, are found up front: a block's
/// cut depends only on its lines' lengths, so [`block_spans`] finds every
/// cut without parsing. [`run_pipelined`] then cuts and prepares one
/// block per task, each thread with its own builder, up to `width` ×
/// [`BLOCKS_AHEAD_PER_THREAD`] blocks ahead of the commits; on this
/// thread, block by block, the client ledgers of the nodes reached so
/// far are charged and the block is committed, or its error returned —
/// where a serial upload stops. At width 1 this is a serial upload's
/// order of effects.
fn upload_hail_at(
    cluster: &mut DfsCluster,
    schema: &Schema,
    name: &str,
    node_texts: &[(DatanodeId, String)],
    index_config: &ReplicaIndexConfig,
    width: usize,
    prepare: Prepare,
) -> Result<Dataset> {
    index_config.validate(schema)?;
    if index_config.replication() != cluster.config().replication {
        return Err(HailError::Job(format!(
            "index config has {} replicas, cluster replication is {}",
            index_config.replication(),
            cluster.config().replication
        )));
    }
    // Client ledgers are charged before the first commit, so every
    // writer is checked before any block is cut.
    for (node, _) in node_texts {
        cluster.check_writer(*node)?;
    }
    // One client per node, as in the paper.
    let width = width.clamp(1, node_texts.len().max(1));
    let storage = cluster.config().clone();
    // Every block of the upload: the index of its node and its lines.
    let spans: Vec<(usize, &str)> = node_texts
        .iter()
        .enumerate()
        .flat_map(|(node, (_, text))| {
            block_spans(text, storage.block_size)
                .into_iter()
                .map(move |span| (node, span))
        })
        .collect();
    let mut blocks = Vec::with_capacity(spans.len());
    // `node_texts[..charged]` have had their client ledgers charged.
    let mut charged = 0;
    run_pipelined(
        spans.len(),
        width,
        width * BLOCKS_AHEAD_PER_THREAD,
        || PaxBlockBuilder::new(schema.clone(), storage.clone()),
        // A failed cut leaves its rows in the builder, but it also ends
        // the upload: no block prepared after it is committed.
        |builder, i| cut_block(builder, spans[i].1).and_then(|pax| prepare(&pax, index_config)),
        |i, block| {
            let node = spans[i].0;
            if node >= charged {
                charge_clients(cluster, &node_texts[charged..=node]);
                charged = node + 1;
            }
            let writer = node_texts[node].0;
            blocks.push(commit_hail_block(
                cluster,
                writer,
                block?,
                &FaultPlan::none(),
            )?);
            Ok(())
        },
    )?;
    charge_clients(cluster, &node_texts[charged..]);
    Ok(Dataset::new(
        name,
        schema.clone(),
        blocks,
        DatasetFormat::HailPax,
    ))
}

/// The client reads each node's file from local disk and parses every
/// byte to binary (steps 1–2).
fn charge_clients(cluster: &mut DfsCluster, node_texts: &[(DatanodeId, String)]) {
    for (node, text) in node_texts {
        let ledger = cluster.client_ledger_mut(*node);
        ledger.disk_read += text.len() as u64;
        ledger.seeks += 1;
        ledger.parse_cpu += text.len() as u64;
    }
}

/// Parses one block's lines to binary PAX through `builder`, which must
/// be empty.
fn cut_block(builder: &mut PaxBlockBuilder, lines: &str) -> Result<PaxBlock> {
    for line in lines.lines() {
        builder.push_line(line)?;
    }
    builder.finish()
}

/// Runs an upload that stages blocks on `cluster`, abandoning every
/// block it registered if it fails: the namenode then names no block of
/// the failed upload. Replica files already flushed stay on their
/// datanodes as orphans; nothing names them, and HDFS deletes such files
/// later.
pub(crate) fn abandon_on_error<T>(
    cluster: &mut DfsCluster,
    upload: impl FnOnce(&mut DfsCluster) -> Result<T>,
) -> Result<T> {
    // Block ids only grow, so the upload registered every block above
    // the last one before it.
    let last = cluster.namenode().blocks().last().copied();
    let result = upload(cluster);
    if result.is_err() {
        for block in cluster.namenode().blocks() {
            if Some(block) > last {
                cluster.abandon_block(block);
            }
        }
    }
    result
}

/// The naive two-pass upload the paper's first prototype used (§3.1):
/// store the original text like HDFS, then re-read every replica's
/// block, convert to PAX, and re-write it — paying one extra read and one
/// extra write per replica ("for an input file of 100 GB we would have
/// to pay 600 GB extra I/O"). Kept as an ablation.
///
/// The staged text blocks stay registered after a successful upload; a
/// failed one abandons every block it registered, leaving its replica
/// files on the datanodes as orphans.
pub fn upload_hail_naive(
    cluster: &mut DfsCluster,
    schema: &Schema,
    name: &str,
    node_texts: &[(DatanodeId, String)],
    index_config: &ReplicaIndexConfig,
) -> Result<Dataset> {
    abandon_on_error(cluster, |cluster| {
        // Pass 1: plain HDFS upload of the text.
        let staged = upload_hadoop(cluster, schema, name, node_texts)?;

        // Pass 2: per block, each datanode re-reads the text replica,
        // parses, sorts, indexes and re-writes. We model it by charging the
        // extra I/O and then performing the real HAIL conversion.
        let mut blocks = Vec::new();
        for (i, &text_block) in staged.blocks.iter().enumerate() {
            let hosts = cluster.namenode().get_hosts(text_block)?;
            // Extra read + parse on every replica holder.
            for &dn in &hosts {
                let mut extra = hail_sim::CostLedger::new();
                let data = cluster.datanode(dn)?.read_replica(text_block, &mut extra)?;
                // Charge the re-read and the parse to the datanode.
                extra.parse_cpu += data.len() as u64;
                cluster.datanode_mut(dn)?.add_extra(&extra);
            }
            // Rebuild the block as PAX and upload it through the HAIL
            // pipeline from the first replica holder (extra write included in
            // the pipeline's normal accounting).
            let writer = hosts.first().copied().unwrap_or(i % cluster.node_count());
            let mut peek = hail_sim::CostLedger::new();
            let text = cluster
                .datanode(writer)?
                .read_replica(text_block, &mut peek)?;
            let text = String::from_utf8(text.to_vec())
                .map_err(|_| HailError::Corrupt("text block is not UTF-8".into()))?;
            let mut builder = PaxBlockBuilder::new(schema.clone(), cluster.config().clone());
            for line in text.lines() {
                builder.push_line(line)?;
            }
            let pax = builder.finish()?;
            blocks.push(hail_upload_block(
                cluster,
                writer,
                &pax,
                index_config,
                &FaultPlan::none(),
            )?);
        }
        Ok(Dataset::new(
            name,
            schema.clone(),
            blocks,
            DatasetFormat::HailPax,
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hail_index::HailBlockReplicaInfo;
    use hail_sim::{CostLedger, HardwareProfile};
    use hail_types::{DataType, Field, StorageConfig};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::VarChar),
        ])
        .unwrap()
    }

    fn texts(nodes: usize, rows_per_node: usize) -> Vec<(DatanodeId, String)> {
        (0..nodes)
            .map(|n| {
                let text: String = (0..rows_per_node)
                    .map(|i| format!("{}|value-{n}-{i}\n", (i * 13 + n) % 97))
                    .collect();
                (n, text)
            })
            .collect()
    }

    #[test]
    fn hadoop_upload_splits_by_bytes() {
        let mut c = DfsCluster::new(4, StorageConfig::test_scale(256));
        let ds = upload_hadoop(&mut c, &schema(), "t", &texts(2, 100)).unwrap();
        assert!(ds.block_count() > 2);
        assert_eq!(ds.format, DatasetFormat::HadoopText);
        // All blocks have 3 replicas of identical bytes.
        for &b in &ds.blocks {
            assert_eq!(c.namenode().get_hosts(b).unwrap().len(), 3);
        }
    }

    #[test]
    fn hail_upload_parses_and_indexes() {
        let mut c = DfsCluster::new(4, StorageConfig::test_scale(512));
        let cfg = ReplicaIndexConfig::first_indexed(3, &[0, 1]);
        let ds = upload_hail(&mut c, &schema(), "t", &texts(2, 100), &cfg).unwrap();
        assert!(ds.block_count() >= 2);
        assert_eq!(ds.format, DatasetFormat::HailPax);
        // Every block has an index on column 0 somewhere.
        for &b in &ds.blocks {
            assert_eq!(c.namenode().get_hosts_with_index(b, 0).unwrap().len(), 1);
            assert_eq!(c.namenode().get_hosts_with_index(b, 1).unwrap().len(), 1);
        }
        // The client parsed all text bytes.
        let parse_total: u64 = (0..4).map(|n| c.client_ledger(n).parse_cpu).sum();
        let text_total: u64 = texts(2, 100).iter().map(|(_, t)| t.len() as u64).sum();
        assert_eq!(parse_total, text_total);
    }

    #[test]
    fn upload_time_hail_vs_hadoop_binary_shrink() {
        // Integer-heavy data shrinks a lot in binary; HAIL upload should
        // beat Hadoop despite sorting (the paper's Synthetic result).
        let int_schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
            Field::new("c", DataType::Int),
        ])
        .unwrap();
        let node_texts: Vec<(DatanodeId, String)> = (0..4)
            .map(|n| {
                let text: String = (0..2000)
                    .map(|i| format!("{}|{}|{}\n", 100_000 + i, 200_000 + i * 7, 300_000 + i * 13))
                    .collect();
                (n, text)
            })
            .collect();
        let spec = ClusterSpec::new(4, HardwareProfile::physical());

        let mut hadoop = DfsCluster::new(4, StorageConfig::test_scale(16 * 1024));
        upload_hadoop(&mut hadoop, &int_schema, "syn", &node_texts).unwrap();
        let t_hadoop = upload_seconds(&hadoop, &spec);

        let mut hail = DfsCluster::new(4, StorageConfig::test_scale(16 * 1024));
        let cfg = ReplicaIndexConfig::first_indexed(3, &[0, 1, 2]);
        upload_hail(&mut hail, &int_schema, "syn", &node_texts, &cfg).unwrap();
        let t_hail = upload_seconds(&hail, &spec);

        assert!(
            t_hail < t_hadoop,
            "HAIL ({t_hail:.3}s) should beat Hadoop ({t_hadoop:.3}s) on integer data"
        );
    }

    #[test]
    fn naive_upload_is_slower() {
        let mut fast = DfsCluster::new(4, StorageConfig::test_scale(2048));
        let mut naive = DfsCluster::new(4, StorageConfig::test_scale(2048));
        let cfg = ReplicaIndexConfig::first_indexed(3, &[0]);
        let spec = ClusterSpec::new(4, HardwareProfile::physical());
        upload_hail(&mut fast, &schema(), "t", &texts(2, 200), &cfg).unwrap();
        upload_hail_naive(&mut naive, &schema(), "t", &texts(2, 200), &cfg).unwrap();
        let t_fast = upload_seconds(&fast, &spec);
        let t_naive = upload_seconds(&naive, &spec);
        assert!(
            t_naive > 1.5 * t_fast,
            "naive two-pass ({t_naive:.4}s) must pay extra I/O vs streaming ({t_fast:.4}s)"
        );
    }

    /// Regression: a trailing unterminated row longer than the block
    /// remainder must stay whole — no dropped or duplicated bytes, and
    /// no row split across two blocks.
    #[test]
    fn final_partial_line_is_never_split() {
        let block_size = 32;
        let mut c = DfsCluster::new(4, StorageConfig::test_scale(block_size));
        // Two short rows, then one long row with NO trailing newline
        // that crosses the block boundary.
        let long_tail = format!("7|{}", "x".repeat(3 * block_size)); // unterminated
        let text = format!("1|aa\n2|bb\n{long_tail}");
        let ds = upload_hadoop(&mut c, &schema(), "t", &[(0, text.clone())]).unwrap();

        // Re-read every block in order and concatenate: byte-identical
        // to the input (nothing dropped, nothing duplicated).
        let mut ledger = hail_sim::CostLedger::new();
        let mut reassembled = Vec::new();
        let mut per_block_rows = Vec::new();
        for &b in &ds.blocks {
            let host = c.namenode().get_hosts(b).unwrap()[0];
            let data = c
                .datanode(host)
                .unwrap()
                .read_replica(b, &mut ledger)
                .unwrap();
            per_block_rows.push(
                std::str::from_utf8(&data)
                    .unwrap()
                    .lines()
                    .map(String::from)
                    .collect::<Vec<_>>(),
            );
            reassembled.extend_from_slice(&data);
        }
        assert_eq!(reassembled, text.as_bytes(), "byte-exact reassembly");

        // Every line of the original text appears exactly once, whole,
        // in exactly one block — the long tail included.
        let all_rows: Vec<String> = per_block_rows.into_iter().flatten().collect();
        let expected: Vec<String> = text.lines().map(String::from).collect();
        assert_eq!(all_rows, expected, "no row may be split across blocks");
        assert!(all_rows.contains(&long_tail));
    }

    /// A mid-file row longer than the block size also stays whole (the
    /// block overflows rather than cutting the row).
    #[test]
    fn oversized_interior_row_stays_whole() {
        let block_size = 16;
        let mut c = DfsCluster::new(4, StorageConfig::test_scale(block_size));
        let big = format!("9|{}", "y".repeat(5 * block_size));
        let text = format!("1|aa\n{big}\n2|bb\n");
        let ds = upload_hadoop(&mut c, &schema(), "t", &[(0, text.clone())]).unwrap();
        let mut ledger = hail_sim::CostLedger::new();
        let mut reassembled = Vec::new();
        for &b in &ds.blocks {
            let host = c.namenode().get_hosts(b).unwrap()[0];
            let data = c
                .datanode(host)
                .unwrap()
                .read_replica(b, &mut ledger)
                .unwrap();
            let block_text = std::str::from_utf8(&data).unwrap();
            // No block holds a fragment of the big row.
            for line in block_text.lines() {
                assert!(
                    text.lines().any(|l| l == line),
                    "block holds a split fragment: {line:?}"
                );
            }
            reassembled.extend_from_slice(&data);
        }
        assert_eq!(reassembled, text.as_bytes());
    }

    /// An upload with a writer outside the cluster fails before it
    /// allocates a block id or charges a client ledger, whichever node
    /// the writer's text follows.
    #[test]
    fn a_writer_outside_the_cluster_is_refused() {
        let cfg = ReplicaIndexConfig::first_indexed(3, &[0, 1]);
        let mut node_texts = texts(2, 100);
        node_texts.push((99, node_texts[1].1.clone()));
        let idle = CostLedger::new();
        for hail in [false, true] {
            let mut c = DfsCluster::new(4, StorageConfig::test_scale(512));
            let upload = if hail {
                upload_hail(&mut c, &schema(), "t", &node_texts, &cfg)
            } else {
                upload_hadoop(&mut c, &schema(), "t", &node_texts)
            };
            assert!(upload.is_err(), "hail: {hail}");
            assert_eq!(c.namenode().block_count(), 0, "hail: {hail}");
            assert!(
                c.upload_ledgers().iter().all(|l| *l == idle),
                "hail: {hail}"
            );
        }
    }

    #[test]
    fn replication_mismatch_rejected() {
        let mut c = DfsCluster::new(4, StorageConfig::test_scale(512));
        let cfg = ReplicaIndexConfig::unindexed(5);
        assert!(upload_hail(&mut c, &schema(), "t", &texts(1, 10), &cfg).is_err());
    }

    fn indexed_schema() -> Schema {
        Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::VarChar),
            Field::new("c", DataType::Int),
        ])
        .unwrap()
    }

    /// Four nodes' portions of several blocks each, with one bad record
    /// apiece.
    fn portions() -> Vec<(DatanodeId, String)> {
        portions_of(120)
    }

    fn portions_of(rows: usize) -> Vec<(DatanodeId, String)> {
        (0..4)
            .map(|n| {
                let mut text: String = (0..rows)
                    .map(|i| format!("{}|value-{n}-{i}|{}\n", (i * 31 + n * 7) % 101, i % 5))
                    .collect();
                text.push_str(&format!("not-a-key|bad-{n}|0\n"));
                (n, text)
            })
            .collect()
    }

    fn storage() -> StorageConfig {
        StorageConfig::test_scale(1024)
    }

    /// Everything an upload leaves behind.
    #[derive(Debug, PartialEq)]
    struct Stored {
        /// Every datanode's replicas, read back whole; a whole read
        /// checks the checksum file against the bytes.
        replicas: Vec<(DatanodeId, BlockId, Bytes)>,
        dir_rep: Vec<HailBlockReplicaInfo>,
        stored_bytes: u64,
        ledgers: Vec<CostLedger>,
        upload_seconds: u64,
        /// The id the next upload gets: failed uploads consume ids too.
        next_block: BlockId,
    }

    impl Stored {
        fn of(c: &mut DfsCluster) -> Stored {
            let mut ledger = CostLedger::new();
            let mut replicas = Vec::new();
            for dn in 0..c.node_count() {
                let node = c.datanode(dn).unwrap();
                for block in node.stored_blocks() {
                    replicas.push((dn, block, node.read_replica(block, &mut ledger).unwrap()));
                }
            }
            let nn = c.namenode();
            let dir_rep = nn
                .blocks()
                .into_iter()
                .flat_map(|b| nn.get_hosts(b).unwrap().into_iter().map(move |dn| (b, dn)))
                .map(|(b, dn)| nn.replica_info(b, dn).unwrap().clone())
                .collect();
            let spec = ClusterSpec::new(4, HardwareProfile::physical());
            let stored = Stored {
                replicas,
                dir_rep,
                stored_bytes: c.stored_bytes(),
                ledgers: c.upload_ledgers(),
                upload_seconds: upload_seconds(c, &spec).to_bits(),
                next_block: 0,
            };
            let probe = hail_pax::blocks_from_text("1|next|2\n", &indexed_schema(), &storage())
                .unwrap()
                .remove(0);
            let config = ReplicaIndexConfig::unindexed(3);
            let next_block = hail_upload_block(c, 0, &probe, &config, &FaultPlan::none()).unwrap();
            Stored {
                next_block,
                ..stored
            }
        }
    }

    type Outcome = (std::result::Result<Vec<BlockId>, String>, Stored);

    fn upload_at(
        width: usize,
        texts: &[(DatanodeId, String)],
        config: &ReplicaIndexConfig,
        prepare: Prepare,
    ) -> Outcome {
        let mut c = DfsCluster::new(4, storage());
        let result = upload_hail_at(
            &mut c,
            &indexed_schema(),
            "t",
            texts,
            config,
            width,
            prepare,
        )
        .map(|ds| ds.blocks)
        .map_err(|e| e.to_string());
        (result, Stored::of(&mut c))
    }

    /// The node-after-node, block-after-block upload through
    /// `hail_upload_block`: the oracle the fan-out must reproduce.
    fn serial_oracle(texts: &[(DatanodeId, String)], config: &ReplicaIndexConfig) -> Outcome {
        let mut c = DfsCluster::new(4, storage());
        let mut blocks = Vec::new();
        let mut upload = |c: &mut DfsCluster| -> Result<()> {
            for (node, text) in texts {
                let ledger = c.client_ledger_mut(*node);
                ledger.disk_read += text.len() as u64;
                ledger.seeks += 1;
                ledger.parse_cpu += text.len() as u64;
                let mut builder = PaxBlockBuilder::new(indexed_schema(), storage());
                for line in text.lines() {
                    builder.push_line(line)?;
                    if builder.is_full() {
                        let pax = damaged(builder.finish()?);
                        blocks.push(hail_upload_block(
                            c,
                            *node,
                            &pax,
                            config,
                            &FaultPlan::none(),
                        )?);
                    }
                }
                if !builder.is_empty() {
                    let pax = damaged(builder.finish()?);
                    blocks.push(hail_upload_block(
                        c,
                        *node,
                        &pax,
                        config,
                        &FaultPlan::none(),
                    )?);
                }
            }
            Ok(())
        };
        let result = upload(&mut c).map_err(|e| e.to_string());
        (result.map(|()| blocks), Stored::of(&mut c))
    }

    /// A block holding the value `poison` loses that value's terminator
    /// on its way to the datanodes, which a sorting position trips over;
    /// any other block passes unchanged.
    fn damaged(pax: PaxBlock) -> PaxBlock {
        let Some(at) = pax.bytes().windows(7).position(|w| w == b"poison\0") else {
            return pax;
        };
        let mut raw = pax.bytes().to_vec();
        raw[at + 6] = b'!';
        PaxBlock::parse(Bytes::from(raw)).unwrap()
    }

    fn damaging_prepare(pax: &PaxBlock, config: &ReplicaIndexConfig) -> Result<PreparedBlock> {
        prepare_hail_block(&damaged(pax.clone()), config)
    }

    fn configs() -> [ReplicaIndexConfig; 3] {
        [
            ReplicaIndexConfig::unindexed(3),
            ReplicaIndexConfig::first_indexed(3, &[0, 1, 2]),
            ReplicaIndexConfig::first_indexed(3, &[0])
                .with_zone_map(0)
                .with_bloom(1),
        ]
    }

    /// Blocks, replica bytes and checksums, `Dir_rep`, ledgers and the
    /// simulated upload time do not depend on how many nodes' portions
    /// are prepared at once, and equal a serial upload's.
    #[test]
    fn upload_is_identical_at_every_width() {
        let texts = portions();
        for config in configs() {
            let oracle = serial_oracle(&texts, &config);
            let blocks = oracle.0.as_ref().unwrap();
            assert!(blocks.len() >= 8, "{} blocks", blocks.len());
            for width in [1, 2, 4, 8] {
                let out = upload_at(width, &texts, &config, damaging_prepare);
                assert!(out == oracle, "width {width}, {config:?}");
            }
        }
        // The last config really built every sidecar kind.
        let (_, stored) = serial_oracle(&texts, &configs()[2]);
        assert!(stored.dir_rep.iter().all(|r| r.index.sidecars.len() == 2));
    }

    /// The cuts found from line lengths alone are the builder's: each
    /// span parses to exactly the block the builder cuts there, with
    /// CRLF and bare line ends, empty lines, a missing final newline and
    /// lines longer than a block.
    #[test]
    fn block_spans_cut_where_the_builder_fills_up() {
        let long = format!("9|{}|1", "y".repeat(90));
        let texts = [
            portions().remove(0).1,
            "1|a|2\r\n2|b|3\r\n\r\n3|c|4\r\n".repeat(9),
            format!("1|a|2\n\n{long}\n4|d|5\n{long}\n5|e|6"),
            String::new(),
            "\n\n\n".into(),
        ];
        for text in &texts {
            for block_size in [1, 7, 40, 100, 1024] {
                let storage = StorageConfig::test_scale(block_size);
                let expected =
                    hail_pax::blocks_from_text(text, &indexed_schema(), &storage).unwrap();
                let spans = block_spans(text, block_size);
                assert_eq!(spans.concat(), *text);
                let mut builder = PaxBlockBuilder::new(indexed_schema(), storage.clone());
                let cut: Vec<PaxBlock> = spans
                    .iter()
                    .map(|span| cut_block(&mut builder, span).unwrap())
                    .collect();
                let bytes = |blocks: &[PaxBlock]| -> Vec<Bytes> {
                    blocks.iter().map(|b| b.bytes().clone()).collect()
                };
                assert_eq!(bytes(&cut), bytes(&expected), "{text:?} at {block_size}");
            }
        }
    }

    static PREPARED: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

    fn counting_prepare(pax: &PaxBlock, config: &ReplicaIndexConfig) -> Result<PreparedBlock> {
        PREPARED.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        prepare_hail_block(pax, config)
    }

    /// The upload runs at most its lookahead ahead of its commits: when
    /// node 0's first block fails to cut, and so is never committed,
    /// fewer than `width × BLOCKS_AHEAD_PER_THREAD` blocks were
    /// prepared, however many nodes wait behind it.
    #[test]
    fn an_upload_prepares_at_most_one_window_ahead() {
        let mut texts = portions_of(600);
        let per_node = block_spans(&texts[1].1, storage().block_size).len();
        assert!(
            per_node >= 2 * BLOCKS_AHEAD_PER_THREAD,
            "{per_node} blocks a node"
        );
        texts[0].1.insert_str(0, "7|nul\0here|1\n");
        let config = ReplicaIndexConfig::first_indexed(3, &[0]);
        for width in [1, 2, 4] {
            PREPARED.store(0, std::sync::atomic::Ordering::SeqCst);
            let (result, stored) = upload_at(width, &texts, &config, counting_prepare);
            assert!(result.unwrap_err().contains("NUL"));
            assert!(stored.replicas.is_empty());
            let prepared = PREPARED.load(std::sync::atomic::Ordering::SeqCst);
            assert!(
                prepared < width * BLOCKS_AHEAD_PER_THREAD,
                "width {width}: {prepared} blocks prepared"
            );
        }
    }

    /// A NUL line in node 1's text, and a last block of node 2 that
    /// fails to build: at every width the upload commits what a serial
    /// upload commits before the failure, consumes the same block ids,
    /// and returns the same error.
    #[test]
    fn a_failed_upload_stops_where_a_serial_upload_stops() {
        let mut nul = portions();
        // Just before node 1's bad record: after its full blocks.
        let at = nul[1].1.find("not-a-key").unwrap();
        nul[1].1.insert_str(at, "7|nul\0here|1\n");
        let mut poisoned = portions();
        poisoned[2].1.push_str("5|poison|1\n");
        let config = ReplicaIndexConfig::first_indexed(3, &[0, 1]);
        for (texts, error) in [(nul, "NUL"), (poisoned, "corrupt block")] {
            let oracle = serial_oracle(&texts, &config);
            let message = oracle.0.as_ref().unwrap_err();
            assert!(message.contains(error), "{message}");
            assert!(!oracle.1.replicas.is_empty());
            for width in [1, 2, 4, 8] {
                let out = upload_at(width, &texts, &config, damaging_prepare);
                assert!(
                    out == oracle,
                    "width {width}: {:?} vs {:?}",
                    out.0,
                    oracle.0
                );
            }
        }
    }
}
