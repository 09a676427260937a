//! The [`AccessPath`] enum: every physical way of reading one block
//! replica at query time.
//!
//! The paper's map tasks read a block in exactly three ways, and the
//! [`crate::planner::QueryPlanner`] chooses between them per block and
//! per replica:
//!
//! - [`AccessPath::FullScan`] — stream the whole replica (text, PAX, or
//!   row layout): Hadoop's record reader
//! - [`AccessPath::ClusteredIndexScan`] — HAIL's sparse clustered index
//!   (§4.3)
//! - [`AccessPath::TrojanIndexScan`] — Hadoop++'s dense in-header index
//!   (§5)
//!
//! The set is closed: a new path is a new variant and its match arms.
//!
//! An access path receives a fully resolved [`BlockAccess`] (the block,
//! the serving replica, the task's node) and performs the read: real
//! bytes, real filtering, and cost accounting into a [`TaskStats`] —
//! including, where the read can attribute its row counts to a single
//! filter column, a [`SelectivityObservation`] for the re-indexing
//! advisor's [`crate::feedback::SelectivityFeedback`] store.
//!
//! Every path reads only bytes it verified against the replica's chunk
//! checksums, and verifies only what it reads. The PAX paths and the
//! trojan scan open the replica ([`hail_dfs::Datanode::open_replica`]) and
//! verify each region or partition when they first touch it; the
//! text and row-layout full scans read the whole replica and verify all
//! of it. A chunk that fails is [`HailError::ChecksumMismatch`], which the
//! planner answers by reading another replica
//! ([`crate::QueryPlanner::execute_block_into`]). Verification never
//! changes a ledger: what a path charges is what it would read from disk.

use crate::kernel;
use hail_core::{HailQuery, RowBlock};
use hail_dfs::DfsCluster;
use hail_index::IndexedBlock;
use hail_mr::{MapRecord, SelectivityObservation, TaskStats};
use hail_types::{AccessPathKind, BlockId, DatanodeId, HailError, Result, Schema};
use std::fmt;

/// Everything an access path needs to read one block.
pub struct BlockAccess<'a> {
    pub cluster: &'a DfsCluster,
    pub block: BlockId,
    /// The replica (datanode) serving the read, resolved by the planner.
    pub replica: DatanodeId,
    /// The node the map task runs on; remote reads charge the network.
    pub task_node: DatanodeId,
    pub schema: &'a Schema,
    pub query: &'a HailQuery,
}

impl BlockAccess<'_> {
    /// Charges remote traffic when the serving replica is not local.
    fn charge_remote(&self, stats: &mut TaskStats, bytes: u64) {
        if self.replica != self.task_node {
            stats.ledger.net_sent += bytes;
        }
    }
}

/// One physical way of reading a block replica. Its `Display` is the
/// `EXPLAIN` form, e.g. `clustered-index-scan(@3)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPath {
    /// Streams the whole replica, filters it, reconstructs the projection
    /// (PAX: column at a time through the scan kernel; text and row
    /// layout: row by row). Works on all three storage layouts.
    FullScan(ScanLayout),
    /// HAIL's sparse clustered index scan (§4.3): read the few-KB index
    /// into memory, resolve the first and last qualifying partition in
    /// memory, read *only those partitions* of the needed columns,
    /// binary-search them for the rows within the key bounds,
    /// post-filter those with the conjuncts the bounds do not imply,
    /// reconstruct PAX → rows.
    ClusteredIndexScan {
        /// The 0-based column the chosen replica is clustered on.
        column: usize,
    },
    /// Hadoop++'s trojan index scan (§5): read the (large) in-header
    /// index, resolve the qualifying row range, read those rows from the
    /// binary row layout, post-filter.
    TrojanIndexScan {
        /// The block's trojan key column.
        column: usize,
    },
}

/// The physical layout an [`AccessPath::FullScan`] streams over. Mirrors
/// `hail_core::DatasetFormat` but lives at the access-path layer so the
/// scan knows how to decode what it reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanLayout {
    /// Raw delimited text (standard Hadoop): split every line.
    Text { delimiter: char },
    /// HAIL PAX container (sorted or not).
    HailPax,
    /// Hadoop++ binary row layout.
    RowLayout,
}

impl AccessPath {
    /// The path's kind, for plan explanation and task statistics.
    pub fn kind(self) -> AccessPathKind {
        match self {
            AccessPath::FullScan(_) => AccessPathKind::FullScan,
            AccessPath::ClusteredIndexScan { .. } => AccessPathKind::ClusteredIndexScan,
            AccessPath::TrojanIndexScan { .. } => AccessPathKind::TrojanIndexScan,
        }
    }

    /// Reads the block via this path, emitting qualifying records and
    /// returning the task statistics (with [`TaskStats::paths`] already
    /// recording this read).
    pub fn execute(
        self,
        a: &BlockAccess<'_>,
        emit: &mut dyn FnMut(MapRecord),
    ) -> Result<TaskStats> {
        let mut stats = match self {
            AccessPath::FullScan(ScanLayout::Text { delimiter }) => scan_text(a, delimiter, emit)?,
            AccessPath::FullScan(ScanLayout::RowLayout) => scan_rows(a, emit)?,
            AccessPath::TrojanIndexScan { column } => trojan_scan(a, column, emit)?,
            AccessPath::FullScan(ScanLayout::HailPax) | AccessPath::ClusteredIndexScan { .. } => {
                return self.apply_residual(&open_pax(a)?, a, emit);
            }
        };
        stats.paths.record(self.kind());
        Ok(stats)
    }

    /// `Some(())` for the paths whose read is the two steps
    /// [`AccessPath::produce_decoded`] then [`AccessPath::apply_residual`]
    /// (the PAX full scan and the clustered index scan); `None` for the
    /// others, which read in one step.
    ///
    /// Kept as frozen-suite residue: the `hail-bench` replay asks this to
    /// decide which reads it times as two spans.
    pub fn share_shape(self) -> Option<()> {
        matches!(
            self,
            AccessPath::FullScan(ScanLayout::HailPax) | AccessPath::ClusteredIndexScan { .. }
        )
        .then_some(())
    }

    /// The first step of a two-step read: open the serving replica and
    /// its container, charging nothing. [`AccessPath::apply_residual`]
    /// charges the read and verifies each chunk it touches. Only
    /// meaningful when [`AccessPath::share_shape`] is `Some`.
    pub fn produce_decoded(self, a: &BlockAccess<'_>) -> Result<DecodedBlock> {
        self.share_shape().ok_or_else(one_step)?;
        open_pax(a)
    }

    /// The second step of a two-step read: cost accounting, predicate
    /// evaluation, projection, record emission, and the verification of
    /// every chunk that reads, against an opened block. For the two-step
    /// paths `execute` is exactly `produce_decoded` + `apply_residual`.
    /// Returns stats with [`TaskStats::paths`] recorded.
    pub fn apply_residual(
        self,
        decoded: &DecodedBlock,
        a: &BlockAccess<'_>,
        emit: &mut dyn FnMut(MapRecord),
    ) -> Result<TaskStats> {
        let mut stats = match self {
            AccessPath::FullScan(ScanLayout::HailPax) => scan_pax(&decoded.indexed, a, emit)?,
            AccessPath::ClusteredIndexScan { column } => {
                clustered_scan(&decoded.indexed, column, a, emit)?
            }
            _ => return Err(one_step()),
        };
        stats.paths.record(self.kind());
        Ok(stats)
    }
}

impl fmt::Display for AccessPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessPath::FullScan(ScanLayout::Text { .. }) => f.write_str("full-scan(text)"),
            AccessPath::FullScan(ScanLayout::HailPax) => f.write_str("full-scan(pax)"),
            AccessPath::FullScan(ScanLayout::RowLayout) => f.write_str("full-scan(rows)"),
            AccessPath::ClusteredIndexScan { column } => {
                write!(f, "clustered-index-scan(@{})", column + 1)
            }
            AccessPath::TrojanIndexScan { column } => {
                write!(f, "trojan-index-scan(@{})", column + 1)
            }
        }
    }
}

fn one_step() -> HailError {
    HailError::Internal("access path does not read in two steps".into())
}

/// One opened block replica: the container a two-step read's
/// [`AccessPath::produce_decoded`] returns and its
/// [`AccessPath::apply_residual`] reads. The one thing a read writes
/// into it is the replica's bitmap of verified chunks.
///
/// Kept as frozen-suite residue: the `hail-bench` probes call
/// [`DecodedBlock::indexed`] on what `produce_decoded` returns, so the
/// two steps cannot pass the [`IndexedBlock`] itself.
pub struct DecodedBlock {
    indexed: IndexedBlock,
}

impl DecodedBlock {
    pub fn indexed(&self) -> &IndexedBlock {
        &self.indexed
    }
}

/// Opens the serving replica's HAIL container, verified as it is read:
/// the first step of both two-step reads.
fn open_pax(a: &BlockAccess<'_>) -> Result<DecodedBlock> {
    let dn = a.cluster.datanode(a.replica)?;
    Ok(DecodedBlock {
        indexed: IndexedBlock::open(dn.open_replica(a.block)?)?,
    })
}

/// The full scan of a text block: every line split and compared.
fn scan_text(
    a: &BlockAccess<'_>,
    delimiter: char,
    emit: &mut dyn FnMut(MapRecord),
) -> Result<TaskStats> {
    let dn = a.cluster.datanode(a.replica)?;
    let mut stats = TaskStats::default();
    let bytes = dn.read_replica(a.block, &mut stats.ledger)?;
    // Every record is split into strings and compared — CPU over the
    // whole block (the expensive `v.toString().split(",")` of §4.1).
    stats.ledger.scan_cpu += bytes.len() as u64;
    a.charge_remote(&mut stats, bytes.len() as u64);
    let text = std::str::from_utf8(&bytes)
        .map_err(|_| HailError::Corrupt("text block is not UTF-8".into()))?;
    let (mut matched, mut total) = (0u64, 0u64);
    let projection = a.query.projected_columns(a.schema);
    for line in text.lines() {
        match hail_types::parse_line(line, a.schema, delimiter) {
            hail_types::ParsedRecord::Good(row) => {
                total += 1;
                if a.query.matches(&row) {
                    matched += 1;
                    emit(MapRecord::good(row.project(&projection)));
                    stats.records += 1;
                }
            }
            hail_types::ParsedRecord::Bad { line, .. } => {
                emit(MapRecord::bad(line));
                stats.records += 1;
            }
        }
    }
    if let Some((column, eq)) = sole_filter_column(a.query) {
        stats.selectivity.push(SelectivityObservation {
            column,
            eq,
            matched,
            total,
        });
    }
    Ok(stats)
}

/// The full scan of a Hadoop++ row-layout block.
fn scan_rows(a: &BlockAccess<'_>, emit: &mut dyn FnMut(MapRecord)) -> Result<TaskStats> {
    let dn = a.cluster.datanode(a.replica)?;
    let mut stats = TaskStats::default();
    // The scan reads every row, so it reads — and verifies — the
    // whole replica.
    let row_block = RowBlock::parse(dn.read_replica(a.block, &mut stats.ledger)?)?;
    let blen = row_block.byte_len();
    stats.ledger.scan_cpu += blen as u64;
    a.charge_remote(&mut stats, blen as u64);
    let mut matched = 0u64;
    let projection = a.query.projected_columns(a.schema);
    for r in 0..row_block.row_count() {
        let row = row_block.row(a.schema, r)?;
        if a.query.matches(&row) {
            matched += 1;
            emit(MapRecord::good(row.project(&projection)));
            stats.records += 1;
        }
    }
    if let Some((column, eq)) = sole_filter_column(a.query) {
        stats.selectivity.push(SelectivityObservation {
            column,
            eq,
            matched,
            total: row_block.row_count() as u64,
        });
    }
    for bad in row_block.bad_records(a.schema)? {
        emit(MapRecord::bad(bad));
        stats.records += 1;
    }
    Ok(stats)
}

/// The full scan of an opened PAX block, through the scan kernel.
fn scan_pax(
    indexed: &IndexedBlock,
    a: &BlockAccess<'_>,
    emit: &mut dyn FnMut(MapRecord),
) -> Result<TaskStats> {
    let dn = a.cluster.datanode(a.replica)?;
    let mut stats = TaskStats::default();
    // Charged as the sequential read of the whole replica it models;
    // verified only where the kernel's cursors read.
    dn.charge_replica_read(a.block, &mut stats.ledger)?;
    let pax = indexed.pax();

    // Predicate evaluation + tuple reconstruction stream over the
    // block.
    stats.ledger.scan_cpu += pax.byte_len() as u64;
    a.charge_remote(&mut stats, pax.byte_len() as u64);

    // When the whole conjunction sits on one column, the selection's
    // length doubles as that column's selectivity observation — no
    // extra decode.
    let projection = a.query.projected_columns(a.schema);
    let mut selection = kernel::candidates(0..pax.row_count())?;
    kernel::retain_conjunction(pax, &a.query.predicates, &mut selection)?;
    kernel::materialize(pax, &projection, &selection, |row| {
        emit(MapRecord::good(row));
        stats.records += 1;
    })?;
    if let Some((column, eq)) = sole_filter_column(a.query) {
        stats.selectivity.push(SelectivityObservation {
            column,
            eq,
            matched: selection.len() as u64,
            total: pax.row_count() as u64,
        });
    }
    emit_pax_bad_records(indexed, &mut stats, emit)?;
    Ok(stats)
}

/// The clustered index scan of an opened PAX block.
fn clustered_scan(
    indexed: &IndexedBlock,
    column: usize,
    a: &BlockAccess<'_>,
    emit: &mut dyn FnMut(MapRecord),
) -> Result<TaskStats> {
    let dn = a.cluster.datanode(a.replica)?;
    let index = indexed
        .index()
        .ok_or_else(|| HailError::Internal("replica advertised an index it lacks".into()))?;
    let pax = indexed.pax();

    let mut stats = TaskStats {
        serial_pricing: true,
        ..Default::default()
    };

    // Read the whole index into main memory ("typically a few KB").
    dn.charge_range_read(indexed.metadata().index_bytes, &mut stats.ledger)?;
    let mut remote_bytes = indexed.metadata().index_bytes as u64;

    let bounds = a
        .query
        .bounds_on(column)
        .ok_or_else(|| HailError::Internal("index scan without predicate".into()))?;

    // The index is clustered and sound: every row satisfying the
    // bounds lies inside the qualifying partitions, so counting
    // bound matches there observes the key column's true per-block
    // selectivity — the evidence the re-indexing advisor reads.
    let mut bounds_matched = 0u64;
    if let Some((first, last)) = index.lookup(&bounds) {
        let needed = a.query.needed_columns(a.schema);
        let scan_bytes = pax.partition_scan_bytes(&needed, first, last)?;
        // The qualifying leaves are contiguous on disk: one seek + one
        // sequential read per column region.
        for _ in &needed {
            dn.charge_range_read(0, &mut stats.ledger)?; // seek per column
        }
        stats.ledger.disk_read += scan_bytes as u64;
        remote_bytes += scan_bytes as u64;
        // Post-filtering + PAX→row reconstruction over what was read.
        stats.ledger.scan_cpu += scan_bytes as u64;

        // The partitions are sorted on the key, so the rows within
        // the bounds are one run, found by binary search.
        let matched =
            kernel::sorted_range(pax, column, &bounds, index.partition_rows(first, last))?;
        bounds_matched = matched.len() as u64;
        // The bounds intersect every index-friendly predicate on the
        // key (`@4 >= 1 and @4 <= 10` is `[1, 10]`), so post-filtering
        // runs only the rest: `!=` and the other columns' conjuncts.
        let residual = a
            .query
            .predicates
            .iter()
            .filter(|p| p.column() != column || !p.index_friendly());
        let projection = a.query.projected_columns(a.schema);
        let mut selection = kernel::candidates(matched)?;
        kernel::retain_conjunction(pax, residual, &mut selection)?;
        kernel::materialize(pax, &projection, &selection, |row| {
            emit(MapRecord::good(row));
            stats.records += 1;
        })?;
    }
    stats.selectivity.push(SelectivityObservation {
        column,
        eq: crate::feedback::has_eq_on(a.query, column),
        matched: bounds_matched,
        total: pax.row_count() as u64,
    });

    // Bad records ride along to the map function (§4.3).
    emit_pax_bad_records(indexed, &mut stats, emit)?;
    a.charge_remote(&mut stats, remote_bytes);
    Ok(stats)
}

/// The trojan index scan of a Hadoop++ row-layout block.
fn trojan_scan(
    a: &BlockAccess<'_>,
    column: usize,
    emit: &mut dyn FnMut(MapRecord),
) -> Result<TaskStats> {
    let dn = a.cluster.datanode(a.replica)?;
    // Opening verifies the header and the index; each row of the
    // looked-up range is verified as it is read.
    let row_block = RowBlock::open(dn.open_replica(a.block)?)?;
    let index = row_block
        .index()
        .ok_or_else(|| HailError::Internal("block advertised a trojan index it lacks".into()))?;
    let bounds = a
        .query
        .bounds_on(column)
        .ok_or_else(|| HailError::Internal("trojan scan without predicate".into()))?;

    let mut stats = TaskStats {
        serial_pricing: true,
        ..Default::default()
    };
    // Read the (≈150× larger than HAIL's) trojan index into memory.
    dn.charge_range_read(row_block.header_bytes(), &mut stats.ledger)?;
    let mut remote_bytes = row_block.header_bytes() as u64;

    let projection = a.query.projected_columns(a.schema);
    // The dense trojan index is sound too: all bound matches lie in
    // the looked-up range, so the bound-match count there is the key
    // column's observed per-block selectivity.
    let mut bounds_matched = 0u64;
    if let Some(range) = index.lookup_rows(&bounds) {
        let scan_bytes =
            row_block.row_range_bytes(a.schema, range.start, range.end)? + 4 * range.len(); // the offsets slice for the range
        dn.charge_range_read(scan_bytes, &mut stats.ledger)?;
        remote_bytes += scan_bytes as u64;
        stats.ledger.scan_cpu += scan_bytes as u64;
        for r in range {
            if r >= row_block.row_count() {
                break;
            }
            let row = row_block.row(a.schema, r)?;
            if row.get(column).is_some_and(|v| bounds.contains(v)) {
                bounds_matched += 1;
            }
            if a.query.matches(&row) {
                emit(MapRecord::good(row.project(&projection)));
                stats.records += 1;
            }
        }
    }
    stats.selectivity.push(SelectivityObservation {
        column,
        eq: crate::feedback::has_eq_on(a.query, column),
        matched: bounds_matched,
        total: row_block.row_count() as u64,
    });

    for bad in row_block.bad_records(a.schema)? {
        emit(MapRecord::bad(bad));
        stats.records += 1;
    }
    a.charge_remote(&mut stats, remote_bytes);
    Ok(stats)
}

/// The one column a full scan can attribute its match counts to — and
/// its predicate class: `Some((column, eq))` only when *every* predicate
/// is index-friendly and on that one column, so the full conjunction's
/// match count *is* the column's bound-match count and no extra
/// per-row decode is needed. Conjunctions over several columns (or with
/// an unattributable `!=`) yield `None` — attributing the combined
/// selectivity to one column would poison the per-column evidence.
pub(crate) fn sole_filter_column(query: &HailQuery) -> Option<(usize, bool)> {
    let column = query.predicates.first()?.column();
    query
        .predicates
        .iter()
        .all(|p| p.column() == column && p.index_friendly())
        .then(|| (column, crate::feedback::has_eq_on(query, column)))
}

fn emit_pax_bad_records(
    indexed: &IndexedBlock,
    stats: &mut TaskStats,
    emit: &mut dyn FnMut(MapRecord),
) -> Result<()> {
    for bad in indexed.pax().bad_records()? {
        emit(MapRecord::bad(bad));
        stats.records += 1;
    }
    Ok(())
}
