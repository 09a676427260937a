//! The PAX scan kernel: selection vector first, tuple reconstruction last.
//!
//! Every PAX access path ends in the same two steps — decide which of a
//! set of candidate rows satisfy the query's conjunction, then rebuild the
//! projected attributes of those rows. The kernel does both column at a
//! time over [`hail_pax::ColumnCursor`]s:
//!
//! 1. The candidates are an ascending `u32` **selection vector**
//!    ([`candidates`]). Each conjunct opens one cursor on its column and
//!    keeps the rows whose value it admits with one batch call
//!    ([`ColumnCursor::retain`], behind [`retain_matching`] and
//!    [`retain_within`]); the next conjunct sees only the survivors, so a
//!    row is decoded for conjunct *k* exactly when conjuncts *0..k*
//!    matched — the rows a per-row short-circuit would have decoded.
//!    On a replica sorted on the key column, the rows an index lookup
//!    resolves to are searched instead ([`sorted_range`]): the rows within
//!    the key bounds are one contiguous run, found with two binary
//!    searches, and only the conjuncts those bounds do not imply are
//!    retained afterwards.
//! 2. [`materialize`] decodes each projected column of the surviving rows
//!    with one cursor call, then interleaves the columns into one batch
//!    that the returned rows share ([`Row::batch_from_columns`]).
//!
//! A batch call matches on the column's type once and, on a varchar
//! column, reads a partition at a time: one terminator pass up to the
//! last selected row of the partition and one UTF-8 check over what it
//! located. Decode errors propagate from both steps: a corrupt value the
//! query reads fails the read rather than silently dropping rows that no
//! longer decode. Only the values asked for can fail — invalid UTF-8 or
//! a missing terminator in a row no conjunct or projection reaches
//! fails nothing, as in a per-row read.
//!
//! A conjunct's literals are unpacked once per block — into the
//! [`KeyBounds`] it induces, or the one value a `!=` excludes — and each
//! decoded [`ValueRef`] is compared against them in place with
//! [`ValueRef::total_cmp`], the comparison `Predicate::matches_value` and
//! `KeyBounds::contains` are defined by, so a literal of another type than
//! the column (an `Int` column against a `Long` literal) orders exactly as
//! it does there.

use hail_core::{CmpOp, Predicate};
use hail_index::KeyBounds;
use hail_pax::ColumnCursor;
use hail_pax::PaxBlock;
use hail_types::{HailError, Result, Row, ValueRef};
use std::cmp::Ordering;
use std::ops::{Bound, Range};

/// The selection vector over `rows`, which must ascend.
pub(crate) fn candidates(rows: impl IntoIterator<Item = usize>) -> Result<Vec<u32>> {
    rows.into_iter()
        .map(|row| {
            u32::try_from(row)
                .map_err(|_| HailError::Corrupt(format!("row {row} exceeds the PAX row limit")))
        })
        .collect()
}

/// The rows of `rows` whose `column` value lies within `bounds`, by two
/// binary searches over the column. `rows` must ascend on `column` under
/// [`ValueRef::total_cmp`], as the rows of a clustered index's partitions
/// do: the upload sorts them with the comparison `total_cmp` applies to
/// two values of the column's type. Compared with a literal of any type a
/// sorted column stays ordered — `total_cmp` against it is monotone or
/// constant — so the rows within the bounds are one contiguous run.
pub(crate) fn sorted_range(
    pax: &PaxBlock,
    column: usize,
    bounds: &KeyBounds,
    rows: Range<usize>,
) -> Result<Range<usize>> {
    if rows.is_empty() {
        return Ok(rows);
    }
    let mut cursor = pax.cursor(column)?;
    let start = match &bounds.lo {
        Bound::Unbounded => rows.start,
        Bound::Included(lo) => partition_point(&mut cursor, rows.clone(), |v| {
            v.total_cmp(lo.as_ref()) == Ordering::Less
        })?,
        Bound::Excluded(lo) => partition_point(&mut cursor, rows.clone(), |v| {
            v.total_cmp(lo.as_ref()) != Ordering::Greater
        })?,
    };
    let end = match &bounds.hi {
        Bound::Unbounded => rows.end,
        Bound::Included(hi) => partition_point(&mut cursor, start..rows.end, |v| {
            v.total_cmp(hi.as_ref()) != Ordering::Greater
        })?,
        Bound::Excluded(hi) => partition_point(&mut cursor, start..rows.end, |v| {
            v.total_cmp(hi.as_ref()) == Ordering::Less
        })?,
    };
    Ok(start..end)
}

/// The first row of `rows` whose value `before` rejects, where `before`
/// holds for a prefix of `rows` and fails for the rest.
fn partition_point(
    cursor: &mut ColumnCursor<'_>,
    rows: Range<usize>,
    before: impl Fn(ValueRef<'_>) -> bool,
) -> Result<usize> {
    let (mut lo, mut hi) = (rows.start, rows.end);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if before(cursor.get(mid)?) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Ok(lo)
}

/// Keeps the rows of `selection` every predicate admits.
pub(crate) fn retain_conjunction<'p>(
    pax: &PaxBlock,
    predicates: impl IntoIterator<Item = &'p Predicate>,
    selection: &mut Vec<u32>,
) -> Result<()> {
    predicates
        .into_iter()
        .try_for_each(|p| retain_matching(pax, p, selection))
}

/// Keeps the rows of `selection` whose `predicate.column()` value
/// satisfies `predicate`.
fn retain_matching(pax: &PaxBlock, predicate: &Predicate, selection: &mut Vec<u32>) -> Result<()> {
    match predicate {
        Predicate::Cmp {
            column,
            op: CmpOp::Ne,
            value,
        } => {
            let literal = value.as_ref();
            retain(pax, *column, selection, |v| {
                v.total_cmp(literal) != Ordering::Equal
            })
        }
        // Every other conjunct is a range; `key_bounds` clones its
        // literals once per block, not per row.
        _ => retain_within(pax, predicate.column(), &predicate.key_bounds(), selection),
    }
}

/// Keeps the rows of `selection` whose `column` value lies within `bounds`.
fn retain_within(
    pax: &PaxBlock,
    column: usize,
    bounds: &KeyBounds,
    selection: &mut Vec<u32>,
) -> Result<()> {
    retain(pax, column, selection, |v| bounds.contains_ref(v))
}

/// One batch call of one cursor over the selection
/// ([`ColumnCursor::retain`]). An empty selection opens no cursor: a
/// block no row of which reached this conjunct is not decoded for it.
fn retain(
    pax: &PaxBlock,
    column: usize,
    selection: &mut Vec<u32>,
    admits: impl Fn(ValueRef<'_>) -> bool,
) -> Result<()> {
    if selection.is_empty() {
        return Ok(());
    }
    pax.cursor(column)?.retain(selection, admits)
}

/// Reconstructs the `projection` of every selected row, in selection
/// order, a column at a time: each projected column's values of the
/// whole selection are decoded with one cursor call
/// ([`ColumnCursor::decode_into`]), then interleaved into one batch that
/// every row shares ([`Row::batch_from_columns`]). A decode error leaves
/// `sink` uncalled. An empty `projection` yields one empty row per
/// selected row. No access path asks for one: a query's empty projection
/// means every column (`HailQuery::projected_columns`).
pub(crate) fn materialize(
    pax: &PaxBlock,
    projection: &[usize],
    selection: &[u32],
    sink: impl FnMut(Row),
) -> Result<()> {
    if selection.is_empty() {
        return Ok(());
    }
    let columns = projection
        .iter()
        .map(|&col| {
            let mut values = Vec::with_capacity(selection.len());
            pax.cursor(col)?.decode_into(selection, &mut values)?;
            Ok(values)
        })
        .collect::<Result<Vec<_>>>()?;
    Row::batch_from_columns(columns, selection.len()).for_each(sink);
    Ok(())
}

#[cfg(test)]
mod tests;
