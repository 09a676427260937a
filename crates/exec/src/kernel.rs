//! The PAX scan kernel: selection vector first, tuple reconstruction last.
//!
//! Every PAX access path ends in the same two steps — decide which of a
//! set of candidate rows satisfy the query's conjunction, then rebuild the
//! projected attributes of those rows. The kernel does both column at a
//! time over [`hail_pax::ColumnCursor`]s:
//!
//! 1. The candidates are an ascending `u32` **selection vector**
//!    ([`candidates`]). Each conjunct opens one cursor on its column and
//!    keeps the rows whose value it admits ([`retain_matching`],
//!    [`retain_within`]); the next conjunct sees only the survivors, so a
//!    row is decoded for conjunct *k* exactly when conjuncts *0..k*
//!    matched — the rows a per-row short-circuit would have decoded.
//! 2. [`materialize`] opens one cursor per projected column and walks the
//!    surviving rows once, in row order.
//!
//! Decode errors propagate from both steps: a corrupt value in a column
//! the query touches fails the read rather than silently dropping rows
//! that no longer decode.
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
use hail_pax::PaxBlock;
use hail_types::{HailError, Result, Row, ValueRef};
use std::cmp::Ordering;

/// The selection vector over `rows`, which must ascend.
pub(crate) fn candidates(rows: impl IntoIterator<Item = usize>) -> Result<Vec<u32>> {
    rows.into_iter()
        .map(|row| {
            u32::try_from(row)
                .map_err(|_| HailError::Corrupt(format!("row {row} exceeds the PAX row limit")))
        })
        .collect()
}

/// Keeps the rows of `selection` every predicate admits.
pub(crate) fn retain_conjunction(
    pax: &PaxBlock,
    predicates: &[Predicate],
    selection: &mut Vec<u32>,
) -> Result<()> {
    predicates
        .iter()
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
pub(crate) fn retain_within(
    pax: &PaxBlock,
    column: usize,
    bounds: &KeyBounds,
    selection: &mut Vec<u32>,
) -> Result<()> {
    retain(pax, column, selection, |v| bounds.contains_ref(v))
}

/// One pass of one cursor over the selection, compacting it in place. An
/// empty selection opens no cursor: a block no row of which reached this
/// conjunct is not decoded for it.
fn retain(
    pax: &PaxBlock,
    column: usize,
    selection: &mut Vec<u32>,
    admits: impl Fn(ValueRef<'_>) -> bool,
) -> Result<()> {
    if selection.is_empty() {
        return Ok(());
    }
    let mut cursor = pax.cursor(column)?;
    let mut kept = 0;
    for i in 0..selection.len() {
        let row = selection[i];
        if admits(cursor.get(row as usize)?) {
            selection[kept] = row;
            kept += 1;
        }
    }
    selection.truncate(kept);
    Ok(())
}

/// Reconstructs the `projection` of every selected row, in selection
/// order, with one forward cursor per projected column.
pub(crate) fn materialize(
    pax: &PaxBlock,
    projection: &[usize],
    selection: &[u32],
    mut sink: impl FnMut(Row),
) -> Result<()> {
    if selection.is_empty() {
        return Ok(());
    }
    let mut cursors = projection
        .iter()
        .map(|&col| pax.cursor(col))
        .collect::<Result<Vec<_>>>()?;
    let mut values = Vec::with_capacity(cursors.len());
    for &row in selection {
        for cursor in &mut cursors {
            values.push(cursor.get(row as usize)?.to_value());
        }
        sink(values.drain(..).collect());
    }
    Ok(())
}

#[cfg(test)]
mod tests;
