//! Rows and row identifiers.
//!
//! A [`Row`] is what a read hands out: decoded from its stored cell owned,
//! or over a cursor's one scratch row. An open builds none — replay and
//! the index build read stored cells by the cell walk
//! ([`crate::codec::walk_cell`]), their values borrowed.

use crate::codec::{get_count, get_value_into};
use crate::error::StoreResult;
use crate::value::Value;
use std::fmt;

/// Identifier of a row slot within a table. Row ids are assigned
/// monotonically per table and never reused, so they are stable handles for
/// indexes and the write-ahead log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowId(pub u64);

impl RowId {
    /// The row a dense key addresses ([`Schema::dense_key`](crate::Schema::dense_key)):
    /// key `k ≥ 1` is the row at id `k − 1`; no other value addresses one.
    pub fn of_dense_key(key: i64) -> Option<RowId> {
        key.checked_sub(1).and_then(|id| u64::try_from(id).ok()).map(RowId)
    }

    /// The dense key of the row at this id: its row id + 1, `None` where
    /// that passes `i64::MAX`.
    pub fn dense_key(self) -> Option<i64> {
        i64::try_from(self.0).ok()?.checked_add(1)
    }
}

impl fmt::Display for RowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// An owned row: a boxed slice of cell values matching some table schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    values: Box<[Value]>,
}

impl Row {
    /// Build a row from values.
    pub fn new(values: Vec<Value>) -> Self {
        Row {
            values: values.into_boxed_slice(),
        }
    }

    /// Cell at ordinal `i`. Panics if out of range (callers obtain ordinals
    /// from the schema, which bounds them).
    pub fn get(&self, i: usize) -> &Value {
        &self.values[i]
    }

    /// All cells.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Number of cells.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Project the row onto the given column ordinals (used to form index
    /// keys and join keys).
    pub fn project(&self, ordinals: &[usize]) -> Vec<Value> {
        ordinals.iter().map(|&i| self.values[i].clone()).collect()
    }

    /// Overwrite this row with the one encoded at `buf`. While the arity
    /// stays what it was the cells keep their text buffers, so a cursor's
    /// one scratch row decodes a table's rows without allocating.
    pub(crate) fn decode_from(&mut self, buf: &mut &[u8]) -> StoreResult<()> {
        let arity = get_count(buf, 1, "row value")?;
        if arity != self.values.len() {
            self.values = vec![Value::Null; arity].into_boxed_slice();
        }
        self.values
            .iter_mut()
            .try_for_each(|slot| get_value_into(buf, slot))
    }

    /// Consume the row, yielding its values.
    pub fn into_values(self) -> Vec<Value> {
        self.values.into_vec()
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row::new(values)
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v}")?;
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projection_and_access() {
        let r = Row::new(vec![Value::Int(1), Value::text("GO"), Value::Null]);
        assert_eq!(r.arity(), 3);
        assert_eq!(r.get(1), &Value::text("GO"));
        assert_eq!(r.project(&[2, 0]), vec![Value::Null, Value::Int(1)]);
        assert_eq!(r.to_string(), "(1, GO, NULL)");
    }

    #[test]
    fn row_id_display() {
        assert_eq!(RowId(42).to_string(), "#42");
    }
}
