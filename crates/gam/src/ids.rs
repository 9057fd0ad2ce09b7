//! Strongly-typed identifiers for the four GAM tables.
//!
//! All ids are plain integers in the database; the newtypes prevent a
//! source id being passed where an object id is expected (the classic
//! failure mode of a generic schema where everything is an integer).
//!
//! Each GAM table's id is its dense key: a row's id is its row id + 1
//! ([`of_row`](SourceId::of_row)), so ids need no counter.

use crate::error::{GamError, GamResult};
use relstore::RowId;
use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $inner:ty) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub $inner);

        impl $name {
            /// The raw integer value.
            pub fn raw(self) -> $inner {
                self.0
            }

            /// The value as stored in a relstore `Value::Int` cell.
            pub fn as_i64(self) -> i64 {
                self.0 as i64
            }

            /// Reconstruct from a stored integer.
            pub fn from_i64(v: i64) -> Self {
                $name(v as $inner)
            }

            /// The id of the row at `row`: its row id + 1, refused with
            /// [`GamError::IdSpaceExhausted`] past this type's range or
            /// `i64::MAX`, the stored cell's.
            pub fn of_row(row: RowId) -> GamResult<Self> {
                row.dense_key()
                    .and_then(|id| <$inner>::try_from(id).ok())
                    .map($name)
                    .ok_or(GamError::IdSpaceExhausted {
                        id: stringify!($name),
                        row_id: row.0,
                    })
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }
    };
}

id_type!(
    /// Identifier of a row in `SOURCE`.
    SourceId,
    u32
);
id_type!(
    /// Identifier of a row in `OBJECT`.
    ObjectId,
    u64
);
id_type!(
    /// Identifier of a row in `SOURCE_REL` (a mapping).
    SourceRelId,
    u32
);
id_type!(
    /// Identifier of a row in `OBJECT_REL` (an association).
    ObjectRelId,
    u64
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_display() {
        let s = SourceId(7);
        assert_eq!(s.raw(), 7);
        assert_eq!(SourceId::from_i64(s.as_i64()), s);
        assert_eq!(s.to_string(), "SourceId(7)");
        let o = ObjectId(u64::from(u32::MAX) + 10);
        assert_eq!(ObjectId::from_i64(o.as_i64()), o);
    }

    #[test]
    fn an_id_past_its_range_is_refused_not_wrapped() {
        let narrow = u64::from(u32::MAX);
        assert_eq!(SourceId::of_row(RowId(0)).unwrap(), SourceId(1));
        assert_eq!(SourceId::of_row(RowId(narrow - 1)).unwrap(), SourceId(u32::MAX));
        assert_eq!(SourceRelId::of_row(RowId(narrow - 1)).unwrap(), SourceRelId(u32::MAX));
        for refused in [SourceId::of_row(RowId(narrow)).map(drop), SourceRelId::of_row(RowId(narrow)).map(drop)] {
            assert!(matches!(refused, Err(GamError::IdSpaceExhausted { row_id, .. }) if row_id == narrow));
        }
        // the wide ids stop where the stored i64 cell does
        let wide = i64::MAX as u64;
        assert_eq!(ObjectId::of_row(RowId(wide - 1)).unwrap(), ObjectId(wide));
        assert_eq!(ObjectRelId::of_row(RowId(wide - 1)).unwrap(), ObjectRelId(wide));
        for row in [wide, u64::MAX] {
            let err = ObjectId::of_row(RowId(row)).unwrap_err();
            assert!(matches!(err, GamError::IdSpaceExhausted { id: "ObjectId", .. }), "{err}");
            assert!(ObjectRelId::of_row(RowId(row)).is_err());
        }
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::BTreeSet;
        let set: BTreeSet<ObjectId> = [ObjectId(3), ObjectId(1), ObjectId(2)].into();
        let v: Vec<_> = set.into_iter().collect();
        assert_eq!(v, vec![ObjectId(1), ObjectId(2), ObjectId(3)]);
    }
}
