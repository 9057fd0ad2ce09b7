//! GAM-level errors: storage failures plus domain violations.

use crate::ids::{ObjectId, SourceId, SourceRelId};
use std::fmt;

/// Convenience alias.
pub type GamResult<T> = Result<T, GamError>;

/// Errors raised by the GAM layer.
#[derive(Debug)]
pub enum GamError {
    /// Underlying storage-engine error.
    Store(relstore::StoreError),
    /// A source id did not resolve.
    UnknownSource(SourceId),
    /// A source name did not resolve.
    UnknownSourceName(String),
    /// An object id did not resolve.
    UnknownObject(ObjectId),
    /// A mapping id did not resolve.
    UnknownSourceRel(SourceRelId),
    /// No mapping exists between the two sources (the `Map` operation found
    /// nothing and composition was not requested or failed).
    NoMapping { from: SourceId, to: SourceId },
    /// A stored enum code was out of range (corrupt or foreign data).
    BadEnumCode { what: &'static str, code: i64 },
    /// An evidence value was outside `[0, 1]`.
    BadEvidence(f64),
    /// Domain validation failure (empty accession, self-mapping where
    /// forbidden, ...).
    Invalid(String),
    /// A table's next row would need an id (`id` names its type) past that
    /// type's range: a row's id is its row id + 1, never wrapped.
    IdSpaceExhausted { id: &'static str, row_id: u64 },
}

impl fmt::Display for GamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GamError::Store(e) => write!(f, "storage error: {e}"),
            GamError::UnknownSource(id) => write!(f, "unknown source {id}"),
            GamError::UnknownSourceName(name) => write!(f, "unknown source name {name:?}"),
            GamError::UnknownObject(id) => write!(f, "unknown object {id}"),
            GamError::UnknownSourceRel(id) => write!(f, "unknown mapping {id}"),
            GamError::NoMapping { from, to } => {
                write!(f, "no mapping between {from} and {to}")
            }
            GamError::BadEnumCode { what, code } => {
                write!(f, "bad {what} code {code} in stored data")
            }
            GamError::BadEvidence(v) => write!(f, "evidence {v} outside [0, 1]"),
            GamError::Invalid(msg) => write!(f, "invalid: {msg}"),
            GamError::IdSpaceExhausted { id, row_id } => {
                write!(f, "row id {row_id} is past the range of {id}")
            }
        }
    }
}

impl std::error::Error for GamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GamError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<relstore::StoreError> for GamError {
    fn from(e: relstore::StoreError) -> Self {
        GamError::Store(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = GamError::NoMapping {
            from: SourceId(1),
            to: SourceId(2),
        };
        assert!(e.to_string().contains("SourceId(1)"));
        let e: GamError = relstore::StoreError::NoSuchTable("x".into()).into();
        assert!(std::error::Error::source(&e).is_some());
        assert!(GamError::BadEvidence(2.0).to_string().contains("2"));
    }
}
