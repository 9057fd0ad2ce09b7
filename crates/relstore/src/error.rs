//! Error type shared by every storage-engine operation.

use std::fmt;
use std::io;

/// Convenience alias used throughout the crate.
pub type StoreResult<T> = Result<T, StoreError>;

/// Errors produced by the storage engine.
#[derive(Debug)]
pub enum StoreError {
    /// A table name was not found in the catalog.
    NoSuchTable(String),
    /// A table with this name already exists.
    TableExists(String),
    /// A column name was not found in a schema.
    NoSuchColumn { table: String, column: String },
    /// An index name was not found on a table.
    NoSuchIndex { table: String, index: String },
    /// A row did not match the schema (arity or column type).
    SchemaViolation(String),
    /// Inserting the row would duplicate a key in a unique index.
    UniqueViolation {
        table: String,
        index: String,
        key: String,
    },
    /// A row's dense key ([`Schema::dense_key`](crate::Schema::dense_key))
    /// is not its row id + 1: written by an insert, a replayed log record,
    /// a restore or an update, or found in a directory being opened.
    DenseKeyViolation {
        table: String,
        row_id: u64,
        key: String,
    },
    /// A row id did not resolve to a live row.
    NoSuchRow { table: String, row_id: u64 },
    /// A schema could not be constructed (duplicate column, empty key, ...).
    InvalidSchema(String),
    /// The binary codec met malformed input.
    Corrupt(String),
    /// Underlying I/O failure.
    Io(io::Error),
    /// A transaction was used after commit/rollback.
    TransactionClosed,
    /// The write-ahead log failed earlier (an fsync, the cut-back of a
    /// failed write, or a reset), so nothing more is committed until the
    /// database is reopened or checkpointed.
    WalFailed,
    /// The directory holds a store this open cannot serve — sealed pages
    /// opened without a buffer pool, or files of a superseded format. Never
    /// degraded around: nothing in the directory has been touched.
    Unsupported(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NoSuchTable(name) => write!(f, "no such table: {name}"),
            StoreError::TableExists(name) => write!(f, "table already exists: {name}"),
            StoreError::NoSuchColumn { table, column } => {
                write!(f, "no column {column} in table {table}")
            }
            StoreError::NoSuchIndex { table, index } => {
                write!(f, "no index {index} on table {table}")
            }
            StoreError::SchemaViolation(msg) => write!(f, "schema violation: {msg}"),
            StoreError::UniqueViolation { table, index, key } => {
                write!(f, "unique violation on {table}.{index} for key {key}")
            }
            StoreError::DenseKeyViolation { table, row_id, key } => {
                write!(f, "dense key violation on {table}: row {row_id} holds key {key}, not its row id + 1")
            }
            StoreError::NoSuchRow { table, row_id } => {
                write!(f, "no live row {row_id} in table {table}")
            }
            StoreError::InvalidSchema(msg) => write!(f, "invalid schema: {msg}"),
            StoreError::Corrupt(msg) => write!(f, "corrupt storage: {msg}"),
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::TransactionClosed => write!(f, "transaction already closed"),
            StoreError::WalFailed => {
                write!(f, "the write-ahead log failed earlier; reopen or checkpoint to commit again")
            }
            StoreError::Unsupported(msg) => write!(f, "unsupported store: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = StoreError::NoSuchTable("object".into());
        assert_eq!(e.to_string(), "no such table: object");
        let e = StoreError::UniqueViolation {
            table: "source".into(),
            index: "by_name".into(),
            key: "(GO)".into(),
        };
        assert!(e.to_string().contains("source.by_name"));
        assert!(e.to_string().contains("(GO)"));
    }

    #[test]
    fn io_error_converts_and_chains() {
        let e: StoreError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert!(matches!(e, StoreError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
