//! `relstore` — an embedded relational storage engine.
//!
//! This crate is the storage substrate of the GenMapper reproduction. The
//! original system (Do & Rahm, EDBT 2004) hosted its generic annotation
//! model (GAM) on MySQL; `relstore` provides the same capabilities as an
//! embedded library:
//!
//! * typed rows over a declared [`Schema`],
//! * heap [`Table`]s of slotted pages, row ids assigned once and never
//!   reused,
//! * unique and non-unique secondary [indexes](index "index module"): a
//!   key-sorted run plus a small delta,
//! * durability via a checkpointed page directory ([`pager`]) plus a
//!   [write-ahead log](wal "wal module"), with crash recovery that replays
//!   the WAL over the last checkpoint,
//! * a [`Database`] catalog with single-writer transactions.
//!
//! The engine is deliberately general: nothing in this crate knows about
//! annotations, sources, or mappings. The `gam` crate layers the four GAM
//! tables on top of it.
//!
//! # Example
//!
//! ```
//! use relstore::db::Database;
//! use relstore::schema::{Column, Schema};
//! use relstore::value::{Value, ValueType};
//!
//! let mut db = Database::in_memory();
//! let schema = Schema::builder("gene")
//!     .column(Column::new("id", ValueType::Int))
//!     .column(Column::new("symbol", ValueType::Text))
//!     .primary_key(&["id"])
//!     .unique_index("by_symbol", &["symbol"])
//!     .build()
//!     .unwrap();
//! db.create_table(schema).unwrap();
//!
//! let mut txn = db.begin();
//! txn.insert("gene", vec![Value::Int(353), Value::text("APRT")]).unwrap();
//! txn.commit().unwrap();
//!
//! // every read names the index it probes
//! let hit = db.table("gene").unwrap()
//!     .lookup_unique("by_symbol", &[Value::text("APRT")])
//!     .unwrap()
//!     .expect("APRT is stored");
//! assert_eq!(hit.get(0), &Value::Int(353));
//! ```

// Non-test code must handle errors, not unwrap them: a storage engine that
// panics on I/O trouble cannot honor its recovery contract. Tests are
// exempt (the attribute is compiled out under cfg(test)); tier-1 runs
// clippy with `-D warnings`, so these lints are the gate.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
// Nor may it drop them: a `Result` bound to `_` or discarded by a bare
// `.ok()` turns a failed write or fsync into data that reads as if it had
// landed.
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use, clippy::unused_result_ok))]
// One `unsafe` block, allowed where it stands: the call into the CRC-32 fold.
#![deny(unsafe_code)]

pub mod codec;
pub mod db;
pub mod error;
pub mod index;
pub mod page;
pub mod pager;
pub mod row;
pub mod schema;
pub mod stats;
pub mod sync;
pub mod table;
pub mod value;
pub mod vfs;
pub mod wal;

pub use db::{Database, RecoveryReport, SnapshotSource};
pub use error::{StoreError, StoreResult};
pub use page::PageId;
pub use pager::{Pager, PoolConfig};
pub use row::{Row, RowId};
pub use schema::{Column, Schema};
pub use stats::PoolStats;
pub use table::{ColumnarBlock, RowCursor, Table};
pub use value::{Value, ValueRef, ValueType, ValueView};
