//! What a row weighs in memory, next to what each index on it weighs: a
//! pool-less store of `OBJECT_REL`- and `OBJECT`-shaped rows is reopened
//! from its checkpoint (rows in the open tail, every index bulk-built) once
//! per index set, and the heap the open database holds is read off a
//! counting allocator. Rows are gated — an encoded cell and its slot, not a
//! boxed `Vec<Value>` — and the index lines are printed for whoever works
//! on them next (`cargo test -p relstore --test heap_weight -- --nocapture`).

use relstore::schema::{Column, Schema, SchemaBuilder};
use relstore::value::{Value, ValueType};
use relstore::vfs::FaultVfs;
use relstore::Database;
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Bytes allocated and not yet freed, by anything in this test binary.
static LIVE: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is only a tally beside it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const OBJECT_RELS: i64 = 100_000;
const OBJECTS: i64 = 35_000;

fn object_rel_columns() -> SchemaBuilder {
    Schema::builder("object_rel")
        .column(Column::new("object_rel_id", ValueType::Int))
        .column(Column::new("source_rel_id", ValueType::Int))
        .column(Column::new("object1_id", ValueType::Int))
        .column(Column::new("object2_id", ValueType::Int))
        .column(Column::nullable("evidence", ValueType::Float))
}

fn object_rel_row(i: i64) -> Vec<Value> {
    let evidence = if i % 4 == 0 { Value::Float(0.5) } else { Value::Null };
    vec![
        Value::Int(i + 1),
        Value::Int(i / 2_000 + 1),
        Value::Int(i * 7_919 % OBJECTS + 1),
        Value::Int(i * 104_729 % OBJECTS + 1),
        evidence,
    ]
}

fn object_columns() -> SchemaBuilder {
    Schema::builder("object")
        .column(Column::new("object_id", ValueType::Int))
        .column(Column::new("source_id", ValueType::Int))
        .column(Column::new("accession", ValueType::Text))
        .column(Column::nullable("text", ValueType::Text))
        .column(Column::nullable("number", ValueType::Float))
}

fn object_row(i: i64) -> Vec<Value> {
    let text = if i % 3 == 0 { Value::Null } else { Value::text(format!("name of object {i}")) };
    vec![
        Value::Int(i + 1),
        Value::Int(i / 600 + 1),
        Value::text(format!("ACC:{i:07}")),
        text,
        Value::Null,
    ]
}

/// Heap bytes per row of a pool-less database reopened over `rows` rows
/// under `schema`.
fn reopened_weight(schema: Schema, rows: i64, row: fn(i64) -> Vec<Value>) -> f64 {
    let vfs = Arc::new(FaultVfs::new());
    let name = schema.name().to_owned();
    let mut db = Database::open_with_vfs(vfs.clone(), Path::new("/db")).unwrap();
    db.create_table(schema).unwrap();
    for batch in 0..rows / 1_000 {
        let rows = (batch * 1_000..(batch + 1) * 1_000).map(row).collect();
        db.with_txn(|txn| txn.insert_batch(&name, rows).map(|_| ())).unwrap();
    }
    db.checkpoint().unwrap();
    drop(db);
    let before = LIVE.load(Ordering::Relaxed);
    let db = Database::open_with_vfs(vfs, Path::new("/db")).unwrap();
    let held = LIVE.load(Ordering::Relaxed) - before;
    assert_eq!(db.table(&name).unwrap().len() as i64, rows);
    held as f64 / rows as f64
}

/// Declares one index on a table's columns.
type Declare = fn(SchemaBuilder) -> SchemaBuilder;

/// Print what the rows weigh alone, then what each index adds by itself;
/// returns the rows' bytes per row.
fn attribution(
    columns: fn() -> SchemaBuilder,
    indexes: &[(&str, Declare)],
    rows: i64,
    row: fn(i64) -> Vec<Value>,
) -> f64 {
    let bare = reopened_weight(columns().build().unwrap(), rows, row);
    println!("{:>12}  rows                 {bare:7.1} B/row", columns().build().unwrap().name());
    for (label, declare) in indexes {
        let with = reopened_weight(declare(columns()).build().unwrap(), rows, row);
        println!("{:>12}  index {label:<14} {:7.1} B/row", "", with - bare);
    }
    bare
}

#[test]
fn a_row_in_memory_weighs_its_cell_and_its_slot() {
    let rel = attribution(
        object_rel_columns,
        &[
            ("by_pair", |b| b.unique_index("by_pair", &["source_rel_id", "object1_id", "object2_id"])),
            ("by_object1", |b| b.index("by_object1", &["object1_id"])),
            ("by_object2", |b| b.index("by_object2", &["object2_id"])),
        ],
        OBJECT_RELS,
        object_rel_row,
    );
    let object = attribution(
        object_columns,
        &[
            ("pk", |b| b.primary_key(&["object_id"])),
            ("by_accession", |b| b.unique_index("by_accession", &["source_id", "accession"])),
        ],
        OBJECTS,
        object_row,
    );
    // as `Option<Row>` these rows were 176 and ~217 B apiece
    assert!(rel <= 48.0, "an OBJECT_REL-shaped row holds {rel:.1} B of heap");
    assert!(object <= 80.0, "an OBJECT-shaped row holds {object:.1} B of heap");
}
