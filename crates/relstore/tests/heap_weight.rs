//! What a row weighs in memory, next to what each index on it weighs: a
//! pool-less store of `OBJECT_REL`- and `OBJECT`-shaped rows is reopened
//! from its checkpoint (rows in the open tail, every index bulk-built) once
//! bare and once under all its indexes, and the heap the open database
//! holds is read off a counting allocator. Each index is attributed by its
//! own byte count (`Table::index_stats(..).bytes`), which the allocator
//! checks: the reopened total less the bare rows is the indexes' sum.
//! Rows are gated — an encoded cell and its slot, not a
//! boxed `Vec<Value>` — and so is each index line, at the narrow lanes its
//! ids fit. A wide leg moves the `OBJECT_REL` object ids 2⁴⁰ up and 2²⁰
//! apart, past what a `u32` offset spans: its runs keep whole key words
//! beside `u32` row ids, and read back the narrow leg's entries. The
//! rows carry their ids as dense keys, as the GAM declares them, which are
//! no index: an `OBJECT` row weighs what a keyless one weighs. Every line
//! is printed for whoever works on them next (`cargo test -p relstore
//! --test heap_weight -- --nocapture`).

use relstore::schema::{Column, Schema, SchemaBuilder};
use relstore::value::{Value, ValueType};
use relstore::vfs::FaultVfs;
use relstore::{Database, RowId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;
use std::sync::Arc;

// Heap bytes the current thread has allocated and not freed. A store is
// built, reopened and read on one thread, so the two tests below weigh
// their stores side by side without counting each other's.
thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn count(delta: isize) {
    // no destructor, so the slot outlives every allocation of its thread
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

fn live() -> isize {
    LIVE.with(Cell::get)
}

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
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
        .dense_key("object_rel_id")
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

/// An object id of the wide leg: 2⁴⁰ up and 2²⁰ apart.
fn widen(id: i64) -> i64 {
    (1 << 40) + (id << 20)
}

fn wide_object_rel_row(i: i64) -> Vec<Value> {
    let mut row = object_rel_row(i);
    for id in &mut row[2..4] {
        *id = Value::Int(widen(id.as_int().unwrap()));
    }
    row
}

fn object_columns() -> SchemaBuilder {
    Schema::builder("object")
        .column(Column::new("object_id", ValueType::Int))
        .column(Column::new("source_id", ValueType::Int))
        .column(Column::new("accession", ValueType::Text))
        .column(Column::nullable("text", ValueType::Text))
        .column(Column::nullable("number", ValueType::Float))
}

/// `OBJECT`'s columns with its id the dense key, as the GAM declares them.
fn dense_object_columns() -> SchemaBuilder {
    object_columns().dense_key("object_id")
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

/// Heap bytes per row of a pool-less database holding `rows` rows under
/// `schema`, inserted in 1 000-row batches: reopened from its checkpoint,
/// every index one run — or, `grown`, as the batches left it, which is what
/// an importing store holds (no durability, so no WAL image is counted).
/// The database is handed back, weighed.
fn weight(schema: Schema, rows: i64, row: fn(i64) -> Vec<Value>, grown: bool) -> (f64, Database) {
    let vfs = Arc::new(FaultVfs::new());
    let name = schema.name().to_owned();
    let mut before = live();
    let mut db = match grown {
        true => Database::in_memory(),
        false => Database::open_with_vfs(vfs.clone(), Path::new("/db")).unwrap(),
    };
    db.create_table(schema).unwrap();
    for batch in 0..rows / 1_000 {
        let rows = (batch * 1_000..(batch + 1) * 1_000).map(row).collect();
        db.with_txn(|txn| txn.insert_batch(&name, rows).map(|_| ())).unwrap();
    }
    if !grown {
        db.checkpoint().unwrap();
        drop(db);
        before = live();
        db = Database::open_with_vfs(vfs, Path::new("/db")).unwrap();
    }
    let held = live() - before;
    assert_eq!(db.table(&name).unwrap().len() as i64, rows);
    (held as f64 / rows as f64, db)
}

/// Declares one index on a table's columns.
type Declare = fn(SchemaBuilder) -> SchemaBuilder;

/// A table's columns under every index of `indexes`.
fn indexed(columns: fn() -> SchemaBuilder, indexes: &[(&str, Declare, f64)]) -> Schema {
    indexes.iter().fold(columns(), |b, (_, declare, _)| declare(b)).build().unwrap()
}

/// One leg: the bare rows, then the rows reopened under every index at
/// once, each index attributed by its own byte count — which the counting
/// allocator checks: the reopened total less the bare rows is the indexes'
/// sum within 0.5 B/row. Returns the bare and reopened B/row, each index's
/// B/row and the reopened store.
fn leg(
    columns: fn() -> SchemaBuilder,
    indexes: &[(&str, Declare, f64)],
    rows: i64,
    row: fn(i64) -> Vec<Value>,
) -> (f64, f64, Vec<f64>, Database) {
    let bare = weight(columns().build().unwrap(), rows, row, false).0;
    let schema = indexed(columns, indexes);
    let name = schema.name().to_owned();
    let (reopened, db) = weight(schema, rows, row, false);
    let per_index: Vec<f64> = {
        let table = db.table(&name).unwrap();
        let bytes = |label: &str| table.index_stats(label).unwrap().bytes as f64;
        indexes.iter().map(|(label, _, _)| bytes(label) / rows as f64).collect()
    };
    let attributed: f64 = per_index.iter().sum();
    assert!(
        (reopened - bare - attributed).abs() <= 0.5,
        "{name}: {reopened:.1} B/row reopened less {bare:.1} of rows is not the indexes' {attributed:.1}"
    );
    (bare, reopened, per_index, db)
}

/// Print what the rows weigh alone and what each index adds, gated at its
/// limit in B/row, then all of them reopened and grown; returns the rows'
/// bytes per row and the reopened store.
fn attribution(
    columns: fn() -> SchemaBuilder,
    indexes: &[(&str, Declare, f64)],
    rows: i64,
    row: fn(i64) -> Vec<Value>,
) -> (f64, Database) {
    let name = columns().build().unwrap().name().to_owned();
    let (bare, reopened, per_index, db) = leg(columns, indexes, rows, row);
    println!("{name:>12}  rows                 {bare:7.1} B/row");
    for ((label, _, limit), index) in indexes.iter().zip(&per_index) {
        println!("{:>12}  index {label:<14} {index:7.1} B/row", "");
        assert!(index <= limit, "{name}.{label} holds {index:.1} B/row");
    }
    let grown = weight(indexed(columns, indexes), rows, row, true).0;
    println!("{:>12}  all, reopened        {reopened:7.1} B/row, grown {grown:.1} (x{:.2})", "", grown / reopened);
    // the delta holds at most an eighth of the run, at B-tree weight
    assert!(grown <= 1.3 * reopened, "{name} grown holds {grown:.1} B/row, reopened {reopened:.1}");
    (bare, db)
}

/// The `OBJECT_REL` indexes, gated at their narrow weight.
const OBJECT_REL_INDEXES: [(&str, Declare, f64); 3] = [
    ("by_pair", |b| b.unique_index("by_pair", &["source_rel_id", "object1_id", "object2_id"]), 17.0),
    ("by_object1", |b| b.index("by_object1", &["object1_id"]), 9.0),
    ("by_object2", |b| b.index("by_object2", &["object2_id"]), 9.0),
];

/// Every index's entries, in index order.
fn entries(db: &Database) -> Vec<Vec<(Vec<Value>, RowId)>> {
    let table = db.table("object_rel").unwrap();
    let names = table.schema().indexes().iter().map(|d| d.name.clone()).collect::<Vec<_>>();
    names.iter().map(|name| table.index_entry_list(name).unwrap()).collect()
}

/// The wide leg: each `OBJECT_REL` index over the wide rows weighs more
/// than its narrow gate (whole words, as every run held before lanes),
/// and all of them read back the narrow leg's entries.
fn wide_leg(narrow: &Database) {
    let (_, _, per_index, db) = leg(object_rel_columns, &OBJECT_REL_INDEXES, OBJECT_RELS, wide_object_rel_row);
    for ((label, _, gate), index) in OBJECT_REL_INDEXES.iter().zip(&per_index) {
        println!("{:>12}  index {label:<14} {index:7.1} B/row, wide", "");
        assert!(index > gate, "object_rel.{label} holds {index:.1} B/row over ids 2^32 apart");
    }
    let narrow = entries(narrow);
    let mut wide = entries(&db);
    for (key, _) in wide.iter_mut().flatten() {
        // the source_rel_id column is small: only object ids were moved
        for id in key.iter_mut().filter(|v| v.as_int().unwrap() >= 1 << 40) {
            *id = Value::Int((id.as_int().unwrap() - (1 << 40)) >> 20);
        }
    }
    assert!(narrow == wide, "the wide leg reads back the narrow leg's entries");
}

#[test]
fn a_row_in_memory_weighs_its_cell_and_its_slot() {
    let (rel, narrow) = attribution(object_rel_columns, &OBJECT_REL_INDEXES, OBJECT_RELS, object_rel_row);
    wide_leg(&narrow);
    // as `Option<Row>` these rows were 176 B apiece
    assert!(rel <= 48.0, "an OBJECT_REL-shaped row holds {rel:.1} B of heap");
}

#[test]
fn an_object_row_weighs_its_cell_and_its_slot() {
    let (object, _) = attribution(
        dense_object_columns,
        &[("by_accession", |b| b.unique_index("by_accession", &["source_id", "accession"]), 38.0)],
        OBJECTS,
        object_row,
    );
    // the dense key holds no entry: the rows weigh what keyless rows do
    let keyless = weight(object_columns().build().unwrap(), OBJECTS, object_row, false).0;
    println!("{:>12}  rows, no key         {keyless:7.1} B/row", "");
    assert!((object - keyless).abs() <= 0.5, "a dense key costs {:.1} B/row", object - keyless);
    // as `Option<Row>` these rows were ~217 B apiece; with the id a stored
    // `pk` the row and its key were gated at 80 + 9 B/row
    assert!(object <= 80.0, "an OBJECT-shaped row and its dense key hold {object:.1} B of heap");
}
