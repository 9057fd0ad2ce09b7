//! Substrate ablation — the embedded storage engine's access paths.
//!
//! The GAM operators reduce to point lookups and prefix scans over the four
//! tables (the joins run over `gam::MappingIndex`, see `benches/compose.rs`);
//! this bench isolates those physical operations so the operator-level
//! numbers (T2/F5) can be attributed: index lookup vs full scan across
//! sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use relstore::schema::{Column, Schema};
use relstore::table::Table;
use relstore::value::{Value, ValueType};
use relstore::Predicate;

fn table_with(n: usize) -> Table {
    let mut t = Table::new(
        Schema::builder("object")
            .column(Column::new("id", ValueType::Int))
            .column(Column::new("grp", ValueType::Int))
            .column(Column::new("acc", ValueType::Text))
            .primary_key(&["id"])
            .index("by_grp", &["grp"])
            .build()
            .unwrap(),
    );
    for i in 0..n as i64 {
        t.insert(vec![
            Value::Int(i),
            Value::Int(i % 100),
            Value::text(format!("ACC{i}")),
        ])
        .unwrap();
    }
    t
}

fn bench_access_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("relstore/access_path");
    for &n in &[10_000usize, 100_000] {
        let t = table_with(n);
        group.throughput(Throughput::Elements(n as u64));
        // point lookup via unique index
        group.bench_with_input(BenchmarkId::new("pk_lookup", n), &t, |b, t| {
            b.iter(|| t.lookup_unique("pk", &[Value::Int((n / 2) as i64)]).unwrap())
        });
        // equality select served by the secondary index
        let by_grp = Predicate::eq("grp", Value::Int(42));
        group.bench_with_input(BenchmarkId::new("index_select", n), &t, |b, t| {
            b.iter(|| t.select(&by_grp).unwrap())
        });
        // an equality no index serves: the filtered full scan
        let scan = Predicate::eq("acc", Value::text("ACC42"));
        group.bench_with_input(BenchmarkId::new("full_scan_select", n), &t, |b, t| {
            b.iter(|| t.select(&scan).unwrap())
        });
    }
    group.finish();
}

fn bench_durability(c: &mut Criterion) {
    let mut group = c.benchmark_group("relstore/durability");
    group.sample_size(10);
    let dir = std::env::temp_dir().join("relstore-bench");
    let _ = std::fs::remove_dir_all(&dir);
    // committed-transaction throughput with per-commit fsync
    group.bench_function("txn_commit_fsync", |b| {
        let _ = std::fs::remove_dir_all(&dir);
        let mut db = relstore::Database::open(&dir).unwrap();
        db.create_table(
            Schema::builder("t")
                .column(Column::new("id", ValueType::Int))
                .primary_key(&["id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        let mut next = 0i64;
        b.iter(|| {
            db.with_txn(|txn| {
                next += 1;
                txn.insert("t", vec![Value::Int(next)])?;
                Ok(())
            })
            .unwrap()
        });
    });
    // snapshot write cost for a 100k-row table
    group.bench_function("snapshot_100k_rows", |b| {
        let t = table_with(100_000);
        b.iter(|| relstore::snapshot::encode_snapshot(std::iter::once(&t), 0))
    });
    let _ = std::fs::remove_dir_all(&dir);
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_access_paths, bench_durability
}
criterion_main!(benches);
