//! Experiment T2 (Compose) — transitive mapping derivation (paper §4.2).
//!
//! Measures the pure join (two in-memory mapping indexes) across sizes, and
//! store-backed `compose_path_idx` across path lengths on the integrated
//! ecosystem — the operation behind "the new mapping Unigene↔GO can be
//! derived by combining Unigene↔LocusLink and LocusLink↔GO".

use bench::{composable_mappings, demo_fixture};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gam::MappingIndex;
use operators::{compose_idx, compose_path_idx, ExecConfig};

fn bench_pure_compose(c: &mut Criterion) {
    let mut group = c.benchmark_group("compose/pure");
    for &n in &[1_000usize, 10_000, 100_000] {
        let (left, right) = composable_mappings(5, n);
        group.throughput(Throughput::Elements((left.len() + right.len()) as u64));
        let (left, right) = (MappingIndex::build(left), MappingIndex::build(right));
        let seq = ExecConfig::sequential();
        group.bench_with_input(
            BenchmarkId::from_parameter(n),
            &(left, right),
            |b, (l, r)| b.iter(|| compose_idx(l, r, &seq).expect("composes")),
        );
    }
    group.finish();
}

fn bench_store_paths(c: &mut Criterion) {
    let f = demo_fixture(6);
    let mut group = c.benchmark_group("compose/path_length");
    let paths: [(&str, Vec<&str>); 3] = [
        ("2hop", vec!["Unigene", "LocusLink", "GO"]),
        ("3hop", vec!["NetAffx", "Unigene", "LocusLink", "GO"]),
        ("3hop_protein", vec!["InterPro", "SwissProt", "LocusLink", "GO"]),
    ];
    for (label, path) in &paths {
        // bypass the system-level mapping cache: measure the actual join
        // work, not a cache hit
        let ids: Vec<_> = path
            .iter()
            .map(|n| f.gm.source_id(n).expect("source exists"))
            .collect();
        group.bench_function(*label, |b| {
            b.iter(|| {
                compose_path_idx(f.gm.store(), &ids, &ExecConfig::sequential()).expect("path composes")
            })
        });
    }
    // the same derivation served by the versioned mapping cache (first
    // iteration builds, the rest are hits)
    group.bench_function("2hop_cached", |b| {
        b.iter(|| f.gm.compose(&["Unigene", "LocusLink", "GO"]).expect("path composes"))
    });
    group.finish();
}

fn bench_subsume(c: &mut Criterion) {
    // Subsumed closure derivation over taxonomies of growing depth
    let f = demo_fixture(8);
    let go = f.gm.source_id("GO").unwrap();
    let enzyme = f.gm.source_id("Enzyme").unwrap();
    let mut group = c.benchmark_group("compose/subsume");
    group.bench_function("GO", |b| {
        b.iter(|| operators::subsume(f.gm.store(), go).expect("closure"))
    });
    group.bench_function("Enzyme", |b| {
        b.iter(|| operators::subsume(f.gm.store(), enzyme).expect("closure"))
    });
    group.finish();
}

criterion_group!{
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_pure_compose, bench_store_paths, bench_subsume
}
criterion_main!(benches);
