//! Ablation A3 — materialized derived mappings vs on-the-fly derivation.
//!
//! Paper §3: "GenMapper supports the calculation and storage of derived
//! relationships to increase the annotation knowledge and to support
//! frequent queries." The bench compares answering the Unigene→GO mapping
//! by composition each time vs once-materialized retrieval, under a
//! repeat-factor sweep — the crossover shows after how many repeated
//! queries materialization pays for itself.

use bench::demo_fixture;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use operators::{compose_path_idx, ExecConfig};

fn bench_per_query_cost(c: &mut Criterion) {
    let mut f = demo_fixture(61);
    let path: Vec<_> = ["Unigene", "LocusLink", "GO"]
        .iter()
        .map(|n| f.gm.source_id(n).unwrap())
        .collect();
    let mut group = c.benchmark_group("materialize/per_query");
    // store-level derivation, bypassing the system's mapping cache — the
    // ablation contrasts real per-query join work with materialized lookup
    group.bench_function("compose_on_the_fly", |b| {
        b.iter(|| {
            compose_path_idx(f.gm.store(), &path, &ExecConfig::sequential()).expect("composes")
        })
    });
    f.gm.materialize_composed(&["Unigene", "LocusLink", "GO"])
        .expect("materializes");
    let (ug, go) = (path[0], path[2]);
    group.bench_function("map_materialized", |b| {
        b.iter(|| operators::map(f.gm.store(), ug, go).expect("direct"))
    });
    group.finish();
}

fn bench_repeat_factor(c: &mut Criterion) {
    // total cost of answering the mapping k times, with and without the
    // up-front materialization (which is included in the measured cost)
    let mut group = c.benchmark_group("materialize/repeat_factor");
    group.sample_size(10);
    for &k in &[1usize, 10, 100] {
        group.bench_with_input(BenchmarkId::new("on_the_fly", k), &k, |b, &k| {
            let f = demo_fixture(62);
            let path: Vec<_> = ["Unigene", "LocusLink", "GO"]
                .iter()
                .map(|n| f.gm.source_id(n).unwrap())
                .collect();
            b.iter(|| {
                let mut total = 0usize;
                for _ in 0..k {
                    total += compose_path_idx(f.gm.store(), &path, &ExecConfig::sequential())
                        .unwrap()
                        .len();
                }
                total
            })
        });
        group.bench_with_input(BenchmarkId::new("cached_compose", k), &k, |b, &k| {
            // the versioned mapping cache sits between the two extremes:
            // first call derives, the rest are Arc-clone hits
            let f = demo_fixture(62);
            b.iter(|| {
                let mut total = 0usize;
                for _ in 0..k {
                    total += f.gm.compose(&["Unigene", "LocusLink", "GO"]).unwrap().len();
                }
                total
            })
        });
        group.bench_with_input(BenchmarkId::new("materialize_then_map", k), &k, |b, &k| {
            b.iter(|| {
                let mut f = demo_fixture(62);
                f.gm.materialize_composed(&["Unigene", "LocusLink", "GO"]).unwrap();
                let path: Vec<_> = ["Unigene", "GO"]
                    .iter()
                    .map(|n| f.gm.source_id(n).unwrap())
                    .collect();
                let mut total = 0usize;
                for _ in 0..k {
                    total += operators::map(f.gm.store(), path[0], path[1]).unwrap().len();
                }
                total
            })
        });
    }
    group.finish();
}

fn bench_subsumed_materialization(c: &mut Criterion) {
    let mut group = c.benchmark_group("materialize/subsumed");
    group.sample_size(10);
    group.bench_function("derive_each_time", |b| {
        let f = demo_fixture(63);
        let go = f.gm.source_id("GO").unwrap();
        b.iter(|| operators::subsume(f.gm.store(), go).expect("closure"))
    });
    group.bench_function("materialized_lookup", |b| {
        let mut f = demo_fixture(63);
        let (rel, _) = f.gm.materialize_subsumed("GO").unwrap();
        b.iter(|| f.gm.store().load_mapping(rel).expect("loads"))
    });
    group.finish();
}

criterion_group!{
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_per_query_cost, bench_repeat_factor, bench_subsumed_materialization
}
criterion_main!(benches);
