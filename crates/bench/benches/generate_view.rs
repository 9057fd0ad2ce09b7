//! Experiments F3 + F5 — `GenerateView` (paper Figures 3 and 5).
//!
//! Sweeps the algorithm's dimensions: number of target columns m, AND vs
//! OR combination, negation, source-subset size, and composed (multi-hop)
//! targets. The Figure 3 view itself is regenerated by
//! `bench/src/bin/experiments.rs`.

use bench::{demo_fixture, medium_fixture};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use genmapper::{QuerySpec, TargetQuery};

const TARGETS: [&str; 6] = ["Hugo", "GO", "Location", "OMIM", "Enzyme", "Chr"];

fn bench_target_sweep(c: &mut Criterion) {
    let f = medium_fixture(31);
    let mut group = c.benchmark_group("figure5/targets");
    group.sample_size(20);
    for m in 1..=6usize {
        for (mode, label) in [(false, "or"), (true, "and")] {
            let mut spec = QuerySpec::source("LocusLink");
            for t in &TARGETS[..m] {
                spec = spec.target(*t);
            }
            let spec = if mode { spec.and() } else { spec.or() };
            group.bench_with_input(
                BenchmarkId::new(label, m),
                &spec,
                |b, spec| b.iter(|| f.gm.query(spec).expect("view generates")),
            );
        }
    }
    group.finish();
}

fn bench_negation_and_subsets(c: &mut Criterion) {
    let f = medium_fixture(32);
    let mut group = c.benchmark_group("figure5/variants");
    group.sample_size(20);

    // negation over the whole target
    let negated = QuerySpec::source("LocusLink")
        .target("GO")
        .target_spec(TargetQuery::new("OMIM").negated())
        .and();
    group.bench_function("negated_target", |b| {
        b.iter(|| f.gm.query(&negated).expect("view"))
    });

    // source-subset sizes (the s parameter of Figure 5)
    let all: Vec<String> = f
        .eco
        .universe
        .loci
        .iter()
        .map(|l| l.id.to_string())
        .collect();
    for &k in &[10usize, 100, 1000] {
        let k = k.min(all.len());
        let subset: Vec<&str> = all[..k].iter().map(String::as_str).collect();
        let spec = QuerySpec::source("LocusLink")
            .accessions(subset)
            .target("GO")
            .target("Hugo")
            .or();
        group.bench_with_input(BenchmarkId::new("subset", k), &spec, |b, spec| {
            b.iter(|| f.gm.query(spec).expect("view"))
        });
    }
    group.finish();
}

fn bench_composed_target(c: &mut Criterion) {
    // a view column that needs composition (NetAffx -> ... -> GO) vs one
    // that maps directly — the cost of Compose inside GenerateView
    let f = demo_fixture(33);
    let mut group = c.benchmark_group("figure5/composed_column");
    group.sample_size(20);
    let direct = QuerySpec::source("LocusLink").target("GO").and();
    group.bench_function("direct_mapping", |b| {
        b.iter(|| f.gm.query(&direct).expect("view"))
    });
    let composed = QuerySpec::source("NetAffx").target("GO").and();
    group.bench_function("composed_mapping", |b| {
        b.iter(|| f.gm.query(&composed).expect("view"))
    });
    group.finish();
}

fn bench_parallel_view(c: &mut Criterion) {
    // parallel per-target resolution across worker counts; the mapping
    // cache is dropped before every query so each iteration performs the
    // full resolution work, not a cache hit
    let mut f = medium_fixture(34);
    let spec = QuerySpec::source("LocusLink")
        .target("Hugo")
        .target("GO")
        .target("Location")
        .target("OMIM")
        .or();
    let mut group = c.benchmark_group("figure5/parallel");
    group.sample_size(20);
    for &jobs in &[1usize, 2, 4, 8] {
        f.gm.set_jobs(jobs);
        group.bench_with_input(BenchmarkId::new("jobs", jobs), &spec, |b, spec| {
            b.iter(|| {
                let _ = f.gm.store_mut(); // invalidate the mapping cache
                f.gm.query(spec).expect("view")
            })
        });
    }
    group.finish();
}

fn bench_mapping_cache(c: &mut Criterion) {
    // the versioned mapping cache: cold resolution vs warm repeat of the
    // same multi-target query
    let mut f = medium_fixture(35);
    let spec = QuerySpec::source("LocusLink")
        .target("Hugo")
        .target("GO")
        .target("Location")
        .target("OMIM")
        .or();
    let mut group = c.benchmark_group("figure5/cache");
    group.sample_size(20);
    group.bench_function("miss", |b| {
        b.iter(|| {
            let _ = f.gm.store_mut(); // bump the store version: every entry stale
            f.gm.query(&spec).expect("view")
        })
    });
    f.gm.query(&spec).expect("warm-up");
    group.bench_function("hit", |b| b.iter(|| f.gm.query(&spec).expect("view")));
    group.finish();
}

criterion_group!{
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_target_sweep, bench_negation_and_subsets, bench_composed_target,
        bench_parallel_view, bench_mapping_cache
}
criterion_main!(benches);
