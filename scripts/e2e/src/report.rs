//! Turning a finished run into named metrics and the result line.

use crate::bench::Run;
use crate::gen::Class;
use crate::traced::{State, CLASS_REAL};
use crate::{stats, trace};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// An end-to-end metric as `BENCHMARK.json` declares it: name, unit,
/// whether lower is better, and the share of the parent's median by which
/// it may get worse. `tests::benchmark_json_declares_the_same_metrics`
/// keeps the two in step.
pub const END_TO_END: [(&str, &str, bool, f64); 9] = [
    ("setup_s", "s", true, 0.25),
    ("import_assoc_per_s", "1/s", false, 0.10),
    ("recover_s", "s", true, 0.10),
    ("read_ops_per_s", "1/s", false, 0.10),
    ("view_p50_ms", "ms", true, 0.10),
    ("write_p50_ms", "ms", true, 0.10),
    ("disk_bytes_per_assoc", "B", true, 0.01),
    ("heap_bytes_per_assoc", "B", true, 0.02),
    ("write_bytes_per_assoc", "B", true, 0.01),
];

/// The per-layer metrics a traced run prints, in `BENCHMARK.json`'s order.
pub const PER_LAYER: [(&str, &str); 75] = [
    ("sources.parse_mb_per_s", "MB/s"),
    ("eav.records_per_assoc", "count"),
    ("import.apply_assoc_per_s", "1/s"),
    ("import.reimport_unchanged_ms", "ms"),
    ("import.dedup_skipped_frac", "1"),
    ("gam.bulk_insert_assoc_per_s", "1/s"),
    ("relstore.wal_bytes_per_assoc", "B"),
    ("relstore.fsyncs_per_import", "count"),
    ("relstore.checkpoint_ms", "ms"),
    ("relstore.checkpoint_bytes", "B"),
    ("relstore.dirty_checkpoint_bytes", "B"),
    ("relstore.dirty_checkpoint_pages", "count"),
    ("relstore.writeback_bytes", "B"),
    ("relstore.open_ms", "ms"),
    ("relstore.wal_replay_ms", "ms"),
    ("relstore.wal_replayed_txns", "count"),
    ("relstore.pool_hit_rate", "1"),
    ("relstore.pool_misses_per_read", "count"),
    ("relstore.pool_evictions_per_read", "count"),
    ("relstore.lookup_unique_us", "us"),
    ("gam.capture_ms", "ms"),
    ("gam.snapshot_bytes_per_assoc", "B"),
    ("gam.load_index_pairs_per_s", "1/s"),
    ("gam.resolve_accessions_us", "us"),
    ("gam.get_object_us", "us"),
    ("gam.find_object_us", "us"),
    ("gam.associations_of_object_us", "us"),
    ("pathfinder.graph_build_ms", "ms"),
    ("pathfinder.shortest_path_us", "us"),
    ("pathfinder.k_paths_us", "us"),
    ("operators.map_index_ms", "ms"),
    ("operators.compose_path_ms", "ms"),
    ("operators.view_ms", "ms"),
    ("operators.materialize_ms", "ms"),
    ("operators.subsume_ms", "ms"),
    ("genmapper.parse_query_us", "us"),
    ("genmapper.resolve_cells_ms", "ms"),
    ("genmapper.render_tsv_mb_per_s", "MB/s"),
    ("genmapper.object_info_us", "us"),
    ("genmapper.snapshot_acquire_ns", "ns"),
    ("genmapper.publish_ms", "ms"),
    ("genmapper.first_query_after_publish_ms", "ms"),
    ("profiling.run_ms", "ms"),
    ("serve.handle_lookup_us", "us"),
    ("serve.handle_compose_us", "us"),
    ("serve.handle_view_ms", "ms"),
    ("serve.wire_overhead_us", "us"),
    ("serve.ping_rtt_us", "us"),
    ("serve.shed_writes", "count"),
    ("serve.timeouts", "count"),
    ("serve.errors", "count"),
    ("read.lookup_p50_ms", "ms"),
    ("read.compose_p50_ms", "ms"),
    ("read.view_p50_ms", "ms"),
    ("read.lookup_tail_ms", "ms"),
    ("read.view_tail_ms", "ms"),
    ("read.tail_ms", "ms"),
    ("read.alloc_bytes_per_op", "B"),
    ("read.body_mb_per_s", "MB/s"),
    ("share.read.wire", "1"),
    ("share.read.serve", "1"),
    ("share.read.genmapper", "1"),
    ("share.read.operators", "1"),
    ("share.read.pathfinder", "1"),
    ("share.read.gam", "1"),
    ("share.read.relstore", "1"),
    ("share.load.sources", "1"),
    ("share.load.import", "1"),
    ("share.load.gam", "1"),
    ("share.load.relstore", "1"),
    ("trace.attributed_frac", "1"),
    ("trace.overhead_frac", "1"),
    ("host.ref_slice_ms", "ms"),
    ("host.factor_p50", "1"),
    ("host.factor_p90", "1"),
];

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The last line of standard output.
fn result_line(run: &Run, metrics: &[Metric]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        run.rec.failed == 0,
        run.rec.attempted,
        run.rec.failed
    );
    for (i, metric) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            metric.name, metric.value, metric.unit
        );
    }
    out.push_str("}}");
    out
}

fn print_failures(run: &Run) {
    for f in &run.rec.failures {
        println!("FAILED  {f}");
    }
}

/// The nine end-to-end metrics, host-normalised, with their raw values.
pub fn end_to_end(run: &Run) {
    let rec = &run.rec;
    let s = &run.setup;
    let assocs = s.assocs as f64;
    let metrics = [
        m("setup_s", s.setup_s, "s"),
        m(
            "import_assoc_per_s",
            rec.import_assocs as f64 / stats::norm_total_s(&rec.import),
            "1/s",
        ),
        m("recover_s", stats::median(&rec.recover_ms) / 1e3, "s"),
        m(
            "read_ops_per_s",
            rec.read_ops as f64 / stats::norm_total_s(&rec.read),
            "1/s",
        ),
        m("view_p50_ms", stats::median(&rec.view_ms), "ms"),
        m("write_p50_ms", stats::median(&rec.write_ms), "ms"),
        m("disk_bytes_per_assoc", s.disk_bytes as f64 / assocs, "B"),
        m("heap_bytes_per_assoc", s.heap_bytes as f64 / assocs, "B"),
        m("write_bytes_per_assoc", s.write_bytes as f64 / assocs, "B"),
    ];
    println!(
        "workload {}  seed {}  scale {}  ({} objects, {} associations, {} dump bytes)",
        run.cfg.workload.name, run.cfg.seed, run.cfg.scale, s.objects, s.assocs, s.dump_bytes
    );
    let factors: Vec<f64> = [
        &rec.import,
        &rec.checkpoint,
        &rec.write,
        &rec.recover,
        &rec.read,
    ]
    .iter()
    .flat_map(|laps| laps.iter().map(stats::Lap::host_factor))
    .collect();
    let mut sorted = factors.clone();
    sorted.sort_by(f64::total_cmp);
    println!(
        "host    ref slice median {:.3} ms, factor p50 {:.3} p90 {:.3} over {} laps; ref fsync median {:.3} ms",
        stats::median(&run.host.slices_ms),
        stats::quantile_sorted(&sorted, 0.5),
        stats::quantile_sorted(&sorted, 0.9),
        factors.len(),
        stats::median(&run.host.sync_slices_ms)
    );
    println!(
        "setup   raw {:.3} s -> {:.3} s normalised (bulk import {:.3} s, checkpoint {:.3} s, reopen {:.3} s, publish {:.3} s)",
        s.setup_raw_s, s.setup_s, s.bulk_import_s, s.bulk_checkpoint_s, s.bulk_reopen_s, s.publish_s
    );
    if s.pool_pages > 0 {
        println!(
            "pool    {} pages of the {} the heap file holds ({:.1}x)",
            s.pool_pages,
            s.heap_file_bytes / crate::bench::PAGE_BYTES as u64,
            s.heap_file_bytes as f64 / (s.pool_pages * crate::bench::PAGE_BYTES) as f64
        );
    }
    let phase = |name: &str, laps: &[stats::Lap], samples: usize| {
        println!(
            "phase   {name:<10} {:>3} laps, {:>5} samples, {:>6.2} s raw, {:>6.2} s normalised",
            laps.len(),
            samples,
            stats::raw_total_s(laps),
            stats::norm_total_s(laps)
        );
    };
    phase("import", &rec.import, rec.import.len());
    phase("checkpoint", &rec.checkpoint, rec.checkpoint.len());
    phase("write", &rec.write, rec.write_ms.len());
    phase("recover", &rec.recover, rec.recover_ms.len());
    phase("read", &rec.read, rec.read_ops as usize);
    for (class, ms) in ["lookup", "compose", "view", "meta"]
        .iter()
        .zip(&rec.class_ms)
    {
        if let Some((pct, v)) = stats::tail(ms) {
            println!(
                "reads   {class:<8} p50 {:.4} ms, p{pct:.1} {v:.4} ms ({} samples)",
                stats::median(ms),
                ms.len()
            );
        }
    }
    for metric in &metrics {
        println!(
            "metric  {:<24} {:>16.6} {}",
            metric.name, metric.value, metric.unit
        );
    }
    print_failures(run);
    println!("{}", result_line(run, &metrics));
}

/// Median of a named sample series, 0 when the workload has none (the
/// metric does not apply to it, e.g. pool counters on a resident store).
fn med(state: &State, name: &str) -> f64 {
    state.samples.get(name).map_or(0.0, |v| stats::median(v))
}

fn sum(state: &State, name: &str) -> f64 {
    state.sums.get(name).copied().unwrap_or(0.0)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Median duration of the spans named `name`, in `unit_ns` units.
fn span_med(spans: &[trace::Span], name: &str, unit_ns: f64) -> f64 {
    let d = trace::durations_ns(spans, name);
    if d.is_empty() {
        0.0
    } else {
        stats::median(&d) / unit_ns
    }
}

/// Spans named `name` that belong to requests of `class`.
fn class_span_med(run: &Run, spans: &[trace::Span], name: &str, class: Class, unit_ns: f64) -> f64 {
    let d: Vec<f64> = spans
        .iter()
        .filter(|s| {
            s.name == name
                && run.list.get(s.request_id as usize).map(|e| e.request.class) == Some(class)
        })
        .map(|s| s.dur_ns() as f64)
        .collect();
    if d.is_empty() {
        0.0
    } else {
        stats::median(&d) / unit_ns
    }
}

/// The per-layer metrics of a traced run, and the trace file.
pub fn per_layer(run: &Run, out: &Path) -> Result<(), String> {
    let spans = trace::take();
    let state = run.traced.as_deref().ok_or("traced run recorded nothing")?;
    const US: f64 = 1e3;
    const MS: f64 = 1e6;

    // layer shares: self time under the re-enacted read laps ...
    let by_root = trace::layer_self_ns(&spans);
    let layers_under = |roots: &[&str]| -> BTreeMap<&str, u64> {
        let mut out = BTreeMap::new();
        for ((root, layer), ns) in &by_root {
            if roots.contains(root) {
                *out.entry(*layer).or_insert(0) += ns;
            }
        }
        out
    };
    let share = |layers: &BTreeMap<&str, u64>, layer: &str| {
        ratio(
            layers.get(layer).copied().unwrap_or(0) as f64,
            layers.values().sum::<u64>() as f64,
        )
    };
    let read = layers_under(&["lap.read"]);
    let read_total: u64 = read.values().sum();
    let served = sum(state, "read_handle_ms") > 0.0;
    // ... scaled, on a served system, to the share of the round trip the
    // handler accounts for; the rest of the round trip is the wire
    let server_side = if served {
        ratio(sum(state, "read_handle_ms"), sum(state, "read_real_ms")).min(1.0)
    } else {
        1.0
    };
    let read_share = |layer: &str| server_side * share(&read, layer);
    let load = layers_under(&["lap.import", "lap.checkpoint", "lap.write", "lap.recover"]);
    let load_total: u64 = load.values().sum();
    let load_share = |layer: &str| share(&load, layer);
    let unattributed =
        read.get("lap").copied().unwrap_or(0) + load.get("lap").copied().unwrap_or(0);
    let attributed = 1.0 - ratio(unattributed as f64, (read_total + load_total) as f64);
    let replay_base = if served {
        sum(state, "read_handle_ms")
    } else {
        sum(state, "read_real_ms")
    };
    let overhead = ratio(sum(state, "read_replay_ms"), replay_base) - 1.0;

    let root = trace::roots(&spans);
    let total_ns = |name: &str, under: &str| -> f64 {
        spans
            .iter()
            .enumerate()
            .filter(|(i, s)| s.name == name && spans[root[*i]].name == under)
            .map(|(_, s)| s.dur_ns() as f64)
            .sum()
    };
    let render_ns = total_ns("genmapper.render_tsv", "lap.read");
    let import_ns = total_ns("import.import", "lap.import");
    let parse_ns: f64 = trace::durations_ns(&spans, "sources.parse").iter().sum();
    let real = |class: usize| {
        state
            .samples
            .get(CLASS_REAL[class])
            .cloned()
            .unwrap_or_default()
    };
    let all_real: Vec<f64> = (0..4).flat_map(real).collect();
    let tail = |v: &[f64]| stats::tail(v).map_or(0.0, |(_, v)| v);
    let mut sorted_factors: Vec<f64> = run
        .host
        .slices_ms
        .iter()
        .map(|ms| ms / crate::refk::REF_NOMINAL_MS)
        .collect();
    sorted_factors.sort_by(f64::total_cmp);
    let server_stats = match &run.server_counters {
        Some(c) => *c,
        None => (0, 0, 0),
    };

    let metrics = vec![
        m(
            "sources.parse_mb_per_s",
            ratio(sum(state, "parse_bytes") / 1e6, parse_ns / 1e9),
            "MB/s",
        ),
        m(
            "eav.records_per_assoc",
            ratio(run.setup.records as f64, run.setup.assocs as f64),
            "count",
        ),
        m(
            "import.apply_assoc_per_s",
            ratio(sum(state, "import_assocs"), import_ns / 1e9),
            "1/s",
        ),
        m(
            "import.reimport_unchanged_ms",
            med(state, "import.reimport_unchanged_ms"),
            "ms",
        ),
        m(
            "import.dedup_skipped_frac",
            ratio(
                sum(state, "write_deduped"),
                sum(state, "write_deduped") + sum(state, "write_created"),
            ),
            "1",
        ),
        m(
            "gam.bulk_insert_assoc_per_s",
            ratio(
                sum(state, "import_assocs") + sum(state, "write_created"),
                sum(state, "insert_ms") / 1e3,
            ),
            "1/s",
        ),
        m(
            "relstore.wal_bytes_per_assoc",
            ratio(sum(state, "wal_bytes"), sum(state, "import_assocs")),
            "B",
        ),
        m(
            "relstore.fsyncs_per_import",
            ratio(sum(state, "import_syncs"), sum(state, "import_dumps")),
            "count",
        ),
        m(
            "relstore.checkpoint_ms",
            span_med(&spans, "relstore.checkpoint", MS),
            "ms",
        ),
        m(
            "relstore.checkpoint_bytes",
            med(state, "relstore.checkpoint_bytes"),
            "B",
        ),
        m(
            "relstore.dirty_checkpoint_bytes",
            med(state, "relstore.dirty_checkpoint_bytes"),
            "B",
        ),
        m(
            "relstore.dirty_checkpoint_pages",
            med(state, "relstore.dirty_checkpoint_pages"),
            "count",
        ),
        m(
            "relstore.writeback_bytes",
            med(state, "relstore.writeback_bytes"),
            "B",
        ),
        m("relstore.open_ms", med(state, "relstore.open_ms"), "ms"),
        m(
            "relstore.wal_replay_ms",
            med(state, "relstore.wal_replay_ms"),
            "ms",
        ),
        m(
            "relstore.wal_replayed_txns",
            med(state, "relstore.wal_replayed_txns"),
            "count",
        ),
        m(
            "relstore.pool_hit_rate",
            ratio(
                sum(state, "pool_hits"),
                sum(state, "pool_hits") + sum(state, "pool_misses"),
            ),
            "1",
        ),
        m(
            "relstore.pool_misses_per_read",
            ratio(sum(state, "pool_misses"), sum(state, "pool_reads")),
            "count",
        ),
        m(
            "relstore.pool_evictions_per_read",
            ratio(sum(state, "pool_evictions"), sum(state, "pool_reads")),
            "count",
        ),
        m(
            "relstore.lookup_unique_us",
            span_med(&spans, "relstore.lookup_unique", US),
            "us",
        ),
        m("gam.capture_ms", med(state, "gam.capture_ms"), "ms"),
        m(
            "gam.snapshot_bytes_per_assoc",
            med(state, "gam.snapshot_bytes_per_assoc"),
            "B",
        ),
        m(
            "gam.load_index_pairs_per_s",
            med(state, "gam.load_index_pairs_per_s"),
            "1/s",
        ),
        m(
            "gam.resolve_accessions_us",
            span_med(&spans, "gam.resolve_accessions", US),
            "us",
        ),
        m(
            "gam.get_object_us",
            span_med(&spans, "gam.get_object", US),
            "us",
        ),
        m(
            "gam.find_object_us",
            span_med(&spans, "gam.find_object", US),
            "us",
        ),
        m(
            "gam.associations_of_object_us",
            span_med(&spans, "gam.associations_of_object", US),
            "us",
        ),
        m(
            "pathfinder.graph_build_ms",
            med(state, "pathfinder.graph_build_ms"),
            "ms",
        ),
        m(
            "pathfinder.shortest_path_us",
            span_med(&spans, "pathfinder.shortest_path", US),
            "us",
        ),
        m(
            "pathfinder.k_paths_us",
            span_med(&spans, "pathfinder.k_shortest_paths", US),
            "us",
        ),
        m(
            "operators.map_index_ms",
            span_med(&spans, "operators.map_index", MS),
            "ms",
        ),
        m(
            "operators.compose_path_ms",
            span_med(&spans, "operators.compose_path_idx", MS),
            "ms",
        ),
        m(
            "operators.view_ms",
            class_span_med(run, &spans, "operators.generate_view_idx", Class::View, MS),
            "ms",
        ),
        m(
            "operators.materialize_ms",
            med(state, "operators.materialize_ms"),
            "ms",
        ),
        m(
            "operators.subsume_ms",
            med(state, "operators.subsume_ms"),
            "ms",
        ),
        m(
            "genmapper.parse_query_us",
            span_med(&spans, "genmapper.parse_query", US),
            "us",
        ),
        m(
            "genmapper.resolve_cells_ms",
            class_span_med(run, &spans, "genmapper.resolve_cells", Class::View, MS),
            "ms",
        ),
        m(
            "genmapper.render_tsv_mb_per_s",
            ratio(sum(state, "read_body_bytes") / 1e6, render_ns / 1e9),
            "MB/s",
        ),
        m(
            "genmapper.object_info_us",
            span_med(&spans, "genmapper.object_info", US),
            "us",
        ),
        m(
            "genmapper.snapshot_acquire_ns",
            med(state, "genmapper.snapshot_acquire_ns"),
            "ns",
        ),
        m(
            "genmapper.publish_ms",
            med(state, "genmapper.publish_ms"),
            "ms",
        ),
        m(
            "genmapper.first_query_after_publish_ms",
            med(state, "genmapper.first_query_after_publish_ms"),
            "ms",
        ),
        m("profiling.run_ms", med(state, "profiling.run_ms"), "ms"),
        m(
            "serve.handle_lookup_us",
            med(state, "serve.handle_lookup_us") * 1e3,
            "us",
        ),
        m(
            "serve.handle_compose_us",
            med(state, "serve.handle_compose_us") * 1e3,
            "us",
        ),
        m(
            "serve.handle_view_ms",
            med(state, "serve.handle_view_ms"),
            "ms",
        ),
        m(
            "serve.wire_overhead_us",
            med(state, "serve.wire_overhead_us"),
            "us",
        ),
        m("serve.ping_rtt_us", med(state, "serve.ping_rtt_us"), "us"),
        m("serve.shed_writes", server_stats.0 as f64, "count"),
        m("serve.timeouts", server_stats.1 as f64, "count"),
        m("serve.errors", server_stats.2 as f64, "count"),
        m("read.lookup_p50_ms", med(state, CLASS_REAL[0]), "ms"),
        m("read.compose_p50_ms", med(state, CLASS_REAL[1]), "ms"),
        m("read.view_p50_ms", med(state, CLASS_REAL[2]), "ms"),
        m("read.lookup_tail_ms", tail(&real(0)), "ms"),
        m("read.view_tail_ms", tail(&real(2)), "ms"),
        m("read.tail_ms", tail(&all_real), "ms"),
        m(
            "read.alloc_bytes_per_op",
            ratio(sum(state, "read_alloc_bytes"), sum(state, "read_requests")),
            "B",
        ),
        m(
            "read.body_mb_per_s",
            ratio(
                sum(state, "read_body_bytes") / 1e6,
                sum(state, "read_real_ms") / 1e3,
            ),
            "MB/s",
        ),
        m("share.read.wire", 1.0 - server_side, "1"),
        m("share.read.serve", read_share("serve"), "1"),
        m("share.read.genmapper", read_share("genmapper"), "1"),
        m("share.read.operators", read_share("operators"), "1"),
        m("share.read.pathfinder", read_share("pathfinder"), "1"),
        m("share.read.gam", read_share("gam"), "1"),
        m("share.read.relstore", read_share("relstore"), "1"),
        m("share.load.sources", load_share("sources"), "1"),
        m("share.load.import", load_share("import"), "1"),
        m("share.load.gam", load_share("gam"), "1"),
        m("share.load.relstore", load_share("relstore"), "1"),
        m("trace.attributed_frac", attributed, "1"),
        m("trace.overhead_frac", overhead, "1"),
        m(
            "host.ref_slice_ms",
            stats::median(&run.host.slices_ms),
            "ms",
        ),
        m(
            "host.factor_p50",
            stats::quantile_sorted(&sorted_factors, 0.5),
            "1",
        ),
        m(
            "host.factor_p90",
            stats::quantile_sorted(&sorted_factors, 0.9),
            "1",
        ),
    ];

    assert!(
        metrics.iter().map(|m| (m.name, m.unit)).eq(PER_LAYER),
        "the traced run's metrics and PER_LAYER disagree"
    );

    // the trace file: the spans of the first cycle, 200 000 at most (a
    // whole run is hundreds of megabytes of JSON; the metrics above use
    // all of it)
    let cut = spans
        .iter()
        .skip(1)
        .position(|s| s.name == "lap.import" && s.parent.is_none())
        .map_or(spans.len(), |i| i + 1)
        .min(200_000);
    let file = out.join(format!("trace-{}.json", run.cfg.workload.name));
    std::fs::write(&file, trace::to_json(&spans[..cut]))
        .map_err(|e| format!("write {}: {e}", file.display()))?;

    println!(
        "workload {}  seed {}  scale {}  traced: {} cycles, {} spans ({} written to {})",
        run.cfg.workload.name,
        run.cfg.seed,
        run.cfg.scale,
        state.cycles,
        spans.len(),
        cut,
        file.display()
    );
    for metric in &metrics {
        println!(
            "metric  {:<40} {:>16.6} {}",
            metric.name, metric.value, metric.unit
        );
    }
    print_failures(run);
    println!("{}", result_line(run, &metrics));
    Ok(())
}

/// `"name": {"value": <number>` out of a result line this program wrote.
fn value_of(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

fn failed_of(line: &str) -> Option<u64> {
    let key = "\"failed\": ";
    let rest = &line[line.find(key)? + key.len()..];
    rest[..rest.find(',')?].trim().parse().ok()
}

/// The A/A table: two interleaved sets of runs of one build, judged the
/// way the benchmark driver judges a benchmark. Returns whether every
/// gated (metric, workload) pair passed.
pub fn aa_report(dir: &Path) -> Result<bool, String> {
    let mut all_pass = true;
    println!("| workload | metric | median A | quartiles A | median B | quartiles B | B worse by | spread A | spread B | bound | |");
    println!("|---|---|---:|---|---:|---|---:|---:|---:|---:|---|");
    for w in &crate::bench::WORKLOADS {
        let mut sets: [Vec<String>; 2] = [Vec::new(), Vec::new()];
        for (set, lines) in ["A", "B"].iter().zip(&mut sets) {
            for r in 1.. {
                let file = dir.join(format!("{set}-{}-{r}.json", w.name));
                match std::fs::read_to_string(&file) {
                    Ok(line) => lines.push(line),
                    Err(_) => break,
                }
            }
            if lines.len() < 2 {
                return Err(format!(
                    "{}: fewer than two {set} runs of {}",
                    dir.display(),
                    w.name
                ));
            }
            if lines.iter().any(|l| failed_of(l) != Some(0)) {
                println!(
                    "| {} | (answers) | | | | | | | | | FAIL: set {set} has failed operations |",
                    w.name
                );
                all_pass = false;
            }
        }
        for (name, unit, lower_is_better, bound) in END_TO_END {
            let values = |lines: &[String]| -> Result<Vec<f64>, String> {
                lines
                    .iter()
                    .map(|l| {
                        value_of(l, name).ok_or_else(|| format!("no {name} in a {} result", w.name))
                    })
                    .collect()
            };
            let (a, b) = (values(&sets[0])?, values(&sets[1])?);
            let (ma, mb) = (stats::median(&a), stats::median(&b));
            let worse = if lower_is_better {
                (mb - ma) / ma
            } else {
                (ma - mb) / ma
            };
            let (sa, sb) = (stats::spread(&a), stats::spread(&b));
            // set-up time is judged on its medians only, as the driver does
            let pass = worse <= bound && (name == "setup_s" || (sa <= bound && sb <= bound));
            all_pass &= pass;
            let q = |v: &[f64]| {
                let [q1, _, q3] = stats::quartiles(v);
                format!("{q1:.4} .. {q3:.4}")
            };
            println!(
                "| {} | {name} ({unit}) | {ma:.4} | {} | {mb:.4} | {} | {:+.2} % | {:.2} % | {:.2} % | {:.0} % | {} |",
                w.name,
                q(&a),
                q(&b),
                worse * 100.0,
                sa * 100.0,
                sb * 100.0,
                bound * 100.0,
                if pass { "pass" } else { "FAIL" }
            );
        }
    }
    Ok(all_pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_parse_back() {
        let line = r#"{"correct": true, "attempted": 12, "failed": 0, "metrics": {"setup_s": {"value": 5.25, "unit": "s"}, "recover_s": {"value": 0.2, "unit": "s"}}}"#;
        assert_eq!(value_of(line, "setup_s"), Some(5.25));
        assert_eq!(value_of(line, "recover_s"), Some(0.2));
        assert_eq!(value_of(line, "missing"), None);
        assert_eq!(failed_of(line), Some(0));
    }

    /// `BENCHMARK.json` and this file must declare the same end-to-end
    /// metrics (name, unit, direction, bound) and the same workloads.
    #[test]
    fn benchmark_json_declares_the_same_metrics() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let section = |from: &str, to: &str| {
            let start = json.find(from).expect("section start");
            &json[start..start + json[start..].find(to).expect("section end")]
        };
        let e2e = section("\"end_to_end\"", "\"per_layer\"");
        for (name, unit, lower, bound) in END_TO_END {
            let better = if lower { "lower" } else { "higher" };
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            );
            assert!(e2e.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(e2e.matches("\"name\"").count(), END_TO_END.len());
        let layers = &json[json.find("\"per_layer\"").expect("per_layer")..];
        for (name, unit) in PER_LAYER {
            assert!(
                layers.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ")),
                "BENCHMARK.json lacks per-layer metric {name} ({unit})"
            );
        }
        assert_eq!(layers.matches("\"name\"").count(), PER_LAYER.len());
        let workloads = section("\"workloads\"", "\"end_to_end\"");
        for w in &crate::bench::WORKLOADS {
            assert!(workloads.contains(&format!("\"name\": \"{}\"", w.name)));
        }
        assert_eq!(
            workloads.matches("\"name\"").count(),
            crate::bench::WORKLOADS.len()
        );
    }
}
