//! The traced run: the same cycle as the measured run, taken apart.
//!
//! Tracing inside `crates/` does not exist yet, so every span here is
//! recorded from this file, around a call into a layer's public functions:
//!
//! * the load/recover laps run on a `GamStore` over the counting `Vfs`,
//!   dump by dump (`SourceDump::parse`, `Importer::import_owned`), with the
//!   importer's own insert/WAL timers laid in as *paired* children;
//! * every read request is answered three times: by the real path (wire
//!   round trip, or the library call), by the real `serve::handle_request`
//!   in-process, and by a re-enactment of the handler and query executor
//!   from their public parts (`parse_query`, `generate_view_idx`,
//!   `map_index`, `compose_path_idx`, `SourceGraph::shortest_path`, and a
//!   `GamRead` wrapper that spans every reader call). The re-enactment
//!   must produce the same body; its span tree gives the layer shares.
//! * on a live store the hot reader calls are re-enacted one level
//!   deeper, as the `relstore::Table` lookup plus gam's row conversion, so
//!   relstore's share of a read is a nested span and not an estimate.

use crate::bench::{self, open_store, Run, StoreKind, Sys};
use crate::trace::{add_child, span, span_indexed};
use crate::vfs::CountingVfs;
use crate::{alloc, trace};
use gam::model::RelType;
use gam::schema::tables;
use gam::{
    Association, GamError, GamObject, GamRead, GamResult, GamStore, Mapping, MappingIndex,
    ObjectId, Source, SourceId, SourceRel, SourceRelId,
};
use genmapper::cli::parse_query;
use genmapper::{QuerySpec, SharedGenMapper};
use operators::{generate_view_idx, ExecConfig, IndexResolver, TargetSpec, ViewQuery};
use pathfinder::SourceGraph;
use relstore::vfs::Vfs;
use relstore::Value;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Named sample series and counters that do not come from spans.
#[derive(Default)]
pub struct State {
    vfs: Arc<CountingVfs>,
    cache: Mutex<HashMap<(SourceId, SourceId), Arc<MappingIndex>>>,
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub sums: BTreeMap<&'static str, f64>,
    pub cycles: u64,
}

/// `f`'s result and how many milliseconds it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

fn gam_err(what: &'static str) -> impl Fn(GamError) -> String {
    move |e| format!("{what}: {e}")
}

impl State {
    fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_insert(0.0) += v;
    }

    fn open_scratch(&self, sc: &bench::Scratch) -> Result<GamStore, String> {
        let vfs: Arc<dyn Vfs> = self.vfs.clone();
        match sc.kind {
            StoreKind::Resident => GamStore::open_with_vfs(vfs, &sc.dir),
            StoreKind::Paged => GamStore::open_paged_with_vfs(vfs, &sc.dir, sc.pool),
        }
        .map_err(gam_err("open scratch"))
    }

    fn open_scratch_db(&self, sc: &bench::Scratch) -> Result<relstore::Database, String> {
        let vfs: Arc<dyn Vfs> = self.vfs.clone();
        match sc.kind {
            StoreKind::Resident => relstore::Database::open_with_vfs(vfs, &sc.dir),
            StoreKind::Paged => relstore::Database::open_paged_with_vfs(vfs, &sc.dir, sc.pool),
        }
        .map_err(|e| format!("open scratch database: {e}"))
    }

    /// Parse and import `dumps` one by one under spans; returns
    /// (associations created, associations deduplicated).
    fn import_traced(
        &mut self,
        store: &mut GamStore,
        dumps: &[sources::ecosystem::SourceDump],
    ) -> Result<(usize, usize), String> {
        let (mut created, mut deduped) = (0, 0);
        for dump in dumps {
            let batch =
                span("sources.parse", || dump.parse()).map_err(|e| format!("parse: {e}"))?;
            self.add("parse_bytes", dump.text.len() as f64);
            let mut importer = import::Importer::new(store);
            let (report, index) = span_indexed("import.import", || importer.import_owned(batch));
            let t = importer.timings();
            add_child(index, "gam.bulk_insert", t.insert.as_nanos() as u64);
            add_child(index, "relstore.wal_commit", t.wal.as_nanos() as u64);
            self.add("insert_ms", t.insert.as_secs_f64() * 1e3);
            let report = report.map_err(gam_err("import"))?;
            created += report.associations_created;
            deduped += report.associations_deduped;
        }
        Ok((created, deduped))
    }

    /// The load/recover laps on a `GamStore` over the counting `Vfs`.
    fn scratch_cycle(&mut self, run: &mut Run) -> Result<(), String> {
        let sc = &run.scratch;
        let _ = std::fs::remove_dir_all(&sc.dir);
        let counts = self.vfs.counts.clone();

        let v0 = counts.snapshot();
        let (r, _) = span_indexed("lap.import", || -> Result<(GamStore, usize), String> {
            let mut store = span("gam.open", || self.open_scratch(sc))?;
            let (created, _) = self.import_traced(&mut store, &sc.eco.dumps)?;
            Ok((store, created))
        });
        let (mut store, created) = r?;
        run.rec.check(created == sc.import_assocs, || {
            format!(
                "traced import created {created} associations, want {}",
                sc.import_assocs
            )
        });
        let imported = counts.snapshot().since(v0);
        self.add("import_assocs", created as f64);
        self.add("import_dumps", sc.eco.dumps.len() as f64);
        self.add("import_syncs", imported.syncs as f64);
        let wal_bytes = store
            .database()
            .stats()
            .map_err(|e| e.to_string())?
            .wal_bytes;
        self.add("wal_bytes", wal_bytes as f64);

        // the same dumps again: skipped whole by source-level dedup
        let (r, t) = timed(|| {
            let options = import::PipelineOptions {
                parse_threads: 1,
                ..import::PipelineOptions::default()
            };
            import::run_pipeline(&mut store, &sc.eco.dumps, &options)
        });
        let again = r.map_err(gam_err("re-import"))?;
        run.rec.check(again.iter().all(|r| r.skipped), || {
            "unchanged re-import was not skipped".to_owned()
        });
        self.sample("import.reimport_unchanged_ms", t);

        let v1 = counts.snapshot();
        span("lap.checkpoint", || {
            span("relstore.checkpoint", || store.checkpoint())
        })
        .map_err(gam_err("checkpoint"))?;
        self.sample(
            "relstore.checkpoint_bytes",
            counts.snapshot().since(v1).write_bytes as f64,
        );

        let pool0 = store.database().stats().map_err(|e| e.to_string())?.pool;
        let r = span("lap.write", || -> Result<(usize, usize), String> {
            let (mut created, mut deduped) = (0, 0);
            for write in &sc.writes {
                let (c, d) = self.import_traced(&mut store, write)?;
                created += c;
                deduped += d;
            }
            Ok((created, deduped))
        });
        let (w_created, w_deduped) = r?;
        self.add("write_created", w_created as f64);
        self.add("write_deduped", w_deduped as f64);
        drop(store);

        // recover: reopen with the WAL tail
        let (r, open_index) =
            span_indexed("lap.recover", || -> Result<(GamStore, String), String> {
                let store = span("gam.open", || self.open_scratch(sc))?;
                let cards = span("gam.cardinalities", || store.cardinalities())
                    .map_err(gam_err("cardinalities"))?
                    .to_string();
                Ok((store, cards))
            });
        let (mut store, cards) = r?;
        run.rec.check(cards == sc.final_cards, || {
            format!("traced reopen holds {cards}, want {}", sc.final_cards)
        });
        if let Some(report) = store.recovery_report() {
            self.sample("relstore.wal_replayed_txns", report.wal_txns as f64);
        }
        drop(store);
        // the same directory opened by relstore alone: gam.open's child
        let (db, with_tail) = timed(|| self.open_scratch_db(sc));
        drop(db?);
        add_child(
            open_index.map(|i| i + 1),
            "relstore.open",
            (with_tail * 1e6) as u64,
        );
        self.sample("relstore.open_ms", with_tail);

        // dirty-page checkpoint of the writes, then a reopen with no tail
        store = self.open_scratch(sc)?;
        let v2 = counts.snapshot();
        store.checkpoint().map_err(gam_err("checkpoint writes"))?;
        if let (Some(p0), Some(p1)) = (
            pool0,
            store.database().stats().map_err(|e| e.to_string())?.pool,
        ) {
            self.sample(
                "relstore.dirty_checkpoint_pages",
                (p1.checkpoint_pages - p0.checkpoint_pages.min(p1.checkpoint_pages)) as f64,
            );
            self.sample("relstore.writeback_bytes", p1.writeback_bytes as f64);
        }
        self.sample(
            "relstore.dirty_checkpoint_bytes",
            counts.snapshot().since(v2).write_bytes as f64,
        );
        drop(store);
        let (db, clean) = timed(|| self.open_scratch_db(sc));
        drop(db?);
        self.sample("relstore.wal_replay_ms", (with_tail - clean).max(0.0));
        Ok(())
    }

    /// One-off costs measured on the (checkpointed) scratch store.
    fn probes(&mut self, run: &mut Run) -> Result<(), String> {
        let sc = &run.scratch;
        let gm = open_store(sc.kind, &sc.dir, sc.pool)?;
        let store = gm.store();
        let (g, t) = timed(|| SourceGraph::from_store(store));
        g.map_err(gam_err("graph"))?;
        self.sample("pathfinder.graph_build_ms", t);

        let mut biggest: Option<(SourceRelId, usize)> = None;
        for rel in store.source_rels().map_err(gam_err("rels"))? {
            let n = store.association_count(rel.id).map_err(gam_err("count"))?;
            if !rel.rel_type.is_structural() && biggest.is_none_or(|(_, m)| n > m) {
                biggest = Some((rel.id, n));
            }
        }
        if let Some((rel, n)) = biggest {
            let (idx, t) = timed(|| store.load_mapping_index(rel));
            idx.map_err(gam_err("load index"))?;
            self.sample("gam.load_index_pairs_per_s", n as f64 / (t / 1e3));
        }

        let assocs = store
            .cardinalities()
            .map_err(gam_err("cardinalities"))?
            .associations as f64;
        let live0 = alloc::live_bytes();
        let (snap, t) = timed(|| gam::GamSnapshot::capture(store));
        let snap = snap.map_err(gam_err("capture"))?;
        self.sample("gam.capture_ms", t);
        self.sample(
            "gam.snapshot_bytes_per_assoc",
            alloc::live_bytes().saturating_sub(live0) as f64 / assocs,
        );
        drop(snap);

        // the probes that need the writer, before the store is published
        let mut gm = gm;
        let study = profiling::ExpressionStudy::simulate(
            &sc.eco.universe,
            profiling::ExpressionParams::default(),
        );
        let go = gm.source_id("GO").map_err(gam_err("GO"))?;
        let (r, t) = timed(|| operators::subsume(gm.store(), go));
        r.map_err(gam_err("subsume"))?;
        self.sample("operators.subsume_ms", t);
        let (r, t) = timed(|| profiling::FunctionalProfile::run(&mut gm, &study));
        r.map_err(gam_err("profiling"))?;
        self.sample("profiling.run_ms", t);
        let (r, t) = timed(|| gm.materialize_composed(&["NetAffx", "LocusLink", "GO"]));
        r.map_err(gam_err("materialize"))?;
        self.sample("operators.materialize_ms", t);

        // capture + first publication, then the first query on cold caches
        let (shared, t) = timed(|| SharedGenMapper::new(gm));
        let shared = shared.map_err(gam_err("publish"))?;
        self.sample("genmapper.publish_ms", t);
        let spec = QuerySpec::source("NetAffx").target("Hugo").and();
        let (r, t) = timed(|| shared.snapshot().query(&spec));
        r.map_err(gam_err("first query"))?;
        self.sample("genmapper.first_query_after_publish_ms", t);
        Ok(())
    }

    /// Answer the read list by the real path, by the real handler, and by
    /// the span-by-span re-enactment.
    fn read_laps(&mut self, run: &mut Run) -> Result<(), String> {
        let Run { sys, list, rec, .. } = run;
        // the published snapshot / live store the re-enactment reads from
        let snapshot = match sys {
            Sys::Served {
                server: Some(server),
                ..
            } => Some(server.shared().snapshot()),
            _ => None,
        };

        // 1. the real path, as the measured run times it
        let alloc0 = alloc::allocated_bytes();
        let mut real_ms = Vec::with_capacity(list.len());
        let mut body_bytes = 0usize;
        let (_, real_total) = timed(|| {
            span("lap.read_real", || {
                for e in list.iter() {
                    let name = match sys {
                        Sys::Live(_) => "genmapper.call",
                        Sys::Served { .. } => "wire.roundtrip",
                    };
                    let (body, t) = timed(|| span(name, || sys.call(&e.request.line)));
                    body_bytes += body.map(|b| b.len()).unwrap_or(0);
                    real_ms.push(t);
                }
            })
        });
        self.add(
            "read_alloc_bytes",
            (alloc::allocated_bytes() - alloc0) as f64,
        );
        self.add("read_body_bytes", body_bytes as f64);
        self.add("read_real_ms", real_total);
        self.add("read_requests", list.len() as f64);
        for (e, t) in list.iter().zip(&real_ms) {
            self.sample(CLASS_REAL[e.request.class as usize], *t);
        }

        // 2. the real handler, in-process (served systems only)
        let mut handle_ms = Vec::new();
        if let Sys::Served {
            server: Some(server),
            client,
        } = sys
        {
            let shared = server.shared().clone();
            let ctx = serve::RequestContext::default();
            span("lap.read_handle", || {
                for e in list.iter() {
                    let (r, t) = timed(|| {
                        span("serve.handle_request", || {
                            serve::handle_request(&shared, &e.request.line, &ctx)
                        })
                    });
                    rec.check(r.is_ok(), || {
                        format!("handle_request refused {}", e.request.line)
                    });
                    handle_ms.push(t);
                }
            });
            for ((e, t), rtt) in list.iter().zip(&handle_ms).zip(&real_ms) {
                self.sample(CLASS_HANDLE[e.request.class as usize], *t);
                self.sample("serve.wire_overhead_us", (rtt - t).max(0.0) * 1e3);
            }
            self.add("read_handle_ms", handle_ms.iter().sum());
            for _ in 0..32 {
                let (r, t) = timed(|| client.call("ping"));
                rec.check(r.is_ok(), || "ping refused".to_owned());
                self.sample("serve.ping_rtt_us", t * 1e3);
            }
            let (_, t) = timed(|| {
                for _ in 0..1000 {
                    std::hint::black_box(shared.snapshot());
                }
            });
            self.sample("genmapper.snapshot_acquire_ns", t * 1e3);
        }

        // 3. the re-enactment
        let (graph, live) = match (&*sys, &snapshot) {
            (Sys::Live(gm), _) => (gm.graph().map_err(gam_err("graph"))?, Some(gm.store())),
            (_, Some(snap)) => (
                Arc::new(SourceGraph::from_store(snap.reader()).map_err(gam_err("graph"))?),
                None,
            ),
            _ => return Err("served system without a server".to_owned()),
        };
        let inner: &dyn GamRead = match (&*sys, &snapshot) {
            (Sys::Live(gm), _) => gm.store(),
            (_, Some(snap)) => snap.reader(),
            _ => unreachable!("checked above"),
        };
        let reader = TracedRead { inner, live };
        let root = match sys {
            Sys::Live(_) => "genmapper.call",
            Sys::Served { .. } => "serve.handle_request",
        };
        let pool0 = live
            .and_then(|s| s.database().stats().ok())
            .and_then(|s| s.pool);
        let (r, replay_total) = timed(|| {
            span("lap.read", || -> Result<(), String> {
                for (i, e) in list.iter().enumerate() {
                    trace::set_request(i as u64);
                    let body = span(root, || {
                        reenact(&reader, &graph, &self.cache, &e.request.line)
                    });
                    let body = body?;
                    rec.check(bench::stable(&e.request.line, &body) == e.hash, || {
                        format!("re-enactment of {} answered differently", e.request.line)
                    });
                }
                Ok(())
            })
        });
        r?;
        self.add("read_replay_ms", replay_total);
        if let (Some(p0), Some(p1)) = (
            pool0,
            live.and_then(|s| s.database().stats().ok())
                .and_then(|s| s.pool),
        ) {
            self.add("pool_hits", (p1.hits - p0.hits) as f64);
            self.add("pool_misses", (p1.misses - p0.misses) as f64);
            self.add("pool_evictions", (p1.evictions - p0.evictions) as f64);
            self.add("pool_reads", list.len() as f64);
        }
        Ok(())
    }
}

pub const CLASS_REAL: [&str; 4] = [
    "read.lookup_ms",
    "read.compose_ms",
    "read.view_ms",
    "read.meta_ms",
];
const CLASS_HANDLE: [&str; 4] = [
    "serve.handle_lookup_us",
    "serve.handle_compose_us",
    "serve.handle_view_ms",
    "serve.handle_meta_us",
];

/// One traced cycle.
pub fn cycle(run: &mut Run) -> Result<(), String> {
    let mut state = run.traced.take().unwrap_or_default();
    state.cycles += 1;
    trace::set_request(state.cycles);
    // a slice between the phases, for the host.* metrics only: traced
    // times are reported as measured
    run.host.slice();
    let r = state.scratch_cycle(run).and_then(|()| {
        run.host.slice();
        state.probes(run)?;
        run.host.slice();
        state.read_laps(run)
    });
    run.traced = Some(state);
    r
}

// ------------------------------------------------------------ re-enactment

/// `GamRead` with a span around every call. On a live store the hot
/// lookups are taken one level further apart: the `relstore::Table` call
/// gam makes, under its own span, then gam's row conversion.
struct TracedRead<'a> {
    inner: &'a dyn GamRead,
    live: Option<&'a GamStore>,
}

fn object_from_row(row: &relstore::Row) -> GamObject {
    GamObject {
        id: ObjectId::from_i64(row.get(0).as_int().unwrap_or_default()),
        source: SourceId::from_i64(row.get(1).as_int().unwrap_or_default()),
        accession: row.get(2).as_text().unwrap_or_default().to_owned(),
        text: row.get(3).as_text().map(str::to_owned),
        number: row.get(4).as_float(),
    }
}

impl GamRead for TracedRead<'_> {
    fn sources(&self) -> GamResult<Vec<Source>> {
        span("gam.sources", || self.inner.sources())
    }

    fn find_source(&self, name: &str) -> GamResult<Option<Source>> {
        span("gam.find_source", || self.inner.find_source(name))
    }

    fn get_source(&self, id: SourceId) -> GamResult<Source> {
        span("gam.get_source", || self.inner.get_source(id))
    }

    fn objects_of(&self, source: SourceId) -> GamResult<Vec<GamObject>> {
        span("gam.objects_of", || self.inner.objects_of(source))
    }

    fn object_ids_of(&self, source: SourceId) -> GamResult<Vec<ObjectId>> {
        span("gam.object_ids_of", || self.inner.object_ids_of(source))
    }

    fn object_count(&self, source: SourceId) -> GamResult<usize> {
        span("gam.object_count", || self.inner.object_count(source))
    }

    fn find_object(&self, source: SourceId, accession: &str) -> GamResult<Option<GamObject>> {
        span("gam.find_object", || match self.live {
            Some(store) => {
                let table = store.database().table(tables::OBJECT)?;
                let key = [Value::Int(source.as_i64()), Value::text(accession)];
                let row = span("relstore.lookup_unique", || {
                    table.lookup_unique("by_accession", &key)
                })?;
                Ok(row.as_ref().map(object_from_row))
            }
            None => self.inner.find_object(source, accession),
        })
    }

    fn get_object(&self, id: ObjectId) -> GamResult<GamObject> {
        span("gam.get_object", || match self.live {
            Some(store) => {
                let table = store.database().table(tables::OBJECT)?;
                let key = [Value::Int(id.as_i64())];
                let row = span("relstore.lookup_unique", || table.lookup_unique("pk", &key))?;
                row.as_ref()
                    .map(object_from_row)
                    .ok_or(GamError::UnknownObject(id))
            }
            None => self.inner.get_object(id),
        })
    }

    fn resolve_accessions(
        &self,
        source: SourceId,
        accessions: &[&str],
    ) -> GamResult<Vec<Option<ObjectId>>> {
        span("gam.resolve_accessions", || {
            self.inner.resolve_accessions(source, accessions)
        })
    }

    fn source_rels(&self) -> GamResult<Vec<SourceRel>> {
        span("gam.source_rels", || self.inner.source_rels())
    }

    fn get_source_rel(&self, id: SourceRelId) -> GamResult<SourceRel> {
        span("gam.get_source_rel", || self.inner.get_source_rel(id))
    }

    fn source_rels_between(
        &self,
        source1: SourceId,
        source2: SourceId,
    ) -> GamResult<Vec<SourceRel>> {
        span("gam.source_rels_between", || {
            self.inner.source_rels_between(source1, source2)
        })
    }

    fn load_mapping(&self, id: SourceRelId) -> GamResult<Mapping> {
        span("gam.load_mapping", || self.inner.load_mapping(id))
    }

    fn load_mapping_index(&self, id: SourceRelId) -> GamResult<MappingIndex> {
        span("gam.load_mapping_index", || {
            self.inner.load_mapping_index(id)
        })
    }

    fn load_mapping_index_shared(&self, id: SourceRelId) -> GamResult<Arc<MappingIndex>> {
        span("gam.load_mapping_index", || {
            self.inner.load_mapping_index_shared(id)
        })
    }

    fn association_count(&self, id: SourceRelId) -> GamResult<usize> {
        span("gam.association_count", || self.inner.association_count(id))
    }

    fn associations_of_object(
        &self,
        object: ObjectId,
    ) -> GamResult<Vec<(SourceRelId, Association)>> {
        span("gam.associations_of_object", || match self.live {
            Some(store) => {
                let table = store.database().table(tables::OBJECT_REL)?;
                let key = [Value::Int(object.as_i64())];
                let mut out = Vec::new();
                for (index, partner_column) in [("by_object1", 3), ("by_object2", 2)] {
                    span("relstore.for_each_lookup", || {
                        table.for_each_lookup(index, &key, |row| {
                            out.push((
                                SourceRelId::from_i64(row.get(1).as_int().unwrap_or_default()),
                                Association {
                                    from: object,
                                    to: ObjectId::from_i64(
                                        row.get(partner_column).as_int().unwrap_or_default(),
                                    ),
                                    evidence: row.get(4).as_float(),
                                },
                            ));
                        })
                    })?;
                }
                Ok(out)
            }
            None => self.inner.associations_of_object(object),
        })
    }

    fn object_counts_per_source(&self) -> GamResult<Vec<(SourceId, usize)>> {
        span("gam.object_counts_per_source", || {
            self.inner.object_counts_per_source()
        })
    }

    fn mapping_type_counts(&self) -> GamResult<Vec<(RelType, usize, usize)>> {
        span("gam.mapping_type_counts", || {
            self.inner.mapping_type_counts()
        })
    }

    fn cardinalities(&self) -> GamResult<gam::GamCardinalities> {
        span("gam.cardinalities", || self.inner.cardinalities())
    }
}

/// The mapping cache of the re-enactment: a stored mapping, or the
/// composition along the automatically found path, indexed once.
struct Resolver<'a> {
    cache: &'a Mutex<HashMap<(SourceId, SourceId), Arc<MappingIndex>>>,
    graph: &'a SourceGraph,
}

impl IndexResolver for Resolver<'_> {
    fn resolve_index(
        &self,
        store: &dyn GamRead,
        from: SourceId,
        to: SourceId,
    ) -> GamResult<Arc<MappingIndex>> {
        let hit = self
            .cache
            .lock()
            .expect("no holder of the re-enactment cache panics")
            .get(&(from, to))
            .cloned();
        if let Some(hit) = hit {
            return Ok(hit);
        }
        let built = match span("operators.map_index", || {
            operators::map_index(store, from, to)
        }) {
            Ok(m) => m,
            Err(GamError::NoMapping { .. }) => {
                let path = span("pathfinder.shortest_path", || {
                    self.graph.shortest_path(from, to)
                })
                .ok_or(GamError::NoMapping { from, to })?;
                span("operators.compose_path_idx", || {
                    operators::compose_path_idx(store, &path, &ExecConfig::sequential())
                })?
            }
            Err(e) => return Err(e),
        };
        let built = Arc::new(built);
        self.cache
            .lock()
            .expect("no holder of the re-enactment cache panics")
            .insert((from, to), built.clone());
        Ok(built)
    }
}

fn source_id(reader: &dyn GamRead, name: &str) -> GamResult<SourceId> {
    reader
        .find_source(name)?
        .map(|s| s.id)
        .ok_or_else(|| GamError::UnknownSourceName(name.to_owned()))
}

fn resolve_set(
    reader: &dyn GamRead,
    source: SourceId,
    accessions: &[String],
) -> GamResult<BTreeSet<ObjectId>> {
    let refs: Vec<&str> = accessions.iter().map(String::as_str).collect();
    reader
        .resolve_accessions(source, &refs)?
        .into_iter()
        .zip(accessions)
        .map(|(id, acc)| id.ok_or_else(|| GamError::Invalid(format!("unknown accession {acc}"))))
        .collect()
}

fn path_names(reader: &dyn GamRead, path: &[SourceId]) -> GamResult<String> {
    let names: GamResult<Vec<String>> = path
        .iter()
        .map(|&id| Ok(reader.get_source(id)?.name))
        .collect();
    Ok(names?.join(" -> "))
}

/// Answer one request line from `reader`, the way the service handler and
/// the shared query executor do, span by span.
fn reenact(
    reader: &TracedRead<'_>,
    graph: &SourceGraph,
    cache: &Mutex<HashMap<(SourceId, SourceId), Arc<MappingIndex>>>,
    line: &str,
) -> Result<String, String> {
    let words: Vec<&str> = line.split_whitespace().collect();
    let e = |e: GamError| format!("{line}: {e}");
    match words.as_slice() {
        ["info", source, accession] => span("genmapper.object_info", || {
            let source_id = source_id(reader, source)?;
            let obj = reader
                .find_object(source_id, accession)?
                .ok_or_else(|| GamError::Invalid(format!("unknown accession {accession}")))?;
            let mut associations = Vec::new();
            for (_, assoc) in reader.associations_of_object(obj.id)? {
                let partner = reader.get_object(assoc.to)?;
                let partner_source = reader.get_source(partner.source)?;
                associations.push((partner_source.name, partner.accession, assoc.evidence));
            }
            associations.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
            Ok(crate::exec::render_info(
                &obj.accession,
                source,
                &obj.text,
                obj.number,
                &associations,
            ))
        })
        .map_err(e),
        ["query", rest @ ..] => {
            let spec =
                span("genmapper.parse_query", || parse_query(rest)).map_err(|e| e.to_string())?;
            let (vq, header) = span(
                "genmapper.build_view_query",
                || -> GamResult<(ViewQuery, Vec<String>)> {
                    let source = source_id(reader, &spec.source)?;
                    let mut vq = ViewQuery::new(source).combine(spec.combine);
                    vq = if spec.accessions.is_empty() {
                        vq.objects(reader.object_ids_of(source)?.into_iter().collect())
                    } else {
                        vq.objects(resolve_set(reader, source, &spec.accessions)?)
                    };
                    let mut header = vec![spec.source.clone()];
                    for t in &spec.targets {
                        let target = source_id(reader, &t.source)?;
                        let mut ts = TargetSpec::all(target);
                        if !t.accessions.is_empty() {
                            ts.objects = Some(resolve_set(reader, target, &t.accessions)?);
                        }
                        ts.negated = t.negated;
                        ts.min_evidence = t.min_evidence;
                        header.push(t.source.clone());
                        vq = vq.target(ts);
                    }
                    Ok((vq, header))
                },
            )
            .map_err(e)?;
            let resolver = Resolver { cache, graph };
            let view = span("operators.generate_view_idx", || {
                generate_view_idx(reader, &vq, &resolver, &ExecConfig::sequential())
            })
            .map_err(e)?;
            let cells = span(
                "genmapper.resolve_cells",
                || -> GamResult<Vec<Vec<Option<String>>>> {
                    view.rows
                        .iter()
                        .map(|row| {
                            row.iter()
                                .map(|cell| {
                                    cell.map(|id| Ok(reader.get_object(id)?.accession))
                                        .transpose()
                                })
                                .collect()
                        })
                        .collect()
                },
            )
            .map_err(e)?;
            Ok(span("genmapper.render_tsv", || {
                let mut out = String::new();
                let _ = writeln!(out, "{}", header.join("\t"));
                for row in &cells {
                    let cells: Vec<&str> = row.iter().map(|c| c.as_deref().unwrap_or("")).collect();
                    let _ = writeln!(out, "{}", cells.join("\t"));
                }
                out
            }))
        }
        ["path", from, to] => span("genmapper.find_path", || {
            let (f, t) = (source_id(reader, from)?, source_id(reader, to)?);
            let path = span("pathfinder.shortest_path", || graph.shortest_path(f, t))
                .ok_or(GamError::NoMapping { from: f, to: t })?;
            Ok(format!("{}\n", path_names(reader, &path)?))
        })
        .map_err(e),
        ["paths", from, to, k] => span("genmapper.find_paths", || {
            let k: usize = k
                .parse()
                .map_err(|_| GamError::Invalid("paths takes a numeric k".into()))?;
            let (f, t) = (source_id(reader, from)?, source_id(reader, to)?);
            let mut out = String::new();
            for path in span("pathfinder.k_shortest_paths", || {
                graph.k_shortest_paths(f, t, k)
            }) {
                let _ = writeln!(out, "{}", path_names(reader, &path)?);
            }
            Ok(out)
        })
        .map_err(e),
        ["sources"] => span("genmapper.sources", || {
            let mut out = String::new();
            for s in reader.sources()? {
                let _ = writeln!(out, "{}\t{}\t{}", s.name, s.content, s.structure);
            }
            Ok(out)
        })
        .map_err(e),
        ["stats"] => span("genmapper.stats", || {
            Ok(format!("{}\n", reader.cardinalities()?))
        })
        .map_err(e),
        _ => Err(format!("unknown request {line:?}")),
    }
}
