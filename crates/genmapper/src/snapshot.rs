//! An immutable, published view of one GenMapper state.
//!
//! [`Snapshot`] is the MVCC read unit: everything a reader needs to answer
//! queries — the captured GAM data ([`gam::GamSnapshot`]), the saved paths,
//! and the cache of its version (resolved mappings, object sets, source
//! graph) — frozen at one writer version. Readers execute query /
//! GenerateView / pathfinding against it with `&self` only, while the
//! writer builds the *next* snapshot; the service layer swaps the
//! published `Arc<Snapshot>` atomically (see [`crate::SharedGenMapper`]).
//!
//! Both parts are shared, not copied: the cache is the very `Arc` the live
//! [`crate::GenMapper`] used at that version, and the GAM data is the
//! `Arc` of the previous snapshot whenever the store has not changed since.
//!
//! A snapshot's query path starts with `system::generate` — the
//! same planner and executor the live [`crate::GenMapper`] uses — so
//! snapshot answers are bit-identical to the single-threaded path at the
//! capture version. [`Snapshot::query`] resolves the view into an owned
//! [`ResolvedView`] as the live system does; [`Snapshot::render_query`],
//! what the service answers with, writes the export straight from the
//! captured objects, with no intermediate copy.

use crate::query::QuerySpec;
use crate::resolved::{export, ExportFormat, ObjectInfo, ResolvedView};
use crate::system::{self, run_query, source_id_of, VersionCache};
use gam::store::GamCardinalities;
use gam::{GamError, GamRead, GamResult, GamSnapshot, ObjectId, SourceId};
use pathfinder::SavedPaths;
use relstore::stats::DbStats;
use std::sync::Arc;

/// One immutable GenMapper state, safe to share across any number of
/// reader threads. Produced by [`crate::GenMapper::capture_snapshot`].
pub struct Snapshot {
    pub(crate) reader: Arc<GamSnapshot>,
    pub(crate) cache: Arc<VersionCache>,
    pub(crate) saved: SavedPaths,
    pub(crate) version: (u64, u64),
    pub(crate) store_stats: DbStats,
}

impl Snapshot {
    /// The writer version this snapshot was captured at:
    /// `(GenMapper invalidation counter, GamStore mutation counter)`.
    pub fn version(&self) -> (u64, u64) {
        self.version
    }

    /// The store's tables and indexes — rows, index entries and the heap
    /// they hold — at capture time.
    pub fn store_stats(&self) -> &DbStats {
        &self.store_stats
    }

    /// The captured GAM read surface (for ad-hoc reads beyond the
    /// high-level entry points).
    pub fn reader(&self) -> &GamSnapshot {
        &self.reader
    }

    /// Resolve a source name to its id.
    pub fn source_id(&self, name: &str) -> GamResult<SourceId> {
        source_id_of(&*self.reader, name)
    }

    /// All sources at capture time.
    pub fn sources(&self) -> GamResult<Vec<gam::Source>> {
        self.reader.sources()
    }

    /// The §5 deployment cardinalities at capture time.
    pub fn cardinalities(&self) -> GamResult<GamCardinalities> {
        self.reader.cardinalities()
    }

    /// Shortest mapping path between two sources, as names.
    pub fn find_path(&self, from: &str, to: &str) -> GamResult<Vec<String>> {
        system::find_path_of(&*self.reader, &self.cache, from, to)
    }

    /// Up to `k` alternative mapping paths, as names.
    pub fn find_paths(&self, from: &str, to: &str, k: usize) -> GamResult<Vec<Vec<String>>> {
        system::find_paths_of(&*self.reader, &self.cache, from, to, k)
    }

    /// A path saved on the writer before this snapshot was captured.
    pub fn saved_path(&self, name: &str) -> Option<Vec<SourceId>> {
        self.saved.get(name).map(<[SourceId]>::to_vec)
    }

    /// Execute a [`QuerySpec`] against the captured state. Runs the same
    /// executor as [`crate::GenMapper::query`].
    pub fn query(&self, spec: &QuerySpec) -> GamResult<ResolvedView> {
        run_query(&*self.reader, &self.cache, spec)
    }

    /// Execute a [`QuerySpec`] against the captured state and export the
    /// view in `format`: byte-equal to `self.query(spec)?.render(format)`,
    /// but each cell is written straight from the object the snapshot
    /// holds — no object copy, no [`ResolvedView`].
    pub fn render_query(&self, spec: &QuerySpec, format: ExportFormat) -> GamResult<String> {
        let (header, view) = system::generate(&*self.reader, &self.cache, spec)?;
        // an id the snapshot does not hold fails the query as `query`'s
        // one `with_objects` over the ascending ids fails it: with the least
        let mut unknown: Option<ObjectId> = None;
        let cells = view.rows.cells().iter().map(|cell| {
            let id = (*cell)?;
            let Some(object) = self.reader.object(id) else {
                unknown = Some(unknown.map_or(id, |u| u.min(id)));
                return None;
            };
            Some((object.accession.as_str(), object.text.as_deref()))
        });
        let body = export(format, &header, cells);
        match unknown {
            Some(id) => Err(GamError::UnknownObject(id)),
            None => Ok(body),
        }
    }

    /// Explain a [`QuerySpec`] against the captured state: the same
    /// planner and executor as [`Self::query`], instrumented one-shot —
    /// live and snapshot reads plan identically by construction.
    pub fn explain(&self, spec: &QuerySpec) -> GamResult<String> {
        system::run_explain(&*self.reader, &self.cache, spec)
    }

    /// Full information about one object (Figure 6c) at capture time.
    pub fn object_info(&self, source: &str, accession: &str) -> GamResult<ObjectInfo> {
        system::object_info_of(&*self.reader, source, accession)
    }
}

#[cfg(test)]
mod tests {
    use crate::{GenMapper, QuerySpec};
    use sources::ecosystem::{Ecosystem, EcosystemParams};

    fn system() -> GenMapper {
        let eco = Ecosystem::generate(EcosystemParams::demo(7));
        let mut gm = GenMapper::in_memory().unwrap();
        gm.import_dumps(&eco.dumps).unwrap();
        gm
    }

    fn figure3_spec() -> QuerySpec {
        QuerySpec::source("LocusLink")
            .accessions(["353"])
            .target("Hugo")
            .target("GO")
            .target("Location")
            .target("OMIM")
    }

    #[test]
    fn snapshot_query_matches_live_system() {
        let gm = system();
        let live = gm.query(&figure3_spec()).unwrap();
        let snap = gm.capture_snapshot().unwrap();
        let frozen = snap.query(&figure3_spec()).unwrap();
        assert_eq!(live, frozen);
        // through a shared `gm`: explain is a read entry like query
        assert_eq!(snap.explain(&figure3_spec()).unwrap(), gm.explain(&figure3_spec()).unwrap());
        assert_eq!(snap.version(), gm.version_stamp());
        assert_eq!(
            snap.cardinalities().unwrap(),
            gm.cardinalities().unwrap()
        );
    }

    #[test]
    fn snapshot_and_live_system_share_one_cache_per_version() {
        let mut gm = system();
        let snap = gm.capture_snapshot().unwrap();
        assert_eq!(gm.mapping_cache_len(), 0);
        let frozen = snap.query(&figure3_spec()).unwrap();
        assert!(gm.mapping_cache_len() > 0, "the writer finds a reader's work");
        // a mutation gives the writer a fresh cache and leaves the snapshot's
        gm.materialize_subsumed("GO").unwrap();
        assert_eq!(gm.mapping_cache_len(), 0);
        assert_eq!(snap.query(&figure3_spec()).unwrap(), frozen);
    }

    #[test]
    fn snapshot_is_isolated_from_later_writes() {
        let mut gm = system();
        let snap = gm.capture_snapshot().unwrap();
        let before = snap.cardinalities().unwrap();
        gm.materialize_subsumed("GO").unwrap();
        // the live system changed; the snapshot did not
        assert_ne!(gm.cardinalities().unwrap(), before);
        assert_eq!(snap.cardinalities().unwrap(), before);
        assert_ne!(gm.version_stamp(), snap.version());
    }

    #[test]
    fn snapshot_pathfinding_and_object_info_match() {
        let gm = system();
        let snap = gm.capture_snapshot().unwrap();
        assert_eq!(
            snap.find_path("NetAffx", "GO").unwrap(),
            gm.find_path("NetAffx", "GO").unwrap()
        );
        assert_eq!(
            snap.find_paths("NetAffx", "GO", 3).unwrap(),
            gm.find_paths("NetAffx", "GO", 3).unwrap()
        );
        assert_eq!(
            snap.object_info("LocusLink", "353").unwrap(),
            gm.object_info("LocusLink", "353").unwrap()
        );
    }

    #[test]
    fn snapshot_carries_saved_paths() {
        let mut gm = system();
        gm.save_path("affx-go", &["NetAffx", "Unigene", "LocusLink", "GO"])
            .unwrap();
        let snap = gm.capture_snapshot().unwrap();
        assert_eq!(
            snap.saved_path("affx-go"),
            gm.saved_path("affx-go"),
        );
        assert!(snap.saved_path("nope").is_none());
    }
}
