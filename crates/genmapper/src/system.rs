//! The [`GenMapper`] system handle.

use crate::query::QuerySpec;
use crate::resolved::{ObjectInfo, ResolvedObjects, ResolvedView, NULL};
use gam::store::GamCardinalities;
use gam::{
    GamError, GamRead, GamResult, GamSnapshot, GamStore, MappingIndex, ObjectId, SourceId,
    SourceRelId,
};
use import::{Importer, PipelineOptions};
use operators::{
    generate_view_idx, AnnotationView, ExecConfig, IndexResolver, TargetSpec, ViewQuery,
};
use pathfinder::{SavedPaths, SourceGraph};
use relstore::sync::{RwLock, Swap};
use sources::ecosystem::SourceDump;
use std::collections::{btree_map, BTreeMap, BTreeSet, HashMap};
use std::path::Path;
use std::sync::Arc;

/// Everything derived from the GAM content of one version: resolved
/// mappings in CSR form, per-source object-id sets, and the source graph.
///
/// A cache belongs to a version, not to a reader. The live [`GenMapper`]
/// and every [`crate::Snapshot`] captured at that version hold the *same*
/// `Arc<VersionCache>`, so what one side resolves the other finds. Entries
/// never invalidate: a mutating entry point makes the writer start a fresh
/// cache and leaves this one to the snapshots still reading at its
/// version. Shared by every reader thread of those snapshots, hence the
/// lock.
#[derive(Default)]
pub(crate) struct VersionCache {
    entries: RwLock<CacheEntries>,
}

#[derive(Default)]
struct CacheEntries {
    /// Cached mappings in CSR form — the unit the system caches and joins.
    /// Consumers probe the shared index (restrictions, view folds, merge
    /// joins); `map` and `compose` hand it out as it is.
    mappings: HashMap<MappingKey, Arc<MappingIndex>>,
    /// Per-source object-id sets for whole-source views, so repeated
    /// queries over one source don't rescan the object table.
    source_objects: HashMap<SourceId, Arc<BTreeSet<ObjectId>>>,
    graph: Option<Arc<SourceGraph>>,
}

impl VersionCache {
    /// Look `key` up, building and inserting on a miss. `build` must read
    /// the state this cache's version names. Readers may race to a build;
    /// the first insert wins so every consumer shares one index.
    fn mapping(
        &self,
        key: MappingKey,
        build: impl FnOnce() -> GamResult<MappingIndex>,
    ) -> GamResult<Arc<MappingIndex>> {
        let hit = { self.entries.read().mappings.get(&key).cloned() };
        if let Some(hit) = hit {
            return Ok(hit);
        }
        let built = Arc::new(build()?);
        let mut entries = self.entries.write();
        Ok(entries.mappings.entry(key).or_insert(built).clone())
    }

    /// The set of all object ids of `source`, built from `reader` on a miss.
    fn source_objects(
        &self,
        reader: &dyn GamRead,
        source: SourceId,
    ) -> GamResult<Arc<BTreeSet<ObjectId>>> {
        let hit = { self.entries.read().source_objects.get(&source).cloned() };
        if let Some(hit) = hit {
            return Ok(hit);
        }
        let built = Arc::new(reader.object_ids_of(source)?.into_iter().collect());
        let mut entries = self.entries.write();
        Ok(entries
            .source_objects
            .entry(source)
            .or_insert(built)
            .clone())
    }

    /// The source graph, built from `reader` on first use.
    pub(crate) fn graph(&self, reader: &dyn GamRead) -> GamResult<Arc<SourceGraph>> {
        let hit = { self.entries.read().graph.clone() };
        if let Some(hit) = hit {
            return Ok(hit);
        }
        let built = Arc::new(SourceGraph::from_store(reader)?);
        Ok(self.entries.write().graph.get_or_insert(built).clone())
    }

    /// Cached mappings plus cached source-object sets.
    fn len(&self) -> usize {
        let entries = self.entries.read();
        entries.mappings.len() + entries.source_objects.len()
    }
}

/// Mapping resolver that first tries a direct `Map` and otherwise searches
/// the source graph for a shortest mapping path and composes along it —
/// exactly how the interactive interface determines mappings (paper §5.1).
/// Backed by the [`VersionCache`]: a resolved `(from, to)` mapping is
/// indexed once and then served as a shared CSR [`MappingIndex`] behind an
/// `Arc` — the view executor probes the cached index directly, cloning
/// nothing. `query` and `explain` both resolve through it.
struct CachingPathResolver<'a> {
    cache: &'a VersionCache,
    graph: Arc<SourceGraph>,
}

impl<'a> CachingPathResolver<'a> {
    /// The resolver of one view query, over its version's cache and graph.
    fn new(reader: &dyn GamRead, cache: &'a VersionCache) -> GamResult<Self> {
        Ok(CachingPathResolver {
            cache,
            graph: cache.graph(reader)?,
        })
    }

    /// The path composed for `from → to` when no direct mapping exists;
    /// `None` when the graph has no path of at least two sources.
    fn compose_path(&self, from: SourceId, to: SourceId) -> Option<Vec<SourceId>> {
        self.graph.shortest_path(from, to).filter(|p| p.len() >= 2)
    }
}

impl IndexResolver for CachingPathResolver<'_> {
    fn resolve_index(
        &self,
        store: &dyn GamRead,
        from: SourceId,
        to: SourceId,
    ) -> GamResult<Arc<MappingIndex>> {
        self.cache.mapping(MappingKey::direct(from, to), || {
            match operators::map_index(store, from, to) {
                Ok(m) => Ok(m),
                Err(GamError::NoMapping { .. }) => {
                    let path = self
                        .compose_path(from, to)
                        .ok_or(GamError::NoMapping { from, to })?;
                    operators::compose_path_idx(store, &path, &ExecConfig::sequential())
                }
                Err(e) => Err(e),
            }
        })
    }
}

/// Cache key for one resolved mapping: endpoints, the explicit compose
/// path (if any), and the evidence floor (as its bit pattern — `f64` is
/// neither `Eq` nor `Hash`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct MappingKey {
    from: SourceId,
    to: SourceId,
    path: Option<Vec<SourceId>>,
    min_evidence_bits: Option<u64>,
}

impl MappingKey {
    fn direct(from: SourceId, to: SourceId) -> Self {
        MappingKey {
            from,
            to,
            path: None,
            min_evidence_bits: None,
        }
    }

    fn composed(path: &[SourceId], min_evidence: Option<f64>) -> GamResult<Self> {
        let (Some(&from), Some(&to)) = (path.first(), path.last()) else {
            return Err(GamError::Invalid("compose path is empty".into()));
        };
        Ok(MappingKey {
            from,
            to,
            path: Some(path.to_vec()),
            min_evidence_bits: min_evidence.map(f64::to_bits),
        })
    }
}

mod versioned {
    use super::VersionCache;
    use gam::{GamResult, GamStore};
    use std::sync::Arc;

    /// The store together with the version of the caches derived from it.
    /// A read derefs to `&GamStore`; the one `&mut GamStore` is
    /// [`store_mut`](Self::store_mut), which starts a new version with a
    /// fresh [`VersionCache`] first. A mutator that skips the invalidation
    /// does not compile (E0596).
    pub(super) struct Versioned {
        store: GamStore,
        /// Bumped by every `store_mut`.
        version: u64,
        /// The cache of the current version; replaced, never cleared.
        cache: Arc<VersionCache>,
    }

    impl std::ops::Deref for Versioned {
        type Target = GamStore;

        fn deref(&self) -> &GamStore {
            &self.store
        }
    }

    impl Versioned {
        pub(super) fn new(store: GamStore) -> Self {
            Versioned { store, version: 0, cache: Arc::default() }
        }

        pub(super) fn version(&self) -> u64 {
            self.version
        }

        pub(super) fn cache(&self) -> &Arc<VersionCache> {
            &self.cache
        }

        pub(super) fn store_mut(&mut self) -> &mut GamStore {
            self.version += 1;
            self.cache = Arc::default();
            &mut self.store
        }

        /// A checkpoint changes durability, not content: the version and
        /// its cache stay.
        pub(super) fn checkpoint(&mut self) -> GamResult<()> {
            self.store.checkpoint()
        }
    }
}

/// The assembled GenMapper system.
pub struct GenMapper {
    store: versioned::Versioned,
    saved: SavedPaths,
    /// Per-dump quarantine budget for lenient parsing during imports
    /// (`0` = strict, the default).
    error_budget: usize,
    /// The read copy of the store last handed to a snapshot, with the
    /// `GamStore::mutation_count` it was captured at. A writer operation
    /// that changed no GAM content publishes this `Arc` again.
    captured: Swap<Option<(u64, Arc<GamSnapshot>)>>,
}

impl GenMapper {
    fn wrap(store: GamStore) -> Self {
        GenMapper {
            store: versioned::Versioned::new(store),
            saved: SavedPaths::new(),
            error_budget: 0,
            captured: Swap::new(None),
        }
    }

    /// A volatile instance.
    pub fn in_memory() -> GamResult<Self> {
        Ok(Self::wrap(GamStore::in_memory()?))
    }

    /// A durable instance rooted at `dir`.
    pub fn open(dir: &Path) -> GamResult<Self> {
        Ok(Self::wrap(GamStore::open(dir)?))
    }

    /// A durable instance rooted at `dir` with paged table storage: rows
    /// live in slotted heap pages behind a buffer pool of
    /// `config.pool_pages`, so annotation sets larger than RAM stay
    /// queryable with bounded resident memory.
    pub fn open_paged(dir: &Path, config: relstore::PoolConfig) -> GamResult<Self> {
        Ok(Self::wrap(GamStore::open_paged(dir, config)?))
    }

    /// Snapshot + WAL truncation for durable instances.
    pub fn checkpoint(&mut self) -> GamResult<()> {
        self.store.checkpoint()
    }

    /// Does nothing: every operation runs on the calling thread. gmbench's
    /// link to it is its only reason to exist; ROADMAP item 1 deletes it.
    pub fn set_jobs(&mut self, _jobs: usize) {}

    // ------------------------------------------------------------------
    // Import configuration
    // ------------------------------------------------------------------

    /// The current per-dump quarantine budget for imports.
    pub fn error_budget(&self) -> usize {
        self.error_budget
    }

    /// Allow up to `budget` malformed lines per dump to be quarantined
    /// (reported, not imported) instead of failing the run. `0` restores
    /// strict parsing.
    pub fn set_error_budget(&mut self, budget: usize) {
        self.error_budget = budget;
    }

    // ------------------------------------------------------------------
    // Cache plumbing
    // ------------------------------------------------------------------

    /// The version the current cache belongs to: the local invalidation
    /// counter plus the store's own mutation counter. Public so
    /// concurrency tests and the service layer can correlate published
    /// snapshots with the writer state they were captured from.
    pub fn version_stamp(&self) -> (u64, u64) {
        (self.store.version(), self.store.mutation_count())
    }

    /// Number of entries in the current version's cache (diagnostics,
    /// tests).
    pub fn mapping_cache_len(&self) -> usize {
        self.store.cache().len()
    }

    /// Direct access to the underlying store (operators, statistics).
    pub fn store(&self) -> &GamStore {
        &self.store
    }

    /// Mutable access to the underlying store: the only one, for the
    /// mutators below as for callers. Starts a new version with a fresh
    /// cache, since callers may add mappings.
    pub fn store_mut(&mut self) -> &mut GamStore {
        self.store.store_mut()
    }

    // ------------------------------------------------------------------
    // Integration
    // ------------------------------------------------------------------

    /// Parse and import source dumps through the two-phase pipeline.
    pub fn import_dumps(&mut self, dumps: &[SourceDump]) -> GamResult<Vec<import::ImportReport>> {
        let options = PipelineOptions {
            error_budget: self.error_budget,
            ..PipelineOptions::default()
        };
        import::run_pipeline(self.store_mut(), dumps, &options)
    }

    /// Import one pre-parsed EAV batch.
    pub fn import_batch(&mut self, batch: &eav::EavBatch) -> GamResult<import::ImportReport> {
        Importer::new(self.store_mut()).import(batch)
    }

    // ------------------------------------------------------------------
    // Catalog
    // ------------------------------------------------------------------

    /// Resolve a source name to its id.
    pub fn source_id(&self, name: &str) -> GamResult<SourceId> {
        source_id_of(self.store(), name)
    }

    /// All registered sources.
    pub fn sources(&self) -> GamResult<Vec<gam::Source>> {
        self.store.sources()
    }

    /// The §5 deployment cardinalities.
    pub fn cardinalities(&self) -> GamResult<GamCardinalities> {
        self.store.cardinalities()
    }

    // ------------------------------------------------------------------
    // Paths
    // ------------------------------------------------------------------

    /// The (cached, shared) source graph of the current version, built on
    /// first use after a mutation.
    pub fn graph(&self) -> GamResult<Arc<SourceGraph>> {
        self.store.cache().graph(self.store())
    }

    /// Automatically determined shortest mapping path between two sources,
    /// as source names.
    pub fn find_path(&self, from: &str, to: &str) -> GamResult<Vec<String>> {
        find_path_of(self.store(), self.store.cache(), from, to)
    }

    /// Up to `k` alternative mapping paths.
    pub fn find_paths(&self, from: &str, to: &str, k: usize) -> GamResult<Vec<Vec<String>>> {
        find_paths_of(self.store(), self.store.cache(), from, to, k)
    }

    /// Save a manually built path under a name (validated).
    pub fn save_path(&mut self, name: &str, path: &[&str]) -> GamResult<()> {
        let ids = path_ids_of(self.store(), path)?;
        let graph = self.graph()?;
        self.saved.save(name, ids, &graph)
    }

    /// A previously saved path, as names.
    pub fn saved_path(&self, name: &str) -> Option<Vec<SourceId>> {
        self.saved.get(name).map(<[SourceId]>::to_vec)
    }

    // ------------------------------------------------------------------
    // Operators, by name
    // ------------------------------------------------------------------

    /// `Map(S, T)` by source names, as a shared CSR index handle into the
    /// versioned mapping cache: a warm hit clones no association data, and
    /// a cold miss loads the index through the batched `OBJECT_REL` scan.
    pub fn map(&self, from: &str, to: &str) -> GamResult<Arc<MappingIndex>> {
        let from = self.source_id(from)?;
        let to = self.source_id(to)?;
        self.store.cache().mapping(MappingKey::direct(from, to), || {
            operators::map_index(self.store(), from, to)
        })
    }

    /// `Compose` along a path of source names, optionally with an evidence
    /// floor applied at every join step, as a shared CSR cache handle
    /// (cached under the `(path, min_evidence)` key). Joins are sorted
    /// merge joins over the step indexes.
    pub fn compose(
        &self,
        path: &[&str],
        min_evidence: Option<f64>,
    ) -> GamResult<Arc<MappingIndex>> {
        let ids = path_ids_of(self.store(), path)?;
        if ids.len() < 2 {
            return Err(GamError::Invalid(
                "compose path needs at least two sources".into(),
            ));
        }
        self.store.cache().mapping(MappingKey::composed(&ids, min_evidence)?, || {
            match min_evidence {
                None => operators::compose_path_idx(self.store(), &ids, &ExecConfig::sequential()),
                Some(floor) => {
                    operators::compose_path_idx_with_threshold(self.store(), &ids, floor)
                }
            }
        })
    }

    /// Materialize the composition along a path of source names.
    pub fn materialize_composed(&mut self, path: &[&str]) -> GamResult<(SourceRelId, usize)> {
        let ids = path_ids_of(self.store(), path)?;
        operators::materialize::materialize_composed(self.store_mut(), &ids)
    }

    /// Derive and materialize the Subsumed mapping of a taxonomy source.
    pub fn materialize_subsumed(&mut self, source: &str) -> GamResult<(SourceRelId, usize)> {
        let id = self.source_id(source)?;
        operators::materialize::materialize_subsumed(self.store_mut(), id)
    }

    // ------------------------------------------------------------------
    // Queries (the Figure 6 workflow)
    // ------------------------------------------------------------------

    /// Execute a [`QuerySpec`]: GenerateView with automatic path
    /// discovery, then resolve ids back to accessions/names. Every
    /// resolved mapping (and the whole-source object set) is
    /// served from the versioned cache on repeat queries. `&self`: the
    /// entire read path runs without exclusive access, so any number of
    /// readers can query while sharing one system.
    pub fn query(&self, spec: &QuerySpec) -> GamResult<ResolvedView> {
        run_query(self.store(), self.store.cache(), spec)
    }

    /// Explain a [`QuerySpec`]: the cost-based plan the executor would
    /// choose, rendered with estimated vs actual cardinalities from a
    /// one-shot instrumented (uncached) run. `&self`, like [`Self::query`].
    pub fn explain(&self, spec: &QuerySpec) -> GamResult<String> {
        run_explain(self.store(), self.store.cache(), spec)
    }

    /// Full information about one object (Figure 6c).
    pub fn object_info(&self, source: &str, accession: &str) -> GamResult<ObjectInfo> {
        object_info_of(self.store(), source, accession)
    }

    /// An immutable, self-contained snapshot of the whole read surface:
    /// store data, saved paths, and this version's cache (source graph
    /// included). The snapshot answers queries bit-identically to this
    /// system at the moment of capture and never changes afterwards — the
    /// unit the service layer publishes to readers with one `Arc` swap.
    ///
    /// The store is walked only if its `mutation_count` moved since the
    /// last capture; otherwise the snapshot shares the previous read copy.
    pub fn capture_snapshot(&self) -> GamResult<crate::Snapshot> {
        let at = self.store.mutation_count();
        let reader = match self.captured.load() {
            Some((count, reader)) if count == at => reader,
            _ => {
                let reader = Arc::new(GamSnapshot::capture(self.store())?);
                self.captured.store(Some((at, reader.clone())));
                reader
            }
        };
        // a publish pays for the graph, not the first reader after it
        self.store.cache().graph(&*reader)?;
        Ok(crate::Snapshot {
            reader,
            cache: self.store.cache().clone(),
            saved: self.saved.clone(),
            version: self.version_stamp(),
            store_stats: self.store.database().stats()?,
        })
    }
}

/// Resolve accessions of `source` (named `name`) to object ids against any
/// reader; unknown accessions are an error naming the source and listing
/// what is missing.
pub(crate) fn resolve_accessions(
    reader: &dyn GamRead,
    source: SourceId,
    name: &str,
    accessions: &[String],
) -> GamResult<BTreeSet<ObjectId>> {
    let refs: Vec<&str> = accessions.iter().map(String::as_str).collect();
    let ids = reader.resolve_accessions(source, &refs)?;
    let missing: Vec<&str> = refs
        .iter()
        .zip(&ids)
        .filter(|(_, id)| id.is_none())
        .map(|(acc, _)| *acc)
        .collect();
    if !missing.is_empty() {
        return Err(GamError::Invalid(format!(
            "unknown accessions in source {name}: {}",
            missing.join(", ")
        )));
    }
    Ok(ids.into_iter().flatten().collect())
}

/// Resolve a source name to its id against any reader.
pub(crate) fn source_id_of(reader: &dyn GamRead, name: &str) -> GamResult<SourceId> {
    reader
        .find_source(name)?
        .map(|s| s.id)
        .ok_or_else(|| GamError::UnknownSourceName(name.to_owned()))
}

/// Source-name path to ids against any reader.
pub(crate) fn path_ids_of(reader: &dyn GamRead, path: &[&str]) -> GamResult<Vec<SourceId>> {
    path.iter().map(|n| source_id_of(reader, n)).collect()
}

/// The shortest mapping path between two named sources, as names, on
/// any reader and its version's source graph.
pub(crate) fn find_path_of(
    reader: &dyn GamRead,
    cache: &VersionCache,
    from: &str,
    to: &str,
) -> GamResult<Vec<String>> {
    let (from, to) = (source_id_of(reader, from)?, source_id_of(reader, to)?);
    let path = cache
        .graph(reader)?
        .shortest_path(from, to)
        .ok_or(GamError::NoMapping { from, to })?;
    path_names_of(reader, &path)
}

/// Up to `k` alternative mapping paths between two named sources, as names.
pub(crate) fn find_paths_of(
    reader: &dyn GamRead,
    cache: &VersionCache,
    from: &str,
    to: &str,
    k: usize,
) -> GamResult<Vec<Vec<String>>> {
    let (from, to) = (source_id_of(reader, from)?, source_id_of(reader, to)?);
    let paths = cache.graph(reader)?.k_shortest_paths(from, to, k);
    paths.iter().map(|p| path_names_of(reader, p)).collect()
}

fn path_names_of(reader: &dyn GamRead, path: &[SourceId]) -> GamResult<Vec<String>> {
    path.iter().map(|&id| Ok(reader.get_source(id)?.name)).collect()
}

/// The front half of every query: translate the spec, pick each target's
/// mapping and run GenerateView. The live system ([`GenMapper::query`]),
/// the published [`crate::Snapshot`]'s `query` and its direct export
/// `render_query` all run *this exact code* over their respective reader
/// and their version's cache, which is what makes concurrent snapshot
/// reads structurally bit-identical to the single-threaded path. Returns
/// the display header and the view of object ids.
pub(crate) fn generate(
    reader: &dyn GamRead,
    cache: &VersionCache,
    spec: &QuerySpec,
) -> GamResult<(Vec<String>, AnnotationView)> {
    let (vq, header) = build_view_query(reader, cache, spec)?;
    let resolver = CachingPathResolver::new(reader, cache)?;
    Ok((header, generate_view_idx(reader, &vq, &resolver, &ExecConfig::sequential())?))
}

/// A query resolved into an owned [`ResolvedView`], on any reader.
pub(crate) fn run_query(
    reader: &dyn GamRead,
    cache: &VersionCache,
    spec: &QuerySpec,
) -> GamResult<ResolvedView> {
    let (header, view) = generate(reader, cache, spec)?;

    // each distinct object lent once, in one batch in ascending id order,
    // and its accession and name copied into the view's one string; a cell
    // is the index of its object in that batch
    let flat = view.rows.cells();
    let mut ids: Vec<ObjectId> = flat.iter().flatten().copied().collect();
    ids.sort_unstable();
    ids.dedup();
    let mut objects = ResolvedObjects::with_capacity(ids.len());
    reader.with_objects(&ids, &mut |_, object| objects.push(object.accession, object.text))?;
    let cells = flat.iter().map(|cell| {
        cell.and_then(|id| ids.binary_search(&id).ok()).map_or(NULL, |k| k as u32)
    });
    Ok(ResolvedView::new(header, objects, cells.collect()))
}

/// Translate a [`QuerySpec`] (source/target names, accessions, via paths)
/// into the typed [`ViewQuery`] plus the display header — shared by the
/// query executor and the explain path so both describe the same plan.
fn build_view_query(
    reader: &dyn GamRead,
    cache: &VersionCache,
    spec: &QuerySpec,
) -> GamResult<(ViewQuery, Vec<String>)> {
    let source = source_id_of(reader, &spec.source)?;
    let mut vq = ViewQuery::new(source).combine(spec.combine);
    if spec.accessions.is_empty() {
        // whole-source query: reuse the cached object-id set instead of
        // rescanning the object table inside generate_view
        vq = vq.objects((*cache.source_objects(reader, source)?).clone());
    } else {
        vq = vq.objects(resolve_accessions(reader, source, &spec.source, &spec.accessions)?);
    }
    let mut header = vec![spec.source.clone()];
    for t in &spec.targets {
        let target = source_id_of(reader, &t.source)?;
        let mut ts = TargetSpec::all(target);
        if !t.accessions.is_empty() {
            ts.objects = Some(resolve_accessions(reader, target, &t.source, &t.accessions)?);
        }
        ts.negated = t.negated;
        ts.min_evidence = t.min_evidence;
        if let Some(via) = &t.via {
            let refs: Vec<&str> = via.iter().map(String::as_str).collect();
            ts.path = Some(path_ids_of(reader, &refs)?);
        }
        header.push(t.source.clone());
        vq = vq.target(ts);
    }
    Ok((vq, header))
}

/// One-shot instrumented explain of a [`QuerySpec`]: build the same
/// [`ViewQuery`] and resolver as [`run_query`], make each path-less
/// target's compose path explicit (the one the resolver would compose
/// along, so the plan tree shows the chain), then run it through
/// [`operators::explain_view`] — the per-target resolution
/// `generate_view_idx` runs — and return the rendered plan tree with
/// estimated vs actual cardinalities.
pub(crate) fn run_explain(
    reader: &dyn GamRead,
    cache: &VersionCache,
    spec: &QuerySpec,
) -> GamResult<String> {
    let (mut vq, _header) = build_view_query(reader, cache, spec)?;
    let resolver = CachingPathResolver::new(reader, cache)?;
    for ts in &mut vq.targets {
        if ts.path.is_none() {
            ts.path = resolver.compose_path(vq.source, ts.target);
        }
    }
    let tree = operators::explain_view(reader, &vq, &resolver)?;
    Ok(tree.render())
}

/// Full information about one object against any reader (Figure 6c).
pub(crate) fn object_info_of(
    reader: &dyn GamRead,
    source: &str,
    accession: &str,
) -> GamResult<ObjectInfo> {
    let source_id = source_id_of(reader, source)?;
    let obj = reader.find_object(source_id, accession)?.ok_or_else(|| {
        GamError::Invalid(format!("unknown accession {accession} in {source}"))
    })?;
    let found = reader.associations_of_object(obj.id)?;
    let partner_ids: Vec<ObjectId> = found.iter().map(|(_, assoc)| assoc.to).collect();
    // each partner lent in association order; only its accession is copied
    let mut partners = Vec::with_capacity(found.len());
    reader.with_objects(&partner_ids, &mut |_, partner| {
        partners.push((partner.source, partner.accession.to_owned()))
    })?;
    // each distinct partner source named once
    let mut names = BTreeMap::new();
    for &(source, _) in &partners {
        if let btree_map::Entry::Vacant(slot) = names.entry(source) {
            slot.insert(reader.get_source(source)?.name);
        }
    }
    let mut associations = Vec::with_capacity(found.len());
    for ((_, assoc), (source, accession)) in found.iter().zip(partners) {
        let name = names.get(&source).cloned().unwrap_or_default();
        associations.push((name, accession, assoc.evidence));
    }
    associations.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
    Ok(ObjectInfo {
        id: obj.id,
        source: source.to_owned(),
        accession: obj.accession,
        text: obj.text,
        number: obj.number,
        associations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::TargetQuery;
    use crate::ExportFormat;
    use relstore::sync::Mutex;
    use sources::ecosystem::{Ecosystem, EcosystemParams};

    fn system() -> GenMapper {
        let eco = Ecosystem::generate(EcosystemParams::demo(7));
        let mut gm = GenMapper::in_memory().unwrap();
        let reports = gm.import_dumps(&eco.dumps).unwrap();
        assert!(reports.iter().all(|r| !r.skipped));
        gm
    }

    #[test]
    fn figure3_view_for_locus_353() {
        let gm = system();
        let spec = QuerySpec::source("LocusLink")
            .accessions(["353"])
            .target("Hugo")
            .target("GO")
            .target("Location")
            .target("OMIM");
        let view = gm.query(&spec).unwrap();
        assert_eq!(view.header(), vec!["LocusLink", "Hugo", "GO", "Location", "OMIM"]);
        assert!(!view.is_empty());
        // every row anchors at locus 353
        assert!(view.rows().all(|r| r.cell_text(0) == Some("353")));
        // APRT symbol, 16q24 location, GO:0009116, OMIM 102600 all present
        assert!(view.rows().any(|r| r.cell_text(1) == Some("APRT")));
        assert!(view.rows().any(|r| r.cell_text(3) == Some("16q24")));
        assert!(view
            .rows()
            .any(|r| r.cell_text(2) == Some("GO:0009116")));
        assert!(view.rows().any(|r| r.cell_text(4) == Some("102600")));
        // and the GO term resolves its name
        assert!(view
            .rows()
            .any(|r| r.cell_name(2) == Some("nucleoside metabolism")));
    }

    #[test]
    fn automatic_path_discovery_composes() {
        let gm = system();
        // NetAffx has no direct GO mapping; the resolver must route via
        // Unigene/LocusLink
        let path = gm.find_path("NetAffx", "GO").unwrap();
        assert_eq!(path.first().map(String::as_str), Some("NetAffx"));
        assert_eq!(path.last().map(String::as_str), Some("GO"));
        assert!(path.len() >= 3);

        let spec = QuerySpec::source("NetAffx").target("GO").and();
        let view = gm.query(&spec).unwrap();
        assert!(!view.is_empty(), "probe sets reach GO through composition");
        // alternatives exist in a well-connected graph
        let paths = gm.find_paths("NetAffx", "GO", 3).unwrap();
        assert!(!paths.is_empty());
    }

    #[test]
    fn negated_query_partitions() {
        let gm = system();
        let with = gm
            .query(&QuerySpec::source("LocusLink").target("OMIM").and())
            .unwrap();
        let without = gm
            .query(
                &QuerySpec::source("LocusLink")
                    .target_spec(TargetQuery::new("OMIM").negated())
                    .and(),
            )
            .unwrap();
        let all = gm.store().object_count(gm.source_id("LocusLink").unwrap()).unwrap();
        let with_set: BTreeSet<&str> = with.rows().filter_map(|r| r.cell_text(0)).collect();
        let without_set: BTreeSet<&str> =
            without.rows().filter_map(|r| r.cell_text(0)).collect();
        assert_eq!(with_set.len() + without_set.len(), all);
        assert!(with_set.is_disjoint(&without_set));
    }

    #[test]
    fn saved_paths_and_explicit_via() {
        let mut gm = system();
        gm.save_path("affy-go", &["NetAffx", "Unigene", "LocusLink", "GO"])
            .unwrap();
        assert!(gm.saved_path("affy-go").is_some());
        // a query pinning the path produces the same columns
        let spec = QuerySpec::source("NetAffx")
            .target_spec(TargetQuery::new("GO").via(["NetAffx", "Unigene", "LocusLink", "GO"]))
            .and();
        let view = gm.query(&spec).unwrap();
        assert!(!view.is_empty());
        // invalid saved path is rejected
        assert!(gm.save_path("bogus", &["NetAffx", "Enzyme"]).is_err());
    }

    #[test]
    fn subsumed_materialization_via_names() {
        let mut gm = system();
        let (_, n) = gm.materialize_subsumed("GO").unwrap();
        assert!(n > 0);
        // subsumed pairs exceed direct IS_A edge count (transitivity)
        let go = gm.source_id("GO").unwrap();
        let (isa, _) = gm
            .store()
            .find_source_rel(go, go, Some(gam::model::RelType::IsA))
            .unwrap()
            .unwrap();
        let isa_count = gm.store().association_count(isa.id).unwrap();
        assert!(n >= isa_count);
    }

    #[test]
    fn mapping_cache_serves_repeats_and_invalidates_on_mutation() {
        let mut gm = system();
        assert_eq!(gm.mapping_cache_len(), 0);
        let first = gm.map("LocusLink", "GO").unwrap();
        assert!(gm.mapping_cache_len() > 0, "miss populated the cache");
        // repeat hit: same Arc, no rebuild
        let again = gm.map("LocusLink", "GO").unwrap();
        assert!(Arc::ptr_eq(&first, &again), "repeat query hits the same entry");

        // a whole-source query also caches the source object set
        let before = gm.mapping_cache_len();
        let spec = crate::query::QuerySpec::source("LocusLink").target("GO");
        gm.query(&spec).unwrap();
        assert!(gm.mapping_cache_len() > before);

        // any store mutation invalidates everything
        let ll = gm.source_id("LocusLink").unwrap();
        let go = gm.source_id("GO").unwrap();
        let (rel, forward) = gm
            .store()
            .find_source_rel(ll, go, Some(gam::model::RelType::Fact))
            .unwrap()
            .expect("demo ecosystem has a LocusLink<->GO fact mapping");
        let obj_ll = gm.store().object_ids_of(ll).unwrap()[0];
        let obj_go = gm.store().object_ids_of(go).unwrap()[0];
        let (o1, o2) = if forward { (obj_ll, obj_go) } else { (obj_go, obj_ll) };
        gm.store_mut()
            .add_association(rel.id, o1, o2, Some(0.42))
            .unwrap();
        assert_eq!(gm.mapping_cache_len(), 0, "mutation dropped the cache");
        // and the rebuilt mapping matches a direct, cache-free computation
        let rebuilt = gm.map("LocusLink", "GO").unwrap();
        let direct = operators::map(gm.store(), ll, go).unwrap();
        assert_eq!(rebuilt.to_mapping(), direct);
    }

    #[test]
    fn cache_invalidated_by_every_mutating_entry_point() {
        use sources::ecosystem::{Ecosystem, EcosystemParams};
        let eco = Ecosystem::generate(EcosystemParams::demo(7));

        // import_dumps
        let mut gm = GenMapper::in_memory().unwrap();
        gm.import_dumps(&eco.dumps).unwrap();
        gm.map("LocusLink", "GO").unwrap();
        assert!(gm.mapping_cache_len() > 0);
        gm.import_dumps(&eco.dumps).unwrap(); // idempotent, still invalidates
        assert_eq!(gm.mapping_cache_len(), 0);

        // import_batch
        gm.map("LocusLink", "GO").unwrap();
        let batch = eco.dumps[0].parse().unwrap();
        gm.import_batch(&batch).unwrap();
        assert_eq!(gm.mapping_cache_len(), 0);

        // materialize_composed
        gm.map("LocusLink", "GO").unwrap();
        gm.materialize_composed(&["Unigene", "LocusLink", "GO"]).unwrap();
        assert_eq!(gm.mapping_cache_len(), 0);

        // materialize_subsumed
        gm.map("LocusLink", "GO").unwrap();
        gm.materialize_subsumed("GO").unwrap();
        assert_eq!(gm.mapping_cache_len(), 0);

        // store_mut (even without an actual write)
        gm.map("LocusLink", "GO").unwrap();
        let _ = gm.store_mut();
        assert_eq!(gm.mapping_cache_len(), 0);
    }

    #[test]
    fn compose_is_cached_per_floor() {
        let gm = system();
        let path = ["Unigene", "LocusLink", "GO"];
        let lax = gm.compose(&path, Some(0.0)).unwrap();
        let strict = gm.compose(&path, Some(0.9)).unwrap();
        assert!(strict.len() <= lax.len());
        // distinct floors are distinct cache entries
        assert!(Arc::ptr_eq(&lax, &gm.compose(&path, Some(0.0)).unwrap()));
        assert!(!Arc::ptr_eq(&lax, &strict));
        assert!(!Arc::ptr_eq(&lax, &gm.compose(&path, None).unwrap()));
        // invalid floor still rejected
        assert!(gm.compose(&path, Some(f64::NAN)).is_err());
    }

    /// A target naming the view's own source has no mapping: the source
    /// graph's path from GO to GO is the one source `[GO]`, which has
    /// nothing to compose. `query` and `explain` answer as `map` does.
    #[test]
    fn a_target_that_is_the_source_has_no_mapping() {
        let gm = system();
        let spec = QuerySpec::source("GO").or().target("GO");
        let errors = [
            gm.map("GO", "GO").unwrap_err(),
            gm.query(&spec).unwrap_err(),
            gm.explain(&spec).unwrap_err(),
        ];
        for err in errors {
            assert!(matches!(err, GamError::NoMapping { .. }), "{err}");
        }
    }

    /// `explain` shows the join `query` runs, and counts the rows it
    /// returns.
    #[test]
    fn explain_shows_the_join_strategy_query_runs() {
        use gam::model::{SourceContent, SourceStructure};
        use gam::{Association, RelType};
        let n = 64;
        let mut gm = GenMapper::in_memory().unwrap();
        let store = gm.store_mut();
        let mut objects = Vec::new();
        for name in ["A", "B", "C"] {
            let source = store
                .create_source(name, SourceContent::Other, SourceStructure::Flat, None)
                .unwrap()
                .id;
            let rows: Vec<_> = (0..n).map(|i| (format!("{name}{i}"), None, None)).collect();
            objects.push((source, store.add_objects_bulk(source, &rows).unwrap().0));
        }
        for hop in objects.windows(2) {
            let (from, to) = (&hop[0], &hop[1]);
            let rel = store.create_source_rel(from.0, to.0, RelType::Fact, None).unwrap();
            let pairs = from.1.iter().zip(&to.1).map(|(&a, &b)| (rel, Association::fact(a, b)));
            store.add_associations_bulk(pairs, &mut 0).unwrap();
        }
        // C has no direct mapping from A: it composes along A-B-C
        let spec = QuerySpec::source("A").target("C").target("B");
        let plan = gm.explain(&spec).unwrap();
        let joins: Vec<&str> = plan.lines().filter(|l| l.contains("compose ")).collect();
        assert_eq!(joins.len(), 1, "{plan}");
        assert!(joins[0].contains(" [merge] "), "{plan}");
        let rows = gm.query(&spec).unwrap().len();
        let first = plan.lines().next().unwrap_or_default();
        assert!(first.ends_with(&format!(" actual={rows}")), "{plan}");
    }

    #[test]
    fn object_info_lists_partner_accessions() {
        let gm = system();
        let info = gm.object_info("LocusLink", "353").unwrap();
        assert_eq!(info.accession, "353");
        assert_eq!(
            info.text.as_deref(),
            Some("adenine phosphoribosyltransferase")
        );
        let partners: Vec<&str> = info.associations.iter().map(|(s, _, _)| s.as_str()).collect();
        assert!(partners.contains(&"Hugo"));
        assert!(partners.contains(&"GO"));
        assert!(partners.contains(&"OMIM"));
        // unknown accession errors
        assert!(gm.object_info("LocusLink", "does-not-exist").is_err());
    }

    /// `info` pairs each partner's accession with its own association,
    /// on the live store and on a snapshot, where association order (by
    /// mapping) is not partner id order: `A`'s first mapping reaches `C`,
    /// whose objects came last.
    #[test]
    fn object_info_pairs_each_partner_with_its_own_association() {
        use gam::model::{SourceContent, SourceStructure};
        use gam::{Association, RelType};
        let mut gm = GenMapper::in_memory().unwrap();
        let store = gm.store_mut();
        let mut objects = Vec::new();
        for name in ["A", "B", "C"] {
            let source = store
                .create_source(name, SourceContent::Other, SourceStructure::Flat, None)
                .unwrap()
                .id;
            objects.push((source, store.create_object(source, &format!("{name}1"), None, None).unwrap()));
        }
        let [(a, a1), (b, b1), (c, c1)] = objects[..] else { unreachable!() };
        for (to, partner, evidence) in [(c, c1, None), (b, b1, Some(0.5))] {
            let rel = store.create_source_rel(a, to, RelType::Similarity, None).unwrap();
            store.add_associations_bulk([(rel, Association { from: a1, to: partner, evidence })], &mut 0).unwrap();
        }
        let want = vec![("B".to_owned(), "B1".to_owned(), Some(0.5)), ("C".to_owned(), "C1".to_owned(), None)];
        assert_eq!(gm.object_info("A", "A1").unwrap().associations, want);
        assert_eq!(gm.capture_snapshot().unwrap().object_info("A", "A1").unwrap().associations, want);
    }

    /// A reader that forwards to `inner`, recording each `with_objects`
    /// batch, counting `get_source` calls, and counting the mappings it
    /// lends, indexed or flat, with the pairs they hold.
    struct Counting<'a> {
        inner: &'a dyn GamRead,
        batches: Mutex<Vec<Vec<ObjectId>>>,
        source_reads: Mutex<usize>,
        mappings_read: Mutex<usize>,
        flat_read: Mutex<usize>,
        pairs_read: Mutex<usize>,
    }

    /// What a reader lent of its mappings: how many, how many of them
    /// flat (`load_mapping`, not an index), and their pairs summed.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct MappingReads {
        mappings: usize,
        flat: usize,
        pairs: usize,
    }

    impl<'a> Counting<'a> {
        fn new(inner: &'a dyn GamRead) -> Self {
            Counting {
                inner,
                batches: Mutex::new(Vec::new()),
                source_reads: Default::default(),
                mappings_read: Default::default(),
                flat_read: Default::default(),
                pairs_read: Default::default(),
            }
        }

        fn lent(&self, pairs: usize) {
            *self.mappings_read.lock() += 1;
            *self.pairs_read.lock() += pairs;
        }

        fn take_mapping_reads(&self) -> MappingReads {
            MappingReads {
                mappings: std::mem::take(&mut *self.mappings_read.lock()),
                flat: std::mem::take(&mut *self.flat_read.lock()),
                pairs: std::mem::take(&mut *self.pairs_read.lock()),
            }
        }

        fn take_batches(&self) -> Vec<Vec<ObjectId>> {
            std::mem::take(&mut *self.batches.lock())
        }

        fn take_source_reads(&self) -> usize {
            std::mem::take(&mut *self.source_reads.lock())
        }
    }

    impl GamRead for Counting<'_> {
        fn sources(&self) -> GamResult<Vec<gam::Source>> {
            self.inner.sources()
        }
        fn find_source(&self, name: &str) -> GamResult<Option<gam::Source>> {
            self.inner.find_source(name)
        }
        fn get_source(&self, id: SourceId) -> GamResult<gam::Source> {
            *self.source_reads.lock() += 1;
            self.inner.get_source(id)
        }
        fn objects_of(&self, source: SourceId) -> GamResult<Vec<gam::GamObject>> {
            self.inner.objects_of(source)
        }
        fn object_ids_of(&self, source: SourceId) -> GamResult<Vec<ObjectId>> {
            self.inner.object_ids_of(source)
        }
        fn object_count(&self, source: SourceId) -> GamResult<usize> {
            self.inner.object_count(source)
        }
        fn find_object(&self, source: SourceId, acc: &str) -> GamResult<Option<gam::GamObject>> {
            self.inner.find_object(source, acc)
        }
        fn get_object(&self, id: ObjectId) -> GamResult<gam::GamObject> {
            self.inner.get_object(id)
        }
        fn with_objects(
            &self,
            ids: &[ObjectId],
            f: &mut dyn FnMut(usize, gam::ObjectRef<'_>),
        ) -> GamResult<()> {
            self.batches.lock().push(ids.to_vec());
            self.inner.with_objects(ids, f)
        }
        fn resolve_accessions(
            &self,
            source: SourceId,
            accessions: &[&str],
        ) -> GamResult<Vec<Option<ObjectId>>> {
            self.inner.resolve_accessions(source, accessions)
        }
        fn source_rels(&self) -> GamResult<Vec<gam::SourceRel>> {
            self.inner.source_rels()
        }
        fn get_source_rel(&self, id: SourceRelId) -> GamResult<gam::SourceRel> {
            self.inner.get_source_rel(id)
        }
        fn source_rels_between(&self, a: SourceId, b: SourceId) -> GamResult<Vec<gam::SourceRel>> {
            self.inner.source_rels_between(a, b)
        }
        fn load_mapping(&self, id: SourceRelId) -> GamResult<gam::Mapping> {
            let mapping = self.inner.load_mapping(id)?;
            *self.flat_read.lock() += 1;
            self.lent(mapping.len());
            Ok(mapping)
        }
        fn load_mapping_index(&self, id: SourceRelId) -> GamResult<MappingIndex> {
            let index = self.inner.load_mapping_index(id)?;
            self.lent(index.len());
            Ok(index)
        }
        fn load_mapping_index_shared(&self, id: SourceRelId) -> GamResult<Arc<MappingIndex>> {
            let index = self.inner.load_mapping_index_shared(id)?;
            self.lent(index.len());
            Ok(index)
        }
        fn association_count(&self, id: SourceRelId) -> GamResult<usize> {
            self.inner.association_count(id)
        }
        fn associations_of_object(
            &self,
            object: ObjectId,
        ) -> GamResult<Vec<(SourceRelId, gam::Association)>> {
            self.inner.associations_of_object(object)
        }
        fn object_counts_per_source(&self) -> GamResult<Vec<(SourceId, usize)>> {
            self.inner.object_counts_per_source()
        }
        fn mapping_type_counts(&self) -> GamResult<Vec<(gam::RelType, usize, usize)>> {
            self.inner.mapping_type_counts()
        }
        fn cardinalities(&self) -> GamResult<GamCardinalities> {
            self.inner.cardinalities()
        }
    }

    /// The view of `spec` before resolution, joined as [`run_query`] joins
    /// it, and the same view resolved the way it was before objects were
    /// shared: one `get_object` and one table entry per cell.
    fn per_cell_view(reader: &dyn GamRead, cache: &VersionCache, spec: &QuerySpec) -> ResolvedView {
        let (header, view) = generate(reader, cache, spec).unwrap();
        let (mut objects, mut cells, mut pushed) = (ResolvedObjects::default(), Vec::new(), 0);
        for cell in view.rows.cells() {
            cells.push(cell.map_or(NULL, |id| {
                let obj = reader.get_object(id).unwrap();
                objects.push(&obj.accession, obj.text.as_deref());
                pushed += 1;
                pushed - 1
            }));
        }
        ResolvedView::new(header, objects, cells)
    }

    const FORMATS: [ExportFormat; 4] =
        [ExportFormat::Tsv, ExportFormat::Csv, ExportFormat::Json, ExportFormat::Markdown];

    fn exports(view: &ResolvedView) -> Vec<String> {
        FORMATS.iter().map(|&f| view.render(f).unwrap()).collect()
    }

    /// Random views over the demo ecosystem, on the live store and on a
    /// snapshot: a view that resolves each distinct object once answers
    /// and exports exactly as per-cell resolution does, reading all its
    /// objects in one ascending batch; `info` names each partner source
    /// once and lists what per-association resolution lists. One body
    /// comes out of every path: in each format, the snapshot's direct
    /// `render_query` is byte-equal to the render of the snapshot's and of
    /// the live system's resolved view, and fails as they fail when the
    /// spec names an accession that does not exist.
    #[test]
    fn views_resolve_each_distinct_object_once_and_match_per_cell_resolution() {
        let gm = system();
        let snap = gm.capture_snapshot().unwrap();
        let names = ["LocusLink", "Hugo", "GO", "Location", "OMIM", "Unigene", "NetAffx", "Enzyme"];
        testkit::cases(24, |rng| {
            let source = *rng.pick(&names);
            let mut spec = QuerySpec::source(source);
            if rng.gen_bool(0.7) {
                let objects = gm.store().objects_of(gm.source_id(source).unwrap()).unwrap();
                let picked = (0..rng.gen_range(1..=6)).map(|_| rng.pick(&objects).accession.clone());
                spec = spec.accessions(picked.collect::<Vec<_>>());
            }
            let targets: Vec<&str> = names.into_iter().filter(|&n| n != source).collect();
            for _ in 0..rng.gen_range(1..=3) {
                let t = TargetQuery::new(*rng.pick(&targets));
                spec = spec.target_spec(if rng.gen_bool(0.2) { t.negated() } else { t });
            }
            spec = if rng.gen_bool(0.5) { spec.and() } else { spec.or() };
            let mut unknown = spec.clone();
            unknown.accessions.push("no-such-accession".into());
            for spec in [&spec, &unknown] {
                for format in FORMATS {
                    let direct = format!("{:?}", snap.render_query(spec, format));
                    let frozen = snap.query(spec).and_then(|view| view.render(format));
                    let live = gm.query(spec).and_then(|view| view.render(format));
                    assert_eq!(direct, format!("{frozen:?}"), "{format:?}: snapshot");
                    assert_eq!(direct, format!("{live:?}"), "{format:?}: live");
                }
            }
            assert!(snap.render_query(&unknown, ExportFormat::Tsv).is_err());
            let live: (&dyn GamRead, &VersionCache) = (gm.store(), gm.store.cache());
            let snapshot: (&dyn GamRead, &VersionCache) = (&*snap.reader, &snap.cache);
            for (reader, cache) in [live, snapshot] {
                let counting = Counting::new(reader);
                let view = run_query(&counting, cache, &spec).unwrap();
                let batches = counting.take_batches();
                assert_eq!(batches.len(), 1, "one with_objects per query");
                assert!(batches[0].windows(2).all(|w| w[0] < w[1]), "ascending distinct ids");

                let reference = per_cell_view(reader, cache, &spec);
                assert_eq!(view.len(), reference.len());
                assert_eq!(view.header(), reference.header());
                for (row, want) in view.rows().zip(reference.rows()) {
                    for c in 0..view.header().len() {
                        assert_eq!(row.cell_text(c), want.cell_text(c));
                        assert_eq!(row.cell_name(c), want.cell_name(c));
                    }
                }
                assert_eq!(exports(&view), exports(&reference));

                let Some(acc) = view.rows().last().and_then(|r| r.cell_text(0)) else {
                    continue;
                };
                let info = object_info_of(&counting, source, acc).unwrap();
                let mut want = Vec::new();
                let mut partner_sources = BTreeSet::new();
                for (_, assoc) in reader.associations_of_object(info.id).unwrap() {
                    let partner = reader.get_object(assoc.to).unwrap();
                    let name = reader.get_source(partner.source).unwrap().name;
                    partner_sources.insert(partner.source);
                    want.push((name, partner.accession, assoc.evidence));
                }
                want.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
                assert_eq!(info.associations, want);
                assert_eq!(counting.take_source_reads(), partner_sources.len(), "one get_source per partner source");
            }
        });
    }

    /// Run `spec` on `gm`'s store from a fresh cache; the view's first
    /// column as a set, and the mappings the run read.
    fn counted_query(gm: &GenMapper, spec: &QuerySpec) -> (BTreeSet<String>, MappingReads) {
        let counting = Counting::new(gm.store());
        let view = run_query(&counting, &VersionCache::default(), spec).unwrap();
        let firsts = view.rows().filter_map(|r| r.cell_text(0).map(str::to_owned)).collect();
        (firsts, counting.take_mapping_reads())
    }

    /// Ablation A1 (§1, against application-specific warehouses). The
    /// star schema answers the queries it was designed for by index probes
    /// sized by the answer: one for a location, one bridge probe plus one
    /// gene-key probe per locus for a GO term. The GAM view reads the whole
    /// LocusLink mapping of the target. A source the star schema did not
    /// anticipate is refused; its one evolution path, a new bridge, costs a
    /// migration and a reload of every LocusLink row, while GAM writes
    /// only the new source's objects and associations and leaves every
    /// existing mapping as it was.
    #[test]
    fn a1_star_probes_the_answer_gam_reads_the_mapping_and_only_gam_takes_a_new_source() {
        use baselines::{StarError, StarWarehouse};
        let eco = Ecosystem::generate(EcosystemParams::demo(7));
        let (satellite, ll) = (eco.dumps[10].parse().unwrap(), eco.dumps[0].parse().unwrap());
        let mut known = eco.dumps.clone();
        known.remove(10);
        let mut gm = GenMapper::in_memory().unwrap();
        gm.import_dumps(&known).unwrap();
        let mut star = StarWarehouse::new().unwrap();
        let loaded = star.integrate(&ll).unwrap();

        let location = eco.universe.locus_353().location.clone();
        let mut counts = Vec::new();
        for (target, acc) in [("Location", location.as_str()), ("GO", "GO:0009116")] {
            let spec = QuerySpec::source("LocusLink")
                .target_spec(TargetQuery::new(target).accessions([acc]))
                .and();
            let (loci, gam) = counted_query(&gm, &spec);
            let probes = star.index_probes();
            let star_loci = match target {
                "GO" => star.loci_with_go(acc).unwrap(),
                _ => star.loci_at_location(acc).unwrap(),
            };
            let probes = star.index_probes() - probes;
            assert_eq!(loci, star_loci.into_iter().collect());
            let whole = gm.map("LocusLink", target).unwrap().len();
            assert_eq!(gam, MappingReads { mappings: 1, flat: 0, pairs: whole }, "{target}");
            counts.push((target, loci.len(), probes, gam.pairs));
        }
        // (target, loci answered, star probes, GAM pairs read)
        assert_eq!(counts, [("Location", 2, 1, 120), ("GO", 5, 6, 362)]);

        let rels = |gm: &GenMapper| -> Vec<(SourceRelId, usize)> {
            let rels = gm.store.source_rels().unwrap();
            rels.iter().map(|r| (r.id, gm.store.association_count(r.id).unwrap())).collect()
        };
        let (before, cards) = (rels(&gm), gm.cardinalities().unwrap());
        let report = gm.import_batch(&satellite).unwrap();
        let after = gm.cardinalities().unwrap();
        assert_eq!(after.objects - cards.objects, report.objects_created);
        assert_eq!(after.associations - cards.associations, report.associations_created);
        assert_eq!(rels(&gm)[..before.len()], before[..], "existing mappings unchanged");
        assert!(matches!(
            star.integrate(&satellite),
            Err(StarError::SchemaEvolutionRequired { .. })
        ));
        let mut migrated = StarWarehouse::new().unwrap();
        migrated.migrate_add_bridge("Enzyme").unwrap();
        let reloaded = migrated.integrate(&ll).unwrap();
        assert_eq!(reloaded, migrated.row_count().unwrap(), "the reload writes every row");
        // (GAM objects and associations written, star rows before and after)
        let written = (report.objects_created, report.associations_created);
        assert_eq!((written, loaded, reloaded), ((40, 120), 523, 546));
    }

    /// Ablation A2 (§1, against SRS-style link navigation) at three source
    /// sizes: "which UniGene clusters reach a GO term through LocusLink?"
    /// SRS answers by navigating from every UniGene entry; GenerateView
    /// reads the two mappings of the path, both as indexes (LocusLink →
    /// UniGene is stored the other way round and flipped, never loaded
    /// flat), and joins them. Both answer
    /// alike. Counted, both sides grow linearly in the loci, so their ratio
    /// stays flat: the gap the timings showed widening is not a gap in
    /// work.
    #[test]
    fn a2_srs_navigates_every_entry_generate_view_reads_the_path_mappings() {
        use baselines::SrsStore;
        use sources::universe::UniverseParams;
        let term = "GO:0009116";
        let spec = QuerySpec::source("Unigene")
            .target_spec(TargetQuery::new("GO").accessions([term]))
            .and();
        let mut counts = Vec::new();
        for n_loci in [100, 200, 400] {
            let eco = Ecosystem::generate(EcosystemParams {
                universe: UniverseParams {
                    seed: 51,
                    n_loci,
                    n_go_terms: (n_loci / 4).max(30),
                    ..UniverseParams::tiny(51)
                },
                n_satellites: 0,
                ..EcosystemParams::demo(51)
            });
            let (mut gm, mut srs) = (GenMapper::in_memory().unwrap(), SrsStore::new());
            for dump in &eco.dumps {
                let batch = dump.parse().unwrap();
                gm.import_batch(&batch).unwrap();
                srs.load(&batch);
            }
            let (clusters, gam) = counted_query(&gm, &spec);
            let nav = srs.navigate_join("Unigene", &["LocusLink", "GO"], term);
            assert_eq!(clusters, nav.hits.into_iter().collect());
            let unigene = gm.store.object_count(gm.source_id("Unigene").unwrap()).unwrap();
            assert!(nav.entries_visited > unigene, "SRS visits every UniGene entry");
            let path = ["Unigene", "LocusLink", "GO"];
            let pairs = path.windows(2).map(|w| gm.map(w[0], w[1]).unwrap().len()).sum();
            assert_eq!(gam, MappingReads { mappings: 2, flat: 0, pairs });
            counts.push((n_loci, nav.entries_visited, nav.links_followed, gam.pairs));
        }
        // (loci, SRS entries visited, SRS links followed, GAM pairs read)
        assert_eq!(counts, [(100, 193, 515, 415), (200, 394, 1037, 837), (400, 783, 2067, 1667)]);
    }

    /// Ablation A3 (§3, derived mappings "to support frequent queries"):
    /// before `Map(Unigene, GO)` is materialized, a view composes it, reading
    /// both mappings of the path and joining them; after, the view and
    /// `Map` read the one Composed mapping and join nothing; every mapping
    /// is read as an index, none flat. Counted in
    /// pairs read, that is 482 against 361: materializing saves the join
    /// and a quarter of the reads, not an order of magnitude.
    #[test]
    fn a3_a_materialized_map_reads_one_mapping_where_compose_reads_the_path() {
        let mut gm = system();
        let path = ["Unigene", "LocusLink", "GO"];
        let spec = QuerySpec::source("Unigene").target("GO").and();
        let (composed_view, composed_reads) = counted_query(&gm, &spec);
        let composed = gm.compose(&path, None).unwrap();
        let (rel, n) = gm.materialize_composed(&path).unwrap();
        assert_eq!(n, composed.len());
        let stored = gm.store().get_source_rel(rel).unwrap();
        assert_eq!(stored.derivation.as_deref(), Some("Unigene-LocusLink-GO"));
        let (view, reads) = counted_query(&gm, &spec);
        assert_eq!(view, composed_view);
        assert_eq!(reads, MappingReads { mappings: 1, flat: 0, pairs: n });

        let ids: Vec<SourceId> = path.iter().map(|name| gm.source_id(name).unwrap()).collect();
        let counting = Counting::new(gm.store());
        let map = operators::map_index(&counting, ids[0], ids[2]).unwrap();
        assert_eq!(counting.take_mapping_reads(), reads);
        let on_the_fly = operators::compose_path_idx(&counting, &ids, &ExecConfig::sequential()).unwrap();
        assert_eq!(on_the_fly.to_mapping().pairs, map.to_mapping().pairs);
        let path_pairs = path.windows(2).map(|w| gm.map(w[0], w[1]).unwrap().len()).sum();
        assert_eq!(counting.take_mapping_reads(), MappingReads { mappings: 2, flat: 0, pairs: path_pairs });
        assert_eq!(composed_reads, MappingReads { mappings: 2, flat: 0, pairs: path_pairs });
        assert_eq!((path_pairs, n), (482, 361));
    }

    #[test]
    fn unknown_names_are_reported() {
        let gm = system();
        assert!(matches!(
            gm.query(&QuerySpec::source("Nope")),
            Err(GamError::UnknownSourceName(_))
        ));
        let spec = QuerySpec::source("LocusLink").accessions(["no-such-locus"]);
        let err = gm.query(&spec).unwrap_err();
        assert!(err.to_string().contains("no-such-locus"));
    }

    #[test]
    fn durable_roundtrip() {
        let dir = testkit::TempDir::new("genmapper-system-roundtrip");
        let eco = Ecosystem::generate(EcosystemParams::demo(9));
        let cards = {
            let mut gm = GenMapper::open(&dir).unwrap();
            gm.import_dumps(&eco.dumps).unwrap();
            gm.checkpoint().unwrap();
            gm.cardinalities().unwrap()
        };
        {
            let gm = GenMapper::open(&dir).unwrap();
            assert_eq!(gm.cardinalities().unwrap(), cards);
            let view = gm
                .query(&QuerySpec::source("LocusLink").accessions(["353"]).target("Hugo"))
                .unwrap();
            assert!(view.rows().any(|r| r.cell_text(1) == Some("APRT")));
        }
    }
}
