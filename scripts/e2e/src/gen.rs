//! Seed-generated inputs: the source ecosystems, the release re-imports
//! and the fixed read lists. Same seed, same bytes.
//!
//! The ecosystem's *topology* (which sources exist, which map to which)
//! is fixed by the generator's parameters; a seed only changes objects
//! and associations. The read lists exploit that: every list has the same
//! request templates and the same number of requests per class, and the
//! seed picks the accessions, so a metric means the same thing on every
//! seed and differs between seeds only by sampling of fan-outs.

use crate::oracle::Model;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sources::dialects::satellite::{self, Hub, SatelliteSpec};
use sources::ecosystem::{Dialect, Ecosystem, EcosystemParams, SourceDump};
use sources::Universe;

/// Satellites in the scratch ecosystem the load/recover cycle imports.
pub const MINI_SATELLITES: usize = 8;
/// Release re-imports ("writes") per cycle.
pub const WRITES_PER_CYCLE: usize = 10;
/// Satellite sources re-released by one write.
pub const SOURCES_PER_WRITE: usize = 3;
/// Entries in one re-released satellite dump.
const RELEASE_OBJECTS_FRACTION: f64 = 0.35;

/// `EcosystemParams::paper_scale` with every size multiplied by `scale`
/// (the source count stays at the paper's 65).
pub fn eco_params(seed: u64, scale: f64) -> EcosystemParams {
    let mut p = EcosystemParams::paper_scale(seed);
    let s = |n: usize| ((n as f64 * scale).round() as usize).max(16);
    p.universe.n_loci = s(p.universe.n_loci);
    p.universe.n_go_terms = s(p.universe.n_go_terms);
    p.universe.n_enzymes = s(p.universe.n_enzymes);
    p.universe.n_omim = s(p.universe.n_omim);
    p.universe.n_interpro = s(p.universe.n_interpro);
    p.satellite_objects = s(p.satellite_objects);
    p
}

/// The scratch ecosystem: the ten core sources plus a few satellites, so
/// one bulk import is a lap of a few hundred milliseconds.
pub fn mini_params(seed: u64, scale: f64) -> EcosystemParams {
    let mut p = eco_params(seed ^ 0x6D69_6E69, scale);
    p.n_satellites = MINI_SATELLITES;
    p
}

/// The `k`-th write of a cycle: new releases of three satellites of the
/// scratch ecosystem, each a partial dump with freshly drawn links (so a
/// write dedups every object and adds mostly new associations).
pub fn release_write(universe: &Universe, params: &EcosystemParams, k: usize) -> Vec<SourceDump> {
    let families = ["PathwayDB", "MarkerSet", "CloneLib", "ExprStudy"];
    let n_hubs = params.satellite_hubs.clamp(1, 4);
    let n_objects = ((params.satellite_objects as f64 * RELEASE_OBJECTS_FRACTION) as usize).max(8);
    (0..SOURCES_PER_WRITE)
        .map(|j| {
            // same naming and hub rotation as `Ecosystem::generate`
            let i = (k * SOURCES_PER_WRITE + j) % params.n_satellites;
            let spec = SatelliteSpec {
                name: format!("{}{:02}", families[i % families.len()], i + 1),
                hubs: (0..n_hubs).map(|h| Hub::all()[(i + h) % 4]).collect(),
                n_objects,
                links_per_object: params.satellite_links,
                scored_fraction: params.satellite_scored_fraction,
                seed: params.universe.seed ^ (0x7E1E_A5E0 + (k as u64) * 64 + j as u64),
            };
            let release = format!("#release\tr{}", k + 2);
            SourceDump {
                name: spec.name.clone(),
                dialect: Dialect::Satellite,
                text: satellite::generate(universe, &spec).replacen("#release\tr1", &release, 1),
            }
        })
        .collect()
}

/// Every write of a cycle.
pub fn release_writes(eco: &Ecosystem, params: &EcosystemParams) -> Vec<Vec<SourceDump>> {
    (0..WRITES_PER_CYCLE)
        .map(|k| release_write(&eco.universe, params, k))
        .collect()
}

/// What a read request exercises; fixes its share of a list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// `info`, or a one-target `query` on 1-5 accessions over a stored mapping.
    Lookup,
    /// `query` to a target with no stored mapping: path found, mappings composed.
    Compose,
    /// `query` with 8-12 targets: GenerateView with AND/OR/NOT and floors.
    View,
    /// `path`, `paths`, `sources`, `stats`.
    Meta,
}

/// One read request, as the line a wire client sends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub class: Class,
    pub line: String,
}

/// The sources every satellite links to. One of their objects carries
/// dozens to thousands of associations, so `info` on it costs 10-50x the
/// median; with them in a 200-request list the list's cost depended on
/// how many the seed happened to draw (25 % spread between seeds).
const HUB_SOURCES: [&str; 4] = ["LocusLink", "Unigene", "SwissProt", "GO"];

/// Sources `info` lookups are drawn from.
const INFO_SOURCES: [&str; 12] = [
    "LocusLink",
    "Hugo",
    "GO",
    "Unigene",
    "NetAffx",
    "SwissProt",
    "OMIM",
    "InterPro",
    "PathwayDB01",
    "MarkerSet02",
    "CloneLib03",
    "ExprStudy04",
];
/// Source/target pairs joined by a stored mapping (either orientation).
const DIRECT_PAIRS: [(&str, &str); 10] = [
    ("LocusLink", "GO"),
    ("LocusLink", "Hugo"),
    ("LocusLink", "OMIM"),
    ("NetAffx", "Unigene"),
    ("SwissProt", "InterPro"),
    ("Unigene", "LocusLink"),
    ("GO", "LocusLink"),
    ("PathwayDB01", "LocusLink"),
    ("MarkerSet02", "GO"),
    ("Hugo", "SwissProt"),
];
/// Pairs with no stored mapping, two or three hops apart — three is the
/// diameter of the generated source graph.
const COMPOSE_PAIRS: [(&str, &str); 10] = [
    ("NetAffx", "GO"),
    ("NetAffx", "Hugo"),
    ("InterPro", "Location"),
    ("InterPro", "OMIM"),
    ("GeneMap", "InterPro"),
    ("PathwayDB01", "Hugo"),
    ("CloneLib03", "Enzyme"),
    ("Hugo", "GO"),
    ("OMIM", "Unigene"),
    ("ExprStudy04", "InterPro"),
];
/// View templates: source, accessions per request, combine word, targets.
/// Every source maps to at most one LocusLink object, so the product of
/// the targets' fan-outs stays in the tens of rows per object; a view from
/// `Unigene`, whose clusters hold several loci, multiplies them per target
/// and made one request in a thousand cost as much as the rest of its lap.
const VIEW_TEMPLATES: [(&str, usize, &str, &str); 3] = [
    (
        "LocusLink",
        40,
        "or",
        "Hugo Location Chr OMIM Enzyme Unigene SwissProt NetAffx@0.6137 GO !PathwayDB01",
    ),
    (
        "NetAffx",
        40,
        "or",
        "LocusLink@0.7291 Unigene Hugo Location GO OMIM SwissProt InterPro",
    ),
    (
        "LocusLink",
        40,
        "and",
        "Hugo Location Chr GO Unigene !OMIM NetAffx@0.5519 GeneMap !MarkerSet02 !CloneLib03 SwissProt InterPro",
    ),
];
const META_REQUESTS: [&str; 9] = [
    "path NetAffx GO",
    "path InterPro Location",
    "paths NetAffx GO 3",
    "paths PathwayDB01 Hugo 4",
    "sources",
    "stats",
    "path CloneLib03 Enzyme",
    "paths InterPro OMIM 2",
    "stats",
];

/// Requests per class in one list.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub info: usize,
    pub direct: usize,
    pub compose: usize,
    pub views: usize,
    pub meta: usize,
    /// Draw `info` lookups uniformly over every object outside the four
    /// hub sources (the working set is nearly the whole store) instead of
    /// over a few sources.
    pub info_uniform: bool,
}

/// The served/in-process mix: 60 % lookups, 25 % compose, 12 % views, 3 % meta.
pub const MIX_INTERACTIVE: Mix = Mix {
    info: 90,
    direct: 90,
    compose: 75,
    views: 36,
    meta: 9,
    info_uniform: false,
};

/// The paged mix: uniformly random lookups plus accession-restricted views.
pub const MIX_PAGED: Mix = Mix {
    info: 180,
    direct: 0,
    compose: 0,
    views: 60,
    meta: 0,
    info_uniform: true,
};

fn pick<'a>(rng: &mut SmallRng, pool: &[&'a str]) -> &'a str {
    pool[rng.gen_range(0..pool.len())]
}

fn pick_many(rng: &mut SmallRng, pool: &[&str], n: usize) -> String {
    let mut chosen: Vec<&str> = Vec::with_capacity(n);
    while chosen.len() < n.min(pool.len()) {
        let a = pick(rng, pool);
        if !chosen.contains(&a) {
            chosen.push(a);
        }
    }
    chosen.join(",")
}

/// The fixed read list for `seed` over the loaded `model`: `repeat`
/// times the mix, every request with its own accessions.
pub fn read_list(model: &Model, seed: u64, mix: &Mix, repeat: usize) -> Vec<Request> {
    let mix = Mix {
        info: mix.info * repeat,
        direct: mix.direct * repeat,
        compose: mix.compose * repeat,
        views: mix.views * repeat,
        meta: mix.meta * repeat,
        info_uniform: mix.info_uniform,
    };
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7265_6164_6C69_7374);
    let mut out = Vec::new();
    let pools: Vec<(&str, Vec<&str>)> = model
        .source_names()
        .into_iter()
        .map(|s| (s, model.wire_accessions(s)))
        .collect();
    let pool = |source: &str| -> &[&str] {
        pools
            .iter()
            .find(|(s, _)| *s == source)
            .map_or(&[], |(_, p)| p.as_slice())
    };
    let uniform: Vec<&(&str, Vec<&str>)> = pools
        .iter()
        .filter(|(s, p)| !HUB_SOURCES.contains(s) && !p.is_empty())
        .collect();
    let total: usize = uniform.iter().map(|(_, p)| p.len()).sum();
    for i in 0..mix.info {
        let (source, acc) = if mix.info_uniform {
            let mut at = rng.gen_range(0..total);
            let (s, pool) = *uniform
                .iter()
                .find(|(_, p)| {
                    if at < p.len() {
                        true
                    } else {
                        at -= p.len();
                        false
                    }
                })
                .expect("index below the total falls in some pool");
            (*s, pool[at])
        } else {
            let s = INFO_SOURCES[i % INFO_SOURCES.len()];
            (s, pick(&mut rng, pool(s)))
        };
        out.push(Request {
            class: Class::Lookup,
            line: format!("info {source} {acc}"),
        });
    }
    for i in 0..mix.direct {
        let (s, t) = DIRECT_PAIRS[i % DIRECT_PAIRS.len()];
        let n = 1 + i % 5;
        let accs = pick_many(&mut rng, pool(s), n);
        out.push(Request {
            class: Class::Lookup,
            line: format!("query {s}:{accs} or {t}"),
        });
    }
    for i in 0..mix.compose {
        let (s, t) = COMPOSE_PAIRS[i % COMPOSE_PAIRS.len()];
        let accs = pick_many(&mut rng, pool(s), 30);
        out.push(Request {
            class: Class::Compose,
            line: format!("query {s}:{accs} or {t}"),
        });
    }
    for i in 0..mix.views {
        let (s, n, combine, targets) = VIEW_TEMPLATES[i % VIEW_TEMPLATES.len()];
        let accs = pick_many(&mut rng, pool(s), n);
        out.push(Request {
            class: Class::View,
            line: format!("query {s}:{accs} {combine} {targets}"),
        });
    }
    for i in 0..mix.meta {
        out.push(Request {
            class: Class::Meta,
            line: META_REQUESTS[i % META_REQUESTS.len()].to_owned(),
        });
    }
    // interleave the classes: Fisher-Yates with the list's own generator
    for i in (1..out.len()).rev() {
        out.swap(i, rng.gen_range(0..=i));
    }
    out
}
