//! Seeded sweep over the versioned mapping cache: no matter how cache
//! warm-ups are interleaved with store mutations (direct writes, repeated
//! imports, materializations), the cached `GenMapper::map` / `compose`
//! results must always equal a fresh, cache-free computation (`Map` by
//! the low-level operator, `Compose` by the `baselines::naive` oracle). A
//! single stale read fails the sweep.

use gam::GamRead;
use genmapper::GenMapper;
use sources::ecosystem::{Ecosystem, EcosystemParams};
use std::sync::Arc;
use testkit::{cases, Prng};

/// One step of an interleaved workload.
#[derive(Debug, Clone)]
enum Op {
    /// Warm / read the cache for Map(LocusLink, GO) and check it against
    /// the uncached operator result.
    CheckMap,
    /// Same for Compose(Unigene, LocusLink, GO) and, cached beside it,
    /// Compose(Unigene, NetAffx, LocusLink, GO).
    CheckCompose,
    /// Mutate through `store_mut`: add one scored association to the
    /// LocusLink<->GO mapping (millis scales the evidence).
    AddAssociation(u32),
    /// Re-import the full ecosystem dumps (idempotent on objects, but a
    /// mutating entry point all the same).
    Reimport,
    /// Materialize the composed Unigene->GO mapping, which *changes* what
    /// Map(Unigene, GO) returns afterwards.
    MaterializeComposed,
}

/// Checks and association writes 3 : 3 : 3, the two heavy writers 1 : 1.
fn op(rng: &mut Prng) -> Op {
    match rng.below(11) {
        0..=2 => Op::CheckMap,
        3..=5 => Op::CheckCompose,
        6..=8 => Op::AddAssociation(rng.gen_range(0..=1000)),
        9 => Op::Reimport,
        _ => Op::MaterializeComposed,
    }
}

#[test]
fn cached_results_never_go_stale() {
    cases(24, |rng| {
        let ops: Vec<Op> = (0..rng.gen_range(1..14)).map(|_| op(rng)).collect();
        let eco = Ecosystem::generate(EcosystemParams::demo(7));
        let mut gm = GenMapper::in_memory().unwrap();
        gm.import_dumps(&eco.dumps).unwrap();

        let ll = gm.source_id("LocusLink").unwrap();
        let go = gm.source_id("GO").unwrap();
        let ug = gm.source_id("Unigene").unwrap();
        let (rel, forward) = gm
            .store()
            .find_source_rel(ll, go, Some(gam::model::RelType::Fact))
            .unwrap()
            .expect("demo ecosystem maps LocusLink to GO");
        let ll_objs = gm.store().object_ids_of(ll).unwrap();
        let go_objs = gm.store().object_ids_of(go).unwrap();

        let mut next_pair = 0usize;
        for op in &ops {
            match op {
                Op::CheckMap => {
                    let cached = gm.map("LocusLink", "GO").unwrap();
                    let fresh = operators::map(gm.store(), ll, go).unwrap();
                    assert_eq!(cached.to_mapping(), fresh);
                }
                Op::CheckCompose => {
                    // two paths between the same ends are two cache entries
                    let via_probes = gm.source_id("NetAffx").unwrap();
                    for (names, ids) in [
                        (&["Unigene", "LocusLink", "GO"][..], &[ug, ll, go][..]),
                        (&["Unigene", "NetAffx", "LocusLink", "GO"], &[ug, via_probes, ll, go]),
                    ] {
                        let cached = gm.compose(names, None).unwrap();
                        let fresh = baselines::naive::compose_path(gm.store(), ids, None).unwrap();
                        assert_eq!(cached.to_mapping(), fresh, "{names:?}");
                    }
                }
                Op::AddAssociation(millis) => {
                    let o_ll = ll_objs[next_pair % ll_objs.len()];
                    let o_go = go_objs[next_pair % go_objs.len()];
                    next_pair += 1;
                    let (o1, o2) = if forward { (o_ll, o_go) } else { (o_go, o_ll) };
                    gm.store_mut()
                        .add_association(rel.id, o1, o2, Some(f64::from(*millis) / 1000.0))
                        .unwrap();
                    assert_eq!(gm.mapping_cache_len(), 0, "mutation must drop the cache");
                }
                Op::Reimport => {
                    gm.import_dumps(&eco.dumps).unwrap();
                    assert_eq!(gm.mapping_cache_len(), 0, "reimport must drop the cache");
                }
                Op::MaterializeComposed => {
                    gm.materialize_composed(&["Unigene", "LocusLink", "GO"]).unwrap();
                    assert_eq!(
                        gm.mapping_cache_len(), 0,
                        "materialization must drop the cache"
                    );
                    // the new derived mapping must be visible immediately
                    let cached = gm.map("Unigene", "GO").unwrap();
                    let fresh = operators::map(gm.store(), ug, go).unwrap();
                    assert_eq!(cached.to_mapping(), fresh);
                }
            }
        }

        // after the dust settles: repeated reads hit one shared entry
        let a = gm.map("LocusLink", "GO").unwrap();
        let b = gm.map("LocusLink", "GO").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.to_mapping(), operators::map(gm.store(), ll, go).unwrap());
    });
}
