//! Fixtures for the `experiments` binary, which regenerates the artifacts
//! of DESIGN.md §4 (one per paper table/figure): deterministic systems at
//! named scales so measurements are comparable across runs. Performance
//! series live in gmbench (`scripts/e2e`), not here.

use genmapper::GenMapper;
use sources::ecosystem::{Ecosystem, EcosystemParams};
use sources::universe::UniverseParams;

/// A ready-to-query system plus the generating ecosystem.
pub struct Fixture {
    pub gm: GenMapper,
    pub eco: Ecosystem,
}

/// Build and integrate an ecosystem at demo scale.
pub fn demo_fixture(seed: u64) -> Fixture {
    fixture(EcosystemParams::demo(seed))
}

/// Build and integrate an arbitrary ecosystem.
pub fn fixture(params: EcosystemParams) -> Fixture {
    let eco = Ecosystem::generate(params);
    let mut gm = GenMapper::in_memory().expect("store opens");
    gm.import_dumps(&eco.dumps).expect("pipeline runs");
    Fixture { gm, eco }
}

/// Ecosystem parameters scaled by a factor relative to `medium`, with the
/// satellite count fixed (the scale series varies object counts, not source
/// counts).
pub fn scaled_params(seed: u64, factor: f64) -> EcosystemParams {
    let mut p = EcosystemParams::medium(seed);
    p.universe = UniverseParams {
        seed,
        ..UniverseParams::default()
    }
    .scaled(factor);
    p.satellite_objects = ((p.satellite_objects as f64 * factor) as usize).max(10);
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let f = demo_fixture(1);
        assert!(f.gm.cardinalities().unwrap().sources >= 14);
    }

    #[test]
    fn scaled_params_scale() {
        let small = scaled_params(1, 0.1);
        let big = scaled_params(1, 1.0);
        assert!(small.universe.n_loci < big.universe.n_loci);
    }
}
