//! Simulated comparative expression measurements.
//!
//! The paper's study [18, 25, 27] measured human and chimpanzee brain
//! expression on Affymetrix arrays. The raw measurements are proprietary;
//! this simulator reproduces the published pipeline numbers — ~40 000
//! genes on the chip, ~50% detected, ~2 500 significantly different — so
//! the downstream GenMapper profiling runs on data with the same shape.

use sources::prng::Prng;
use sources::universe::Universe;

/// Study-shape parameters.
#[derive(Debug, Clone)]
pub struct ExpressionParams {
    /// RNG seed (independent of the universe seed).
    pub seed: u64,
    /// Probability that a probe set is detected at all.
    pub detection_rate: f64,
    /// Probability that a detected probe set is truly differentially
    /// expressed between the species.
    pub differential_rate: f64,
    /// Log2 fold-change magnitude injected into true differentials.
    pub effect_size: f64,
    /// |log2 fold change| threshold used to call a difference.
    pub call_threshold: f64,
    /// Optional planted functional signal: genes annotated with this GO
    /// accession become differentially expressed with `boost` probability
    /// instead of `differential_rate`. Used to validate that the
    /// enrichment statistics recover a known signal end-to-end.
    pub planted: Option<PlantedSignal>,
}

/// A function-biased differential-expression signal.
#[derive(Debug, Clone)]
pub struct PlantedSignal {
    /// GO accession whose annotated genes are preferentially differential.
    pub go_accession: String,
    /// Differential probability for annotated genes (≫ the background
    /// `differential_rate`).
    pub boost: f64,
}

impl Default for ExpressionParams {
    fn default() -> Self {
        // Tuned so a 40k-gene chip yields ≈20k detected and ≈2.5k called,
        // the §5.2 numbers.
        ExpressionParams {
            seed: 4242,
            detection_rate: 0.5,
            differential_rate: 0.118,
            effect_size: 1.6,
            call_threshold: 1.0,
            planted: None,
        }
    }
}

impl ExpressionParams {
    /// Default parameters plus a planted functional signal on `go_acc`.
    pub fn with_planted_signal(go_acc: impl Into<String>, boost: f64) -> Self {
        ExpressionParams {
            planted: Some(PlantedSignal {
                go_accession: go_acc.into(),
                boost,
            }),
            ..ExpressionParams::default()
        }
    }
}

/// Measurements of one probe set.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeMeasurement {
    /// NetAffx probe set accession.
    pub probeset: String,
    /// Whether expression was detected in either species.
    pub detected: bool,
    /// Mean log2 expression, human brain.
    pub human: f64,
    /// Mean log2 expression, chimpanzee brain.
    pub chimp: f64,
}

impl ProbeMeasurement {
    /// log2 fold change (human − chimp).
    pub fn log_fold_change(&self) -> f64 {
        self.human - self.chimp
    }
}

/// The complete simulated study.
#[derive(Debug, Clone)]
pub struct ExpressionStudy {
    pub params: ExpressionParams,
    pub measurements: Vec<ProbeMeasurement>,
}

/// Standard-normal sample via Box–Muller.
fn gaussian(rng: &mut Prng) -> f64 {
    let u1 = f64::MIN_POSITIVE + (1.0 - f64::MIN_POSITIVE) * rng.gen_f64();
    let u2 = rng.gen_f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

impl ExpressionStudy {
    /// Simulate the study over every probe set of the universe's chip.
    pub fn simulate(universe: &Universe, params: ExpressionParams) -> ExpressionStudy {
        let mut rng = Prng::seed_from_u64(params.seed);
        // resolve the planted term (plus all IS_A descendants, since genes
        // are annotated at leaf terms) to the set of boosted probe sets
        let boosted: std::collections::HashSet<usize> = match &params.planted {
            None => Default::default(),
            Some(signal) => 'resolve: {
                let Some(target) = universe
                    .go_terms
                    .iter()
                    .position(|t| t.acc == signal.go_accession)
                else {
                    break 'resolve Default::default();
                };
                // descendants of target in the IS_A DAG (children point at
                // parents via `parents`)
                let mut in_cone = vec![false; universe.go_terms.len()];
                in_cone[target] = true;
                for (i, term) in universe.go_terms.iter().enumerate() {
                    if term.parents.iter().any(|&p| in_cone[p]) {
                        in_cone[i] = true;
                    }
                }
                universe
                    .probesets
                    .iter()
                    .enumerate()
                    .filter(|(_, ps)| {
                        universe.unigene[ps.unigene].loci.iter().any(|&l| {
                            universe.loci[l].go_terms.iter().any(|&t| in_cone[t])
                        })
                    })
                    .map(|(i, _)| i)
                    .collect()
            }
        };
        let mut measurements = Vec::with_capacity(universe.probesets.len());
        for (ps_index, ps) in universe.probesets.iter().enumerate() {
            let detected = rng.gen_bool(params.detection_rate);
            let base = 6.0 + gaussian(&mut rng) * 2.0;
            let noise = 0.15;
            let (human, chimp) = if detected {
                let rate = match &params.planted {
                    Some(signal) if boosted.contains(&ps_index) => signal.boost,
                    _ => params.differential_rate,
                };
                let differential = rng.gen_bool(rate);
                let shift = if differential {
                    let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                    sign * (params.effect_size + gaussian(&mut rng).abs() * 0.3)
                } else {
                    0.0
                };
                (
                    base + shift / 2.0 + gaussian(&mut rng) * noise,
                    base - shift / 2.0 + gaussian(&mut rng) * noise,
                )
            } else {
                (0.0, 0.0)
            };
            measurements.push(ProbeMeasurement {
                probeset: ps.acc.clone(),
                detected,
                human,
                chimp,
            });
        }
        ExpressionStudy {
            params,
            measurements,
        }
    }

    /// Probe sets with detected expression.
    pub fn detected(&self) -> impl Iterator<Item = &ProbeMeasurement> {
        self.measurements.iter().filter(|m| m.detected)
    }

    /// Detected probe sets whose |log2 fold change| exceeds the call
    /// threshold — the differential-expression candidates of §5.2.
    pub fn differential(&self) -> impl Iterator<Item = &ProbeMeasurement> {
        let threshold = self.params.call_threshold;
        self.measurements
            .iter()
            .filter(move |m| m.detected && m.log_fold_change().abs() >= threshold)
    }

    /// (total, detected, differential) counts — the paper's 40k/20k/2.5k.
    pub fn counts(&self) -> (usize, usize, usize) {
        (
            self.measurements.len(),
            self.detected().count(),
            self.differential().count(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sources::universe::UniverseParams;

    #[test]
    fn deterministic() {
        let u = Universe::generate(UniverseParams::tiny(3));
        let a = ExpressionStudy::simulate(&u, ExpressionParams::default());
        let b = ExpressionStudy::simulate(&u, ExpressionParams::default());
        assert_eq!(a.measurements, b.measurements);
        let c = ExpressionStudy::simulate(
            &u,
            ExpressionParams {
                seed: 1,
                ..ExpressionParams::default()
            },
        );
        assert_ne!(a.measurements, c.measurements);
    }

    #[test]
    fn paper_proportions_hold_at_scale() {
        // a chip of ~2.8k probes is enough to check the ratios
        let u = Universe::generate(UniverseParams::default());
        let study = ExpressionStudy::simulate(&u, ExpressionParams::default());
        let (total, detected, differential) = study.counts();
        assert!(total > 2_000);
        let detection = detected as f64 / total as f64;
        assert!((0.45..0.55).contains(&detection), "≈50% detected, got {detection}");
        let diff_rate = differential as f64 / total as f64;
        // paper: 2.5k of 40k ≈ 6.25%
        assert!(
            (0.04..0.09).contains(&diff_rate),
            "≈6% differential, got {diff_rate}"
        );
    }

    #[test]
    fn undetected_probes_are_not_differential() {
        let u = Universe::generate(UniverseParams::tiny(5));
        let study = ExpressionStudy::simulate(&u, ExpressionParams::default());
        for m in study.differential() {
            assert!(m.detected);
            assert!(m.log_fold_change().abs() >= study.params.call_threshold);
        }
        assert!(study.detected().count() <= study.measurements.len());
    }
}
