//! `profiling` — large-scale automatic gene functional profiling.
//!
//! Reproduces the paper's §5.2 application: a comparative expression study
//! between humans and chimpanzees, profiled through GenMapper.
//!
//! * "From a total of approx. 40,000 genes, the expression of around
//!   20,000 genes were detected, from which around 2,500 show a
//!   significantly different expression pattern between the species." —
//!   the [`expression`] simulator reproduces those proportions from
//!   Affymetrix-style probe sets (the real measurements are proprietary,
//!   see DESIGN.md §2).
//! * "The proprietary genes of Affymetrix microarrays were mapped to the
//!   generally accepted gene representation UniGene, for which GO
//!   annotations were in turn derived from the mappings provided by
//!   LocusLink" — the [`pipeline`] walks exactly this mapping path with
//!   GenMapper operators.
//! * "Using the structure information of the sources, i.e. IS_A and
//!   Subsumed relationships, comprehensive statistical analysis over the
//!   entire GO taxonomy was possible" — term counts aggregate through the
//!   Subsumed closure, and [`stats`] provides the hypergeometric
//!   enrichment test.

#![forbid(unsafe_code)]

pub mod expression;
pub mod pipeline;
pub mod stats;

pub use expression::{ExpressionParams, ExpressionStudy, ProbeMeasurement};
pub use pipeline::{FunctionalProfile, ProfilingReport, TermEnrichment};
