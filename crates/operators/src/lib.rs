//! `operators` — GenMapper's high-level GAM-based operators (paper §4.2).
//!
//! | Paper operation      | Here |
//! |----------------------|------|
//! | `Map(S, T)`          | [`simple::map`] / [`map_index`] (CSR form) |
//! | `Domain(map)`        | [`gam::Mapping::domain`] / [`gam::MappingIndex::domain`] |
//! | `Range(map)`         | [`gam::Mapping::range`] / [`gam::MappingIndex::range`] |
//! | `RestrictDomain`     | [`gam::Mapping::restrict_domain`] / [`gam::MappingIndex::restrict_domain`] |
//! | `RestrictRange`      | [`gam::Mapping::restrict_range`] / [`gam::MappingIndex::restrict_range`] |
//! | `Compose`            | [`compose_idx`] / [`compose_path_idx`] / [`compose_path_idx_with_threshold`] |
//! | Subsumed derivation  | [`subsume::subsume`] |
//! | `GenerateView`       | [`generate_view_idx`] (Figure 5) |
//!
//! Results of general interest — Composed mappings and Subsumed closures —
//! can be [materialized](materialize) back into the central database, the
//! paper's mechanism for supporting frequent queries.
//!
//! There is one executor, and it runs on the calling thread. `Compose` and
//! `GenerateView` operate on the CSR [`gam::MappingIndex`] — the
//! representation the GenMapper system caches — and every chain runs
//! through [`plan`]: per-index build-time statistics pick merge or
//! galloping merge per join, evidence floors are pushed down and fact
//! chains reordered, each rewrite gated so the output is bit-identical to
//! the definition. The definition itself — nested-loop `Compose`, Figure 5
//! verbatim — lives in `baselines::naive` as the test oracle
//! (`tests/algebra_equiv.rs`). [`explain_view`] runs a view through the
//! same per-target resolution as [`generate_view_idx`] and surfaces the
//! chosen plan as a [`plan::ExplainNode`] tree for the CLI/serve `explain`
//! verbs.

#![forbid(unsafe_code)]

// Non-test code on the import/query path must propagate errors, never
// panic: one malformed dump line must not take down a whole import.
// Tier-1 runs clippy with `-D warnings`, so these lints are the gate.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
pub mod compose;
pub mod materialize;
pub mod plan;
pub mod simple;
pub mod subsume;
pub mod view;

pub use compose::{compose_idx, compose_path_idx, compose_path_idx_with_threshold};
pub use plan::ExplainNode;
pub use simple::{map, map_index};
pub use subsume::subsume;
pub use view::{
    explain_view, generate_view_idx, AnnotationView, Combine, IndexResolver, TargetSpec, ViewQuery,
    ViewRows,
};

/// An execution configuration with nothing left in it: every operator runs
/// sequentially on the calling thread. gmbench's link to it (through
/// [`compose_path_idx`] and [`generate_view_idx`]) is its only reason to
/// exist; ROADMAP item 1 deletes it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecConfig;

impl ExecConfig {
    /// The one configuration there is.
    pub fn sequential() -> Self {
        ExecConfig
    }
}
