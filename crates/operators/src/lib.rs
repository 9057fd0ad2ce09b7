//! `operators` — GenMapper's high-level GAM-based operators (paper §4.2).
//!
//! | Paper operation      | Here |
//! |----------------------|------|
//! | `Map(S, T)`          | [`simple::map`] / [`map_index`] (CSR form) |
//! | `Domain(map)`        | [`gam::Mapping::domain`] / [`gam::MappingIndex::domain`] |
//! | `Range(map)`         | [`gam::Mapping::range`] / [`gam::MappingIndex::range`] |
//! | `RestrictDomain`     | [`gam::Mapping::restrict_domain`] / [`gam::MappingIndex::restrict_domain`] |
//! | `RestrictRange`      | [`gam::Mapping::restrict_range`] / [`gam::MappingIndex::restrict_range`] |
//! | `Compose`            | [`compose_idx`] / [`compose_path_idx`] (+ `_with_threshold`) |
//! | Subsumed derivation  | [`subsume::subsume`] |
//! | `GenerateView`       | [`generate_view_idx`] (Figure 5) |
//!
//! Results of general interest — Composed mappings and Subsumed closures —
//! can be [materialized](materialize) back into the central database, the
//! paper's mechanism for supporting frequent queries.
//!
//! There is one executor. `Compose` and `GenerateView` operate on the CSR
//! [`gam::MappingIndex`] — the representation the GenMapper system caches —
//! and every chain runs through [`plan`]: per-index build-time statistics
//! pick merge, galloping merge or partitioned hash per join, evidence
//! floors are pushed down, fact chains reordered and path prefixes shared
//! across a view's targets, each rewrite gated so the output is
//! bit-identical to the definition. The definition itself — nested-loop
//! `Compose`, Figure 5 verbatim — lives in `baselines::naive` as the test
//! oracle (`tests/algebra_equiv.rs`). [`exec::ExecConfig`] carries the one
//! tunable, the worker count; [`plan::ExplainNode`] surfaces the chosen
//! plan for the CLI/serve `explain` verbs.

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
pub mod exec;
pub mod materialize;
pub mod plan;
pub mod setops;
pub mod simple;
pub mod subsume;
pub mod view;

pub use compose::{
    compose_idx, compose_idx_with_threshold, compose_path_idx, compose_path_idx_with_threshold,
};
pub use exec::ExecConfig;
pub use plan::{explain_view, plan_chain, ExplainNode, ViewContext};
pub use setops::{difference, intersect, union};
pub use simple::{map, map_index};
pub use subsume::subsume;
pub use view::{
    generate_view_idx, AnnotationView, Combine, IndexResolver, TargetSpec, ViewQuery,
};
