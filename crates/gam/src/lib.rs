//! `gam` — the Generic Annotation Model (GAM) of GenMapper.
//!
//! The GAM (Do & Rahm, EDBT 2004, §3 and Figure 4) is a generic,
//! EAV-descended relational model of four tables:
//!
//! | Table        | Contents |
//! |--------------|----------|
//! | `SOURCE`     | a predefined set of objects: a public collection of genes, an ontology, a database schema. Carries `content ∈ {Gene, Protein, Other}` and `structure ∈ {Flat, Network}` plus audit info (release). |
//! | `OBJECT`     | one row per object: source-specific `accession`, optional `text` (e.g. a name), optional `number`. |
//! | `SOURCE_REL` | relationships at source level ("mappings") with `type ∈ {Fact, Similarity, Contains, IsA, Composed, Subsumed}`. |
//! | `OBJECT_REL` | relationships at object level ("associations"), each belonging to a source-level mapping, with an optional `evidence` value. |
//!
//! This crate defines the typed model ([`model`]), the relational schemas
//! ([`schema`]), the [`Mapping`] currency exchanged by
//! the high-level operators, and [`GamStore`] — a typed
//! facade over a [`relstore::Database`] holding the four tables.

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
pub mod error;
pub mod ids;
pub mod index;
pub mod mapping;
pub mod model;
pub mod schema;
pub mod snapshot;
pub mod store;

pub use error::{GamError, GamResult};
pub use ids::{ObjectId, ObjectRelId, SourceId, SourceRelId};
pub use index::{IndexStats, MappingIndex, MappingIndexBuilder};
pub use mapping::{Association, Mapping};
pub use model::{
    GamObject, ObjectRef, RelType, Source, SourceContent, SourceRel, SourceStructure,
};
pub use snapshot::{GamRead, GamSnapshot};
pub use store::{GamCardinalities, GamStore};
