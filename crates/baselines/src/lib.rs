//! `baselines` — the comparison systems implied by the paper's §1.
//!
//! GenMapper's claims are architectural; to give the benchmark harness
//! something to compare against, this crate implements the two designs the
//! paper positions itself against:
//!
//! * [`srs`] — an SRS/DBGET-style store: "each source is replicated
//!   locally as is, parsed and indexed, resulting in a set of queryable
//!   attributes for the corresponding source. While a uniform query
//!   interface is provided ... join queries over multiple sources are not
//!   possible. Cross-references can be utilized for interactive
//!   navigation, but not for the generation and analysis of annotation
//!   profiles." Multi-source questions must be answered by client-side
//!   link navigation, one hop at a time.
//! * [`star`] — a conventional warehouse with an **application-specific
//!   global schema** (a gene-centric star schema). Fast for the queries
//!   the schema anticipated, but integrating a source the schema did not
//!   anticipate requires schema evolution and a rebuild — the maintenance
//!   cost the generic GAM avoids.
//!
//! It also holds the test oracle for GenMapper's own operators:
//!
//! * [`naive`] — the mapping algebra (`Map`, `Compose`, `GenerateView`)
//!   written as nested loops over `gam`'s data types, with no dependency
//!   on the `operators` crate whose executor is checked against it.

#![forbid(unsafe_code)]

pub mod naive;
pub mod srs;
pub mod star;

pub use srs::{Navigation, SrsStore};
pub use star::{StarError, StarWarehouse};
