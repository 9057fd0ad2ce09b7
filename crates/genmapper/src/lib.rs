//! `genmapper` — the public facade of the GenMapper reproduction.
//!
//! One handle, [`GenMapper`], wires together the whole system of Do & Rahm
//! (EDBT 2004):
//!
//! * the GAM database ([`gam::GamStore`] over the embedded `relstore`
//!   engine),
//! * the two-phase import pipeline (`sources` parsers → `import`),
//! * the high-level operators (`operators`: Map, Compose, Subsume,
//!   GenerateView),
//! * automatic mapping-path discovery (`pathfinder`), and
//! * name/accession-level queries with exportable annotation views — the
//!   workflow of the interactive interface in the paper's Figure 6.
//!
//! # Quickstart
//!
//! ```
//! use genmapper::{GenMapper, QuerySpec};
//! use sources::ecosystem::{Ecosystem, EcosystemParams};
//!
//! // generate and integrate a small synthetic source ecosystem
//! let eco = Ecosystem::generate(EcosystemParams::demo(7));
//! let mut gm = GenMapper::in_memory().unwrap();
//! gm.import_dumps(&eco.dumps).unwrap();
//!
//! // the annotation view of paper Figure 3: LocusLink genes with their
//! // Hugo symbols, GO functions, locations and OMIM diseases
//! let spec = QuerySpec::source("LocusLink")
//!     .accessions(["353"])
//!     .target("Hugo")
//!     .target("GO")
//!     .target("Location")
//!     .target("OMIM");
//! let view = gm.query(&spec).unwrap();
//! assert!(view.rows.iter().any(|r| r.cell_text(1) == Some("APRT")));
//! ```

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
pub mod cli;
pub mod query;
pub mod resolved;
pub mod shared;
pub mod snapshot;
pub mod system;

pub use query::{QuerySpec, TargetQuery};
pub use resolved::{ExportFormat, ObjectInfo, ResolvedRow, ResolvedView};
pub use shared::{ImportStatus, SharedGenMapper, WritePermit};
pub use snapshot::Snapshot;
pub use system::GenMapper;

pub use gam::{GamError, GamResult};
pub use operators::{Combine, ExecConfig};
