//! `sources` — a synthetic molecular-biological source ecosystem.
//!
//! The paper integrates live public sources (LocusLink, GO, UniGene,
//! Enzyme, OMIM, Hugo, NetAffx, SwissProt, InterPro, genome locations, and
//! ~50 more). Those dumps are not available offline, so this crate builds
//! the closest synthetic equivalent (see DESIGN.md §2):
//!
//! 1. a deterministic, seeded [`Universe`] of loci,
//!    genes, proteins, taxonomy terms and their cross-references — the
//!    ground truth shared by every source, so cross-references between
//!    generated dumps actually line up the way curated web-links do;
//! 2. one module per source that **renders** the universe into that
//!    source's native flat-file dialect (`generate`) and **parses** the
//!    dialect back into an [`eav::EavBatch`] (`parse`), exactly the
//!    source-specific `Parse` step of the paper's §4.1;
//! 3. an [`ecosystem`] builder that produces the whole source collection
//!    at a chosen scale — including generic "satellite" sources — to reach
//!    the paper's deployment numbers (60+ sources, ~2 M objects, ~5 M
//!    associations, 500+ mappings).
//!
//! Each parser is intentionally small ("Parse represents a small portion
//! of source-specific code"), while everything downstream of the EAV
//! staging format is generic.

#![forbid(unsafe_code)]

pub mod dialects;
pub mod ecosystem;
pub mod prng;
pub mod universe;

pub use ecosystem::{Ecosystem, EcosystemParams, LenientParse};
pub use universe::{Universe, UniverseParams};

/// Error raised by source parsers.
#[derive(Debug)]
pub struct ParseError {
    /// Source dialect that failed.
    pub dialect: &'static str,
    /// 1-based line number, when known.
    pub line: Option<usize>,
    /// Description of the problem.
    pub reason: String,
}

impl ParseError {
    pub(crate) fn at(dialect: &'static str, line: usize, reason: impl Into<String>) -> Self {
        ParseError {
            dialect,
            line: Some(line),
            reason: reason.into(),
        }
    }

    pub(crate) fn general(dialect: &'static str, reason: impl Into<String>) -> Self {
        ParseError {
            dialect,
            line: None,
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.line {
            Some(line) => write!(f, "{} parse error at line {line}: {}", self.dialect, self.reason),
            None => write!(f, "{} parse error: {}", self.dialect, self.reason),
        }
    }
}

impl std::error::Error for ParseError {}

/// One input line removed from a dump by lenient parsing.
///
/// Produced by [`ecosystem::SourceDump::parse_lenient`]: instead of failing
/// the whole dump on a malformed record, the offending line is quarantined
/// (up to a caller-chosen budget) and parsing continues without it. The
/// original 1-based line number and a snippet are kept so the operator can
/// locate the record in the raw dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedLine {
    /// 1-based line number in the *original* dump text.
    pub line: usize,
    /// First characters of the offending line (for the report).
    pub snippet: String,
    /// Parser's description of the problem.
    pub reason: String,
}
