//! `pathfinder` — the source graph and mapping-path discovery.
//!
//! Paper §5.1: "GenMapper internally manages a graph of all available
//! sources and mappings. Using a shortest path algorithm, GenMapper is able
//! to automatically determine a mapping path to traverse from the source to
//! any specified target. The user can also search in the graph for specific
//! paths, for example, with a particular intermediate source. With a high
//! degree of inter-connectivity between the sources, many paths may be
//! possible. Hence, GenMapper also allows the user to manually build and
//! save a path customized for specific analysis requirements."
//!
//! [`SourceGraph`] snapshots the `SOURCE_REL` table; [`graph`] provides
//! BFS shortest paths, quality-weighted Dijkstra, Yen's k-shortest paths,
//! and via-constrained search; [`saved`] keeps named user paths.

#![forbid(unsafe_code)]

pub mod graph;
pub mod saved;

pub use graph::{SourceGraph, WeightScheme};
pub use saved::SavedPaths;
