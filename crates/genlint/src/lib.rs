//! genlint — a dependency-free architectural invariant checker for the
//! GenMapper workspace.
//!
//! Clippy and rustc enforce language-level rules; genlint enforces the
//! *workspace conventions* this codebase's correctness arguments lean on
//! (see DESIGN.md §11 and §16):
//!
//! * `vfs-bypass` — durable I/O goes through `relstore::vfs::Vfs` so the
//!   crash-recovery sweeps can fault-inject it,
//! * `no-panic` — core crates stay panic-free on malformed input,
//! * `cache-coherence` — every public mutator bumps the mutation counter
//!   the versioned mapping cache keys on,
//! * `lock-discipline` — nested locks follow one declared order and no
//!   guard is held across a scoped-thread spawn,
//! * `wal-bracket` — group-commit windows close on every path and
//!   relstore write paths sync before returning,
//! * `atomics-discipline` — `Ordering::Relaxed` only on allowlisted
//!   telemetry atomics, never coherence decisions,
//! * `error-swallow` — durable-path crates do not silently discard
//!   `Result`s,
//! * `lock-order-graph` — the *whole-program* lock acquisition graph
//!   (propagated through the cross-file call graph) stays acyclic and
//!   follows the declared order.
//!
//! genlint is std-only on purpose: it runs in the tier-1 gate of an
//! offline container, so it may not cost a single crates.io dependency.
//! Since v2 the rules work on a real token stream ([`lexer`]): every
//! byte of a source file lands in exactly one spanned token classified
//! as code, comment, or literal, which kills the strings-and-comments
//! false-positive class and gives findings precise line:col spans. A
//! lightweight item parser ([`items`]) extracts functions, impl blocks,
//! imports, and call sites per file; the [`graph`] pass links them into
//! a workspace call graph for the cross-file rules.
//!
//! Known findings live in `genlint.toml` as `[[allow]]` entries, each
//! with a mandatory human-written reason. Stale entries (matching
//! nothing) are themselves errors, so the baseline can only shrink.

pub mod config;
pub mod engine;
pub mod graph;
pub mod items;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod source;

pub use engine::{check_file, collect_rs_files, lock_graph, scan, ScanResult};
