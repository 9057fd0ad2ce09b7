//! genlint — a dependency-free architectural invariant checker for the
//! GenMapper workspace.
//!
//! Clippy and rustc enforce language-level rules; genlint enforces the
//! *workspace conventions* this codebase's correctness arguments lean on
//! (see DESIGN.md §11 and §16), and only those whose breakage no rustc
//! error, clippy lint or Tier-1 test catches — `tests/mutants.rs` holds
//! each rule to two mutants it alone kills:
//!
//! * `vfs-bypass` — durable I/O goes through `relstore::vfs::Vfs` so the
//!   crash-recovery sweeps can fault-inject it,
//! * `cache-coherence` — every public mutator bumps the mutation counter
//!   the versioned mapping cache keys on,
//! * `lock-discipline` — no declared-lock guard is live at a guard-free
//!   call on the snapshot read path,
//! * `wal-bracket` — group-commit windows close on every path,
//! * `atomics-discipline` — `Ordering::Relaxed` only on allowlisted
//!   telemetry atomics, never coherence decisions,
//! * `error-swallow` — durable-path crates do not silently discard
//!   `Result`s,
//! * `lock-order-graph` — the *whole-program* lock acquisition graph
//!   (propagated through the cross-file call graph) follows the declared
//!   order and never re-takes a held lock; the one place lock nesting is
//!   checked.
//!
//! genlint is std-only on purpose: it runs in the tier-1 gate of an
//! offline container, so it may not cost a single crates.io dependency.
//! Since v2 the rules work on a real token stream ([`lexer`]): every
//! byte of a source file lands in exactly one spanned token classified
//! as code, comment, or literal, which kills the strings-and-comments
//! false-positive class and gives findings precise line:col spans. A
//! lightweight item parser ([`items`]) extracts functions (with their
//! impl type) and call sites per file; the [`graph`] pass links them
//! into a workspace call graph for the lock-order rule.
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

pub use engine::{check_file, collect_rs_files, lock_graph, parse_workspace, scan, scan_files, ScanResult};
