//! The rule registry.
//!
//! Each rule is a pure function over one prepared [`SourceFile`] plus the
//! [`Config`]; rules never do I/O. A rule reports [`Finding`]s with the
//! workspace-relative path, a 1-based line:col, and a message that says
//! what invariant broke and how to restore it. Baseline filtering happens
//! in the driver ([`crate::engine::scan_files`]), not here — rules always report the
//! truth. The cross-file `lock-order-graph` pass lives in
//! [`crate::graph`] because it needs every file's summary at once; it
//! still reports through the same [`Finding`] type.

pub mod atomics_discipline;
pub mod cache_coherence;
pub mod error_swallow;
pub mod lock_discipline;
pub mod vfs_bypass;
pub mod wal_bracket;

use crate::config::Config;
use crate::source::SourceFile;

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (`vfs-bypass`, `error-swallow`, ...).
    pub rule: &'static str,
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based byte column; 0 when the finding has no precise position
    /// (whole-file config-rot findings, stale baseline entries).
    pub col: usize,
    pub message: String,
}

impl Finding {
    /// A finding anchored at byte offset `off` of `file`.
    pub fn at(rule: &'static str, file: &SourceFile, off: usize, message: String) -> Finding {
        Finding {
            rule,
            path: file.rel_path.clone(),
            line: file.line_of(off),
            col: file.col_of(off),
            message,
        }
    }

    /// A finding about the file as a whole (config rot, missing seams).
    pub fn whole_file(rule: &'static str, file: &SourceFile, message: String) -> Finding {
        Finding {
            rule,
            path: file.rel_path.clone(),
            line: 1,
            col: 0,
            message,
        }
    }
}

/// A workspace invariant check.
pub trait Rule {
    /// Stable rule identifier used in reports and `[[allow]]` entries.
    fn name(&self) -> &'static str;
    /// One-line description for `--list-rules` and reports.
    fn description(&self) -> &'static str;
    /// Check one file, appending findings.
    fn check(&self, file: &SourceFile, cfg: &Config, out: &mut Vec<Finding>);
}

/// All per-file rules, in report order.
pub fn registry() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(vfs_bypass::VfsBypass),
        Box::new(cache_coherence::CacheCoherence),
        Box::new(lock_discipline::LockDiscipline),
        Box::new(wal_bracket::WalBracket),
        Box::new(atomics_discipline::AtomicsDiscipline),
        Box::new(error_swallow::ErrorSwallow),
    ]
}

/// Name and description of the cross-file pass (reported alongside the
/// per-file rules but driven from [`crate::graph`]).
pub const LOCK_ORDER_GRAPH: (&str, &str) = (
    "lock-order-graph",
    "no held lock re-taken, nesting follows the declared order — in a fn or across calls",
);

/// Rule names in report order (per-file rules plus the graph pass).
pub fn rule_names() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = registry().iter().map(|r| r.name()).collect();
    names.push(LOCK_ORDER_GRAPH.0);
    names
}
