//! The cross-file call graph: per-function lock summaries and the
//! whole-program lock acquisition graph (`lock-order-graph`) — the one
//! place lock nesting is checked, inside a function or across calls.
//!
//! A deadlock needs two acquisitions of declared locks in an order some
//! other path reverses, or one lock taken again while its guard is live;
//! either may sit in one function or span several. This pass builds,
//! over every prepared file at once:
//!
//! 1. a per-function summary — which declared locks the function
//!    acquires directly (with `lock-discipline`'s acquisition/extent
//!    extraction, so both rules agree on what counts), and which calls it
//!    makes with which locks held,
//! 2. a name-resolved call graph — types are unknown at token level, so
//!    resolution is scoped instead of bare-name: `self.m()` links within
//!    the caller's impl type, `Qual::f()` links to `Qual`'s impls, free
//!    calls link to a workspace-unique free fn, and method calls on any
//!    other receiver never link (a missed edge beats a false cycle),
//! 3. the transitive lock-acquire set of each function (fixpoint over
//!    the call graph),
//! 4. the acquisition *edge set*: lock A → lock B whenever B is acquired
//!    (directly, or transitively through a call) while A's guard is
//!    live — A → A included.
//!
//! Findings, all fail-closed, one per edge:
//!
//! * A → A: a lock re-acquired while its own guard is live, directly or
//!   through a call chain (self-deadlock),
//! * an edge touching a lock missing from the declared `order` —
//!   undeclared nesting is a config hole, not a pass,
//! * an edge against the declared order (inversion) — the classic
//!   cross-file deadlock half; the other half may be three PRs away,
//! * a declared lock never observed in any non-test acquisition — the
//!   config names a lock that no longer exists, so the order it declares
//!   may be fiction.
//!
//! Cycles need no finding of their own: a cycle among declared, distinct
//! locks cannot follow a total order, so one of its edges is already
//! reported as an inversion (or as undeclared).
//!
//! Known limits: calls through closures and function values
//! (`with_writer(|w| ...)`) are invisible to name resolution; the lock
//! uses *inside* the closure body still attribute to the enclosing
//! function, so intra-function nesting survives, but a lock acquired by
//! the closure's *caller* around the callback is not seen as held. Trait-object
//! dispatch on a field (`self.vfs.write(..)`) resolves only when the
//! method name is unique in the workspace — keeping cross-file edges
//! from graph-theoretic names like `get`/`write`/`new` is what makes
//! the zero-false-positive bar reachable.

use std::collections::{BTreeMap, BTreeSet};

use crate::config::Config;
use crate::items::innermost_fns;
use crate::rules::lock_discipline::{find_acquisitions, token_depths};
use crate::rules::{Finding, LOCK_ORDER_GRAPH};
use crate::source::SourceFile;

const RULE: &str = LOCK_ORDER_GRAPH.0;

/// One direct lock acquisition inside a function.
struct LockSite {
    name: String,
    /// Token index of the receiver identifier.
    tok: usize,
    /// Token index one past the guard's extent.
    extent_end: usize,
    off: usize,
}

/// One call site inside a function, with the locks held across it.
struct CallRef {
    callee: String,
    /// Receiver ident for method calls (`self.vfs.write` -> `vfs`).
    recv: Option<String>,
    /// Path qualifier for `Qual::name(...)` calls.
    qual: Option<String>,
    is_method: bool,
    off: usize,
    held: Vec<String>,
}

/// Per-function summary.
struct FnSummary {
    /// Index into the `files` slice.
    file: usize,
    fn_name: String,
    /// Type name of the enclosing impl block, if any.
    impl_type: Option<String>,
    /// Whether the fn is defined inside another fn's body (a local
    /// helper) — never a cross-function resolution target.
    local: bool,
    locks: Vec<LockSite>,
    calls: Vec<CallRef>,
}

/// One observed acquisition-graph edge: `to` acquired while `from` held.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    pub from: String,
    pub to: String,
    /// Workspace-relative path of the witness site.
    pub path: String,
    /// Byte offset of the witness site in that file.
    pub off: usize,
    pub line: usize,
    pub col: usize,
    /// Function the witness sits in.
    pub in_fn: String,
    /// Callee name when the edge crosses a call (None = direct nesting).
    pub via: Option<String>,
}

/// The analyzed workspace: summaries, resolution table, observed edges.
pub struct Analysis {
    /// Observed acquisition edges, deduped by (from, to), first witness
    /// in file order kept.
    pub edges: Vec<Edge>,
    /// Locks (declared in config) observed in at least one non-test
    /// acquisition.
    pub observed_locks: BTreeSet<String>,
    summaries: Vec<FnSummary>,
}

/// Method names that are lock acquisitions, not calls, when the receiver
/// is a declared lock and the argument list is empty.
const LOCK_METHODS: [&str; 3] = ["lock", "read", "write"];

/// Build per-function summaries for one file. Acquisitions and calls are
/// attributed to the *innermost* enclosing function so a nested helper
/// fn does not leak its locks into its parent's summary.
fn summarize_file(file_idx: usize, file: &SourceFile, cfg: &Config, out: &mut Vec<FnSummary>) {
    if file.is_test_file() {
        return;
    }
    let owner_of_call = innermost_fns(&file.functions, file.calls.iter().map(|c| c.off));
    let owner_of_fn = innermost_fns(&file.functions, file.functions.iter().map(|f| f.off));
    for (fi, f) in file.functions.iter().enumerate() {
        let Some((body_start, body_end)) = f.body else {
            continue;
        };
        if file.is_test(f.off) {
            continue;
        }
        let (lo, hi) = file.tokens_in(body_start, body_end);
        let depths = token_depths(file, lo, hi);
        let acqs = find_acquisitions(file, cfg, lo, hi, &depths);
        let owner_of_acq = innermost_fns(&file.functions, acqs.iter().map(|a| file.tokens[a.tok].off));
        let locks: Vec<LockSite> = acqs
            .iter()
            .zip(owner_of_acq)
            .filter(|(_, owner)| *owner == Some(fi))
            .map(|(a, _)| LockSite {
                name: a.name.clone(),
                tok: a.tok,
                extent_end: a.extent_end,
                off: file.tokens[a.tok].off,
            })
            .collect();
        let in_body = file.calls.partition_point(|c| c.tok < lo)..file.calls.partition_point(|c| c.tok < hi);
        let calls: Vec<CallRef> = file.calls[in_body.clone()]
            .iter()
            .zip(&owner_of_call[in_body])
            .filter(|(_, owner)| **owner == Some(fi))
            .map(|(c, _)| c)
            .filter(|c| {
                // an acquisition is not a call
                !(c.args_empty
                    && LOCK_METHODS.contains(&c.callee.as_str())
                    && c.recv
                        .as_deref()
                        .map(|r| cfg.lock_names.iter().any(|n| n == r))
                        .unwrap_or(false))
            })
            .map(|c| CallRef {
                callee: c.callee.clone(),
                recv: c.recv.clone(),
                qual: c.qual.clone(),
                is_method: c.is_method,
                off: c.off,
                held: locks
                    .iter()
                    .filter(|l| l.tok < c.tok && c.tok < l.extent_end)
                    .map(|l| l.name.clone())
                    .collect(),
            })
            .collect();
        out.push(FnSummary {
            file: file_idx,
            fn_name: f.name.clone(),
            impl_type: f.impl_type.clone(),
            local: owner_of_fn[fi].is_some(),
            locks,
            calls,
        });
    }
}

/// Analyze the workspace: build summaries, run the fixpoint, collect the
/// observed edge set.
pub fn analyze(files: &[SourceFile], cfg: &Config) -> Analysis {
    let mut summaries = Vec::new();
    for (i, f) in files.iter().enumerate() {
        summarize_file(i, f, cfg, &mut summaries);
    }
    // name -> summary indexes; local helpers (fns inside fns) are not
    // addressable from other functions, so they are never targets
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, s) in summaries.iter().enumerate() {
        if !s.local {
            by_name.entry(s.fn_name.as_str()).or_default().push(i);
        }
    }
    // Resolve a call to candidate summaries. Token-level analysis has no
    // types, so bare-name resolution would link `Arc::new(..)` to every
    // constructor in the workspace and drown the graph in false edges.
    // Instead:
    //   * `self.m(..)`        -> same impl type as the caller,
    //   * `Qual::f(..)`       -> impl blocks of `Qual` (uppercase) or
    //                            free fns (lowercase module path),
    //   * `recv.m(..)`        -> never: the receiver's type is unknown,
    //                            and even a workspace-unique name can
    //                            shadow a std method (`s.replace(..)` on
    //                            a String vs `Table::replace`),
    //   * `f(..)`             -> only if `f` names exactly one free fn.
    // Skipping ambiguity is the design: a missed edge is recoverable by
    // calling through `self` or a qualified path, a false cycle would
    // make the rule unusable.
    let resolve = |caller_impl: Option<&str>, c: &CallRef| -> Vec<usize> {
        let Some(cands) = by_name.get(c.callee.as_str()) else {
            return Vec::new();
        };
        let with_impl = |t: &str| -> Vec<usize> {
            cands
                .iter()
                .copied()
                .filter(|&i| summaries[i].impl_type.as_deref() == Some(t))
                .collect()
        };
        let unique = |pool: Vec<usize>| -> Vec<usize> {
            if pool.len() == 1 {
                pool
            } else {
                Vec::new()
            }
        };
        if let Some(q) = c.qual.as_deref() {
            if q.chars().next().map(char::is_uppercase).unwrap_or(false) {
                return with_impl(q);
            }
            // module-qualified free fn: `store::open(..)`
            return unique(
                cands
                    .iter()
                    .copied()
                    .filter(|&i| summaries[i].impl_type.is_none())
                    .collect(),
            );
        }
        if c.recv.as_deref() == Some("self") {
            if let Some(t) = caller_impl {
                return with_impl(t);
            }
            // caller outside any impl (fixtures): fall back to uniqueness
            return unique(cands.clone());
        }
        if c.is_method {
            return Vec::new();
        }
        unique(
            cands
                .iter()
                .copied()
                .filter(|&i| summaries[i].impl_type.is_none())
                .collect(),
        )
    };
    // each call's targets, resolved once: per summary, per call
    let targets: Vec<Vec<Vec<usize>>> = summaries
        .iter()
        .map(|s| s.calls.iter().map(|c| resolve(s.impl_type.as_deref(), c)).collect())
        .collect();
    // transitive lock-acquire sets, fixpoint
    let mut trans: Vec<BTreeSet<String>> = summaries
        .iter()
        .map(|s| s.locks.iter().map(|l| l.name.clone()).collect())
        .collect();
    loop {
        let mut changed = false;
        for i in 0..summaries.len() {
            let mut add: BTreeSet<String> = BTreeSet::new();
            for callee in targets[i].iter().flatten() {
                for l in &trans[*callee] {
                    if !trans[i].contains(l) {
                        add.insert(l.clone());
                    }
                }
            }
            if !add.is_empty() {
                trans[i].extend(add);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // observed edges: direct nesting + lock held across a call whose
    // target transitively acquires
    let mut edges: Vec<Edge> = Vec::new();
    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
    let mut push_edge =
        |edges: &mut Vec<Edge>, from: &str, to: &str, file: &SourceFile, off: usize, in_fn: &str, via: Option<&str>| {
            if seen.insert((from.to_owned(), to.to_owned())) {
                edges.push(Edge {
                    from: from.to_owned(),
                    to: to.to_owned(),
                    path: file.rel_path.clone(),
                    off,
                    line: file.line_of(off),
                    col: file.col_of(off),
                    in_fn: in_fn.to_owned(),
                    via: via.map(|v| v.to_owned()),
                });
            }
        };
    let mut observed_locks: BTreeSet<String> = BTreeSet::new();
    for s in &summaries {
        for l in &s.locks {
            observed_locks.insert(l.name.clone());
        }
    }
    for (i, s) in summaries.iter().enumerate() {
        let file = &files[s.file];
        // direct nesting inside one function, re-acquisition included
        for (ai, a) in s.locks.iter().enumerate() {
            for b in &s.locks[ai + 1..] {
                if b.tok < a.extent_end {
                    push_edge(&mut edges, &a.name, &b.name, file, b.off, &s.fn_name, None);
                }
            }
        }
        // held across a call into a transitively-acquiring function
        for (c, callees) in s.calls.iter().zip(&targets[i]) {
            if c.held.is_empty() {
                continue;
            }
            let acquired: BTreeSet<&str> =
                callees.iter().flat_map(|&t| trans[t].iter().map(String::as_str)).collect();
            for h in &c.held {
                for l in &acquired {
                    push_edge(&mut edges, h, l, file, c.off, &s.fn_name, Some(&c.callee));
                }
            }
        }
    }
    Analysis {
        edges,
        observed_locks,
        summaries,
    }
}

/// Lock-order-graph findings over an analysis.
pub fn lock_order_findings(a: &Analysis, cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    if cfg.lock_names.is_empty() {
        return out;
    }
    let pos = |n: &str| cfg.lock_order.iter().position(|o| o == n);
    for e in &a.edges {
        let mk = |message: String| Finding {
            rule: RULE,
            path: e.path.clone(),
            line: e.line,
            col: e.col,
            message,
        };
        let via = e
            .via
            .as_deref()
            .map(|v| format!(" through the call to {v}()"))
            .unwrap_or_default();
        if e.from == e.to {
            out.push(mk(format!(
                "lock `{}` re-acquired{via} while its own guard is live in fn {} \
                 (self-deadlock)",
                e.from, e.in_fn
            )));
            continue;
        }
        match (pos(&e.from), pos(&e.to)) {
            (Some(pf), Some(pt)) if pt > pf => {}
            (Some(_), Some(_)) => out.push(mk(format!(
                "whole-program acquisition order inverted: lock `{}` taken{via} while \
                 `{}` is held in fn {}, against the declared [lock-discipline] order",
                e.to, e.from, e.in_fn
            ))),
            _ => out.push(mk(format!(
                "acquisition edge `{}` -> `{}`{via} in fn {} involves a lock missing \
                 from the declared [lock-discipline] order — declare it (fail closed)",
                e.from, e.to, e.in_fn
            ))),
        }
    }
    // fail closed: a declared lock that is never observed means the
    // config (and therefore the declared order) has rotted
    for name in &cfg.lock_names {
        if !a.observed_locks.contains(name) {
            out.push(Finding {
                rule: RULE,
                path: "genlint.toml".to_owned(),
                line: 1,
                col: 0,
                message: format!(
                    "declared lock `{name}` is never acquired in non-test code — the \
                     [lock-discipline] config is out of date; remove it or fix the name"
                ),
            });
        }
    }
    out
}

/// Run the workspace pass: the lock-order-graph findings.
pub fn check_workspace(files: &[SourceFile], cfg: &Config) -> Vec<Finding> {
    lock_order_findings(&analyze(files, cfg), cfg)
}

/// Human-readable dump of the observed acquisition graph (the
/// `--lock-graph` CLI surface).
pub fn render_graph(a: &Analysis) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "observed locks: {}\n",
        a.observed_locks
            .iter()
            .map(|l| l.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    s.push_str(&format!(
        "functions summarized: {}\n",
        a.summaries.len()
    ));
    if a.edges.is_empty() {
        s.push_str("no acquisition edges observed\n");
    }
    for e in &a.edges {
        let via = e
            .via
            .as_deref()
            .map(|v| format!(" via {v}()"))
            .unwrap_or_default();
        s.push_str(&format!(
            "{} -> {}  [{}:{}:{} in fn {}{}]\n",
            e.from, e.to, e.path, e.line, e.col, e.in_fn, via
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> Config {
        Config {
            lock_names: vec!["pool".into(), "state".into()],
            lock_order: vec!["pool".into(), "state".into()],
            ..Config::default()
        }
    }

    fn parse_all(files: &[(&str, &str)]) -> Vec<SourceFile> {
        files
            .iter()
            .map(|(p, s)| SourceFile::parse(p, s))
            .collect()
    }

    const CALLEE_TAKES_STATE: &str =
        "impl Pager { pub fn write_page(&self, d: &[u8]) { let s = self.state.lock(); s.push(d); } }";

    #[test]
    fn cross_file_edge_in_declared_order_is_clean() {
        // caller holds pool, callee takes state: pool -> state, declared
        let files = parse_all(&[
            (
                "crates/a/src/caller.rs",
                "impl Pager { pub fn flush(&self) { let g = self.pool.lock(); \
                 self.write_page(g.buf); } }",
            ),
            ("crates/b/src/callee.rs", CALLEE_TAKES_STATE),
        ]);
        let a = analyze(&files, &cfg());
        assert_eq!(a.edges.len(), 1, "{:?}", a.edges);
        assert_eq!((a.edges[0].from.as_str(), a.edges[0].to.as_str()), ("pool", "state"));
        assert_eq!(a.edges[0].via.as_deref(), Some("write_page"));
        assert!(lock_order_findings(&a, &cfg()).is_empty());
    }

    #[test]
    fn inverted_cross_file_edge_is_reported() {
        // caller holds state, callee takes pool: state -> pool, inverted
        let files = parse_all(&[
            (
                "crates/a/src/caller.rs",
                "pub fn flush(&self) { let g = self.state.lock(); self.relabel(g.buf); }",
            ),
            (
                "crates/b/src/callee.rs",
                "pub fn relabel(&self, d: &[u8]) { let p = self.pool.lock(); p.push(d); }",
            ),
        ]);
        let a = analyze(&files, &cfg());
        let findings = lock_order_findings(&a, &cfg());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("inverted"), "{findings:?}");
        assert_eq!(findings[0].path, "crates/a/src/caller.rs");
    }

    #[test]
    fn opposite_nesting_in_two_functions_is_reported_once() {
        let files = parse_all(&[
            (
                "crates/a/src/one.rs",
                "pub fn ab(&self) { let a = self.pool.lock(); let b = self.state.lock(); go(a, b); }",
            ),
            (
                "crates/b/src/two.rs",
                "pub fn ba(&self) { let b = self.state.lock(); let a = self.pool.lock(); go(a, b); }",
            ),
        ]);
        let a = analyze(&files, &cfg());
        let findings = lock_order_findings(&a, &cfg());
        // the pair is a cycle; its inverted edge (ba) is the one finding
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("inverted"), "{findings:?}");
        assert_eq!(findings[0].path, "crates/b/src/two.rs");
    }

    #[test]
    fn direct_reacquire_is_an_edge_and_a_finding() {
        let files = parse_all(&[(
            "crates/a/src/x.rs",
            "pub fn f(&self) { let g = self.pool.lock(); let h = self.pool.lock(); go(g, h); }\n\
             pub fn released(&self) { let g = self.pool.lock(); drop(g); self.pool.lock().bump(); }\n\
             pub fn scoped(&self) { { let r = self.pool.read(); r.peek(); } let w = self.pool.write(); }",
        )]);
        let cfg = Config {
            lock_names: vec!["pool".into()],
            lock_order: vec!["pool".into()],
            ..Config::default()
        };
        let a = analyze(&files, &cfg);
        assert_eq!(a.edges.len(), 1, "{:?}", a.edges);
        assert_eq!((a.edges[0].from.as_str(), a.edges[0].to.as_str()), ("pool", "pool"));
        assert_eq!(a.edges[0].in_fn, "f");
        let findings = lock_order_findings(&a, &cfg);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("re-acquired"), "{findings:?}");
    }

    #[test]
    fn transitive_self_reacquire_is_reported() {
        let files = parse_all(&[(
            "crates/a/src/x.rs",
            "pub fn outer(&self) { let g = self.pool.lock(); self.inner_step(); }\n\
             pub fn inner_step(&self) { let g = self.pool.lock(); g.bump(); }",
        )]);
        let a = analyze(&files, &cfg());
        let findings = lock_order_findings(&a, &cfg());
        assert!(
            findings.iter().any(|f| f.message.contains("re-acquired")),
            "{findings:?}"
        );
    }

    #[test]
    fn undeclared_lock_and_unobserved_lock_fail_closed() {
        let cfg2 = Config {
            lock_names: vec!["pool".into(), "state".into(), "ghost".into()],
            lock_order: vec!["pool".into()],
            ..Config::default()
        };
        let files = parse_all(&[(
            "crates/a/src/x.rs",
            "pub fn f(&self) { let g = self.pool.lock(); let s = self.state.lock(); go(g, s); }",
        )]);
        let a = analyze(&files, &cfg2);
        let findings = lock_order_findings(&a, &cfg2);
        assert!(
            findings.iter().any(|f| f.message.contains("missing")),
            "undeclared-order edge: {findings:?}"
        );
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains("`ghost`") && f.message.contains("never acquired")),
            "unobserved declared lock: {findings:?}"
        );
    }

    #[test]
    fn held_lock_released_before_call_makes_no_edge() {
        let files = parse_all(&[
            (
                "crates/a/src/caller.rs",
                "impl Pager { pub fn flush(&self) { { let g = self.pool.lock(); g.seal(); } \
                 self.write_page(b); } }",
            ),
            ("crates/b/src/callee.rs", CALLEE_TAKES_STATE),
        ]);
        let a = analyze(&files, &cfg());
        assert!(a.edges.is_empty(), "{:?}", a.edges);
    }

    #[test]
    fn nested_fn_locks_do_not_leak_into_parent_summary() {
        let files = parse_all(&[(
            "crates/a/src/x.rs",
            "pub fn outer(&self) { fn helper(s: &S) { let g = s.state.lock(); g.push(1); } \
             let p = self.pool.lock(); p.bump(); }",
        )]);
        let a = analyze(&files, &cfg());
        // pool is held only after helper's body; no pool -> state edge
        assert!(a.edges.is_empty(), "{:?}", a.edges);
    }
}
