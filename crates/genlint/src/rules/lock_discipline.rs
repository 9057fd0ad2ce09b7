//! R4 `lock-discipline`: nested lock acquisitions follow one declared
//! order, and no guard is held across a scoped-thread spawn.
//!
//! A deadlock needs only two functions that nest the same two locks in
//! opposite orders, or one guard held while `scope.spawn` fans out workers
//! that want it. Locks are *declared* in `genlint.toml`
//! (`[lock-discipline] locks`, matched by receiver name) together with a
//! single global acquisition order; the rule flags, within one function:
//!
//! * nested acquisition of two declared locks that contradicts the order
//!   (or involves a lock missing from the order list — fail closed),
//! * nested re-acquisition of the same lock (self-deadlock),
//! * a `let`-bound guard of a declared lock still live at a `spawn(`
//!   call (release it, or `drop(guard)` first).
//!
//! The MVCC snapshot layer (PR 7) adds two *snapshot coherence* checks,
//! both configured in the same `[lock-discipline]` section:
//!
//! * `guard_free_calls` names functions (the shared query executor, the
//!   service request handler) that must never run with a declared-lock
//!   guard live — readers answer from a cloned `Arc<Snapshot>`, so a
//!   guard spanning them would serialize readers behind the writer,
//! * `[[lock-discipline.read-entries]]` declares per-file method lists
//!   that are read-path entry points and must take `&self`; a method
//!   that regresses to `&mut self` (or disappears while still listed)
//!   is an error.
//!
//! Acquisitions are `name.lock()` / `name.read()` / `name.write()` with
//! empty argument lists, so `io::Write::write(buf)` and friends never
//! match. Guard lifetime is approximated by lexical scope: a `let`-bound
//! guard lives to the end of its enclosing block or an explicit
//! `drop(name)`, a temporary to the end of its statement.

use super::{Finding, Rule};
use crate::config::Config;
use crate::source::SourceFile;

pub struct LockDiscipline;

/// One declared-lock acquisition, with its guard's lexical extent.
/// Shared with [`crate::graph`], which builds per-function summaries on
/// the same extraction so the per-file and whole-program views cannot
/// disagree about what counts as an acquisition.
pub(crate) struct Acquisition {
    /// Token index of the receiver identifier.
    pub(crate) tok: usize,
    /// Lock name (receiver's last path segment).
    pub(crate) name: String,
    /// Token index one past the end of the guard's lifetime.
    pub(crate) extent_end: usize,
    /// Binding name when `let`-bound.
    pub(crate) binding: Option<String>,
}

impl Rule for LockDiscipline {
    fn name(&self) -> &'static str {
        "lock-discipline"
    }

    fn description(&self) -> &'static str {
        "nested declared locks follow the configured order; no guard held across spawn()"
    }

    fn check(&self, file: &SourceFile, cfg: &Config, out: &mut Vec<Finding>) {
        if file.is_test_file() {
            return;
        }
        check_read_entries(self.name(), file, cfg, out);
        if cfg.lock_names.is_empty() {
            return;
        }
        for f in &file.functions {
            let Some((body_start, body_end)) = f.body else {
                continue;
            };
            if file.is_test(f.off) {
                continue;
            }
            let (lo, hi) = file.tokens_in(body_start, body_end);
            let depths = token_depths(file, lo, hi);
            let acquisitions = find_acquisitions(file, cfg, lo, hi, &depths);
            for (ai, a) in acquisitions.iter().enumerate() {
                // guard held across a spawn
                if a.binding.is_some() {
                    for i in a.tok + 1..a.extent_end {
                        if file.tokens[i].text == "spawn"
                            && file.tokens[i].is_ident
                            && file.tokens.get(i + 1).map(|t| t.text == "(").unwrap_or(false)
                        {
                            out.push(Finding::at(
                                self.name(),
                                file,
                                file.tokens[i].off,
                                format!(
                                    "guard of lock `{}` (bound in fn {}) is still live at this \
                                     spawn(); workers contending for it deadlock — drop the \
                                     guard before fanning out",
                                    a.name, f.name
                                ),
                            ));
                            break;
                        }
                    }
                }
                // guard held across a declared guard-free call
                for i in a.tok + 1..a.extent_end {
                    let t = &file.tokens[i];
                    if t.is_ident
                        && cfg.guard_free_calls.iter().any(|n| n == &t.text)
                        && file.tokens.get(i + 1).map(|x| x.text == "(").unwrap_or(false)
                    {
                        out.push(Finding::at(
                            self.name(),
                            file,
                            t.off,
                            format!(
                                "guard of lock `{}` is still live at this call to {}() in \
                                 fn {}; snapshot read paths run guard-free — clone the \
                                 published Arc and drop the guard first",
                                a.name, t.text, f.name
                            ),
                        ));
                        break;
                    }
                }
                // nested acquisitions
                for b in &acquisitions[ai + 1..] {
                    if b.tok >= a.extent_end {
                        break;
                    }
                    if b.name == a.name {
                        out.push(Finding::at(
                            self.name(),
                            file,
                            file.tokens[b.tok].off,
                            format!(
                                "lock `{}` re-acquired in fn {} while its own guard is live \
                                 (self-deadlock)",
                                a.name, f.name
                            ),
                        ));
                        continue;
                    }
                    let pos_a = cfg.lock_order.iter().position(|n| n == &a.name);
                    let pos_b = cfg.lock_order.iter().position(|n| n == &b.name);
                    match (pos_a, pos_b) {
                        (Some(pa), Some(pb)) if pb > pa => {}
                        (Some(_), Some(_)) => out.push(Finding::at(
                            self.name(),
                            file,
                            file.tokens[b.tok].off,
                            format!(
                                "lock `{}` acquired while holding `{}` in fn {}, against the \
                                 declared order in genlint.toml [lock-discipline]",
                                b.name, a.name, f.name
                            ),
                        )),
                        _ => out.push(Finding::at(
                            self.name(),
                            file,
                            file.tokens[b.tok].off,
                            format!(
                                "nested locks `{}` then `{}` in fn {} but at least one is \
                                 missing from the declared order — add both to \
                                 [lock-discipline] order",
                                a.name, b.name, f.name
                            ),
                        )),
                    }
                }
            }
        }
    }
}

/// Enforce declared read-path entry sets: every listed method in the
/// file must exist and take `&self`. Fail closed both ways — a listed
/// method that regressed to `&mut self` breaks the MVCC read path, and
/// a listed method that no longer exists means the config rotted.
fn check_read_entries(
    rule: &'static str,
    file: &SourceFile,
    cfg: &Config,
    out: &mut Vec<Finding>,
) {
    for set in cfg.read_entries.iter().filter(|s| s.file == file.rel_path) {
        for method in &set.methods {
            let mut found = false;
            for f in file.functions.iter().filter(|f| &f.name == method) {
                if file.is_test(f.off) {
                    continue;
                }
                found = true;
                if file.fn_takes_mut_self(f.off) {
                    out.push(Finding::at(
                        rule,
                        file,
                        f.off,
                        format!(
                            "read-path entry point {method}() takes &mut self; snapshot \
                             readers must share it with &self (declared in genlint.toml \
                             [[lock-discipline.read-entries]])"
                        ),
                    ));
                }
            }
            if !found {
                out.push(Finding::whole_file(
                    rule,
                    file,
                    format!(
                        "read-entry `{method}` matches no fn in this file — genlint.toml \
                         [[lock-discipline.read-entries]] is out of date"
                    ),
                ));
            }
        }
    }
}

/// Brace depth of each token in `[lo, hi)`, relative to the body.
pub(crate) fn token_depths(file: &SourceFile, lo: usize, hi: usize) -> Vec<i32> {
    let mut depths = Vec::with_capacity(hi - lo);
    let mut d = 0i32;
    for i in lo..hi {
        match file.tokens[i].text.as_str() {
            "{" => {
                depths.push(d);
                d += 1;
            }
            "}" => {
                d -= 1;
                depths.push(d);
            }
            _ => depths.push(d),
        }
    }
    depths
}

/// Declared-lock acquisitions in `[lo, hi)`, in token order.
pub(crate) fn find_acquisitions(
    file: &SourceFile,
    cfg: &Config,
    lo: usize,
    hi: usize,
    depths: &[i32],
) -> Vec<Acquisition> {
    let mut out = Vec::new();
    for i in lo..hi {
        let t = &file.tokens[i];
        if !t.is_ident || !cfg.lock_names.iter().any(|n| n == &t.text) {
            continue;
        }
        // name . lock|read|write ( )
        if i + 4 >= hi
            || file.tokens[i + 1].text != "."
            || file.tokens[i + 3].text != "("
            || file.tokens[i + 4].text != ")"
        {
            continue;
        }
        let method = file.tokens[i + 2].text.as_str();
        if !matches!(method, "lock" | "read" | "write") {
            continue;
        }
        let binding = find_let_binding(file, lo, i);
        let depth = depths[i - lo];
        let extent_end = if binding.is_some() {
            // end of the enclosing block, or an explicit drop(binding)
            let mut end = hi;
            for j in i + 1..hi {
                if file.tokens[j].text == "}" && depths[j - lo] < depth {
                    end = j;
                    break;
                }
            }
            if let Some(name) = &binding {
                for j in i + 1..end {
                    if file.tokens[j].text == "drop"
                        && file.tokens[j].is_ident
                        && file.seq_matches(j + 1, &["(", name, ")"])
                    {
                        end = j;
                        break;
                    }
                }
            }
            end
        } else {
            // temporary guard: dies at the end of its statement
            (i + 1..hi)
                .find(|&j| file.tokens[j].text == ";" && depths[j - lo] <= depth)
                .unwrap_or(hi)
        };
        out.push(Acquisition {
            tok: i,
            name: t.text.clone(),
            extent_end,
            binding,
        });
    }
    out
}

/// Binding name if the statement containing token `i` starts with `let`.
fn find_let_binding(file: &SourceFile, lo: usize, i: usize) -> Option<String> {
    let mut j = i;
    while j > lo {
        j -= 1;
        match file.tokens[j].text.as_str() {
            ";" | "{" | "}" => return None,
            "let" => {
                let mut k = j + 1;
                if file.tokens.get(k).map(|t| t.text == "mut").unwrap_or(false) {
                    k += 1;
                }
                return file.tokens.get(k).map(|t| t.text.clone());
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> Config {
        Config {
            lock_names: vec!["cache".into(), "state".into(), "table".into()],
            lock_order: vec!["state".into(), "cache".into(), "table".into()],
            guard_free_calls: vec!["run_query".into(), "handle_request".into()],
            ..Config::default()
        }
    }

    fn findings(src: &str) -> Vec<Finding> {
        let file = SourceFile::parse("crates/x/src/a.rs", src);
        let mut out = Vec::new();
        LockDiscipline.check(&file, &cfg(), &mut out);
        out
    }

    #[test]
    fn clean_on_ordered_nesting_and_scoped_release() {
        // declared order state -> cache
        assert!(findings(
            "fn f() { let a = self.state.lock(); let b = self.cache.write(); use_both(a, b); }"
        )
        .is_empty());
        // read released in an inner block before the write (the
        // ln_factorial pattern)
        assert!(findings(
            "fn f() { { let r = table.read(); if ok(r) { return; } } let w = table.write(); }"
        )
        .is_empty());
    }

    #[test]
    fn flags_order_violation_and_same_lock_reentry() {
        let out = findings(
            "fn f() { let a = self.cache.write(); let b = self.state.lock(); go(a, b); }",
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("against the declared order"));
        let out = findings("fn f() { let a = table.read(); let b = table.write(); go(a, b); }");
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("re-acquired"));
    }

    #[test]
    fn flags_guard_held_across_spawn_unless_dropped() {
        let src = "fn f() { let g = self.state.lock(); scope.spawn(move || work()); }";
        let out = findings(src);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("spawn"));
        let src = "fn f() { let g = self.state.lock(); drop(g); scope.spawn(move || work()); }";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn io_write_calls_and_undeclared_receivers_do_not_match() {
        assert!(findings("fn f() { file.write(buf); stdin.lock(); }").is_empty());
        // temporary guards die at their statement
        assert!(findings("fn f() { self.cache.read().len(); self.cache.write().clear(); }")
            .is_empty());
    }

    #[test]
    fn flags_guard_live_at_guard_free_call() {
        let out = findings(
            "fn f() { let g = self.cache.read(); let v = run_query(g, spec); v }",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("run_query"));
        assert!(out[0].message.contains("guard-free"));
        // released before the call: clean
        assert!(findings(
            "fn f() { let s = { self.cache.read().clone() }; run_query(s, spec) }"
        )
        .is_empty());
        // a temporary guard in an earlier statement is dead at the call
        assert!(findings(
            "fn f() { self.cache.write().clear(); handle_request(shared, line); }"
        )
        .is_empty());
    }

    #[test]
    fn read_entries_must_take_shared_self() {
        use crate::config::ReadEntrySet;
        let cfg2 = Config {
            read_entries: vec![ReadEntrySet {
                file: "crates/x/src/a.rs".into(),
                methods: vec!["query".into(), "find_path".into(), "gone".into()],
            }],
            ..Config::default()
        };
        let src = "impl S {\n\
                   pub fn query(&self) {}\n\
                   pub fn find_path(&mut self) {}\n\
                   }\n";
        let file = SourceFile::parse("crates/x/src/a.rs", src);
        let mut out = Vec::new();
        LockDiscipline.check(&file, &cfg2, &mut out);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().any(|f| f.message.contains("find_path()")
            && f.message.contains("&mut self")));
        assert!(out
            .iter()
            .any(|f| f.message.contains("`gone`") && f.message.contains("out of date")));
        // the same config against a different file is silent
        let other = SourceFile::parse("crates/x/src/b.rs", src);
        let mut out = Vec::new();
        LockDiscipline.check(&other, &cfg2, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn undeclared_order_fails_closed() {
        let cfg2 = Config {
            lock_names: vec!["cache".into(), "state".into()],
            lock_order: vec![],
            ..Config::default()
        };
        let file = SourceFile::parse(
            "crates/x/src/a.rs",
            "fn f() { let a = self.state.lock(); let b = self.cache.write(); go(a, b); }",
        );
        let mut out = Vec::new();
        LockDiscipline.check(&file, &cfg2, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("missing from the declared order"));
    }
}
