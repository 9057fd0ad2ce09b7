//! R4 `lock-discipline`: no declared-lock guard is live at a guard-free
//! call.
//!
//! Locks are *declared* in `genlint.toml` (`[lock-discipline] locks`,
//! matched by receiver name) together with a single global acquisition
//! order. How declared locks nest — one lock above another, or the same
//! lock re-taken while its guard lives — is checked once, by the
//! whole-program [`crate::graph`] pass, whether the nesting sits inside
//! one function or spans a call chain. This rule keeps the one check the
//! graph cannot make, the MVCC snapshot-coherence check:
//!
//! * `guard_free_calls` names functions (the shared query executor, the
//!   service request handler) that must never run with a declared-lock
//!   guard live — readers answer from a cloned `Arc<Snapshot>`, so a
//!   guard spanning them would serialize readers behind the writer.
//!
//! A guard held across a scoped-thread `spawn`, and a read-path entry
//! point regressing to `&mut self`, are not checked: rustc rejects both
//! shapes in this workspace (E0505, E0596 — ISSUE 25's mutant table).
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
/// the same extraction so both rules agree on what counts as an
/// acquisition.
pub(crate) struct Acquisition {
    /// Token index of the receiver identifier.
    pub(crate) tok: usize,
    /// Lock name (receiver's last path segment).
    pub(crate) name: String,
    /// Token index one past the end of the guard's lifetime.
    pub(crate) extent_end: usize,
}

impl Rule for LockDiscipline {
    fn name(&self) -> &'static str {
        "lock-discipline"
    }

    fn description(&self) -> &'static str {
        "no declared-lock guard is live at a guard-free call (the snapshot read path)"
    }

    fn check(&self, file: &SourceFile, cfg: &Config, out: &mut Vec<Finding>) {
        if file.is_test_file() || cfg.lock_names.is_empty() || cfg.guard_free_calls.is_empty() {
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
            for a in find_acquisitions(file, cfg, lo, hi, &depths) {
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
        // name . lock|read|write ( ), name a declared lock
        let t = &file.tokens[i];
        if i + 4 >= hi
            || file.tokens[i + 1].text != "."
            || !matches!(file.tokens[i + 2].text.as_str(), "lock" | "read" | "write")
            || file.tokens[i + 3].text != "("
            || file.tokens[i + 4].text != ")"
            || !cfg.lock_names.contains(&t.text)
        {
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
    fn io_write_calls_and_undeclared_receivers_are_not_acquisitions() {
        let src = "fn f() { file.write(buf); stdin.lock(); self.cache.read().len(); }";
        let file = SourceFile::parse("crates/x/src/a.rs", src);
        let (lo, hi) = (0, file.tokens.len());
        let acqs = find_acquisitions(&file, &cfg(), lo, hi, &token_depths(&file, lo, hi));
        let names: Vec<&str> = acqs.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, ["cache"]);
        // a temporary guard dies at the end of its statement
        assert_eq!(file.tokens[acqs[0].extent_end].text, ";");
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
        assert!(findings(
            "fn f() { let g = self.state.lock(); drop(g); handle_request(shared, line); }"
        )
        .is_empty());
        // a temporary guard in an earlier statement is dead at the call
        assert!(findings(
            "fn f() { self.cache.write().clear(); handle_request(shared, line); }"
        )
        .is_empty());
    }
}
