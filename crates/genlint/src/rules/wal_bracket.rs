//! R5 `wal-bracket`: group-commit windows close on every path.
//!
//! `begin_group_commit()` flips the store into deferred-sync mode; if an
//! early return (`?` or `return`) escapes the window before
//! `end_group_commit()`, every later commit silently runs without
//! durability. The safe shape — used by `Importer::import` — calls the
//! fallible body, captures its `Result`, ends the window, and only then
//! propagates errors. The rule enforces that shape syntactically: inside
//! a function that calls `begin_group_commit(`, no `?` or `return` may
//! appear between the first `begin` and the last `end`, and the `end`
//! must exist at all.
//!
//! Whether a write path syncs at all, and in which order relative to a
//! rename, is the crash sweeps' to judge (`relstore/tests/crash_sweep.rs`
//! asserts that every acknowledged commit survives every power cut); a
//! token scan cannot see that ordering.

use super::{Finding, Rule};
use crate::config::Config;
use crate::source::SourceFile;

pub struct WalBracket;

impl Rule for WalBracket {
    fn name(&self) -> &'static str {
        "wal-bracket"
    }

    fn description(&self) -> &'static str {
        "begin/end_group_commit pair with no early exit between"
    }

    fn check(&self, file: &SourceFile, _cfg: &Config, out: &mut Vec<Finding>) {
        if file.is_test_file() {
            return;
        }
        for f in &file.functions {
            let Some((body_start, body_end)) = f.body else {
                continue;
            };
            if file.is_test(f.off) {
                continue;
            }
            // the definitions of the bracket itself are not call sites
            if f.name != "begin_group_commit" && f.name != "end_group_commit" {
                self.check_bracket(file, f.name.as_str(), body_start, body_end, out);
            }
        }
    }
}

impl WalBracket {
    fn check_bracket(
        &self,
        file: &SourceFile,
        fn_name: &str,
        body_start: usize,
        body_end: usize,
        out: &mut Vec<Finding>,
    ) {
        let (lo, hi) = file.tokens_in(body_start, body_end);
        let first_begin = (lo..hi).find(|&i| {
            file.tokens[i].text == "begin_group_commit"
                && file.tokens.get(i + 1).map(|t| t.text == "(").unwrap_or(false)
        });
        let Some(begin) = first_begin else {
            return;
        };
        let last_end = (lo..hi).rev().find(|&i| {
            file.tokens[i].text == "end_group_commit"
                && file.tokens.get(i + 1).map(|t| t.text == "(").unwrap_or(false)
        });
        let Some(end) = last_end else {
            out.push(Finding::at(
                self.name(),
                file,
                file.tokens[begin].off,
                format!(
                    "fn {fn_name} calls begin_group_commit() but never end_group_commit(); \
                     the store is left in deferred-sync mode and later commits are not durable"
                ),
            ));
            return;
        };
        for i in begin + 2..end {
            let t = &file.tokens[i];
            if t.text == "?" || (t.is_ident && t.text == "return") {
                out.push(Finding::at(
                    self.name(),
                    file,
                    t.off,
                    format!(
                        "`{}` inside the group-commit window of fn {fn_name} can skip \
                         end_group_commit(); capture the Result, close the window, then \
                         propagate (see Importer::import)",
                        t.text
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(path: &str, src: &str) -> Vec<Finding> {
        let file = SourceFile::parse(path, src);
        let mut out = Vec::new();
        WalBracket.check(&file, &Config::default(), &mut out);
        out
    }

    const SAFE: &str = "fn import(&mut self) -> R<()> {\n\
        self.store.begin_group_commit();\n\
        let body = self.import_body();\n\
        let synced = self.store.end_group_commit();\n\
        body?;\n\
        synced?;\n\
        Ok(())\n\
    }\n";

    #[test]
    fn deferred_propagation_shape_is_clean() {
        assert!(findings("crates/import/src/importer.rs", SAFE).is_empty());
    }

    #[test]
    fn flags_question_mark_inside_window() {
        let src = "fn import(&mut self) -> R<()> {\n\
            self.store.begin_group_commit();\n\
            self.import_body()?;\n\
            self.store.end_group_commit()?;\n\
            Ok(())\n\
        }\n";
        let out = findings("crates/import/src/importer.rs", src);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("skip end_group_commit"));
    }

    #[test]
    fn flags_begin_without_end() {
        let src = "fn oops(&mut self) { self.store.begin_group_commit(); self.work(); }";
        let out = findings("crates/import/src/importer.rs", src);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("never end_group_commit"));
    }

    #[test]
    fn bracket_definitions_are_not_call_sites() {
        let src = "pub fn begin_group_commit(&mut self) { self.deferred = true; }\n\
                   pub fn end_group_commit(&mut self) -> R<()> { self.deferred = false; self.sync() }\n";
        assert!(findings("crates/gam/src/store.rs", src).is_empty());
    }
}
