//! R9 `error-swallow`: durable-path crates must not discard `Result`s.
//!
//! A fallible call whose error is silently dropped turns an I/O failure
//! into wrong-but-plausible data — a sync that never happened reads as
//! one that did. In the configured crates (the durable path: relstore,
//! import), non-test code may not:
//!
//! * bind a call's result to `_` (`let _ = f.sync_all();`) — the one
//!   shape that compiles away a `#[must_use]` `Result` without a trace,
//! * discard via a bare `.ok();` statement — same effect, dressed up.
//!
//! `unwrap_or`-style defaulting of a `Result` is not checked: a token
//! scan cannot tell a `Result` from an `Option`, and the cross-file call
//! resolver that tried caught one such mutant in three (ISSUE 25's table).
//!
//! Deliberate discards stay possible: match on the `Result`, log the
//! error, or add a justified `[[allow]]` entry (the baseline mechanism
//! already forces a written reason).

use super::{Finding, Rule};
use crate::config::Config;
use crate::source::SourceFile;

pub struct ErrorSwallow;

/// Crate name of a `crates/<name>/...` path, if any.
fn crate_of(rel_path: &str) -> Option<&str> {
    rel_path.strip_prefix("crates/")?.split('/').next()
}

/// Whether `file` is scoped for the error-swallow rule.
fn in_scope(file: &SourceFile, cfg: &Config) -> bool {
    crate_of(&file.rel_path)
        .map(|k| cfg.error_swallow_crates.iter().any(|c| c == k))
        .unwrap_or(false)
        && !file.is_test_file()
}

impl Rule for ErrorSwallow {
    fn name(&self) -> &'static str {
        "error-swallow"
    }

    fn description(&self) -> &'static str {
        "durable-path crates must not discard Results via `let _ =` or a bare `.ok()`"
    }

    fn check(&self, file: &SourceFile, cfg: &Config, out: &mut Vec<Finding>) {
        if !in_scope(file, cfg) {
            return;
        }
        let toks = &file.tokens;
        for i in 0..toks.len() {
            if file.is_test(toks[i].off) {
                continue;
            }
            // `let _ = <expr containing a call> ;`
            if toks[i].text == "let" && toks[i].is_ident && file.seq_matches(i + 1, &["_", "="]) {
                // statement extends to the `;` at the same paren/brace depth
                let mut depth = 0i32;
                let mut j = i + 3;
                let mut end = None;
                while j < toks.len() {
                    match toks[j].text.as_str() {
                        "(" | "{" | "[" => depth += 1,
                        ")" | "}" | "]" => depth -= 1,
                        ";" if depth == 0 => {
                            end = Some(j);
                            break;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                let Some(end) = end else { continue };
                let stmt_has_call = file
                    .calls
                    .iter()
                    .any(|c| c.tok > i + 2 && c.tok < end);
                if stmt_has_call {
                    out.push(Finding::at(
                        self.name(),
                        file,
                        toks[i].off,
                        "`let _ =` discards this call's Result on the durable path; a failed \
                         sync/write vanishes without a trace — handle the error, log it, or \
                         add a justified [[allow]] entry"
                            .to_owned(),
                    ));
                }
                continue;
            }
            // bare `.ok();` discard (statement position: followed by `;`)
            if toks[i].text == "."
                && file.seq_matches(i + 1, &["ok", "(", ")", ";"])
            {
                out.push(Finding::at(
                    self.name(),
                    file,
                    toks[i].off,
                    "bare `.ok();` swallows this Result on the durable path; the error is \
                     dropped on the floor — handle it or add a justified [[allow]] entry"
                        .to_owned(),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> Config {
        Config {
            error_swallow_crates: vec!["relstore".into(), "import".into()],
            ..Config::default()
        }
    }

    fn findings(path: &str, src: &str) -> Vec<Finding> {
        let file = SourceFile::parse(path, src);
        let mut out = Vec::new();
        ErrorSwallow.check(&file, &cfg(), &mut out);
        out
    }

    #[test]
    fn flags_let_underscore_on_a_call() {
        let out = findings(
            "crates/relstore/src/vfs.rs",
            "fn f(&self) { let _ = self.file.sync_all(); }",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("let _ ="));
    }

    #[test]
    fn flags_bare_ok_discard() {
        let out = findings(
            "crates/import/src/pipeline.rs",
            "fn f(&self) { self.tx.send(batch).ok(); }",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains(".ok()"));
    }

    #[test]
    fn value_discards_and_used_ok_are_clean() {
        // `let _ = value;` with no call: not an error-swallow (no Result
        // in flight)
        assert!(findings("crates/relstore/src/a.rs", "fn f(x: u32) { let _ = x; }").is_empty());
        // `.ok()` whose value is consumed is fine — it converts, not
        // discards
        assert!(findings(
            "crates/relstore/src/a.rs",
            "fn f(&self) -> Option<u32> { self.read_len().ok() }",
        )
        .is_empty());
        assert!(findings(
            "crates/relstore/src/a.rs",
            "fn f(&self) { if self.probe().ok().is_some() { work(); } }",
        )
        .is_empty());
    }

    #[test]
    fn tests_strings_and_unscoped_crates_are_silent() {
        assert!(findings(
            "crates/relstore/src/a.rs",
            "#[cfg(test)]\nmod tests { fn f() { let _ = remove_dir_all(p); } }",
        )
        .is_empty());
        assert!(findings(
            "crates/relstore/src/a.rs",
            "fn f() { log(\"let _ = x.ok();\"); }",
        )
        .is_empty());
        assert!(findings("crates/serve/src/a.rs", "fn f() { let _ = send(); }").is_empty());
        assert!(findings(
            "crates/relstore/tests/t.rs",
            "fn f() { let _ = remove_dir_all(p); }",
        )
        .is_empty());
    }
}
