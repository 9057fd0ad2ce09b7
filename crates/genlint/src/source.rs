//! Source preparation: the lexed token stream, `#[cfg(test)]` scope
//! tracking, and the extracted items.
//!
//! genlint never needs a full Rust parser: every rule it enforces is a
//! statement about which *tokens* appear in which *scopes*. The pipeline
//! here turns a `.rs` file into exactly that shape:
//!
//! 1. [`crate::lexer::lex`] partitions the raw bytes into classified
//!    spanned tokens; comments and string/char literals are classified
//!    out rather than blanked, so token scans cannot be fooled by
//!    `// don't .unwrap() here` or `"std::fs"` inside a message.
//! 2. The code tokens ([`crate::lexer::TokKind::is_code`]) become the
//!    significant-token stream rules scan, each with a byte offset that
//!    maps to a precise line:col.
//! 3. A brace-depth pass marks test scope: `#[cfg(test)]` / `#[test]`
//!    attributed items, `mod tests { ... }` blocks, and whole files under
//!    `tests/`, `benches/`, `examples/` or the dev-only `testkit` crate.
//! 4. [`crate::items`] extracts `fn` items (with their impl type) and
//!    call sites for the rules and the cross-file call graph.

use crate::lexer::{self, Tok, TokKind};

pub use crate::items::{CallSite, FnInfo};

/// One significant (code) token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Byte offset into the raw source (the lexer is byte-exact, so
    /// offsets map to line and column numbers directly).
    pub off: usize,
    /// Identifier, keyword, or numeric literal text; single-char string
    /// for punctuation.
    pub text: String,
    /// True for identifier-like tokens (including numbers), false for
    /// punctuation.
    pub is_ident: bool,
}

impl Token {
    /// Whether this token is an integer literal (starts with a digit).
    pub fn is_int_literal(&self) -> bool {
        self.is_ident && self.text.starts_with(|c: char| c.is_ascii_digit())
    }
}

/// A fully prepared source file.
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub rel_path: String,
    /// Significant (code) tokens only — what rules scan.
    pub tokens: Vec<Token>,
    pub functions: Vec<FnInfo>,
    /// Call sites (`callee(...)`, `recv.callee(...)`) in token order.
    pub calls: Vec<CallSite>,
    /// Sorted, disjoint byte ranges of test-only code.
    test_ranges: Vec<(usize, usize)>,
    /// Whole file is test scope (integration tests, benches, examples, testkit).
    whole_file_test: bool,
    /// Byte offsets of line starts, for offset -> line:col mapping.
    line_starts: Vec<usize>,
}

impl SourceFile {
    /// Prepare a file from its raw text.
    pub fn parse(rel_path: &str, raw: &str) -> SourceFile {
        let tokens = significant(raw, &lexer::lex(raw));
        let whole_file_test = path_is_test(rel_path);
        let test_ranges = find_test_ranges(&tokens, raw.len());
        let functions = crate::items::find_items(&tokens);
        let calls = crate::items::find_calls(&tokens);
        let mut line_starts = vec![0usize];
        for (i, b) in raw.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        SourceFile {
            rel_path: rel_path.to_owned(),
            tokens,
            functions,
            calls,
            test_ranges,
            whole_file_test,
            line_starts,
        }
    }

    /// Whether the byte offset lies in test-only code.
    pub fn is_test(&self, off: usize) -> bool {
        if self.whole_file_test {
            return true;
        }
        self.test_ranges
            .iter()
            .any(|&(s, e)| off >= s && off < e)
    }

    /// Whether the entire file is test scope.
    pub fn is_test_file(&self) -> bool {
        self.whole_file_test
    }

    /// 1-based line number of a byte offset.
    pub fn line_of(&self, off: usize) -> usize {
        match self.line_starts.binary_search(&off) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }

    /// 1-based column (in bytes) of a byte offset.
    pub fn col_of(&self, off: usize) -> usize {
        let line = self.line_of(off);
        off - self.line_starts[line - 1] + 1
    }

    /// Index of the first token at or after byte offset `off`.
    pub fn token_at(&self, off: usize) -> usize {
        self.tokens.partition_point(|t| t.off < off)
    }

    /// Token indexes covering the byte range `[start, end)`.
    pub fn tokens_in(&self, start: usize, end: usize) -> (usize, usize) {
        (self.token_at(start), self.token_at(end))
    }

    /// Whether the fn whose `fn` keyword sits at byte offset `off` takes
    /// `&mut self` (or `mut self`) as its receiver.
    pub fn fn_takes_mut_self(&self, off: usize) -> bool {
        let start = self.token_at(off);
        // scan the signature tokens up to the parameter list's closing paren
        let mut depth = 0i32;
        let mut i = start;
        while i < self.tokens.len() {
            match self.tokens[i].text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        return false;
                    }
                }
                "self" if depth == 1 => {
                    return i >= 1 && self.tokens[i - 1].text == "mut";
                }
                "{" | ";" if depth == 0 => return false,
                _ => {}
            }
            i += 1;
        }
        false
    }

    /// Whether the token sequence starting at index `i` matches `pat`
    /// texts exactly.
    pub fn seq_matches(&self, i: usize, pat: &[&str]) -> bool {
        if i + pat.len() > self.tokens.len() {
            return false;
        }
        pat.iter()
            .enumerate()
            .all(|(k, p)| self.tokens[i + k].text == *p)
    }
}

/// Derive the significant-token stream from a lex partition. Lifetimes
/// split into a `'` punct plus the identifier (matching the pre-lexer
/// tokenizer, which rules pattern-match against); everything non-code is
/// dropped.
fn significant(raw: &str, lexed: &[Tok]) -> Vec<Token> {
    let mut out = Vec::new();
    for t in lexed {
        match t.kind {
            TokKind::Ident | TokKind::Int | TokKind::Float => out.push(Token {
                off: t.start,
                text: raw[t.start..t.end].to_owned(),
                is_ident: true,
            }),
            TokKind::Punct => out.push(Token {
                off: t.start,
                text: raw[t.start..t.end].to_owned(),
                is_ident: false,
            }),
            TokKind::Lifetime => {
                out.push(Token {
                    off: t.start,
                    text: "'".to_owned(),
                    is_ident: false,
                });
                if t.end > t.start + 1 {
                    out.push(Token {
                        off: t.start + 1,
                        text: raw[t.start + 1..t.end].to_owned(),
                        is_ident: true,
                    });
                }
            }
            _ => {}
        }
    }
    out
}

/// Replace comment and string/char-literal contents with spaces,
/// preserving newlines and byte offsets. Compatibility surface over the
/// lexer for callers that want masked text without a [`SourceFile`].
pub fn mask(raw: &str) -> String {
    let toks = lexer::lex(raw);
    lexer::masked(raw, &toks)
}

/// Whether a path is test-only by location. `testkit` is the dev-only
/// crate the test sweeps share; nothing links it outside `cargo test`.
fn path_is_test(rel_path: &str) -> bool {
    rel_path
        .split('/')
        .any(|seg| matches!(seg, "tests" | "benches" | "examples" | "testkit"))
}

// ---------------------------------------------------------------------------
// Test-scope tracking
// ---------------------------------------------------------------------------

/// Normalized content of an outer attribute starting at token `i`
/// (which must be `#`). Returns `(content_without_whitespace,
/// next_token_index)`, or `None` if `i` is not an outer attribute.
fn attr_content(tokens: &[Token], i: usize) -> Option<(String, usize)> {
    if tokens.get(i)?.text != "#" {
        return None;
    }
    let mut j = i + 1;
    if tokens.get(j)?.text == "!" {
        // inner attribute (`#![...]`): applies to the enclosing scope, not
        // the next item — never a test marker in practice; skip it.
        j += 1;
    }
    if tokens.get(j)?.text != "[" {
        return None;
    }
    let mut depth = 0usize;
    let mut content = String::new();
    let mut k = j;
    while k < tokens.len() {
        match tokens[k].text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return Some((content, k + 1));
                }
            }
            t => {
                if depth >= 1 {
                    content.push_str(t);
                }
            }
        }
        k += 1;
    }
    None
}

/// Compute the sorted byte ranges of test-only code.
fn find_test_ranges(tokens: &[Token], len: usize) -> Vec<(usize, usize)> {
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    // stack of is_test flags per open brace
    let mut stack: Vec<bool> = Vec::new();
    let mut pending_test = false;
    let mut test_start: Option<usize> = None;
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.text == "#" {
            if let Some((content, next)) = attr_content(tokens, i) {
                let inner = tokens
                    .get(i + 1)
                    .map(|t| t.text == "!")
                    .unwrap_or(false);
                if !inner
                    && (content == "test"
                        || content == "cfg(test)"
                        || content.starts_with("cfg(test,"))
                {
                    pending_test = true;
                }
                i = next;
                continue;
            }
        }
        match t.text.as_str() {
            "mod" => {
                // `mod tests { .. }` without an attribute also counts
                if let Some(name) = tokens.get(i + 1) {
                    if name.text == "tests" {
                        pending_test = true;
                    }
                }
            }
            "{" => {
                let parent_test = stack.last().copied().unwrap_or(false);
                let is_test = parent_test || pending_test;
                if is_test && test_start.is_none() {
                    test_start = Some(t.off);
                }
                stack.push(is_test);
                pending_test = false;
            }
            "}" => {
                let was_test = stack.pop().unwrap_or(false);
                let now_test = stack.last().copied().unwrap_or(false);
                if was_test && !now_test {
                    if let Some(s) = test_start.take() {
                        ranges.push((s, t.off + 1));
                    }
                }
            }
            ";" => {
                // `#[cfg(test)] use foo;` — attribute consumed by a
                // bodyless item
                pending_test = false;
            }
            _ => {}
        }
        i += 1;
    }
    if let Some(s) = test_start {
        ranges.push((s, len));
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_strips_comments_and_strings() {
        let src = "let a = \"std::fs\"; // std::fs here\nlet b = 1; /* .unwrap() */\n";
        let m = mask(src);
        assert!(!m.contains("std::fs"));
        assert!(!m.contains("unwrap"));
        assert!(m.contains("let a ="));
        assert_eq!(m.matches('\n').count(), src.matches('\n').count());
    }

    #[test]
    fn mask_handles_raw_strings_and_chars() {
        let src = "let r = r#\"panic!(\"x\")\"#; let c = 'p'; let lt: &'static str = x;";
        let m = mask(src);
        assert!(!m.contains("panic"));
        assert!(m.contains("'static"));
        let src2 = "let e = '\\''; let q = b'x'; let bs = b\"fs::write\";";
        let m2 = mask(src2);
        assert!(!m2.contains("fs::write"));
    }

    #[test]
    fn mask_handles_nested_block_comments() {
        let src = "/* outer /* inner .unwrap() */ still comment */ let x = 1;";
        let m = mask(src);
        assert!(!m.contains("unwrap"));
        assert!(m.contains("let x = 1;"));
    }

    #[test]
    fn mask_is_byte_preserving_for_multibyte_sources() {
        let src = "let a = \"λλ std::fs\"; // λλ\nfn target() {}\n";
        let m = mask(src);
        assert_eq!(m.len(), src.len());
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        let t = f
            .functions
            .iter()
            .find(|fi| fi.name == "target")
            .expect("found");
        // the offset must land on the raw source's `fn`, not drift from
        // multi-byte chars earlier in the file
        assert_eq!(&src.as_bytes()[t.off..t.off + 2], b"fn");
        assert_eq!(f.line_of(t.off), 2);
        assert_eq!(f.col_of(t.off), 1);
    }

    #[test]
    fn test_scope_covers_cfg_test_mod() {
        let src = "fn prod() { body(); }\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); }\n}\nfn after() {}\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        let unwrap_off = src.find("unwrap").expect("token present");
        assert!(f.is_test(unwrap_off));
        let body_off = src.find("body").expect("token present");
        assert!(!f.is_test(body_off));
        let after_off = src.find("after").expect("token present");
        assert!(!f.is_test(after_off));
    }

    #[test]
    fn test_scope_covers_test_fn_attribute_only() {
        let src = "#[test]\nfn t() { x.unwrap(); }\nfn prod() { y(); }\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(f.is_test(src.find("unwrap").expect("present")));
        assert!(!f.is_test(src.find("y()").expect("present")));
    }

    #[test]
    fn inner_cfg_attr_is_not_test_scope() {
        let src = "#![cfg_attr(not(test), deny(clippy::unwrap_used))]\nfn prod() { a(); }\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(!f.is_test(src.find("a()").expect("present")));
    }

    #[test]
    fn files_under_tests_dir_are_test_scope() {
        let f = SourceFile::parse("crates/x/tests/foo.rs", "fn t() { x.unwrap(); }");
        assert!(f.is_test_file());
        assert!(f.is_test(0));
        assert!(SourceFile::parse("crates/testkit/src/lib.rs", "").is_test_file());
    }

    #[test]
    fn functions_and_impls_are_extracted() {
        let src = "impl GamStore {\n    pub fn create_source(&mut self, n: &str) -> u32 { self.bump(); 1 }\n    fn helper(&self) {}\n}\npub fn free() {}\nimpl Vfs for FaultVfs { fn read(&self) {} }\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        let create = f
            .functions
            .iter()
            .find(|fi| fi.name == "create_source")
            .expect("found");
        assert!(create.is_pub);
        assert!(f.fn_takes_mut_self(create.off));
        assert_eq!(create.impl_type.as_deref(), Some("GamStore"));
        let helper = f.functions.iter().find(|fi| fi.name == "helper").expect("found");
        assert!(!helper.is_pub);
        let free = f.functions.iter().find(|fi| fi.name == "free").expect("found");
        assert!(free.is_pub);
        assert!(free.impl_type.is_none());
        let read = f.functions.iter().find(|fi| fi.name == "read").expect("found");
        assert_eq!(read.impl_type.as_deref(), Some("FaultVfs"));
    }

    #[test]
    fn lifetimes_split_into_tick_and_ident() {
        let f = SourceFile::parse("crates/x/src/lib.rs", "fn f<'a>(x: &'a str) {}");
        let i = f.tokens.iter().position(|t| t.text == "'").expect("tick");
        assert!(!f.tokens[i].is_ident);
        assert_eq!(f.tokens[i + 1].text, "a");
        assert!(f.tokens[i + 1].is_ident);
    }

    #[test]
    fn line_numbers_map_through_masking() {
        let src = "line1();\n// comment\nline3();\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert_eq!(f.line_of(src.find("line3").expect("present")), 3);
        assert_eq!(f.col_of(src.find("line3").expect("present")), 1);
    }
}
