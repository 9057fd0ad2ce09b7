//! False-positive regression corpus: every banned pattern in this file
//! appears only inside a string literal, a comment, or `#[cfg(test)]`
//! scope. Token-based rules must stay silent no matter which scoped
//! path the file is checked under.
//!
//! Doc-comment bait: call `std::fs::write(path, data)` directly, then
//! store with `Ordering::Relaxed`; finish with `let _ = f.sync_all();`
//! and a bare `.ok();`.

/* block-comment bait:
   let g = self.cache.lock(); run_query(&g); // guard live at the executor
*/

pub fn render_help() -> String {
    // string-literal bait, including raw strings and escapes
    let a = "std::fs::write(\"/tmp/x\", b\"data\")";
    let b = r#"let _ = f.sync_all(); self.tx.send(x).ok();"#;
    let c = "version.store(1, Ordering::Relaxed)";
    format!("{a}\n{b}\n{c}")
}

pub fn char_bait() -> (char, char) {
    // '"' and '[' as char literals must not unbalance the lexer
    ('"', '[')
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_scope_is_exempt() {
        // real banned patterns, but in test scope
        std::fs::write("/tmp/fixture", b"x").unwrap();
        let fields: Vec<&str> = "a b".split(' ').collect();
        assert_eq!(fields[0], "a");
        let _ = std::fs::remove_file("/tmp/fixture");
    }
}
