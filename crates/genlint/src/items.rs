//! The item parser: functions (with their enclosing impl type) and call
//! sites, extracted from the significant-token stream.
//!
//! This is deliberately not an AST — each extraction is a bracketed scan
//! over the classified token stream from [`crate::lexer`], which is
//! exactly the precision the rules and the cross-file call graph need:
//! function extents for scoping, receivers and callee names for lock
//! propagation.

use crate::source::Token;

/// An `impl` block found in a file.
struct ImplInfo {
    /// Last path segment of the implemented type (`GamStore` for
    /// `impl GamStore` and for `impl Trait for GamStore`).
    type_name: String,
    /// Byte range of the block body (inside the braces).
    body: (usize, usize),
}

/// A `fn` item found in a file.
#[derive(Debug, Clone)]
pub struct FnInfo {
    pub name: String,
    /// Whether the item carries a `pub` (or `pub(...)`) visibility.
    pub is_pub: bool,
    /// Byte range of the body (inside the braces). `None` for bodyless
    /// declarations (trait methods).
    pub body: Option<(usize, usize)>,
    /// Type name of the innermost enclosing `impl` block, if any.
    pub impl_type: Option<String>,
    /// Byte offset of the `fn` keyword.
    pub off: usize,
}

/// One call site: `callee(...)` or `recv.callee(...)`.
#[derive(Debug, Clone)]
pub struct CallSite {
    pub callee: String,
    /// Last identifier before the `.` for method calls (`self.vfs.write`
    /// records `vfs`); `None` for free calls and chained receivers.
    pub recv: Option<String>,
    /// Last path segment before `::` for path calls (`Arc::new` records
    /// `Arc`, `store::open` records `store`); `None` otherwise. The
    /// cross-file graph uses it to resolve `Type::method` calls to the
    /// matching impl block instead of every same-named function.
    pub qual: Option<String>,
    /// Token index of the callee identifier.
    pub tok: usize,
    /// Byte offset of the callee identifier.
    pub off: usize,
    pub is_method: bool,
    /// Whether the argument list is empty (`recv.read()` — the shape
    /// lock acquisitions take; such sites are not treated as calls by
    /// the graph when the receiver is a declared lock).
    pub args_empty: bool,
}

/// Keywords that precede `(` without being calls.
const NON_CALL_KEYWORDS: [&str; 14] = [
    "if", "while", "for", "match", "return", "loop", "fn", "use", "let", "in", "move", "ref",
    "mut", "else",
];

/// Index of the matching `}` for the `{` at token index `open`.
pub fn matching_brace(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}

/// Type name of an impl header starting at token `i` (`impl`). Returns
/// `(type_name, body_open_index)` when the header ends in a block.
fn impl_header(tokens: &[Token], i: usize) -> Option<(String, usize)> {
    let mut name: Option<String> = None;
    let mut angle = 0i32;
    let mut k = i + 1;
    while k < tokens.len() {
        let t = &tokens[k];
        match t.text.as_str() {
            "{" if angle <= 0 => {
                return name.map(|n| (n, k));
            }
            ";" => return None,
            "<" => angle += 1,
            ">" if k > 0 && tokens[k - 1].text != "-" => angle -= 1,
            ">" => {}
            "for" => {
                // the implemented type wins over the trait
                name = None;
            }
            _ if t.is_ident && angle <= 0 => {
                name = Some(t.text.clone());
            }
            _ => {}
        }
        k += 1;
    }
    None
}

/// Whether the tokens preceding `fn` at index `i` include a `pub`
/// visibility (allowing `pub(crate)` / `pub(in path)` and the
/// `const`/`unsafe`/`async`/`extern` qualifiers in between).
fn is_pub_fn(tokens: &[Token], i: usize) -> bool {
    let mut k = i;
    while k > 0 {
        k -= 1;
        match tokens[k].text.as_str() {
            "const" | "unsafe" | "async" | "extern" => continue,
            ")" => {
                // skip a parenthesized visibility argument
                let mut depth = 1usize;
                while k > 0 && depth > 0 {
                    k -= 1;
                    match tokens[k].text.as_str() {
                        ")" => depth += 1,
                        "(" => depth -= 1,
                        _ => {}
                    }
                }
                continue;
            }
            "pub" => return true,
            _ => return false,
        }
    }
    false
}

/// Find `fn` items over the significant tokens, each with the type of
/// its innermost enclosing `impl` block.
pub fn find_items(tokens: &[Token]) -> Vec<FnInfo> {
    let mut impls = Vec::new();
    let mut functions = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.text == "impl" && t.is_ident {
            if let Some((type_name, open)) = impl_header(tokens, i) {
                if let Some(close) = matching_brace(tokens, open) {
                    impls.push(ImplInfo {
                        type_name,
                        body: (tokens[open].off + 1, tokens[close].off),
                    });
                }
            }
            i += 1;
            continue;
        }
        if t.text == "fn" && t.is_ident {
            let name = match tokens.get(i + 1) {
                Some(n) if n.is_ident => n.text.clone(),
                _ => {
                    i += 1;
                    continue;
                }
            };
            // find the body `{` (or `;` for bodyless declarations) at
            // paren/bracket depth 0
            let mut paren = 0i32;
            let mut bracket = 0i32;
            let mut k = i + 2;
            let mut body = None;
            while k < tokens.len() {
                match tokens[k].text.as_str() {
                    "(" => paren += 1,
                    ")" => paren -= 1,
                    "[" => bracket += 1,
                    "]" => bracket -= 1,
                    "{" if paren == 0 && bracket == 0 => {
                        if let Some(close) = matching_brace(tokens, k) {
                            body = Some((tokens[k].off + 1, tokens[close].off));
                        }
                        break;
                    }
                    ";" if paren == 0 && bracket == 0 => break,
                    _ => {}
                }
                k += 1;
            }
            let impl_type = impls
                .iter()
                .rev()
                .find(|im| t.off >= im.body.0 && t.off < im.body.1)
                .map(|im| im.type_name.clone());
            functions.push(FnInfo {
                name,
                is_pub: is_pub_fn(tokens, i),
                body,
                impl_type,
                off: t.off,
            });
        }
        i += 1;
    }
    functions
}

/// Extract call sites: `callee(...)` and `recv.callee(...)`. Macro
/// invocations (`name!(...)`), definitions (`fn name(`), and
/// control-flow keywords are excluded.
pub fn find_calls(tokens: &[Token]) -> Vec<CallSite> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if !t.is_ident || t.is_int_literal() {
            continue;
        }
        if NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
            continue;
        }
        if tokens.get(i + 1).map(|n| n.text != "(").unwrap_or(true) {
            continue;
        }
        if i > 0 && tokens[i - 1].text == "fn" {
            continue;
        }
        let is_method = i > 0 && tokens[i - 1].text == ".";
        let recv = if is_method && i >= 2 {
            let r = &tokens[i - 2];
            if r.is_ident && !r.is_int_literal() {
                Some(r.text.clone())
            } else {
                None
            }
        } else {
            None
        };
        // `Qual::name(` — `::` lexes as two `:` puncts
        let qual = if !is_method
            && i >= 3
            && tokens[i - 1].text == ":"
            && tokens[i - 2].text == ":"
            && tokens[i - 3].is_ident
            && !tokens[i - 3].is_int_literal()
        {
            Some(tokens[i - 3].text.clone())
        } else {
            None
        };
        let args_empty = tokens.get(i + 2).map(|n| n.text == ")").unwrap_or(false);
        out.push(CallSite {
            callee: t.text.clone(),
            recv,
            qual,
            tok: i,
            off: t.off,
            is_method,
            args_empty,
        });
    }
    out
}

/// For each byte offset of `offs` (ascending), the index into
/// `functions` of the innermost function whose body contains it, if any.
/// One sweep: `functions` are in source order and bodies nest, so the
/// bodies open at an offset form a stack.
pub fn innermost_fns(functions: &[FnInfo], offs: impl IntoIterator<Item = usize>) -> Vec<Option<usize>> {
    let mut bodies = functions
        .iter()
        .enumerate()
        .filter_map(|(i, f)| f.body.map(|(start, end)| (start, end, i)))
        .peekable();
    let mut open: Vec<(usize, usize)> = Vec::new(); // (end, fn index)
    offs.into_iter()
        .map(|off| {
            while let Some(&(start, end, i)) = bodies.peek() {
                if start > off {
                    break;
                }
                open.push((end, i));
                bodies.next();
            }
            while open.last().is_some_and(|&(end, _)| end <= off) {
                open.pop();
            }
            open.last().map(|&(_, i)| i)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn parse(src: &str) -> SourceFile {
        SourceFile::parse("crates/x/src/lib.rs", src)
    }

    #[test]
    fn calls_record_receiver_and_shape() {
        let f = parse("fn f() { go(1); self.vfs.write(p, d); x.read(); name!(arg); }");
        let calls: Vec<(String, Option<String>, bool)> = f
            .calls
            .iter()
            .map(|c| (c.callee.clone(), c.recv.clone(), c.args_empty))
            .collect();
        // `f` definition and `name!` macro are not calls
        assert_eq!(
            calls,
            [
                ("go".to_owned(), None, false),
                ("write".to_owned(), Some("vfs".to_owned()), false),
                ("read".to_owned(), Some("x".to_owned()), true),
            ]
        );
    }

    #[test]
    fn innermost_fns_prefer_the_nested_body() {
        let f = parse("fn outer() { fn inner() { leaf(); } other(); }\nfn next() { last(); }");
        let owners = innermost_fns(&f.functions, f.calls.iter().map(|c| c.off));
        let names: Vec<(&str, &str)> = f
            .calls
            .iter()
            .zip(owners)
            .map(|(c, o)| (c.callee.as_str(), f.functions[o.expect("in a fn")].name.as_str()))
            .collect();
        assert_eq!(names, [("leaf", "inner"), ("other", "outer"), ("last", "next")]);
        let fns = innermost_fns(&f.functions, f.functions.iter().map(|fi| fi.off));
        assert_eq!(fns, [None, Some(0), None], "only inner is a local helper");
    }
}
