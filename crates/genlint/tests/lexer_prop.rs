//! The lexer's load-bearing invariant: lexing is a byte-exact
//! *partition* of the input. Every byte belongs to exactly one token —
//! token spans are contiguous, non-overlapping, and cover `0..len` —
//! so span-based reporting (line:col) and `masked()` can never drift
//! from the raw source.
//!
//! Pinned three ways: a seeded sweep over adversarial fragment mixes,
//! one over arbitrary strings weighted towards the characters the lexer
//! branches on, and a corpus sweep over every `.rs` file in this
//! workspace.

use genlint::lexer::{self, TokKind};
use genlint::source::{self, SourceFile};
use std::path::{Path, PathBuf};
use testkit::{cases, Prng};

/// Assert the partition invariant for one input and return the tokens.
fn assert_partition(src: &str) -> Vec<lexer::Tok> {
    let toks = lexer::lex(src);
    let mut cursor = 0usize;
    for (i, t) in toks.iter().enumerate() {
        assert_eq!(
            t.start, cursor,
            "gap/overlap before token {i} ({:?}) in {src:?}",
            t.kind
        );
        assert!(t.end > t.start, "empty token {i} in {src:?}");
        assert!(
            src.is_char_boundary(t.start) && src.is_char_boundary(t.end),
            "token {i} splits a UTF-8 character in {src:?}"
        );
        cursor = t.end;
    }
    assert_eq!(cursor, src.len(), "tokens do not cover the input {src:?}");
    let rebuilt: String = toks.iter().map(|t| &src[t.start..t.end]).collect();
    assert_eq!(rebuilt, src, "concatenated spans must reproduce the input");
    toks
}

/// Fragments chosen to sit on the lexer's edges: raw strings with
/// varying hash counts, nested block comments, char/lifetime ticks,
/// escapes, unterminated literals, multibyte text, and plain code.
const FRAGMENTS: &[&str] = &[
    "fn f() { g(); }",
    "let s = \"a \\\" b // not a comment\";",
    "let r = r#\"inner \" quote\"#;",
    "let r2 = br##\"x\"# still \"##;",
    "let b = b\"bytes\\x00\";",
    "/* outer /* nested */ still comment */",
    "// line comment with \"quote and 'tick\n",
    "let c = '\\'';",
    "let c2 = 'x';",
    "fn l<'a>(x: &'a str) -> &'a str { x }",
    "let n = 0xFF_u32 + 1_000;",
    "let f = 2.5e-3 + 1e9;",
    "match x { 0..=9 => (), _ => () }",
    "let v = vec![1, 2]; v[0];",
    "\"unterminated",
    "r#\"unterminated raw",
    "/* unterminated comment",
    "let π = \"数据\"; // ünïcödé\n",
    "::<>()[]{};,.#!?&|^%*-+=@$~",
    "'",
    "r",
    "b'q'",
];

/// The partition invariant, plus: masking preserves byte offsets and line
/// structure.
fn assert_partition_and_mask(src: &str) {
    let toks = assert_partition(src);
    let masked = lexer::masked(src, &toks);
    assert_eq!(masked.len(), src.len(), "mask must preserve byte offsets");
    assert_eq!(
        masked.matches('\n').count(),
        src.matches('\n').count(),
        "mask must preserve line structure"
    );
}

/// Half the draws come from the characters that open, close or escape a
/// token; the rest are any scalar value, multibyte ones included.
fn any_char(rng: &mut Prng) -> char {
    const SOUP: &[char] = &[
        'a', 'b', '_', '"', '\'', '\\', '/', 'r', '#', 'b', '*', '{', '}', '(', ')', '0', '.', 'e',
        ' ', 'π', '\n', '\t',
    ];
    if rng.gen_bool(0.5) {
        return *rng.pick(SOUP);
    }
    loop {
        if let Some(c) = char::from_u32(rng.gen_range(0u32..0x11_0000)) {
            return c;
        }
    }
}

/// Any string lexes into a byte-exact partition — no gaps, no overlap, no
/// panics, spans on UTF-8 boundaries.
#[test]
fn arbitrary_source_partitions() {
    cases(406, |rng| {
        let src: String = (0..rng.below(201)).map(|_| any_char(rng)).collect();
        assert_partition_and_mask(&src);
    });
}

/// Fragment concatenations (the adversarial mix above) also hold, and
/// masking preserves offsets and newlines.
#[test]
fn fragment_mix_partitions() {
    cases(406, |rng| {
        let src: String = (0..rng.below(8))
            .map(|_| format!("{}\n", rng.pick(FRAGMENTS)))
            .collect();
        assert_partition_and_mask(&src);
    });
}

/// Classification spot-checks the sweep can't assert generically.
#[test]
fn classification_pins() {
    let toks = assert_partition("let s = \"x\"; // c\n/* b */ 'a' 'l");
    let kinds: Vec<TokKind> = toks.iter().map(|t| t.kind).filter(|k| !matches!(k, TokKind::Whitespace)).collect();
    assert_eq!(
        kinds,
        [
            TokKind::Ident,
            TokKind::Ident,
            TokKind::Punct,
            TokKind::Str,
            TokKind::Punct,
            TokKind::LineComment,
            TokKind::BlockComment,
            TokKind::Char,
            TokKind::Lifetime,
        ]
    );
}

fn workspace_rs_files(root: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(root).expect("read_dir") {
        let entry = entry.expect("dir entry");
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            workspace_rs_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Seeded corpus: every `.rs` file in the workspace — sources, tests,
/// fixtures (which deliberately contain malformed-looking bait), and
/// the harness scripts — must lex as a byte-exact partition, and the
/// compatibility mask must stay offset-preserving.
#[test]
fn workspace_corpus_partitions_byte_exactly() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let mut files = Vec::new();
    workspace_rs_files(&root, &mut files);
    assert!(
        files.len() > 100,
        "corpus unexpectedly small: {} files",
        files.len()
    );
    for path in files {
        let raw = match std::fs::read_to_string(&path) {
            Ok(r) => r,
            Err(_) => continue, // non-UTF-8: outside the lexer's input domain
        };
        let toks = assert_partition(&raw);
        let masked = lexer::masked(&raw, &toks);
        assert_eq!(
            masked.len(),
            raw.len(),
            "mask drifted on {}",
            path.display()
        );
        assert_eq!(source::mask(&raw).len(), raw.len());
        // parsing through the full SourceFile pipeline must agree
        let file = SourceFile::parse("crates/x/src/lib.rs", &raw);
        for tok in &file.tokens {
            assert!(
                tok.off < raw.len().max(1),
                "token offset out of range in {}",
                path.display()
            );
        }
    }
}
