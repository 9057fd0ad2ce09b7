//! Fixture corpus: each rule is demonstrated against one file with a
//! seeded violation and one clean counterpart, parsed exactly as the
//! scan driver would parse them. The fixtures live under
//! `tests/fixtures/` (which the workspace walker skips — they *contain*
//! violations) and are checked here under synthetic workspace-relative
//! paths so path-scoped rules fire.

use genlint::config::{self, Config};
use genlint::rules::Finding;
use genlint::source::SourceFile;
use std::path::Path;

/// The rule-scope configuration the fixtures are written against — fed
/// through the real `genlint.toml` parser so the corpus also exercises
/// config loading.
fn fixture_config() -> Config {
    config::parse(
        r#"
[lock-discipline]
locks = ["inner", "cache"]
order = ["inner", "cache"]
guard_free_calls = ["run_query"]

[[cache-coherence.mutators]]
file = "crates/gam/src/fixture_store.rs"
impl = "FixtureStore"
bump = "bump_mutations"
exempt = ["checkpoint"]

[atomics-discipline]
crates = ["relstore", "import"]

[[atomics-discipline.relaxed-ok]]
file = "crates/relstore/src/fixture_atomics.rs"
idents = ["hits"]
reason = "telemetry counter, read only by a stats endpoint"

[error-swallow]
crates = ["relstore", "import"]
"#,
    )
    .expect("fixture config parses")
}

/// Load a fixture by file name and check it as if it lived at
/// `rel_path` in the workspace.
fn check(name: &str, rel_path: &str) -> Vec<Finding> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let raw = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {}: {e}", path.display()));
    let file = SourceFile::parse(rel_path, &raw);
    genlint::check_file(&file, &fixture_config())
}

fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn vfs_bypass_fixture() {
    let bad = check("vfs_bypass_bad.rs", "crates/import/src/staging.rs");
    assert_eq!(rules_of(&bad), ["vfs-bypass", "vfs-bypass"], "{bad:?}");
    let clean = check("vfs_bypass_clean.rs", "crates/import/src/staging.rs");
    assert!(clean.is_empty(), "{clean:?}");
}

#[test]
fn cache_coherence_fixture() {
    let bad = check("cache_coherence_bad.rs", "crates/gam/src/fixture_store.rs");
    assert_eq!(rules_of(&bad), ["cache-coherence"], "{bad:?}");
    assert!(bad[0].message.contains("insert"), "{bad:?}");
    let clean = check("cache_coherence_clean.rs", "crates/gam/src/fixture_store.rs");
    assert!(clean.is_empty(), "{clean:?}");
}

#[test]
fn lock_discipline_fixture() {
    let bad = check("lock_discipline_bad.rs", "crates/genmapper/src/fixture.rs");
    assert_eq!(rules_of(&bad), ["lock-discipline"], "{bad:?}");
    assert!(bad[0].message.contains("guard-free"), "{bad:?}");
    let clean = check("lock_discipline_clean.rs", "crates/genmapper/src/fixture.rs");
    assert!(clean.is_empty(), "{clean:?}");
}

#[test]
fn wal_bracket_fixture() {
    let bad = check("wal_bracket_bad.rs", "crates/import/src/fixture.rs");
    assert_eq!(rules_of(&bad), ["wal-bracket"], "{bad:?}");
    assert!(bad[0].message.contains("skip end_group_commit"), "{bad:?}");
    let clean = check("wal_bracket_clean.rs", "crates/import/src/fixture.rs");
    assert!(clean.is_empty(), "{clean:?}");
}

#[test]
fn atomics_discipline_fixture() {
    let bad = check("atomics_discipline_bad.rs", "crates/relstore/src/fixture_atomics.rs");
    assert_eq!(rules_of(&bad), ["atomics-discipline"], "{bad:?}");
    assert!(bad[0].message.contains("`version`"), "{bad:?}");
    let clean = check(
        "atomics_discipline_clean.rs",
        "crates/relstore/src/fixture_atomics.rs",
    );
    assert!(clean.is_empty(), "{clean:?}");
}

#[test]
fn error_swallow_fixture() {
    let bad = check("error_swallow_bad.rs", "crates/import/src/fixture_stage.rs");
    assert_eq!(rules_of(&bad), ["error-swallow", "error-swallow"], "{bad:?}");
    assert!(bad[0].message.contains("let _ ="), "{bad:?}");
    assert!(bad[1].message.contains(".ok()"), "{bad:?}");
    let clean = check("error_swallow_clean.rs", "crates/import/src/fixture_stage.rs");
    assert!(clean.is_empty(), "{clean:?}");
}

/// Cross-file deadlock detection: each fixture file is locally clean
/// (the per-file lock rule sees nothing), but the whole-program graph
/// finds the inverted pool/state acquisition — once: the cycle it closes
/// is that inversion, not a second finding.
#[test]
fn lock_order_graph_fixture() {
    let cfg = config::parse(
        "[lock-discipline]\nlocks = [\"pool\", \"state\"]\norder = [\"pool\", \"state\"]\n",
    )
    .expect("graph fixture config parses");
    let load = |names: [&str; 2]| -> Vec<SourceFile> {
        names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let path = Path::new(env!("CARGO_MANIFEST_DIR"))
                    .join("tests/fixtures")
                    .join(name);
                let raw = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| panic!("fixture {}: {e}", path.display()));
                SourceFile::parse(&format!("crates/relstore/src/fixture_graph_{i}.rs"), &raw)
            })
            .collect()
    };
    let files = load(["lock_order_graph_bad_a.rs", "lock_order_graph_bad_b.rs"]);
    // per-file view: each file on its own is clean
    for f in &files {
        let per_file = genlint::check_file(f, &cfg);
        assert!(per_file.is_empty(), "{}: {per_file:?}", f.rel_path);
    }
    let bad = genlint::graph::check_workspace(&files, &cfg);
    assert_eq!(rules_of(&bad), ["lock-order-graph"], "{bad:?}");
    assert!(bad[0].message.contains("inverted"), "cross-file inversion: {bad:?}");
    assert_eq!(bad[0].path, "crates/relstore/src/fixture_graph_0.rs", "{bad:?}");

    let files = load(["lock_order_graph_clean_a.rs", "lock_order_graph_clean_b.rs"]);
    let clean = genlint::graph::check_workspace(&files, &cfg);
    assert!(clean.is_empty(), "{clean:?}");
}

/// S1 regression corpus: banned patterns that live only inside string
/// literals, comments, and `#[cfg(test)]` scope must not fire under any
/// scoped path.
#[test]
fn masked_patterns_do_not_fire() {
    for rel in [
        "crates/import/src/fixture_masked.rs",   // vfs/wal/error-swallow scope
        "crates/relstore/src/fixture_masked.rs", // atomics scope
    ] {
        let findings = check("masking_fp_clean.rs", rel);
        assert!(findings.is_empty(), "{rel}: {findings:?}");
    }
}

/// The workspace itself must scan clean against the shipped
/// `genlint.toml` — the same invocation `scripts/tier1.sh` gates on.
#[test]
fn workspace_self_scan_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let toml = std::fs::read_to_string(root.join("genlint.toml")).expect("genlint.toml");
    let cfg = config::parse(&toml).expect("shipped config parses");
    // the baseline is pinned at its real size: growing it is a reviewed
    // edit of this line, not a silent addition to genlint.toml
    assert_eq!(cfg.allow.len(), 1, "[[allow]] entries in genlint.toml");
    let result = genlint::scan(&root, &cfg).expect("scan");
    assert!(
        result.findings.is_empty(),
        "workspace violates its own invariants:\n{}",
        genlint::report::human(&result)
    );
}
