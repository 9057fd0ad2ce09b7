//! The scan driver: workspace walking, the per-file phase, baseline
//! filtering, and the cross-file graph pass — everything between "a
//! directory of .rs files" and a [`ScanResult`].

use crate::config::Config;
use crate::rules::Finding;
use crate::source::SourceFile;
use std::path::{Path, PathBuf};

/// Outcome of scanning a workspace.
#[derive(Debug)]
pub struct ScanResult {
    /// Findings that survived baseline filtering, ordered by path/line.
    pub findings: Vec<Finding>,
    /// Findings suppressed by `[[allow]]` entries.
    pub suppressed: usize,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Directories the walker never descends into: build output, VCS
/// metadata, dev scripts (not product code — nothing durable), and
/// fixture corpora (seeded violations genlint's own tests load
/// explicitly).
const SKIP_DIRS: [&str; 4] = ["target", ".git", "scripts", "fixtures"];

/// Collect all `.rs` files under `root`, sorted for deterministic output.
pub fn collect_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if name.starts_with('.') || SKIP_DIRS.contains(&name.as_ref()) {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Workspace-relative path with forward slashes.
fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let mut out = String::new();
    for comp in rel.components() {
        if !out.is_empty() {
            out.push('/');
        }
        out.push_str(&comp.as_os_str().to_string_lossy());
    }
    out
}

/// Check one already-loaded file against every per-file rule. Used by
/// the scan driver and directly by fixture tests. The cross-file
/// `lock-order-graph` pass is separate — see [`graph::check_workspace`].
pub fn check_file(file: &SourceFile, cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    for rule in crate::rules::registry() {
        rule.check(file, cfg, &mut out);
    }
    out
}

/// Lex and parse every `.rs` file under `root`, in path order.
fn parse_workspace(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    for path in collect_rs_files(root)? {
        let raw = std::fs::read_to_string(&path)?;
        files.push(SourceFile::parse(&rel_path(root, &path), &raw));
    }
    Ok(files)
}

/// Scan the workspace under `root` with `cfg`, applying the baseline:
/// the per-file rules on every file, then the cross-file [`graph`] pass
/// over all of them — lock-order-graph and the workspace half of
/// error-swallow.
pub fn scan(root: &Path, cfg: &Config) -> std::io::Result<ScanResult> {
    let files = parse_workspace(root)?;
    let mut findings: Vec<Finding> = files.iter().flat_map(|f| check_file(f, cfg)).collect();
    findings.extend(crate::graph::check_workspace(&files, cfg));
    findings.sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));

    // baseline filtering: an [[allow]] entry suppresses findings of its
    // rule under its path prefix; entries that match nothing are errors
    // so the baseline can only shrink.
    let mut suppressed = 0usize;
    let mut used = vec![false; cfg.allow.len()];
    let mut kept = Vec::new();
    for f in findings {
        let hit = cfg.allow.iter().position(|a| {
            a.rule == f.rule
                && (f.path == a.path
                    || f.path
                        .strip_prefix(&a.path)
                        .map(|rest| rest.starts_with('/'))
                        .unwrap_or(false))
        });
        match hit {
            Some(i) => {
                used[i] = true;
                suppressed += 1;
            }
            None => kept.push(f),
        }
    }
    for (i, a) in cfg.allow.iter().enumerate() {
        if !used[i] {
            kept.push(Finding {
                rule: "stale-allow",
                path: a.path.clone(),
                line: 0,
                col: 0,
                message: format!(
                    "[[allow]] entry (rule `{}`) suppresses nothing — the violation was fixed; \
                     remove the entry from genlint.toml",
                    a.rule
                ),
            });
        }
    }
    Ok(ScanResult {
        findings: kept,
        suppressed,
        files_scanned: files.len(),
    })
}

/// Parse the workspace and render the observed lock acquisition graph
/// (the `--lock-graph` CLI surface).
pub fn lock_graph(root: &Path, cfg: &Config) -> std::io::Result<String> {
    let analysis = crate::graph::analyze(&parse_workspace(root)?, cfg);
    Ok(crate::graph::render_graph(&analysis))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AllowEntry;

    fn finding(rule: &'static str, path: &str) -> Finding {
        Finding {
            rule,
            path: path.into(),
            line: 1,
            col: 1,
            message: "m".into(),
        }
    }

    fn filter(findings: Vec<Finding>, allow: Vec<AllowEntry>) -> (Vec<Finding>, usize) {
        // run the baseline logic via a temp-dir-free path: inline copy of
        // the filtering loop is not exposed, so exercise it through scan()
        // on a scratch directory.
        // one directory per call: the tests that share this helper run in
        // parallel threads of one process
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("genlint-filter-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        // materialize one file per finding that triggers vfs-bypass
        for f in &findings {
            let p = dir.join(&f.path);
            std::fs::create_dir_all(p.parent().expect("parent")).expect("mkdir");
            std::fs::write(&p, "fn f() { std::fs::write(p, d); }\n").expect("write");
        }
        let cfg = Config {
            allow,
            ..Config::default()
        };
        let result = scan(&dir, &cfg).expect("scan");
        let _ = std::fs::remove_dir_all(&dir);
        (result.findings, result.suppressed)
    }

    #[test]
    fn allow_entries_suppress_by_prefix_and_stale_entries_err() {
        let (kept, suppressed) = filter(
            vec![finding("vfs-bypass", "crates/a/src/x.rs")],
            vec![AllowEntry {
                rule: "vfs-bypass".into(),
                path: "crates/a".into(),
                reason: "r".into(),
            }],
        );
        assert_eq!(suppressed, 1);
        assert!(kept.is_empty(), "{kept:?}");

        let (kept, suppressed) = filter(
            vec![finding("vfs-bypass", "crates/a/src/x.rs")],
            vec![AllowEntry {
                rule: "vfs-bypass".into(),
                path: "crates/b".into(),
                reason: "r".into(),
            }],
        );
        assert_eq!(suppressed, 0);
        assert_eq!(kept.len(), 2, "original finding plus stale-allow: {kept:?}");
        assert!(kept.iter().any(|f| f.rule == "stale-allow"));
    }

    #[test]
    fn prefix_match_requires_component_boundary() {
        // "crates/a" must not cover "crates/ab/..."
        let (kept, suppressed) = filter(
            vec![finding("vfs-bypass", "crates/ab/src/x.rs")],
            vec![AllowEntry {
                rule: "vfs-bypass".into(),
                path: "crates/a".into(),
                reason: "r".into(),
            }],
        );
        assert_eq!(suppressed, 0);
        assert!(kept.iter().any(|f| f.path == "crates/ab/src/x.rs"));
    }

    #[test]
    fn walker_skips_target_git_and_hidden() {
        let dir = std::env::temp_dir().join(format!("genlint-walk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for sub in ["src", "target/debug", ".git", "scripts", "tests/fixtures"] {
            std::fs::create_dir_all(dir.join(sub)).expect("mkdir");
        }
        for f in [
            "src/a.rs",
            "target/debug/b.rs",
            ".git/c.rs",
            "scripts/d.rs",
            "tests/fixtures/e.rs",
            "src/nope.txt",
        ] {
            std::fs::write(dir.join(f), "fn f() {}\n").expect("write");
        }
        let files = collect_rs_files(&dir).expect("walk");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(files.len(), 1, "{files:?}");
        assert!(files[0].ends_with("src/a.rs"));
    }
}
