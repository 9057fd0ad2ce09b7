//! The scan driver: workspace walking, the parallel per-file phase,
//! the incremental cache, baseline filtering, and the cross-file graph
//! pass — everything between "a directory of .rs files" and a
//! [`ScanResult`].
//!
//! This lives in its own module (rather than `lib.rs`) so that
//! `scripts/genlint_harness.rs` can compile the *real* driver via
//! `#[path]` — the standalone harness and the library run byte-identical
//! scan logic, no hand-synced replica.

use crate::config::Config;
use crate::rules::Finding;
use crate::source::SourceFile;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Outcome of scanning a workspace.
#[derive(Debug)]
pub struct ScanResult {
    /// Findings that survived baseline filtering, ordered by path/line.
    pub findings: Vec<Finding>,
    /// Findings suppressed by `[[allow]]` entries.
    pub suppressed: usize,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Files whose per-file rule findings came from the incremental
    /// cache (content hash unchanged since the cached run).
    pub cache_hits: usize,
}

/// Knobs for [`scan_with`]. [`scan`] uses the defaults: auto thread
/// count, no cache — deterministic and side-effect-free, which is what
/// the test suite wants. The CLI turns the cache on.
#[derive(Debug, Default, Clone)]
pub struct ScanOptions {
    /// Worker threads for the per-file phase; 0 = available parallelism.
    pub jobs: usize,
    /// Incremental cache file. `None` disables caching.
    pub cache_path: Option<PathBuf>,
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

/// FNV-1a over bytes — the cache key. Not cryptographic; it only has to
/// distinguish "same file as last run" from "edited", and std ships no
/// hasher with a stable, documented output we could persist.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
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

// ---------------------------------------------------------------- cache

/// Persisted per-file results: content hash -> findings from the last
/// run. Line-oriented text, hand-rolled like the config parser (std-only
/// crate). The header binds the cache to a config fingerprint so editing
/// genlint.toml invalidates everything.
struct Cache {
    config_fp: u64,
    /// rel_path -> (content hash, findings)
    entries: HashMap<String, (u64, Vec<Finding>)>,
}

const CACHE_MAGIC: &str = "genlint-cache v2";

fn cache_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n").replace('\t', "\\t")
}

fn cache_unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut it = s.chars();
    while let Some(c) = it.next() {
        if c == '\\' {
            match it.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some(other) => out.push(other),
                None => break,
            }
        } else {
            out.push(c);
        }
    }
    out
}

impl Cache {
    fn load(path: &Path, config_fp: u64) -> Cache {
        let empty = Cache {
            config_fp,
            entries: HashMap::new(),
        };
        let Ok(text) = std::fs::read_to_string(path) else {
            return empty;
        };
        let mut lines = text.lines();
        match (lines.next(), lines.next()) {
            (Some(CACHE_MAGIC), Some(fp)) if fp.strip_prefix("config ")
                == Some(format!("{config_fp:016x}").as_str()) => {}
            _ => return empty, // wrong version or config changed: cold
        }
        let known = crate::rules::rule_names();
        let mut entries = HashMap::new();
        let mut cur: Option<(String, u64, usize)> = None;
        let mut findings: Vec<Finding> = Vec::new();
        for line in lines {
            if let Some(rest) = line.strip_prefix("file ") {
                if let Some((p, hash, _)) = cur.take() {
                    entries.insert(p, (hash, std::mem::take(&mut findings)));
                }
                // `file <hash-hex> <rel_path>`
                let mut parts = rest.splitn(2, ' ');
                let (Some(h), Some(p)) = (parts.next(), parts.next()) else {
                    return empty; // malformed: treat whole cache as cold
                };
                let Ok(hash) = u64::from_str_radix(h, 16) else {
                    return empty;
                };
                cur = Some((p.to_owned(), hash, 0));
            } else {
                // `<rule>\t<line>\t<col>\t<message>`, inside a file block
                let Some((path, _, _)) = &cur else {
                    return empty;
                };
                let mut parts = line.splitn(4, '\t');
                let (Some(r), Some(l), Some(c), Some(m)) =
                    (parts.next(), parts.next(), parts.next(), parts.next())
                else {
                    return empty;
                };
                // rule names are &'static str — resolve against the
                // registry; an unknown rule means a stale cache format
                let Some(rule) = known.iter().find(|n| **n == r) else {
                    return empty;
                };
                let (Ok(line_no), Ok(col)) = (l.parse(), c.parse()) else {
                    return empty;
                };
                findings.push(Finding {
                    rule,
                    path: path.clone(),
                    line: line_no,
                    col,
                    message: cache_unescape(m),
                });
            }
        }
        if let Some((p, hash, _)) = cur.take() {
            entries.insert(p, (hash, findings));
        }
        Cache { config_fp, entries }
    }

    fn save(&self, path: &Path) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{CACHE_MAGIC}");
        let _ = writeln!(out, "config {:016x}", self.config_fp);
        let mut paths: Vec<&String> = self.entries.keys().collect();
        paths.sort();
        for p in paths {
            let (hash, findings) = &self.entries[p];
            let _ = writeln!(out, "file {hash:016x} {p}");
            for f in findings {
                let _ = writeln!(
                    out,
                    "{}\t{}\t{}\t{}",
                    f.rule,
                    f.line,
                    f.col,
                    cache_escape(&f.message)
                );
            }
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

// ----------------------------------------------------------------- scan

/// One file's worth of work, done on a worker thread.
struct FileOutcome {
    idx: usize,
    file: SourceFile,
    hash: u64,
    findings: Vec<Finding>,
    cache_hit: bool,
}

/// Scan the workspace under `root` with `cfg`, applying the baseline.
/// Defaults: parallel, no cache. See [`scan_with`] for the knobs.
pub fn scan(root: &Path, cfg: &Config) -> std::io::Result<ScanResult> {
    scan_with(root, cfg, &ScanOptions::default())
}

/// Scan with explicit options.
///
/// Phase 1 (parallel): lex, parse, and run the per-file rules on every
/// `.rs` file. Workers pull file indexes off a shared atomic cursor —
/// no work-splitting heuristics, and the output order is restored by
/// index so results are deterministic regardless of thread count. When
/// a cache is configured and a file's content hash matches the cached
/// run, the cached findings are reused; the file is still parsed,
/// because phase 2 needs its item table either way (the cache trades
/// away rule evaluation, not parsing — honest but bounded).
///
/// Phase 2 (serial): the cross-file [`graph`] pass over all parsed
/// files — lock-order-graph and the workspace half of error-swallow.
/// Cross-file results are never cached: they depend on every file.
pub fn scan_with(root: &Path, cfg: &Config, opts: &ScanOptions) -> std::io::Result<ScanResult> {
    let paths = collect_rs_files(root)?;
    let mut inputs = Vec::with_capacity(paths.len());
    for path in &paths {
        let raw = std::fs::read_to_string(path)?;
        inputs.push((rel_path(root, path), raw));
    }
    let config_fp = fnv1a(format!("{cfg:?}").as_bytes());
    let cache = opts
        .cache_path
        .as_deref()
        .map(|p| Cache::load(p, config_fp));

    let jobs = if opts.jobs > 0 {
        opts.jobs
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
    .min(inputs.len().max(1));

    let cursor = AtomicUsize::new(0);
    let results: Mutex<Vec<FileOutcome>> = Mutex::new(Vec::with_capacity(inputs.len()));
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some((rel, raw)) = inputs.get(idx) else {
                        break;
                    };
                    let hash = fnv1a(raw.as_bytes());
                    let file = SourceFile::parse(rel, raw);
                    let cached = cache.as_ref().and_then(|c| {
                        c.entries
                            .get(rel)
                            .filter(|(h, _)| *h == hash)
                            .map(|(_, f)| f.clone())
                    });
                    let cache_hit = cached.is_some();
                    let findings = cached.unwrap_or_else(|| check_file(&file, cfg));
                    local.push(FileOutcome {
                        idx,
                        file,
                        hash,
                        findings,
                    cache_hit,
                    });
                }
                results.lock().expect("scan worker poisoned").extend(local);
            });
        }
    });
    let mut outcomes = results.into_inner().expect("scan workers done");
    outcomes.sort_by_key(|o| o.idx);

    let files_scanned = outcomes.len();
    let cache_hits = outcomes.iter().filter(|o| o.cache_hit).count();
    let mut findings: Vec<Finding> = Vec::new();
    let mut files: Vec<SourceFile> = Vec::with_capacity(outcomes.len());
    let mut cache_entries: Vec<(String, u64, Vec<Finding>)> = Vec::with_capacity(outcomes.len());
    for o in outcomes {
        findings.extend(o.findings.iter().cloned());
        cache_entries.push((o.file.rel_path.clone(), o.hash, o.findings));
        files.push(o.file);
    }
    findings.extend(crate::graph::check_workspace(&files, cfg));
    findings.sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));

    // write the cache back before baseline filtering: the cache stores
    // raw per-file findings, the baseline is applied on every run
    if let Some(path) = opts.cache_path.as_deref() {
        let next = Cache {
            config_fp,
            entries: cache_entries
                .into_iter()
                .map(|(p, h, f)| (p, (h, f)))
                .collect(),
        };
        next.save(path)?;
    }

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
        files_scanned,
        cache_hits,
    })
}

/// Parse the workspace and render the observed lock acquisition graph
/// (the `--lock-graph` CLI surface).
pub fn lock_graph(root: &Path, cfg: &Config) -> std::io::Result<String> {
    let paths = collect_rs_files(root)?;
    let mut files = Vec::with_capacity(paths.len());
    for path in &paths {
        let raw = std::fs::read_to_string(path)?;
        files.push(SourceFile::parse(&rel_path(root, path), &raw));
    }
    let analysis = crate::graph::analyze(&files, cfg);
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
        let dir = std::env::temp_dir().join(format!("genlint-filter-{}", std::process::id()));
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

    #[test]
    fn parallel_and_serial_scans_agree() {
        let dir = std::env::temp_dir().join(format!("genlint-par-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("crates/x/src")).expect("mkdir");
        for i in 0..8 {
            std::fs::write(
                dir.join(format!("crates/x/src/f{i}.rs")),
                "fn f() { std::fs::write(p, d); }\n",
            )
            .expect("write");
        }
        let cfg = Config::default();
        let serial = scan_with(
            &dir,
            &cfg,
            &ScanOptions {
                jobs: 1,
                cache_path: None,
            },
        )
        .expect("serial");
        let parallel = scan_with(
            &dir,
            &cfg,
            &ScanOptions {
                jobs: 4,
                cache_path: None,
            },
        )
        .expect("parallel");
        let _ = std::fs::remove_dir_all(&dir);
        let key = |r: &ScanResult| {
            r.findings
                .iter()
                .map(|f| (f.path.clone(), f.line, f.col, f.rule, f.message.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&serial), key(&parallel));
        assert_eq!(serial.files_scanned, 8);
    }

    #[test]
    fn cache_round_trips_and_invalidates_on_edit_and_config_change() {
        let dir = std::env::temp_dir().join(format!("genlint-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("crates/x/src")).expect("mkdir");
        let f0 = dir.join("crates/x/src/a.rs");
        std::fs::write(&f0, "fn f() { std::fs::write(p, d); }\n").expect("write");
        let cache = dir.join("cache.txt");
        let opts = ScanOptions {
            jobs: 1,
            cache_path: Some(cache.clone()),
        };
        let cfg = Config::default();
        let cold = scan_with(&dir, &cfg, &opts).expect("cold");
        assert_eq!(cold.cache_hits, 0);
        let warm = scan_with(&dir, &cfg, &opts).expect("warm");
        assert_eq!(warm.cache_hits, warm.files_scanned);
        let key = |r: &ScanResult| {
            r.findings
                .iter()
                .map(|f| (f.path.clone(), f.line, f.col, f.rule, f.message.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&cold), key(&warm), "cache must not change results");
        // edit the file: its entry goes cold
        std::fs::write(&f0, "fn g() { std::fs::write(p, d); }\n").expect("rewrite");
        let edited = scan_with(&dir, &cfg, &opts).expect("edited");
        assert_eq!(edited.cache_hits, 0);
        // change the config: the whole cache goes cold
        let cfg2 = Config {
            no_panic_crates: vec!["x".into()],
            ..Config::default()
        };
        let reconf = scan_with(&dir, &cfg2, &opts).expect("reconf");
        assert_eq!(reconf.cache_hits, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_escape_round_trips() {
        for s in ["plain", "a\nb", "a\tb", "back\\slash", "\\n literal"] {
            assert_eq!(cache_unescape(&cache_escape(s)), s, "{s:?}");
        }
    }
}
