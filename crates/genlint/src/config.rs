//! `genlint.toml` loading: rule scope configuration and the justified
//! baseline.
//!
//! genlint is dependency-free, so this module implements the small TOML
//! subset the config actually uses — `[section]` tables, `[[section]]`
//! arrays of tables, `key = "string"`, `key = ["a", "b"]`, comments —
//! rather than pulling in a full parser. Unknown sections and keys are
//! rejected loudly: a typo in an invariant config must not silently
//! disable the invariant.

use std::fmt;

/// One justified exemption. `path` is a workspace-relative prefix: the
/// entry covers a single file or a whole directory.
#[derive(Debug, Clone, Default)]
pub struct AllowEntry {
    pub rule: String,
    pub path: String,
    pub reason: String,
}

/// One declared mutator set for the cache-coherence rule: every `pub fn`
/// taking `&mut self` in `impl <type_name>` inside `file` must call
/// `bump()` unless listed in `exempt`.
#[derive(Debug, Clone, Default)]
pub struct MutatorSet {
    pub file: String,
    pub type_name: String,
    pub bump: String,
    pub exempt: Vec<String>,
}

/// One justified `Ordering::Relaxed` site set for the atomics-discipline
/// rule: within `file`, the named atomics (receiver or field identifiers)
/// may use `Relaxed` — telemetry counters whose values never steer a
/// coherence decision. The reason is mandatory and entries that match no
/// Relaxed site are reported as stale, so the allowlist can only shrink.
#[derive(Debug, Clone, Default)]
pub struct RelaxedOk {
    pub file: String,
    pub idents: Vec<String>,
    pub reason: String,
}

/// Parsed configuration.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Receiver names (last path segment) treated as locks by R4.
    pub lock_names: Vec<String>,
    /// Declared global acquisition order for R4 (outermost first).
    pub lock_order: Vec<String>,
    /// Function names that must never be called with a declared-lock
    /// guard live (R4 snapshot coherence): handler execution and the
    /// shared query executor run against a cloned `Arc` snapshot, not
    /// under a lock.
    pub guard_free_calls: Vec<String>,
    /// Declared mutator sets for R3.
    pub mutators: Vec<MutatorSet>,
    /// Crates whose non-test `Ordering::Relaxed` uses the atomics rule
    /// flags (R8). Empty = rule unconfigured.
    pub atomics_crates: Vec<String>,
    /// Justified Relaxed sites for R8.
    pub relaxed_ok: Vec<RelaxedOk>,
    /// Crates whose non-test code the error-swallow rule scans (R9):
    /// the durable-path crates where a discarded `Result` means silent
    /// data loss.
    pub error_swallow_crates: Vec<String>,
    /// The justified baseline (suppressed findings).
    pub allow: Vec<AllowEntry>,
}

/// Config / parse failure with a line number.
#[derive(Debug)]
pub struct ConfigError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "genlint.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

fn err(line: usize, message: impl Into<String>) -> ConfigError {
    ConfigError {
        line,
        message: message.into(),
    }
}

/// Parse a `"quoted string"` value.
fn parse_string(line: usize, v: &str) -> Result<String, ConfigError> {
    let v = v.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Ok(v[1..v.len() - 1].to_owned())
    } else {
        Err(err(line, format!("expected a quoted string, got `{v}`")))
    }
}

/// Parse a `["a", "b"]` single-line array of strings.
fn parse_string_array(line: usize, v: &str) -> Result<Vec<String>, ConfigError> {
    let v = v.trim();
    let inner = v
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| err(line, format!("expected a [\"...\"] array, got `{v}`")))?;
    let mut out = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        out.push(parse_string(line, part)?);
    }
    Ok(out)
}

/// Strip a trailing `# comment` that is outside any quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parse `genlint.toml` text.
pub fn parse(text: &str) -> Result<Config, ConfigError> {
    #[derive(PartialEq)]
    enum Section {
        None,
        LockDiscipline,
        AtomicsDiscipline,
        ErrorSwallow,
        Mutator,
        RelaxedOk,
        Allow,
    }
    let mut cfg = Config::default();
    let mut section = Section::None;
    for (idx, raw_line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
            match header.trim() {
                "allow" => {
                    cfg.allow.push(AllowEntry::default());
                    section = Section::Allow;
                }
                "cache-coherence.mutators" => {
                    cfg.mutators.push(MutatorSet::default());
                    section = Section::Mutator;
                }
                "atomics-discipline.relaxed-ok" => {
                    cfg.relaxed_ok.push(RelaxedOk::default());
                    section = Section::RelaxedOk;
                }
                other => return Err(err(lineno, format!("unknown array section `{other}`"))),
            }
            continue;
        }
        if let Some(header) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            section = match header.trim() {
                "lock-discipline" => Section::LockDiscipline,
                "atomics-discipline" => Section::AtomicsDiscipline,
                "error-swallow" => Section::ErrorSwallow,
                other => return Err(err(lineno, format!("unknown section `{other}`"))),
            };
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| err(lineno, format!("expected `key = value`, got `{line}`")))?;
        let key = key.trim();
        match section {
            Section::None => {
                return Err(err(lineno, format!("key `{key}` outside any section")))
            }
            Section::LockDiscipline => match key {
                "locks" => cfg.lock_names = parse_string_array(lineno, value)?,
                "order" => cfg.lock_order = parse_string_array(lineno, value)?,
                "guard_free_calls" => {
                    cfg.guard_free_calls = parse_string_array(lineno, value)?
                }
                _ => {
                    return Err(err(
                        lineno,
                        format!("unknown key `{key}` in [lock-discipline]"),
                    ))
                }
            },
            Section::AtomicsDiscipline => match key {
                "crates" => cfg.atomics_crates = parse_string_array(lineno, value)?,
                _ => {
                    return Err(err(
                        lineno,
                        format!("unknown key `{key}` in [atomics-discipline]"),
                    ))
                }
            },
            Section::ErrorSwallow => match key {
                "crates" => cfg.error_swallow_crates = parse_string_array(lineno, value)?,
                _ => {
                    return Err(err(
                        lineno,
                        format!("unknown key `{key}` in [error-swallow]"),
                    ))
                }
            },
            Section::RelaxedOk => {
                let Some(r) = cfg.relaxed_ok.last_mut() else {
                    return Err(err(
                        lineno,
                        "relaxed-ok key before [[atomics-discipline.relaxed-ok]]",
                    ));
                };
                match key {
                    "file" => r.file = parse_string(lineno, value)?,
                    "idents" => r.idents = parse_string_array(lineno, value)?,
                    "reason" => r.reason = parse_string(lineno, value)?,
                    _ => {
                        return Err(err(
                            lineno,
                            format!("unknown key `{key}` in [[atomics-discipline.relaxed-ok]]"),
                        ))
                    }
                }
            }
            Section::Mutator => {
                let Some(m) = cfg.mutators.last_mut() else {
                    return Err(err(lineno, "mutator key before [[cache-coherence.mutators]]"));
                };
                match key {
                    "file" => m.file = parse_string(lineno, value)?,
                    "impl" => m.type_name = parse_string(lineno, value)?,
                    "bump" => m.bump = parse_string(lineno, value)?,
                    "exempt" => m.exempt = parse_string_array(lineno, value)?,
                    _ => {
                        return Err(err(
                            lineno,
                            format!("unknown key `{key}` in [[cache-coherence.mutators]]"),
                        ))
                    }
                }
            }
            Section::Allow => {
                let Some(a) = cfg.allow.last_mut() else {
                    return Err(err(lineno, "allow key before [[allow]]"));
                };
                match key {
                    "rule" => a.rule = parse_string(lineno, value)?,
                    "path" => a.path = parse_string(lineno, value)?,
                    "reason" => a.reason = parse_string(lineno, value)?,
                    _ => return Err(err(lineno, format!("unknown key `{key}` in [[allow]]"))),
                }
            }
        }
    }
    // every baseline entry must be justified
    for a in &cfg.allow {
        if a.rule.is_empty() || a.path.is_empty() || a.reason.is_empty() {
            return Err(err(
                0,
                format!(
                    "[[allow]] entry for rule `{}` path `{}` must set rule, path, and a non-empty reason",
                    a.rule, a.path
                ),
            ));
        }
    }
    for m in &cfg.mutators {
        if m.file.is_empty() || m.type_name.is_empty() || m.bump.is_empty() {
            return Err(err(
                0,
                "[[cache-coherence.mutators]] entry must set file, impl, and bump".to_owned(),
            ));
        }
    }
    // every Relaxed allowlist entry must be fully justified, and the
    // allowlist is meaningless without the rule being scoped to crates
    for r in &cfg.relaxed_ok {
        if r.file.is_empty() || r.idents.is_empty() || r.reason.is_empty() {
            return Err(err(
                0,
                "[[atomics-discipline.relaxed-ok]] entry must set file, idents, and a \
                 non-empty reason"
                    .to_owned(),
            ));
        }
    }
    if !cfg.relaxed_ok.is_empty() && cfg.atomics_crates.is_empty() {
        return Err(err(
            0,
            "[atomics-discipline] crates must be set when relaxed-ok entries are declared \
             (an unscoped rule would make every entry stale)"
                .to_owned(),
        ));
    }
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_config() {
        let text = r#"
# comment
[lock-discipline]
locks = ["cache", "state"]  # trailing comment
order = ["state", "cache"]
guard_free_calls = ["run_query"]

[[cache-coherence.mutators]]
file = "crates/gam/src/store.rs"
impl = "GamStore"
bump = "bump_mutations"
exempt = ["checkpoint"]

[[allow]]
rule = "vfs-bypass"
path = "crates/bench"
reason = "bench reports are non-durable"
"#;
        let cfg = parse(text).expect("parses");
        assert_eq!(cfg.lock_names, vec!["cache", "state"]);
        assert_eq!(cfg.lock_order, vec!["state", "cache"]);
        assert_eq!(cfg.guard_free_calls, vec!["run_query"]);
        assert_eq!(cfg.mutators.len(), 1);
        assert_eq!(cfg.mutators[0].type_name, "GamStore");
        assert_eq!(cfg.allow.len(), 1);
        assert_eq!(cfg.allow[0].rule, "vfs-bypass");
    }

    #[test]
    fn rejects_unknown_sections_and_keys() {
        assert!(parse("[nope]\n").is_err());
        assert!(parse("[lock-discipline]\nwat = \"x\"\n").is_err());
        // sections of deleted rules are unknown now, not silently ignored
        assert!(parse("[no-panic]\ncrates = [\"gam\"]\n").is_err());
        assert!(parse("[wal-bracket]\nsync_exempt = [\"flush\"]\n").is_err());
        assert!(parse("[[lock-discipline.read-entries]]\nfile = \"x.rs\"\n").is_err());
        assert!(parse("stray = \"x\"\n").is_err());
    }

    #[test]
    fn parses_atomics_and_error_swallow_sections() {
        let text = "[atomics-discipline]\ncrates = [\"relstore\", \"serve\"]\n\
                    [[atomics-discipline.relaxed-ok]]\n\
                    file = \"crates/relstore/src/pager.rs\"\n\
                    idents = [\"hits\", \"misses\"]\n\
                    reason = \"telemetry counters\"\n\
                    [error-swallow]\ncrates = [\"relstore\", \"import\"]\n";
        let cfg = parse(text).expect("parses");
        assert_eq!(cfg.atomics_crates, vec!["relstore", "serve"]);
        assert_eq!(cfg.relaxed_ok.len(), 1);
        assert_eq!(cfg.relaxed_ok[0].idents, vec!["hits", "misses"]);
        assert_eq!(cfg.error_swallow_crates, vec!["relstore", "import"]);
    }

    #[test]
    fn rejects_unjustified_or_unscoped_relaxed_ok() {
        let text = "[atomics-discipline]\ncrates = [\"relstore\"]\n\
                    [[atomics-discipline.relaxed-ok]]\n\
                    file = \"crates/relstore/src/pager.rs\"\nidents = [\"hits\"]\n";
        assert!(parse(text).is_err(), "missing reason must fail");
        let text = "[[atomics-discipline.relaxed-ok]]\n\
                    file = \"x.rs\"\nidents = [\"hits\"]\nreason = \"r\"\n";
        assert!(parse(text).is_err(), "allowlist without crate scope must fail");
    }

    #[test]
    fn rejects_unjustified_allow() {
        let text = "[[allow]]\nrule = \"vfs-bypass\"\npath = \"x\"\n";
        assert!(parse(text).is_err(), "missing reason must fail");
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let cfg = parse("[[allow]]\nrule = \"r\"\npath = \"a#b\"\nreason = \"c # d\"\n")
            .expect("parses");
        assert_eq!(cfg.allow[0].path, "a#b");
        assert_eq!(cfg.allow[0].reason, "c # d");
    }
}
