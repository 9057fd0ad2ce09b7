//! A line-oriented command interface over [`GenMapper`] — the reproduction
//! of the paper's interactive access (§5.1, Figure 6), as a REPL instead
//! of a web UI. The command language is parsed and executed here so it is
//! unit-testable; `src/bin/genmapper-cli.rs` wires it to stdin/stdout.
//!
//! ```text
//! demo 7                          generate + import a demo ecosystem
//! sources                         list sources with metadata
//! stats                           deployment cardinalities
//! search <source> <keyword>       keyword search over object names
//! prefix <source> <accession..>   accession prefix search
//! info <source> <accession>       object information (Figure 6c)
//! path <from> <to>                automatic shortest mapping path
//! paths <from> <to> <k>           k alternative paths
//! map <from> <to>                 Map(S, T) summary
//! compose <s1> <s2> [<s3> ...]    Compose along a path
//! materialize composed <s1> <s2> [...]
//! materialize subsumed <source>
//! query <source>[:a1,a2] <and|or> <spec> [<spec> ...]
//!        spec = [!]Target[=a1,a2][@0.5]  (! negates; @t sets min evidence)
//! explain query <...>             the cost-based plan for a query, with
//!                                 estimated vs actual cardinalities
//! export <tsv|csv|json|md>        export the last query's view
//! budget [<n>]                    show/set the per-dump import error budget
//! help / quit
//! ```

use crate::query::{QuerySpec, TargetQuery};
use crate::resolved::{ExportFormat, ResolvedView};
use crate::system::GenMapper;
use gam::{GamRead, GamResult};
use sources::ecosystem::{Ecosystem, EcosystemParams};
use std::fmt::Write as _;

/// A parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    Help,
    Quit,
    Demo { seed: u64 },
    Sources,
    Stats,
    Search { source: String, keyword: String },
    Prefix { source: String, prefix: String },
    Info { source: String, accession: String },
    Path { from: String, to: String },
    Paths { from: String, to: String, k: usize },
    Map { from: String, to: String },
    Compose { path: Vec<String> },
    MaterializeComposed { path: Vec<String> },
    MaterializeSubsumed { source: String },
    Query(QuerySpec),
    Explain(QuerySpec),
    Export { format: ExportFormat },
    Budget { budget: Option<usize> },
}

/// Errors from command parsing.
#[derive(Debug, PartialEq, Eq)]
pub struct CliParseError(pub String);

impl std::fmt::Display for CliParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error: {}", self.0)
    }
}

impl std::error::Error for CliParseError {}

fn err(msg: impl Into<String>) -> CliParseError {
    CliParseError(msg.into())
}

/// Parse one input line into a command. Empty lines and `#` comments parse
/// to `Help`-free no-ops represented as `None`.
pub fn parse_command(line: &str) -> Result<Option<Command>, CliParseError> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut words = line.split_whitespace();
    let Some(verb) = words.next() else {
        return Ok(None);
    };
    let rest: Vec<&str> = words.collect();
    let cmd = match verb {
        "help" => Command::Help,
        "quit" | "exit" => Command::Quit,
        "demo" => Command::Demo {
            seed: rest
                .first()
                .unwrap_or(&"7")
                .parse()
                .map_err(|_| err("demo takes a numeric seed"))?,
        },
        "sources" => Command::Sources,
        "stats" => Command::Stats,
        "search" => match rest.as_slice() {
            [source, keyword @ ..] if !keyword.is_empty() => Command::Search {
                source: (*source).to_owned(),
                keyword: keyword.join(" "),
            },
            _ => return Err(err("usage: search <source> <keyword>")),
        },
        "prefix" => match rest.as_slice() {
            [source, prefix] => Command::Prefix {
                source: (*source).to_owned(),
                prefix: (*prefix).to_owned(),
            },
            _ => return Err(err("usage: prefix <source> <accession-prefix>")),
        },
        "info" => match rest.as_slice() {
            [source, accession] => Command::Info {
                source: (*source).to_owned(),
                accession: (*accession).to_owned(),
            },
            _ => return Err(err("usage: info <source> <accession>")),
        },
        "path" => match rest.as_slice() {
            [from, to] => Command::Path {
                from: (*from).to_owned(),
                to: (*to).to_owned(),
            },
            _ => return Err(err("usage: path <from> <to>")),
        },
        "paths" => match rest.as_slice() {
            [from, to, k] => Command::Paths {
                from: (*from).to_owned(),
                to: (*to).to_owned(),
                k: k.parse().map_err(|_| err("paths takes a numeric k"))?,
            },
            _ => return Err(err("usage: paths <from> <to> <k>")),
        },
        "map" => match rest.as_slice() {
            [from, to] => Command::Map {
                from: (*from).to_owned(),
                to: (*to).to_owned(),
            },
            _ => return Err(err("usage: map <from> <to>")),
        },
        "compose" => {
            if rest.len() < 2 {
                return Err(err("usage: compose <s1> <s2> [<s3> ...]"));
            }
            Command::Compose {
                path: rest.iter().map(|s| (*s).to_owned()).collect(),
            }
        }
        "materialize" => match rest.as_slice() {
            ["composed", path @ ..] if path.len() >= 2 => Command::MaterializeComposed {
                path: path.iter().map(|s| (*s).to_owned()).collect(),
            },
            ["subsumed", source] => Command::MaterializeSubsumed {
                source: (*source).to_owned(),
            },
            _ => {
                return Err(err(
                    "usage: materialize composed <s1> <s2> [...] | materialize subsumed <source>",
                ))
            }
        },
        "query" => Command::Query(parse_query(&rest)?),
        "explain" => match rest.as_slice() {
            ["query", q @ ..] if !q.is_empty() => Command::Explain(parse_query(q)?),
            _ => return Err(err("usage: explain query <source>[:accs] <and|or> <spec> ...")),
        },
        "budget" => match rest.as_slice() {
            [] => Command::Budget { budget: None },
            [n] => Command::Budget {
                budget: Some(n.parse().map_err(|_| err("budget takes a numeric count"))?),
            },
            _ => return Err(err("usage: budget [<n>]")),
        },
        "export" => {
            let format = match rest.as_slice() {
                [word] => ExportFormat::parse(word),
                _ => None,
            };
            Command::Export {
                format: format.ok_or_else(|| err("usage: export <tsv|csv|json|md>"))?,
            }
        }
        other => return Err(err(format!("unknown command {other:?}; try help"))),
    };
    Ok(Some(cmd))
}

/// `query <source>[:a1,a2] <and|or> <spec>...`, spec = `[!]Target[=a1,a2]`.
/// Public because the service layer speaks the same query words over the
/// wire as the REPL does on a line.
pub fn parse_query(rest: &[&str]) -> Result<QuerySpec, CliParseError> {
    let mut it = rest.iter();
    let head = it.next().ok_or_else(|| err("query needs a source"))?;
    let (source, accessions) = match head.split_once(':') {
        Some((s, accs)) => (s.to_owned(), accession_list(s, accs)?),
        None => ((*head).to_owned(), Vec::new()),
    };
    let combine = match it.next() {
        Some(&"and") => true,
        Some(&"or") => false,
        _ => return Err(err("query needs 'and' or 'or' after the source")),
    };
    let mut spec = QuerySpec::source(source);
    spec.accessions = accessions;
    spec = if combine { spec.and() } else { spec.or() };
    let mut any = false;
    for raw in it {
        any = true;
        let (negated, body) = match raw.strip_prefix('!') {
            Some(b) => (true, b),
            None => (false, *raw),
        };
        let (body, min_evidence) = match body.split_once('@') {
            Some((b, threshold)) => (
                b,
                Some(
                    threshold
                        .parse::<f64>()
                        .map_err(|_| err("bad evidence threshold"))?,
                ),
            ),
            None => (body, None),
        };
        let (name, accs) = match body.split_once('=') {
            Some((n, accs)) => (n, accession_list(n, accs)?),
            None => (body, Vec::new()),
        };
        if name.is_empty() {
            return Err(err("empty target name in query"));
        }
        let mut target = TargetQuery::new(name);
        target.accessions = accs;
        target.negated = negated;
        target.min_evidence = min_evidence;
        spec = spec.target_spec(target);
    }
    if !any {
        return Err(err("query needs at least one target spec"));
    }
    Ok(spec)
}

/// The accessions after a `:` or `=`, comma-separated; a trailing comma is
/// allowed. No accession at all is an error, not "the whole source".
fn accession_list(name: &str, accs: &str) -> Result<Vec<String>, CliParseError> {
    let list: Vec<String> = accs.split(',').filter(|a| !a.is_empty()).map(str::to_owned).collect();
    if list.is_empty() {
        return Err(err(format!("{name}: no accession after ':' or '='")));
    }
    Ok(list)
}

/// The REPL session: a system handle plus the last generated view.
pub struct CliSession {
    gm: GenMapper,
    last_view: Option<ResolvedView>,
}

/// What the caller should do after executing a command.
#[derive(Debug, PartialEq, Eq)]
pub enum CliOutcome {
    Continue,
    Quit,
}

impl CliSession {
    /// A session over a fresh in-memory system.
    pub fn new() -> GamResult<Self> {
        Ok(CliSession {
            gm: GenMapper::in_memory()?,
            last_view: None,
        })
    }

    /// A session over an existing system (tests, pre-loaded data).
    pub fn with_system(gm: GenMapper) -> Self {
        CliSession { gm, last_view: None }
    }

    /// Access the underlying system.
    pub fn system(&mut self) -> &mut GenMapper {
        &mut self.gm
    }

    /// Execute one line; returns the printable output and whether to quit.
    pub fn execute_line(&mut self, line: &str) -> (String, CliOutcome) {
        match parse_command(line) {
            Ok(None) => (String::new(), CliOutcome::Continue),
            Ok(Some(cmd)) => self.execute(cmd),
            Err(e) => (format!("{e}\n"), CliOutcome::Continue),
        }
    }

    /// Execute a parsed command.
    pub fn execute(&mut self, cmd: Command) -> (String, CliOutcome) {
        let mut out = String::new();
        match self.run(cmd, &mut out) {
            Ok(CliOutcome::Quit) => (out, CliOutcome::Quit),
            Ok(CliOutcome::Continue) => (out, CliOutcome::Continue),
            Err(e) => (format!("error: {e}\n"), CliOutcome::Continue),
        }
    }

    fn run(&mut self, cmd: Command, out: &mut String) -> GamResult<CliOutcome> {
        match cmd {
            Command::Help => {
                let _ = writeln!(
                    out,
                    "commands: demo sources stats search prefix info path paths map compose materialize query explain export budget quit"
                );
            }
            Command::Quit => return Ok(CliOutcome::Quit),
            Command::Demo { seed } => {
                let eco = Ecosystem::generate(EcosystemParams::demo(seed));
                let reports = self.gm.import_dumps(&eco.dumps)?;
                let _ = writeln!(
                    out,
                    "imported {} dumps; {}",
                    reports.len(),
                    self.gm.cardinalities()?
                );
                write_quarantine_summary(out, &reports);
            }
            Command::Sources => {
                let counts: std::collections::BTreeMap<_, _> = self
                    .gm
                    .store()
                    .object_counts_per_source()?
                    .into_iter()
                    .collect();
                for s in self.gm.sources()? {
                    let _ = writeln!(
                        out,
                        "{:<24} {:<8} {:<8} {:>8} objects, release={}",
                        s.name,
                        s.content.to_string(),
                        s.structure.to_string(),
                        counts.get(&s.id).copied().unwrap_or(0),
                        s.release.as_deref().unwrap_or("-")
                    );
                }
            }
            Command::Stats => {
                let _ = writeln!(out, "{}", self.gm.cardinalities()?);
                for (rel_type, mappings, associations) in
                    self.gm.store().mapping_type_counts()?
                {
                    let _ = writeln!(
                        out,
                        "  {rel_type:<12} {mappings:>5} mappings, {associations:>8} associations"
                    );
                }
                // where the heap goes, per table and index, and on paged
                // stores the buffer pool's residency and hit rate
                let _ = write!(out, "{}", self.gm.store().database().stats()?);
            }
            Command::Search { source, keyword } => {
                let id = self.gm.source_id(&source)?;
                for obj in self.gm.store().search_objects(id, &keyword, 20)? {
                    let _ = writeln!(
                        out,
                        "{}\t{}",
                        obj.accession,
                        obj.text.as_deref().unwrap_or("")
                    );
                }
            }
            Command::Prefix { source, prefix } => {
                let id = self.gm.source_id(&source)?;
                for obj in self
                    .gm
                    .store()
                    .objects_with_accession_prefix(id, &prefix, 20)?
                {
                    let _ = writeln!(
                        out,
                        "{}\t{}",
                        obj.accession,
                        obj.text.as_deref().unwrap_or("")
                    );
                }
            }
            Command::Info { source, accession } => {
                let info = self.gm.object_info(&source, &accession)?;
                let _ = write!(out, "{info}");
            }
            Command::Path { from, to } => {
                let path = self.gm.find_path(&from, &to)?;
                let _ = writeln!(out, "{}", path.join(" -> "));
            }
            Command::Paths { from, to, k } => {
                for path in self.gm.find_paths(&from, &to, k)? {
                    let _ = writeln!(out, "{}", path.join(" -> "));
                }
            }
            Command::Map { from, to } => {
                let m = self.gm.map(&from, &to)?;
                let _ = writeln!(
                    out,
                    "{} associations, {} domain objects, {} range objects ({})",
                    m.len(),
                    m.domain_keys().len(),
                    m.range_keys().len(),
                    m.rel_type
                );
            }
            Command::Compose { path } => {
                let refs: Vec<&str> = path.iter().map(String::as_str).collect();
                let m = self.gm.compose(&refs, None)?;
                let _ = writeln!(
                    out,
                    "composed {}: {} associations",
                    path.join(" -> "),
                    m.len()
                );
            }
            Command::MaterializeComposed { path } => {
                let refs: Vec<&str> = path.iter().map(String::as_str).collect();
                let (rel, n) = self.gm.materialize_composed(&refs)?;
                let _ = writeln!(out, "materialized {rel} with {n} associations");
            }
            Command::MaterializeSubsumed { source } => {
                let (rel, n) = self.gm.materialize_subsumed(&source)?;
                let _ = writeln!(out, "materialized {rel} with {n} associations");
            }
            Command::Query(spec) => {
                let view = self.gm.query(&spec)?;
                let _ = write!(out, "{}", view.to_tsv());
                let _ = writeln!(out, "({} rows)", view.len());
                self.last_view = Some(view);
            }
            Command::Explain(spec) => {
                let _ = write!(out, "{}", self.gm.explain(&spec)?);
            }
            Command::Budget { budget } => {
                if let Some(n) = budget {
                    self.gm.set_error_budget(n);
                }
                let b = self.gm.error_budget();
                if b == 0 {
                    let _ = writeln!(out, "budget = 0 (strict: any malformed line fails a dump)");
                } else {
                    let _ = writeln!(out, "budget = {b} quarantined lines per dump");
                }
            }
            Command::Export { format } => match &self.last_view {
                None => {
                    let _ = writeln!(out, "no view yet; run a query first");
                }
                Some(view) => {
                    let text = view.render(format)?;
                    let _ = write!(out, "{text}");
                    if !text.ends_with('\n') {
                        let _ = writeln!(out);
                    }
                }
            },
        }
        Ok(CliOutcome::Continue)
    }
}

/// Append a per-source summary of quarantined dump lines, if any.
fn write_quarantine_summary(out: &mut String, reports: &[import::ImportReport]) {
    for report in reports {
        if report.quarantined.is_empty() {
            continue;
        }
        let _ = writeln!(
            out,
            "{}: quarantined {} malformed line(s):",
            report.source,
            report.quarantined.len()
        );
        for q in &report.quarantined {
            let _ = writeln!(out, "  line {}: {} ({})", q.line, q.snippet, q.reason);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use operators::Combine;

    #[test]
    fn parse_basic_commands() {
        assert_eq!(parse_command("help").unwrap(), Some(Command::Help));
        assert_eq!(parse_command("quit").unwrap(), Some(Command::Quit));
        assert_eq!(parse_command("  exit  ").unwrap(), Some(Command::Quit));
        assert_eq!(parse_command("").unwrap(), None);
        assert_eq!(parse_command("# comment").unwrap(), None);
        assert_eq!(
            parse_command("demo 42").unwrap(),
            Some(Command::Demo { seed: 42 })
        );
        assert_eq!(
            parse_command("path NetAffx GO").unwrap(),
            Some(Command::Path {
                from: "NetAffx".into(),
                to: "GO".into()
            })
        );
        assert!(parse_command("bogus").is_err());
        assert!(parse_command("demo notanumber").is_err());
        assert!(parse_command("path onlyone").is_err());
        assert!(parse_command("export xml").is_err());
        // there is no worker count to set
        assert_eq!(
            parse_command("jobs 4").unwrap_err().to_string(),
            "parse error: unknown command \"jobs\"; try help"
        );
        assert_eq!(
            parse_command("budget").unwrap(),
            Some(Command::Budget { budget: None })
        );
        assert_eq!(
            parse_command("budget 5").unwrap(),
            Some(Command::Budget { budget: Some(5) })
        );
        assert!(parse_command("budget lots").is_err());
        assert!(parse_command("budget 1 2").is_err());
        // explain wraps the regular query grammar
        let cmd = parse_command("explain query LocusLink:353 or GO").unwrap().unwrap();
        let Command::Explain(spec) = cmd else {
            panic!("not an explain")
        };
        assert_eq!(spec.source, "LocusLink");
        assert_eq!(spec.targets.len(), 1);
        assert!(parse_command("explain").is_err());
        assert!(parse_command("explain query").is_err());
        assert!(parse_command("explain path A B").is_err());
    }

    #[test]
    fn explain_renders_a_plan_tree() {
        let mut session = CliSession::new().unwrap();
        let (_, _) = session.execute_line("demo 7");
        let (out, _) = session.execute_line("explain query LocusLink:353 or Hugo GO");
        assert!(out.contains("generate-view OR"), "plan root: {out}");
        assert!(out.contains("target"), "target nodes: {out}");
        assert!(out.contains("actual="), "actual cardinalities: {out}");
        // the plan must agree with the query itself on the row count
        let (rows, _) = session.execute_line("query LocusLink:353 or Hugo GO");
        let n: usize = rows
            .lines()
            .find_map(|l| l.strip_prefix('(')?.strip_suffix(" rows)")?.parse().ok())
            .unwrap();
        let plan_rows: usize = out
            .lines()
            .next()
            .and_then(|l| l.rsplit("actual=").next())
            .and_then(|v| v.trim().parse().ok())
            .unwrap();
        assert_eq!(plan_rows, n, "plan rows vs query rows: {out}\n{rows}");
    }

    #[test]
    fn budget_command_sets_error_budget() {
        let mut session = CliSession::new().unwrap();
        let (out, _) = session.execute_line("budget");
        assert!(out.starts_with("budget = 0 (strict"), "output: {out}");
        let (out, _) = session.execute_line("budget 4");
        assert!(out.starts_with("budget = 4"), "output: {out}");
        assert_eq!(session.system().error_budget(), 4);
    }

    #[test]
    fn parse_query_syntax() {
        let cmd = parse_command("query LocusLink:353,1234 and Location=16q24 GO !OMIM")
            .unwrap()
            .unwrap();
        let Command::Query(spec) = cmd else {
            panic!("not a query")
        };
        assert_eq!(spec.source, "LocusLink");
        assert_eq!(spec.accessions, vec!["353", "1234"]);
        assert_eq!(spec.combine, Combine::And);
        assert_eq!(spec.targets.len(), 3);
        assert_eq!(spec.targets[0].source, "Location");
        assert_eq!(spec.targets[0].accessions, vec!["16q24"]);
        assert!(!spec.targets[0].negated);
        assert_eq!(spec.targets[1].source, "GO");
        assert!(spec.targets[1].accessions.is_empty());
        assert!(spec.targets[2].negated);
        assert_eq!(spec.targets[2].source, "OMIM");

        // evidence threshold suffix
        let cmd = parse_command("query NetAffx and Unigene@0.8").unwrap().unwrap();
        let Command::Query(spec2) = cmd else { panic!("not a query") };
        assert_eq!(spec2.targets[0].min_evidence, Some(0.8));
        assert!(parse_command("query NetAffx and Unigene@high").is_err());

        // whole-source OR query
        let cmd = parse_command("query Unigene or GO").unwrap().unwrap();
        let Command::Query(spec) = cmd else {
            panic!("not a query")
        };
        assert!(spec.accessions.is_empty());
        assert_eq!(spec.combine, Combine::Or);

        // malformed
        assert!(parse_command("query LocusLink").is_err(), "missing combine");
        assert!(parse_command("query LocusLink and").is_err(), "missing targets");
        assert!(parse_command("query LocusLink maybe GO").is_err());
        assert!(parse_command("query LocusLink and !=x").is_err(), "empty target");

        // an empty accession list is an error, not the whole source
        for q in [
            "query LocusLink: or Hugo",
            "query LocusLink:,, or Hugo",
            "query LocusLink:1003 or Hugo=",
            "query LocusLink:1003 or !Hugo=,@0.5",
        ] {
            assert!(parse_command(q).is_err(), "{q}");
        }
        // a trailing comma after at least one accession still parses
        let cmd = parse_command("query LocusLink:353, or Hugo=APRT,").unwrap().unwrap();
        let Command::Query(spec) = cmd else { panic!("not a query") };
        assert_eq!(spec.accessions, vec!["353"]);
        assert_eq!(spec.targets[0].accessions, vec!["APRT"]);
    }

    #[test]
    fn session_drives_the_full_workflow() {
        let mut session = CliSession::new().unwrap();
        let (out, rc) = session.execute_line("demo 7");
        assert_eq!(rc, CliOutcome::Continue);
        assert!(out.contains("sources"), "stats line printed: {out}");

        let (out, _) = session.execute_line("stats");
        assert!(out.contains("Fact"), "type breakdown shown: {out}");
        assert!(out.contains("IS_A"));
        assert!(out.contains("by_accession") && out.contains("entries"), "index lines: {out}");

        let (out, _) = session.execute_line("sources");
        assert!(out.contains("LocusLink"));
        assert!(out.contains("GO"));

        let (out, _) = session.execute_line("search LocusLink adenine");
        assert!(out.contains("353"));

        let (out, _) = session.execute_line("prefix GO GO:0009");
        assert!(out.contains("GO:0009116"));

        let (out, _) = session.execute_line("info LocusLink 353");
        assert!(out.contains("adenine phosphoribosyltransferase"));
        assert!(out.contains("Hugo"));

        let (out, _) = session.execute_line("path NetAffx GO");
        assert!(out.starts_with("NetAffx ->"));

        let (out, _) = session.execute_line("map LocusLink GO");
        assert!(out.contains("associations"));

        let (out, _) = session.execute_line("query LocusLink:353 and Hugo GO !OMIM");
        // locus 353 has OMIM entries, so the negated AND view is empty
        assert!(out.contains("(0 rows)"), "output: {out}");

        let (out, _) = session.execute_line("query LocusLink:353 or Hugo GO");
        assert!(out.contains("APRT"));

        let (out, _) = session.execute_line("export json");
        assert!(out.contains("\"APRT\""));

        let (out, _) = session.execute_line("export md");
        assert!(out.starts_with("| LocusLink |"), "markdown export: {out}");

        let (out, _) = session.execute_line("materialize composed Unigene LocusLink GO");
        assert!(out.contains("materialized"));

        // errors are reported, not fatal
        let (out, rc) = session.execute_line("info Nowhere 1");
        assert_eq!(rc, CliOutcome::Continue);
        assert!(out.starts_with("error:"));

        let (_, rc) = session.execute_line("quit");
        assert_eq!(rc, CliOutcome::Quit);
    }

    #[test]
    fn stats_reports_pool_metrics_for_paged_stores() {
        let dir = testkit::TempDir::new("genmapper-cli-paged");
        let gm = GenMapper::open_paged(&dir, relstore::PoolConfig::default()).unwrap();
        let mut session = CliSession::with_system(gm);
        let (out, _) = session.execute_line("demo 7");
        assert!(out.contains("sources"), "demo imported: {out}");
        let (out, _) = session.execute_line("stats");
        assert!(out.contains("pool:"), "pool line shown: {out}");
        assert!(out.contains("pages resident"), "output: {out}");
        drop(session);
        drop(dir);

        // the in-memory session has no pool and must not print the line
        let mut session = CliSession::new().unwrap();
        let (out, _) = session.execute_line("stats");
        assert!(!out.contains("pool:"), "output: {out}");
    }

    #[test]
    fn export_before_query_is_graceful() {
        let mut session = CliSession::new().unwrap();
        let (out, _) = session.execute_line("export tsv");
        assert!(out.contains("no view yet"));
    }
}
