//! Human, JSON, and SARIF reporters over a [`ScanResult`].
//!
//! JSON and SARIF are emitted by a hand-rolled escaper (genlint is
//! std-only by design — see DESIGN.md §11); the JSON schema is stable so
//! CI can parse it:
//!
//! ```json
//! {
//!   "files_scanned": 63,
//!   "suppressed": 2,
//!   "rules": {"vfs-bypass": 0, ...},
//!   "findings": [{"rule": "...", "path": "...", "line": 7, "col": 13,
//!                 "message": "..."}]
//! }
//! ```
//!
//! SARIF output is the minimal valid subset of SARIF 2.1.0 — one run,
//! one driver, a rule table, and one result per finding with a physical
//! location — enough for GitHub code scanning and SARIF viewers to
//! render findings inline. `col == 0` means "whole file" (config-rot
//! findings); those are emitted without a region.

use crate::rules::{rule_names, Finding};
use crate::ScanResult;
use std::fmt::Write as _;

/// Escape a string for inclusion in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Per-rule finding counts, in registry order (rules with zero findings
/// included, so reports always show the full surface).
pub fn per_rule_counts(findings: &[Finding]) -> Vec<(&'static str, usize)> {
    rule_names()
        .into_iter()
        .map(|name| (name, findings.iter().filter(|f| f.rule == name).count()))
        .collect()
}

/// Render the human report. Locations are `path:line:col:`; col 0
/// (whole-file findings) renders as `path:line:`.
pub fn human(result: &ScanResult) -> String {
    let mut out = String::new();
    for f in &result.findings {
        if f.col > 0 {
            let _ = writeln!(
                out,
                "{}:{}:{}: [{}] {}",
                f.path, f.line, f.col, f.rule, f.message
            );
        } else {
            let _ = writeln!(out, "{}:{}: [{}] {}", f.path, f.line, f.rule, f.message);
        }
    }
    if !result.findings.is_empty() {
        out.push('\n');
    }
    let counts = per_rule_counts(&result.findings);
    let summary = counts
        .iter()
        .map(|(name, n)| format!("{name}: {n}"))
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(
        out,
        "genlint: {} finding(s) in {} file(s) ({summary}); {} baselined",
        result.findings.len(),
        result.files_scanned,
        result.suppressed
    );
    out
}

/// Render the JSON report.
pub fn json(result: &ScanResult) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"files_scanned\": {},", result.files_scanned);
    let _ = writeln!(out, "  \"suppressed\": {},", result.suppressed);
    let rules = per_rule_counts(&result.findings)
        .iter()
        .map(|(name, n)| format!("\"{}\": {n}", json_escape(name)))
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(out, "  \"rules\": {{{rules}}},");
    out.push_str("  \"findings\": [");
    for (i, f) in result.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"col\": {}, \
             \"message\": \"{}\"}}",
            json_escape(f.rule),
            json_escape(&f.path),
            f.line,
            f.col,
            json_escape(&f.message)
        );
    }
    if !result.findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Render the SARIF 2.1.0 report.
pub fn sarif(result: &ScanResult) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"$schema\": \
         \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n",
    );
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [{\n");
    out.push_str("    \"tool\": {\"driver\": {\"name\": \"genlint\", \"rules\": [");
    let names = rule_names();
    for (i, name) in names.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{{\"id\": \"{}\"}}", json_escape(name));
    }
    out.push_str("]}},\n");
    out.push_str("    \"results\": [");
    for (i, f) in result.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n      {{\"ruleId\": \"{}\", \"level\": \"error\", \
             \"message\": {{\"text\": \"{}\"}}, \"locations\": [{{\"physicalLocation\": \
             {{\"artifactLocation\": {{\"uri\": \"{}\"}}",
            json_escape(f.rule),
            json_escape(&f.message),
            json_escape(&f.path),
        );
        if f.col > 0 {
            let _ = write!(
                out,
                ", \"region\": {{\"startLine\": {}, \"startColumn\": {}}}",
                f.line, f.col
            );
        }
        out.push_str("}}]}");
    }
    if !result.findings.is_empty() {
        out.push_str("\n    ");
    }
    out.push_str("]\n  }]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ScanResult {
        ScanResult {
            findings: vec![
                Finding {
                    rule: "vfs-bypass",
                    path: "crates/import/src/pipeline.rs".into(),
                    line: 73,
                    col: 13,
                    message: "direct \"std::fs\" call\nsecond line".into(),
                },
                Finding {
                    rule: "cache-coherence",
                    path: "crates/genmapper/src/model.rs".into(),
                    line: 1,
                    col: 0,
                    message: "whole-file finding".into(),
                },
            ],
            suppressed: 2,
            files_scanned: 10,
        }
    }

    #[test]
    fn escapes_json_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn human_report_has_location_and_summary() {
        let text = human(&sample());
        assert!(text.contains("crates/import/src/pipeline.rs:73:13: [vfs-bypass]"));
        // col 0 drops the column segment
        assert!(text.contains("crates/genmapper/src/model.rs:1: [cache-coherence]"));
        assert!(text.contains("2 finding(s) in 10 file(s)"));
        assert!(text.contains("2 baselined"));
    }

    #[test]
    fn json_report_is_escaped_and_lists_all_rules() {
        let text = json(&sample());
        assert!(text.contains("\\\"std::fs\\\""));
        assert!(text.contains("\\nsecond line"));
        assert!(text.contains("\"vfs-bypass\": 1"));
        assert!(text.contains("\"wal-bracket\": 0"));
        assert!(text.contains("\"lock-order-graph\": 0"));
        assert!(text.contains("\"files_scanned\": 10"));
        assert!(text.contains("\"col\": 13"));
    }

    #[test]
    fn sarif_report_has_schema_rules_and_regions() {
        let text = sarif(&sample());
        assert!(text.contains("\"version\": \"2.1.0\""));
        assert!(text.contains("\"name\": \"genlint\""));
        assert!(text.contains("{\"id\": \"lock-order-graph\"}"));
        assert!(text.contains("\"startLine\": 73"));
        assert!(text.contains("\"startColumn\": 13"));
        // whole-file finding (col 0) carries no region
        let whole = text
            .split("genmapper/src/model.rs")
            .nth(1)
            .expect("second finding present");
        assert!(!whole[..whole.find('}').expect("object end")].contains("region"));
    }

    #[test]
    fn empty_result_is_valid() {
        let text = json(&ScanResult {
            findings: vec![],
            suppressed: 0,
            files_scanned: 0,
        });
        assert!(text.contains("\"findings\": []"));
        let text = sarif(&ScanResult {
            findings: vec![],
            suppressed: 0,
            files_scanned: 0,
        });
        assert!(text.contains("\"results\": []"));
    }
}
