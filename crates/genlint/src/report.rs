//! The human reporter over a [`ScanResult`].

use crate::rules::{rule_names, Finding};
use crate::ScanResult;
use std::fmt::Write as _;

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
    fn human_report_has_location_and_summary() {
        let text = human(&sample());
        assert!(text.contains("crates/import/src/pipeline.rs:73:13: [vfs-bypass]"));
        // col 0 drops the column segment
        assert!(text.contains("crates/genmapper/src/model.rs:1: [cache-coherence]"));
        assert!(text.contains("2 finding(s) in 10 file(s)"));
        assert!(text.contains("2 baselined"));
    }
}
