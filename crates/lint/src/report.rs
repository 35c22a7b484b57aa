//! Finding output: human-readable text, a machine-readable JSON report
//! (following the hand-rolled conventions of `crates/sim/src/json.rs` —
//! ordered keys, exact unsigned integers, escaped strings), and the
//! per-rule suppression budgets.
//!
//! The JSON report is stamped with [`SCHEMA_VERSION`], consistent with
//! the PR-8 artifact convention.

use std::fmt::Write as _;

use crate::rules::{Finding, LintOutcome, Rule};

/// Schema version stamped into the JSON report.
pub const SCHEMA_VERSION: u32 = 3;

/// Per-rule suppression budgets: the most justified `simlint: allow`
/// directives a rule may carry across the workspace. Both are 0 — the
/// rng-discipline migration is complete (DESIGN.md §11) and shard state
/// must be `Send` by construction — so a new site must be fixed, never
/// suppressed.
pub const BUDGETS: [(Rule, usize); 2] = [(Rule::ShardSafety, 0), (Rule::RngDiscipline, 0)];

/// Justified `simlint: allow` directives for `rule` in the outcome.
fn allows(outcome: &LintOutcome, rule: Rule) -> usize {
    outcome
        .allow_directives
        .get(rule.name())
        .copied()
        .unwrap_or(0)
}

/// Checks every budget against the outcome's directive census,
/// returning one `suppression-budget` finding per exceeded rule.
pub fn check_budgets(outcome: &LintOutcome, budgets: &[(Rule, usize)]) -> Vec<Finding> {
    let mut out = Vec::new();
    for &(rule, max) in budgets {
        let used = allows(outcome, rule);
        if used > max {
            out.push(Finding {
                rule: Rule::SuppressionBudget,
                file: "(workspace)".to_string(),
                line: 0,
                message: format!(
                    "suppression budget exceeded for `{}`: {used} allow(s) > max {max} — \
                     the allowlist must shrink, never grow; fix the new site instead of \
                     suppressing it",
                    rule.name()
                ),
                snippet: String::new(),
            });
        }
    }
    out
}

/// Renders findings for terminals: `path:line: [rule] message` plus the
/// offending source line, then a summary line and a per-rule allows
/// line (the determinism-matrix CI job reads the latter as its
/// suppression-count trend).
pub fn render_human(outcome: &LintOutcome) -> String {
    let mut out = String::new();
    for f in &outcome.findings {
        let _ = writeln!(
            out,
            "{}:{}: [{}] {}",
            f.file,
            f.line,
            f.rule.name(),
            f.message
        );
        if !f.snippet.is_empty() {
            let _ = writeln!(out, "    {}", f.snippet);
        }
    }
    let _ = writeln!(
        out,
        "simlint: {} finding(s), {} suppressed, {} file(s) scanned",
        outcome.findings.len(),
        outcome.suppressed,
        outcome.files_scanned
    );
    let mut allows = String::new();
    for (rule, n) in &outcome.allow_directives {
        let _ = write!(allows, " {rule}={n}");
    }
    let _ = writeln!(
        out,
        "simlint allows:{}",
        if allows.is_empty() { " none" } else { &allows }
    );
    out
}

/// Escapes a string for JSON output (same subset as the sim crate's
/// hand-rolled writer: control characters, quotes and backslashes).
fn escape_json(s: &str) -> String {
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

/// Serializes the outcome as a schema-stamped JSON report object with
/// per-rule suppression counts and budget verdicts.
pub fn render_json(outcome: &LintOutcome, budgets: &[(Rule, usize)]) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"schema_version\":{SCHEMA_VERSION},");
    let _ = write!(out, "\"files_scanned\":{},", outcome.files_scanned);
    let _ = write!(out, "\"suppressed\":{},", outcome.suppressed);
    out.push_str("\"allows\":{");
    for (i, (rule, n)) in outcome.allow_directives.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{n}", escape_json(rule));
    }
    out.push_str("},\"budgets\":[");
    for (i, &(rule, max)) in budgets.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let used = allows(outcome, rule);
        let _ = write!(
            out,
            "{{\"rule\":\"{}\",\"max\":{max},\"used\":{used},\"ok\":{}}}",
            rule.name(),
            used <= max
        );
    }
    out.push_str("],\"findings\":[");
    for (i, f) in outcome.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\",\"snippet\":\"{}\"}}",
            f.rule.name(),
            escape_json(&f.file),
            f.line,
            escape_json(&f.message),
            escape_json(&f.snippet)
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    fn sample() -> LintOutcome {
        let mut allow_directives = BTreeMap::new();
        allow_directives.insert("rng-discipline".to_string(), 5);
        LintOutcome {
            findings: vec![Finding {
                rule: Rule::FloatEq,
                file: "crates/sim/src/x.rs".to_string(),
                line: 7,
                message: "`==` against a float literal".to_string(),
                snippet: "if x == 0.0 {".to_string(),
            }],
            suppressed: 2,
            files_scanned: 3,
            allow_directives,
        }
    }

    #[test]
    fn json_report_is_schema_stamped() {
        let json = render_json(&sample(), &[(Rule::RngDiscipline, 5)]);
        assert!(json.starts_with("{\"schema_version\":3,"));
        assert!(json.contains("\"rule\":\"float-eq\""));
        assert!(json.contains("\"line\":7"));
        assert!(json.contains("\"allows\":{\"rng-discipline\":5}"));
        assert!(json.contains(
            "\"budgets\":[{\"rule\":\"rng-discipline\",\"max\":5,\"used\":5,\"ok\":true}]"
        ));
    }

    #[test]
    fn budgets_gate_allow_counts() {
        let outcome = sample(); // 5 rng-discipline directives
        assert!(check_budgets(&outcome, &[(Rule::RngDiscipline, 5)]).is_empty());
        let bad = check_budgets(&outcome, &[(Rule::RngDiscipline, 4)]);
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].rule, Rule::SuppressionBudget);
        assert!(bad[0].message.contains("> max 4"));
        // A rule with no directives holds any budget, 0 included.
        assert!(check_budgets(&outcome, &[(Rule::ShardSafety, 0)]).is_empty());
    }

    #[test]
    fn human_rendering_mentions_rule_line_and_allows() {
        let text = render_human(&sample());
        assert!(text.contains("crates/sim/src/x.rs:7: [float-eq]"));
        assert!(text.contains("1 finding(s), 2 suppressed"));
        assert!(text.contains("simlint allows: rng-discipline=5"));
    }
}
