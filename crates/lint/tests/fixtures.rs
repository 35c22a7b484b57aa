//! Every simlint rule must catch its seeded-violation fixture — and
//! nothing else in it. These tests pin the exact set of (rule, line)
//! pairs each fixture produces, so a lexer or rule regression that
//! silently stops detecting a class of violation fails loudly.

use comap_lint::{lint_files, Rule, SourceFile};

fn fixture(crate_name: &str, rel_path: &str, text: &str) -> SourceFile {
    SourceFile {
        rel_path: rel_path.to_string(),
        crate_name: crate_name.to_string(),
        text: text.to_string(),
    }
}

/// `(rule, line)` pairs of all findings, sorted.
fn findings(files: &[SourceFile]) -> Vec<(Rule, u32)> {
    let outcome = lint_files(files);
    outcome.findings.iter().map(|f| (f.rule, f.line)).collect()
}

fn lines_for(files: &[SourceFile], rule: Rule) -> Vec<u32> {
    findings(files)
        .into_iter()
        .filter(|(r, _)| *r == rule)
        .map(|(_, l)| l)
        .collect()
}

fn line_of(text: &str, needle: &str) -> u32 {
    for (i, l) in text.lines().enumerate() {
        if l.contains(needle) {
            return (i + 1) as u32;
        }
    }
    panic!("fixture lost its marker: {needle}");
}

#[test]
fn unit_hygiene_fixture_is_fully_detected() {
    let text = include_str!("../fixtures/unit_hygiene.rs");
    let files = [fixture("radio", "crates/radio/src/unit_hygiene.rs", text)];
    let expected = vec![
        line_of(text, "pub fn set_tx_power"),
        line_of(text, "pub fn record_rssi"),
        line_of(text, "pub fn pathloss_at"),
        line_of(text, "pub fn capture_margin"),
        line_of(text, "pub fn capture_margin"), // sinr and threshold_db
    ];
    assert_eq!(lines_for(&files, Rule::UnitHygiene), expected);
    // Nothing but unit-hygiene fires on this fixture.
    assert!(findings(&files)
        .iter()
        .all(|(r, _)| *r == Rule::UnitHygiene));
    // The same file outside the physics crates is clean.
    assert!(findings(&[fixture(
        "experiments",
        "crates/experiments/src/unit_hygiene.rs",
        text
    )])
    .is_empty());
}

#[test]
fn float_eq_fixture_is_fully_detected() {
    let text = include_str!("../fixtures/float_eq.rs");
    let files = [fixture("core", "crates/core/src/float_eq.rs", text)];
    let expected = vec![
        line_of(text, "let a = x == 0.0;"),
        line_of(text, "let b = 1.5 != x;"),
        line_of(text, "let c = x == 1e-9;"),
        line_of(text, "let h = x == -1.0;"),
    ];
    assert_eq!(lines_for(&files, Rule::FloatEq), expected);
    assert_eq!(lint_files(&files).suppressed, 1, "sentinel g is suppressed");
}

#[test]
fn suppression_without_reason_is_itself_a_finding() {
    let text = "// simlint: allow(float-eq)\nfn f(x: f64) -> bool { x == 0.0 }\n";
    let files = [fixture("core", "crates/core/src/x.rs", text)];
    let got = findings(&files);
    // The bare allow does NOT silence the finding, and is reported.
    assert_eq!(got, vec![(Rule::BadSuppression, 1), (Rule::FloatEq, 2)]);
}
