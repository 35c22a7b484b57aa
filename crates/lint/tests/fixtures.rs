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
    ];
    assert_eq!(lines_for(&files, Rule::FloatEq), expected);
    assert_eq!(lint_files(&files).suppressed, 1, "sentinel g is suppressed");
}

#[test]
fn shard_safety_fixture_is_fully_detected() {
    let text = include_str!("../fixtures/shard_safety.rs");
    let files = [fixture("sim", "crates/sim/src/shard_safety.rs", text)];
    let expected = vec![
        line_of(text, "use std::rc::Rc;"),
        line_of(text, "use std::cell::{Cell, RefCell};"), // Cell
        line_of(text, "use std::cell::{Cell, RefCell};"), // RefCell
        line_of(text, "static mut EVENT_COUNTER"),
        line_of(text, "thread_local! {"),
        line_of(text, "shared: Rc<RefCell<Vec<u64>>>,"), // Rc
        line_of(text, "shared: Rc<RefCell<Vec<u64>>>,"), // RefCell
        line_of(text, "raw: *const u8,"),
    ];
    assert_eq!(lines_for(&files, Rule::ShardSafety), expected);
    assert_eq!(
        lint_files(&files).suppressed,
        1,
        "Scratch's Cell is suppressed"
    );
    assert!(findings(&files)
        .iter()
        .all(|(r, _)| *r == Rule::ShardSafety));
    // mac, core and radio are also in scope...
    for crate_name in ["mac", "core", "radio"] {
        assert_eq!(
            lines_for(
                &[fixture(crate_name, "crates/x/src/shard_safety.rs", text)],
                Rule::ShardSafety
            )
            .len(),
            8
        );
    }
    // ...but the experiments crate is not sharded.
    assert!(lines_for(
        &[fixture(
            "experiments",
            "crates/experiments/src/shard_safety.rs",
            text
        )],
        Rule::ShardSafety
    )
    .is_empty());

    let clean = include_str!("../fixtures/shard_safety_clean.rs");
    assert!(findings(&[fixture(
        "sim",
        "crates/sim/src/shard_safety_clean.rs",
        clean
    )])
    .is_empty());
}

#[test]
fn rng_discipline_fixture_is_fully_detected() {
    let text = include_str!("../fixtures/rng_discipline.rs");
    let files = [fixture("sim", "crates/sim/src/rng_discipline.rs", text)];
    let expected = vec![
        line_of(text, "self.rng.gen::<f64>()"), // fade
        line_of(text, "draw_slots(stage, &mut self.rng)"),
        line_of(text, "local.gen::<f64>()"),
    ];
    assert_eq!(lines_for(&files, Rule::RngDiscipline), expected);
    assert_eq!(
        lint_files(&files).suppressed,
        1,
        "survival()'s fixture allow must be parsed and counted"
    );
    assert!(findings(&files)
        .iter()
        .all(|(r, _)| *r == Rule::RngDiscipline));
    // mac and core are also in scope; experiments is not.
    assert_eq!(
        lines_for(
            &[fixture("mac", "crates/mac/src/rng_discipline.rs", text)],
            Rule::RngDiscipline
        )
        .len(),
        3
    );
    assert!(lines_for(
        &[fixture(
            "experiments",
            "crates/experiments/src/rng_discipline.rs",
            text
        )],
        Rule::RngDiscipline
    )
    .is_empty());

    let clean = include_str!("../fixtures/rng_discipline_clean.rs");
    assert!(findings(&[fixture(
        "sim",
        "crates/sim/src/rng_discipline_clean.rs",
        clean
    )])
    .is_empty());
}

#[test]
fn suppression_budget_fixture_trips_and_respects_budgets() {
    use comap_lint::report::check_budgets;

    let text = include_str!("../fixtures/suppression_budget.rs");
    let files = [fixture(
        "core",
        "crates/core/src/suppression_budget.rs",
        text,
    )];
    let outcome = lint_files(&files);
    // All three float-eq sites are suppressed by their directives…
    assert!(outcome.findings.is_empty());
    assert_eq!(outcome.suppressed, 3);
    // …and the directive census sees exactly three allows.
    assert_eq!(outcome.allow_directives.get("float-eq"), Some(&3));
    let over = check_budgets(&outcome, &[(Rule::FloatEq, 2)]);
    assert_eq!(over.len(), 1);
    assert_eq!(over[0].rule, Rule::SuppressionBudget);
    assert!(check_budgets(&outcome, &[(Rule::FloatEq, 3)]).is_empty());

    let clean = include_str!("../fixtures/suppression_budget_clean.rs");
    let clean_outcome = lint_files(&[fixture(
        "core",
        "crates/core/src/suppression_budget_clean.rs",
        clean,
    )]);
    assert!(clean_outcome.findings.is_empty());
    assert!(check_budgets(&clean_outcome, &[(Rule::FloatEq, 1)]).is_empty());
}

#[test]
fn suppression_without_reason_is_itself_a_finding() {
    let text = "// simlint: allow(float-eq)\nfn f(x: f64) -> bool { x == 0.0 }\n";
    let files = [fixture("core", "crates/core/src/x.rs", text)];
    let got = findings(&files);
    // The bare allow does NOT silence the finding, and is reported.
    assert_eq!(got, vec![(Rule::BadSuppression, 1), (Rule::FloatEq, 2)]);
}
