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
fn determinism_fixture_is_fully_detected() {
    let text = include_str!("../fixtures/determinism.rs");
    let files = [fixture("sim", "crates/sim/src/determinism.rs", text)];
    let expected = vec![
        line_of(text, "use std::collections::HashMap;"),
        line_of(text, "pub fn dedupe"),
        line_of(text, "let t = std::time::Instant::now();"),
        line_of(text, "let s = std::time::SystemTime::now();"),
        line_of(text, "let mut rng = rand::thread_rng();"),
    ];
    assert_eq!(lines_for(&files, Rule::Determinism), expected);
    assert_eq!(lint_files(&files).suppressed, 1, "profiled() is suppressed");
    // mac and core are also in scope...
    assert_eq!(
        lines_for(
            &[fixture("mac", "crates/mac/src/determinism.rs", text)],
            Rule::Determinism
        )
        .len(),
        5
    );
    // ...but the experiments crate is not.
    assert!(lines_for(
        &[fixture(
            "experiments",
            "crates/experiments/src/determinism.rs",
            text
        )],
        Rule::Determinism
    )
    .is_empty());
}

#[test]
fn panic_policy_fixture_is_fully_detected() {
    let text = include_str!("../fixtures/panic_policy.rs");
    let files = [fixture("core", "crates/core/src/panic_policy.rs", text)];
    let expected = vec![
        line_of(text, "*xs.first().unwrap()"),
        line_of(text, "*xs.get(1).expect(\"has two elements\")"),
        line_of(text, "panic!(\"unconditional\");"),
        line_of(text, "todo!()"),
    ];
    assert_eq!(lines_for(&files, Rule::PanicPolicy), expected);
    assert_eq!(
        lint_files(&files).suppressed,
        1,
        "justified() is suppressed"
    );
    assert!(findings(&files)
        .iter()
        .all(|(r, _)| *r == Rule::PanicPolicy));
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
fn event_completeness_fixture_is_fully_detected() {
    let observe = include_str!("../fixtures/event_completeness/observe.rs");
    let sim = include_str!("../fixtures/event_completeness/sim.rs");
    let files = [
        fixture("sim", "crates/sim/src/observe.rs", observe),
        fixture("sim", "crates/sim/src/sim.rs", sim),
    ];
    let expected = vec![
        line_of(observe, "Orphan { node: u32 },"),
        line_of(observe, "BareOrphan,"),
        line_of(observe, "FrameOrphaned { node: u32, dst: u32, seq: u64 },"),
    ];
    assert_eq!(lines_for(&files, Rule::EventCompleteness), expected);
    let outcome = lint_files(&files);
    let messages: Vec<&str> = outcome
        .findings
        .iter()
        .map(|f| f.message.as_str())
        .collect();
    assert!(messages[0].contains("SimEvent::Orphan"), "{messages:?}");
    assert!(messages[1].contains("SimEvent::BareOrphan"), "{messages:?}");
    assert!(
        messages[2].contains("SimEvent::FrameOrphaned"),
        "{messages:?}"
    );
    // The `frame_kind` projection in sim.rs carries a wildcard arm over
    // `SimEvent` patterns — the match-exhaustive rule must see it from
    // arm evidence alone.
    assert_eq!(
        lines_for(&files, Rule::MatchExhaustive),
        vec![line_of(sim, "_ => None,")]
    );
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
fn match_exhaustive_fixture_is_fully_detected() {
    let text = include_str!("../fixtures/match_exhaustive.rs");
    let files = [fixture("sim", "crates/sim/src/match_exhaustive.rs", text)];
    let expected = vec![
        line_of(text, "_ => false,"),
        line_of(text, "SimEvent::Retry { .. } | _ => 1,"),
        line_of(text, "_ if fast => 1,"),
        line_of(text, "_ => 2,"),
    ];
    assert_eq!(lines_for(&files, Rule::MatchExhaustive), expected);
    assert_eq!(
        lint_files(&files).suppressed,
        1,
        "projected() is a justified projection"
    );
    assert!(findings(&files)
        .iter()
        .all(|(r, _)| *r == Rule::MatchExhaustive));
    // experiments observers are in scope; the physics crates never see
    // SimEvent dispatches and mac is out of the observer layer.
    assert_eq!(
        lines_for(
            &[fixture(
                "experiments",
                "crates/experiments/src/match_exhaustive.rs",
                text
            )],
            Rule::MatchExhaustive
        )
        .len(),
        4
    );
    assert!(lines_for(
        &[fixture(
            "radio",
            "crates/radio/src/match_exhaustive.rs",
            text
        )],
        Rule::MatchExhaustive
    )
    .is_empty());

    let clean = include_str!("../fixtures/match_exhaustive_clean.rs");
    assert!(findings(&[fixture(
        "sim",
        "crates/sim/src/match_exhaustive_clean.rs",
        clean
    )])
    .is_empty());
}

#[test]
fn suppression_budget_fixture_trips_and_respects_budgets() {
    use comap_lint::report::{check_budgets, parse_budget, tally_allows};

    let text = include_str!("../fixtures/suppression_budget.rs");
    let files = [fixture(
        "core",
        "crates/core/src/suppression_budget.rs",
        text,
    )];
    let outcome = lint_files(&files);
    // All three panic-policy sites are suppressed by their directives…
    assert!(outcome.findings.is_empty());
    assert_eq!(outcome.suppressed, 3);
    // …and the directive census sees exactly three allows.
    let tally = tally_allows(&outcome, &[]);
    assert_eq!(
        tally
            .get("panic-policy")
            .copied()
            .unwrap_or_default()
            .total(),
        3
    );
    let over = check_budgets(&tally, &[parse_budget("panic-policy=2").expect("spec")]);
    assert_eq!(over.len(), 1);
    assert_eq!(over[0].rule, Rule::SuppressionBudget);
    let within = check_budgets(&tally, &[parse_budget("panic-policy=3").expect("spec")]);
    assert!(within.is_empty());

    let clean = include_str!("../fixtures/suppression_budget_clean.rs");
    let clean_files = [fixture(
        "core",
        "crates/core/src/suppression_budget_clean.rs",
        clean,
    )];
    let clean_outcome = lint_files(&clean_files);
    assert!(clean_outcome.findings.is_empty());
    let clean_tally = tally_allows(&clean_outcome, &[]);
    assert!(check_budgets(
        &clean_tally,
        &[parse_budget("panic-policy=1").expect("spec")]
    )
    .is_empty());
}

#[test]
fn suppression_without_reason_is_itself_a_finding() {
    let text = "// simlint: allow(panic-policy)\nfn f() { x.unwrap(); }\n";
    let files = [fixture("core", "crates/core/src/x.rs", text)];
    let got = findings(&files);
    // The bare allow does NOT silence the finding, and is reported.
    assert_eq!(got, vec![(Rule::BadSuppression, 1), (Rule::PanicPolicy, 2)]);
}

#[test]
fn baseline_key_is_line_number_independent() {
    let a = fixture("core", "crates/core/src/x.rs", "fn f() { x.unwrap(); }\n");
    let b = fixture(
        "core",
        "crates/core/src/x.rs",
        "// moved down by an edit\n\nfn f() { x.unwrap(); }\n",
    );
    let ka: Vec<String> = lint_files(&[a])
        .findings
        .iter()
        .map(|f| f.baseline_key())
        .collect();
    let kb: Vec<String> = lint_files(&[b])
        .findings
        .iter()
        .map(|f| f.baseline_key())
        .collect();
    assert_eq!(ka, kb);
}
