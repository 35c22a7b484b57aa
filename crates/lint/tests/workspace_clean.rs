//! `simlint --workspace` must exit 0 on this tree. This test runs the
//! same scan the binary runs, so `cargo test` alone catches a regression
//! even if CI's dedicated simlint step is skipped.

use std::path::PathBuf;

use comap_lint::report::{check_budgets, BUDGETS};
use comap_lint::{collect_sources, lint_files, Rule};

fn workspace_root() -> PathBuf {
    // crates/lint -> crates -> workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf()
}

#[test]
fn workspace_is_clean() {
    let root = workspace_root();
    let files = collect_sources(&root).expect("workspace sources readable");
    assert!(
        files.len() > 20,
        "workspace walk found only {} sources under {} — walker broken?",
        files.len(),
        root.display()
    );
    let outcome = lint_files(&files);
    let rendered: Vec<String> = outcome
        .findings
        .iter()
        .map(|f| format!("{}:{}: [{}] {}", f.file, f.line, f.rule.name(), f.message))
        .collect();
    assert!(
        outcome.findings.is_empty(),
        "workspace must lint clean; findings:\n{}",
        rendered.join("\n")
    );
}

/// The budgets are constants, not flags: shard-safety and
/// rng-discipline allow nothing, and both hold at HEAD. A new
/// sequential draw or non-`Send` field must be *fixed*, not suppressed.
/// The two deliberate `SimEvent` projections (the metrics and latency
/// sinks) are the only wildcard-arm expectations clippy may honour.
#[test]
fn suppression_budgets_hold_and_allowlist_is_exact() {
    assert_eq!(
        BUDGETS,
        [(Rule::ShardSafety, 0), (Rule::RngDiscipline, 0)],
        "the budgets only ratchet down"
    );
    let root = workspace_root();
    let files = collect_sources(&root).expect("workspace sources readable");
    let outcome = lint_files(&files);
    let violations = check_budgets(&outcome, &BUDGETS);
    assert!(
        violations.is_empty(),
        "suppression budgets exceeded:\n{}",
        violations
            .iter()
            .map(|f| f.message.as_str())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Whitespace-insensitive: rustfmt splits the attribute over lines.
    let expectations: usize = files
        .iter()
        .map(|f| {
            let compact: String = f.text.split_whitespace().collect();
            compact
                .matches("expect(clippy::wildcard_enum_match_arm")
                .count()
        })
        .sum();
    assert_eq!(
        expectations, 2,
        "wildcard-arm expectations are the two observer sinks only"
    );
}

#[test]
fn workspace_walk_covers_every_library_crate() {
    let root = workspace_root();
    let files = collect_sources(&root).expect("workspace sources readable");
    let joined = files
        .iter()
        .map(|f| f.rel_path.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    for needle in [
        "crates/radio/src/lib.rs",
        "crates/mac/src/lib.rs",
        "crates/core/src/lib.rs",
        "crates/sim/src/lib.rs",
        "crates/experiments/src/lib.rs",
        "crates/lint/src/lib.rs",
    ] {
        assert!(joined.contains(needle), "walker missed {needle}");
    }
    // Vendored code, binaries and lint fixtures are out of scope —
    // fixtures are intentionally-violating code and must never be
    // scanned in workspace mode.
    assert!(!joined.contains("vendor/"), "walker must skip vendor/");
    assert!(!joined.contains("main.rs"), "walker must skip binaries");
    assert!(
        !joined.contains("fixtures/"),
        "walker must skip lint fixtures"
    );
}
