//! The workspace gates simlint runs under `cargo test`: every library
//! source must lint clean, and the structural rules that replaced the
//! old suppression budgets must hold.

use std::fs;
use std::path::PathBuf;

use comap_lint::{collect_sources, lint_files};

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
        .map(|f| {
            format!(
                "{}:{}: [{}] {}\n    {}",
                f.file,
                f.line,
                f.rule.name(),
                f.message,
                f.snippet
            )
        })
        .collect();
    assert!(
        outcome.findings.is_empty(),
        "workspace must lint clean; findings:\n{}",
        rendered.join("\n")
    );
}

/// Crate names in the normal-dependency tables of a manifest:
/// `[dependencies]`, `[target.<cfg>.dependencies]` and
/// `[dependencies.<name>]`. A renamed `package = "..."` counts under
/// the package's own name.
fn normal_dependencies(manifest: &str) -> Vec<String> {
    let mut deps = Vec::new();
    let mut in_table = false;
    for line in manifest.lines().map(str::trim) {
        if let Some(header) = line.strip_prefix('[') {
            let header = header.trim_end_matches(']').trim();
            in_table = header == "dependencies"
                || (header.starts_with("target.") && header.ends_with(".dependencies"));
            if let Some(name) = header.strip_prefix("dependencies.") {
                deps.push(name.to_string());
            }
            continue;
        }
        if !in_table || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let key = line.split(['=', '.']).next().unwrap_or_default().trim();
        deps.push(key.to_string());
        if let Some((_, renamed)) = line.split_once("package") {
            let package = renamed.trim_start_matches([' ', '=']).split('"').nth(1);
            deps.extend(package.map(str::to_string));
        }
    }
    deps
}

/// Sequential RNG draws are banned from the simulation crates by the
/// dependency graph: without `rand` they cannot name the `Rng` trait,
/// and reach randomness only through `comap_radio::stream`. `rand`
/// stays allowed in `[dev-dependencies]` for tests and doc examples.
#[test]
fn rand_stays_out_of_the_simulation_dependencies() {
    let root = workspace_root();
    for krate in ["sim", "mac", "core"] {
        let path = root.join("crates").join(krate).join("Cargo.toml");
        let manifest = fs::read_to_string(&path).expect("manifest readable");
        let deps = normal_dependencies(&manifest);
        assert!(
            deps.iter().any(|d| d == "comap-radio"),
            "{} lists no comap-radio dependency — manifest parser broken? {deps:?}",
            path.display()
        );
        assert!(
            !deps.iter().any(|d| d == "rand"),
            "{} depends on rand; route draws through comap_radio::stream instead",
            path.display()
        );
    }
}

#[test]
fn manifest_parser_finds_every_dependency_form() {
    let manifest = "[package]\nname = \"x\"\n\n[dependencies]\ncomap-radio.workspace = true\n\
                    # rand = \"0.8\"\nother = { package = \"rand\", version = \"0.8\" }\n\n\
                    [dev-dependencies]\nproptest.workspace = true\n\n\
                    [target.'cfg(unix)'.dependencies]\nlibc = \"0.2\"\n\n\
                    [dependencies.serde]\nversion = \"1\"\n";
    assert_eq!(
        normal_dependencies(manifest),
        ["comap-radio", "other", "rand", "libc", "serde"]
    );
}

/// The two deliberate `SimEvent` projections (the metrics and latency
/// sinks) are the only wildcard-arm expectations clippy may honour.
#[test]
fn wildcard_arm_expectations_are_the_two_observer_sinks() {
    let root = workspace_root();
    let files = collect_sources(&root).expect("workspace sources readable");
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
