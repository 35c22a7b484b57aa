//! The simlint rules.
//!
//! Each rule is a pure function from lexed source (plus the
//! [`crate::tree`] item model) to [`Finding`]s. Rules are scoped per
//! crate (`UNIT_HYGIENE_CRATES`) and every finding can be
//! suppressed with a `// simlint: allow(<rule>) — <reason>` comment on
//! the same line or within the two lines above it. The suppression
//! *requires* a reason — a bare `allow` is itself reported via
//! [`Rule::BadSuppression`].

use crate::lexer::{lex, Lexed, TokKind};
use crate::tree::FileModel;

/// The named rules simlint enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Public functions in the physics crates must take unit newtypes,
    /// not raw `f64`, for power/ratio/distance parameters.
    UnitHygiene,
    /// No `==`/`!=` against floating-point literals.
    FloatEq,
    /// A `simlint:` directive that is malformed, names an unknown rule,
    /// or omits its justification.
    BadSuppression,
}

impl Rule {
    /// The stable kebab-case rule name used in findings and suppression
    /// comments.
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnitHygiene => "unit-hygiene",
            Rule::FloatEq => "float-eq",
            Rule::BadSuppression => "bad-suppression",
        }
    }

    /// Parses a rule from its [`Rule::name`] form.
    pub fn from_name(name: &str) -> Option<Rule> {
        Some(match name {
            "unit-hygiene" => Rule::UnitHygiene,
            "float-eq" => Rule::FloatEq,
            "bad-suppression" => Rule::BadSuppression,
            _ => return None,
        })
    }
}

/// One source file to lint.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes (used in findings).
    pub rel_path: String,
    /// Short crate name (`radio`, `mac`, `core`, `sim`, `experiments`,
    /// `lint`, `comap`) controlling which rules apply.
    pub crate_name: String,
    /// Full file contents.
    pub text: String,
}

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The violated rule.
    pub rule: Rule,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
    /// The trimmed source line, for context.
    pub snippet: String,
}

/// Aggregate result of linting a file set.
#[derive(Debug, Default)]
pub struct LintOutcome {
    /// Findings that were not suppressed, sorted by file then line.
    pub findings: Vec<Finding>,
    /// Number of findings silenced by `simlint: allow` comments.
    pub suppressed: usize,
}

/// Crates whose public functions the unit-hygiene rule covers.
const UNIT_HYGIENE_CRATES: [&str; 2] = ["radio", "sim"];

/// Lints a set of library source files and applies suppressions.
pub fn lint_files(files: &[SourceFile]) -> LintOutcome {
    let mut outcome = LintOutcome::default();
    let mut raw: Vec<Finding> = Vec::new();

    let mut lexed_files: Vec<(usize, Lexed)> = Vec::new();
    for (idx, file) in files.iter().enumerate() {
        lexed_files.push((idx, lex(&file.text)));
    }

    for (idx, lexed) in &lexed_files {
        let file = &files[*idx];
        check_float_eq(file, lexed, &mut raw);
        if UNIT_HYGIENE_CRATES.contains(&file.crate_name.as_str()) {
            check_unit_hygiene(file, lexed, &FileModel::parse(lexed), &mut raw);
        }
        check_directives(file, lexed, &mut raw);
    }

    // Apply suppressions: a well-formed, justified directive for the
    // finding's rule on the finding's line or up to two lines above.
    for finding in raw {
        let lexed = lexed_files
            .iter()
            .find(|(idx, _)| files[*idx].rel_path == finding.file)
            .map(|(_, l)| l);
        let suppressed = finding.rule != Rule::BadSuppression
            && lexed.is_some_and(|l| {
                l.directives.iter().any(|d| {
                    d.well_formed
                        && d.has_reason
                        && d.rule == finding.rule.name()
                        && d.line <= finding.line
                        && finding.line - d.line <= 2
                })
            });
        if suppressed {
            outcome.suppressed += 1;
        } else {
            outcome.findings.push(finding);
        }
    }
    outcome
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    outcome
}

/// The trimmed source line `line` (1-based) of `file`.
fn snippet_at(file: &SourceFile, line: u32) -> String {
    file.text
        .lines()
        .nth(line.saturating_sub(1) as usize)
        .map(|l| l.trim().to_string())
        .unwrap_or_default()
}

fn push(file: &SourceFile, rule: Rule, line: u32, message: String, out: &mut Vec<Finding>) {
    out.push(Finding {
        rule,
        file: file.rel_path.clone(),
        line,
        message,
        snippet: snippet_at(file, line),
    });
}

/// float-eq: `==`/`!=` where either operand is a float literal. A
/// negative right-hand literal lexes as `-` then the literal.
fn check_float_eq(file: &SourceFile, lexed: &Lexed, out: &mut Vec<Finding>) {
    let toks = &lexed.tokens;
    let is_float = |j: usize| toks.get(j).is_some_and(|t| t.kind == TokKind::Float);
    for (i, t) in toks.iter().enumerate() {
        if lexed.in_test[i] || !(t.is_punct("==") || t.is_punct("!=")) {
            continue;
        }
        let float_prev = i > 0 && is_float(i - 1);
        let float_next = is_float(i + 1)
            || (toks.get(i + 1).is_some_and(|n| n.is_punct("-")) && is_float(i + 2));
        if float_prev || float_next {
            push(
                file,
                Rule::FloatEq,
                t.line,
                format!(
                    "`{}` against a float literal — compare with a tolerance, use a \
                     total-order comparison, or justify exactness with `simlint: allow(float-eq)`",
                    t.text
                ),
                out,
            );
        }
    }
}

/// Maps a suspicious parameter name to the newtype it should use.
fn unit_suggestion(name: &str) -> Option<&'static str> {
    if name == "dbm" || name.ends_with("_dbm") {
        Some("comap_radio::units::Dbm")
    } else if name == "db" || name.ends_with("_db") {
        Some("comap_radio::units::Db")
    } else if name == "mw" || name.ends_with("_mw") || name.contains("power") {
        Some("comap_radio::units::MilliWatts (or Dbm)")
    } else if name == "loss" || name.ends_with("_loss") {
        Some("comap_radio::units::Db")
    } else if name.starts_with("dist") || name.ends_with("_dist") {
        Some("comap_radio::units::Meters")
    } else if name == "sir" || name == "sinr" || name.ends_with("_sir") || name.ends_with("_sinr") {
        Some("comap_radio::units::Db")
    } else {
        None
    }
}

/// unit-hygiene: `pub fn` parameters whose names imply a physical unit
/// must not be raw `f64`. Runs on the item model's parsed signatures.
fn check_unit_hygiene(file: &SourceFile, lexed: &Lexed, model: &FileModel, out: &mut Vec<Finding>) {
    for f in &model.functions {
        if !f.is_pub || lexed.in_test[f.name_idx] {
            continue;
        }
        for p in &f.params {
            let ty = &model.tokens[p.ty.0..p.ty.1.min(model.tokens.len())];
            let is_raw_f64 = ty.len() == 1 && ty[0].is_ident("f64");
            if !is_raw_f64 {
                continue;
            }
            if let Some(suggestion) = unit_suggestion(&p.name) {
                push(
                    file,
                    Rule::UnitHygiene,
                    p.line,
                    format!(
                        "public parameter `{}: f64` carries a physical unit — take `{}` instead",
                        p.name, suggestion
                    ),
                    out,
                );
            }
        }
    }
}

/// bad-suppression: every `simlint:` comment must be a well-formed
/// `allow(<known-rule>)` with a justification.
fn check_directives(file: &SourceFile, lexed: &Lexed, out: &mut Vec<Finding>) {
    for d in &lexed.directives {
        let message = if !d.well_formed {
            Some(
                "malformed `simlint:` directive — expected `simlint: allow(<rule>) — <reason>`"
                    .to_string(),
            )
        } else if Rule::from_name(&d.rule).is_none() {
            Some(format!(
                "`simlint: allow({})` names an unknown rule",
                d.rule
            ))
        } else if !d.has_reason {
            Some(format!(
                "`simlint: allow({})` without a justification — state the invariant that makes this safe",
                d.rule
            ))
        } else {
            None
        };
        if let Some(message) = message {
            push(file, Rule::BadSuppression, d.line, message, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(crate_name: &str, rel: &str, text: &str) -> SourceFile {
        SourceFile {
            rel_path: rel.to_string(),
            crate_name: crate_name.to_string(),
            text: text.to_string(),
        }
    }

    fn rules_of(outcome: &LintOutcome) -> Vec<(Rule, u32)> {
        outcome.findings.iter().map(|f| (f.rule, f.line)).collect()
    }

    #[test]
    fn float_eq_needs_float_literal() {
        let src = "fn f(x: f64, n: u32) { if x == 0.0 {} if n == 0 {} }\n";
        let out = lint_files(&[file("core", "crates/core/src/x.rs", src)]);
        assert_eq!(rules_of(&out), vec![(Rule::FloatEq, 1)]);
        // Negative literals on either side; `- 1` is an integer.
        let src = "fn f(x: f64, n: i32) {\n if x == -1.0 {}\n if -2.5 != x {}\n if n == -1 {}\n}\n";
        let out = lint_files(&[file("core", "crates/core/src/x.rs", src)]);
        assert_eq!(rules_of(&out), vec![(Rule::FloatEq, 2), (Rule::FloatEq, 3)]);
    }

    #[test]
    fn unit_hygiene_flags_public_f64_units_only() {
        let src = "pub fn set(power: f64) {}\n\
                   fn internal(power: f64) {}\n\
                   pub fn typed(power: Dbm) {}\n\
                   pub fn unrelated(alpha: f64) {}\n";
        let out = lint_files(&[file("radio", "crates/radio/src/x.rs", src)]);
        assert_eq!(rules_of(&out), vec![(Rule::UnitHygiene, 1)]);
    }

    #[test]
    fn unit_hygiene_sees_params_behind_generics() {
        let src = "pub fn g<F: Fn(u32) -> u64>(cb: F, dist: f64) {}\n";
        let out = lint_files(&[file("radio", "crates/radio/src/x.rs", src)]);
        assert_eq!(rules_of(&out), vec![(Rule::UnitHygiene, 1)]);
    }

    #[test]
    fn bad_suppressions_are_reported() {
        let src = "// simlint: allow(no-such-rule) — reason text\n\
                   // simlint: allow(float-eq)\n\
                   // simlint: deny(everything)\n";
        let out = lint_files(&[file("core", "crates/core/src/x.rs", src)]);
        assert_eq!(
            rules_of(&out),
            vec![
                (Rule::BadSuppression, 1),
                (Rule::BadSuppression, 2),
                (Rule::BadSuppression, 3)
            ]
        );
    }

    #[test]
    fn test_modules_are_exempt() {
        let src =
            "#[cfg(test)]\nmod tests {\n    pub fn t(power: f64) { assert!(power == 1.0); }\n}\n";
        let out = lint_files(&[file("sim", "crates/sim/src/x.rs", src)]);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }
}
