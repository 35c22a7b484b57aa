//! The simlint rules.
//!
//! Each rule is a pure function from lexed source (plus the
//! [`crate::tree`] item model) to [`Finding`]s. Rules are scoped per
//! crate (see the scoping constants below) and every finding can be
//! suppressed with a `// simlint: allow(<rule>) — <reason>` comment on
//! the same line or within the two lines above it. The suppression
//! *requires* a reason — a bare `allow` is itself reported via
//! [`Rule::BadSuppression`].

use std::collections::BTreeMap;

use crate::lexer::{lex, Lexed, TokKind};
use crate::tree::{FileModel, FnItem, Range};

/// The named rules simlint enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Public functions in the physics crates must take unit newtypes,
    /// not raw `f64`, for power/ratio/distance parameters.
    UnitHygiene,
    /// No unordered containers, wall clocks or thread-local RNG in the
    /// deterministic simulation crates.
    Determinism,
    /// No `unwrap()`/`expect()`/`panic!`/`todo!` in library code.
    PanicPolicy,
    /// Every `SimEvent` variant must have an emission site.
    EventCompleteness,
    /// No `==`/`!=` against floating-point literals.
    FloatEq,
    /// No shared-mutable / non-`Send` state (`Rc`, `RefCell`, `Cell`,
    /// `static mut`, `thread_local!`, raw-pointer fields) in the crates
    /// the sharded engine will run in parallel.
    ShardSafety,
    /// No sequential `StdRng` draws in hot-path simulation code — use
    /// the counter-based keyed streams (PR 7) so per-region shards
    /// never share a mutable RNG stream.
    RngDiscipline,
    /// Matches over `SimEvent` must name every variant they dispatch
    /// on — no wildcard arms, so a new event forces a decision at each
    /// observer/dispatch site.
    MatchExhaustive,
    /// A per-rule suppression count exceeded its `--max-allows`
    /// budget — the allowlist must ratchet down, never grow.
    SuppressionBudget,
    /// A `simlint:` directive that is malformed, names an unknown rule,
    /// or omits its justification.
    BadSuppression,
}

impl Rule {
    /// The stable kebab-case rule name used in findings, suppression
    /// comments and the baseline file.
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnitHygiene => "unit-hygiene",
            Rule::Determinism => "determinism",
            Rule::PanicPolicy => "panic-policy",
            Rule::EventCompleteness => "event-completeness",
            Rule::FloatEq => "float-eq",
            Rule::ShardSafety => "shard-safety",
            Rule::RngDiscipline => "rng-discipline",
            Rule::MatchExhaustive => "match-exhaustive",
            Rule::SuppressionBudget => "suppression-budget",
            Rule::BadSuppression => "bad-suppression",
        }
    }

    /// Parses a rule from its [`Rule::name`] form.
    pub fn from_name(name: &str) -> Option<Rule> {
        Some(match name {
            "unit-hygiene" => Rule::UnitHygiene,
            "determinism" => Rule::Determinism,
            "panic-policy" => Rule::PanicPolicy,
            "event-completeness" => Rule::EventCompleteness,
            "float-eq" => Rule::FloatEq,
            "shard-safety" => Rule::ShardSafety,
            "rng-discipline" => Rule::RngDiscipline,
            "match-exhaustive" => Rule::MatchExhaustive,
            "suppression-budget" => Rule::SuppressionBudget,
            "bad-suppression" => Rule::BadSuppression,
            _ => return None,
        })
    }

    /// Every rule, in reporting order.
    pub const ALL: [Rule; 10] = [
        Rule::UnitHygiene,
        Rule::Determinism,
        Rule::PanicPolicy,
        Rule::EventCompleteness,
        Rule::FloatEq,
        Rule::ShardSafety,
        Rule::RngDiscipline,
        Rule::MatchExhaustive,
        Rule::SuppressionBudget,
        Rule::BadSuppression,
    ];
}

/// One source file to lint.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes (used in findings
    /// and the baseline).
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
    /// The trimmed source line, for context and baseline keying.
    pub snippet: String,
}

impl Finding {
    /// The baseline key: rule, file and whitespace-normalized snippet.
    /// Line numbers are deliberately excluded so unrelated edits above a
    /// grandfathered finding do not invalidate the baseline.
    pub fn baseline_key(&self) -> String {
        let normalized: Vec<&str> = self.snippet.split_whitespace().collect();
        format!(
            "{}\t{}\t{}",
            self.rule.name(),
            self.file,
            normalized.join(" ")
        )
    }
}

/// Aggregate result of linting a file set.
#[derive(Debug, Default)]
pub struct LintOutcome {
    /// Findings that were not suppressed, sorted by file then line.
    pub findings: Vec<Finding>,
    /// Number of findings silenced by `simlint: allow` comments.
    pub suppressed: usize,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Per-rule counts of well-formed, justified `simlint: allow`
    /// directives present in the scanned sources (whether or not each
    /// silenced a finding this run) — the in-source half of the
    /// suppression budget.
    pub allow_directives: BTreeMap<String, usize>,
}

/// Crates whose public functions the unit-hygiene rule covers.
const UNIT_HYGIENE_CRATES: [&str; 2] = ["radio", "sim"];
/// Crates that must stay bit-deterministic.
const DETERMINISM_CRATES: [&str; 3] = ["sim", "mac", "core"];
/// Crates the sharded engine will run in parallel: all state reachable
/// from a region shard must be `Send` by construction.
const SHARD_SAFETY_CRATES: [&str; 4] = ["sim", "mac", "core", "radio"];
/// Crates whose hot paths must not consume a sequential RNG stream.
const RNG_DISCIPLINE_CRATES: [&str; 3] = ["sim", "mac", "core"];
/// The crate holding the `SimEvent` enum and its emission sites.
const EVENT_CRATE: &str = "sim";
/// Crates whose `SimEvent` dispatches must stay exhaustive.
const MATCH_CRATES: [&str; 2] = ["sim", "experiments"];
/// The enum whose variants event-completeness audits.
const EVENT_ENUM: &str = "SimEvent";
/// The sequential RNG type rng-discipline tracks.
const SEQ_RNG: &str = "StdRng";
/// Method names that consume a sequential RNG stream.
const DRAW_METHODS: [&str; 12] = [
    "gen",
    "gen_range",
    "gen_bool",
    "gen_ratio",
    "sample",
    "sample_iter",
    "fill",
    "fill_bytes",
    "next_u32",
    "next_u64",
    "shuffle",
    "choose",
];
/// Identifiers banned outright by shard-safety (non-`Send` shared
/// ownership and single-thread interior mutability).
const SHARD_BANNED: [(&str, &str); 4] = [
    ("Rc", "`Rc` is shared ownership without `Send`"),
    (
        "RefCell",
        "`RefCell` is run-time interior mutability without `Sync`",
    ),
    ("Cell", "`Cell` is interior mutability without `Sync`"),
    (
        "UnsafeCell",
        "`UnsafeCell` is unsynchronized interior mutability",
    ),
];

/// Lints a set of library source files and applies suppressions.
pub fn lint_files(files: &[SourceFile]) -> LintOutcome {
    let mut outcome = LintOutcome {
        files_scanned: files.len(),
        ..LintOutcome::default()
    };
    let mut raw: Vec<Finding> = Vec::new();
    let mut decl: Option<EventDecl> = None;
    let mut constructed: Vec<String> = Vec::new();

    let mut lexed_files: Vec<(usize, Lexed)> = Vec::new();
    for (idx, file) in files.iter().enumerate() {
        lexed_files.push((idx, lex(&file.text)));
    }

    for (idx, lexed) in &lexed_files {
        let file = &files[*idx];
        let model = FileModel::parse(lexed);
        check_panic_policy(file, lexed, &mut raw);
        if DETERMINISM_CRATES.contains(&file.crate_name.as_str()) {
            check_determinism(file, lexed, &mut raw);
        }
        check_float_eq(file, lexed, &mut raw);
        if UNIT_HYGIENE_CRATES.contains(&file.crate_name.as_str()) {
            check_unit_hygiene(file, lexed, &model, &mut raw);
        }
        if MATCH_CRATES.contains(&file.crate_name.as_str()) {
            check_match_exhaustive(file, lexed, &model, &mut raw);
        }
        if SHARD_SAFETY_CRATES.contains(&file.crate_name.as_str()) {
            check_shard_safety(file, lexed, &model, &mut raw);
        }
        if RNG_DISCIPLINE_CRATES.contains(&file.crate_name.as_str()) {
            check_rng_discipline(file, lexed, &model, &mut raw);
        }
        check_directives(file, lexed, &mut raw);
        for d in &lexed.directives {
            if d.well_formed && d.has_reason && Rule::from_name(&d.rule).is_some() {
                *outcome.allow_directives.entry(d.rule.clone()).or_insert(0) += 1;
            }
        }
        if file.crate_name == EVENT_CRATE {
            if let Some(d) = find_event_decl(file, lexed, &model) {
                decl = Some(d);
            }
            collect_event_constructions(lexed, &mut constructed);
        }
    }

    if let Some(decl) = decl {
        for (variant, line, snippet) in &decl.variants {
            if !constructed.iter().any(|v| v == variant) {
                raw.push(Finding {
                    rule: Rule::EventCompleteness,
                    file: decl.file.clone(),
                    line: *line,
                    message: format!(
                        "`{EVENT_ENUM}::{variant}` is declared but never emitted by the simulator"
                    ),
                    snippet: snippet.clone(),
                });
            }
        }
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

/// panic-policy: `.unwrap()`, `.expect(`, `panic!`, `todo!` outside
/// `#[cfg(test)]` regions. `assert!`/`debug_assert!`/`unreachable!` are
/// deliberately exempt — they state invariants rather than skip error
/// handling.
fn check_panic_policy(file: &SourceFile, lexed: &Lexed, out: &mut Vec<Finding>) {
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if lexed.in_test[i] || t.kind != TokKind::Ident {
            continue;
        }
        let prev_dot = i > 0 && toks[i - 1].is_punct(".");
        let next_paren = toks.get(i + 1).is_some_and(|n| n.is_punct("("));
        let next_bang = toks.get(i + 1).is_some_and(|n| n.is_punct("!"));
        let call = match t.text.as_str() {
            "unwrap" if prev_dot && next_paren => Some("`.unwrap()`"),
            "expect" if prev_dot && next_paren => Some("`.expect(..)`"),
            "panic" if next_bang => Some("`panic!`"),
            "todo" if next_bang => Some("`todo!`"),
            _ => None,
        };
        if let Some(call) = call {
            push(
                file,
                Rule::PanicPolicy,
                t.line,
                format!(
                    "{call} in library code — return a typed error (e.g. via comap-core::error) \
                     or justify the invariant with `simlint: allow(panic-policy)`"
                ),
                out,
            );
        }
    }
}

/// determinism: unordered containers, wall clocks and thread-local RNG
/// are banned from the crates whose runs must be bit-reproducible.
fn check_determinism(file: &SourceFile, lexed: &Lexed, out: &mut Vec<Finding>) {
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if lexed.in_test[i] || t.kind != TokKind::Ident {
            continue;
        }
        let clock_now = |name: &str| {
            t.is_ident(name)
                && toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
                && toks.get(i + 2).is_some_and(|n| n.is_ident("now"))
        };
        let message = if t.is_ident("HashMap") || t.is_ident("HashSet") {
            Some(format!(
                "`{}` has a non-deterministic iteration order — use BTreeMap/BTreeSet \
                 or an index-keyed slab",
                t.text
            ))
        } else if clock_now("Instant") || clock_now("SystemTime") {
            Some(format!(
                "`{}::now()` reads the wall clock inside a deterministic simulation crate",
                t.text
            ))
        } else if t.is_ident("thread_rng") {
            Some("`thread_rng()` is thread-local and unseeded — thread the simulation RNG through instead".to_string())
        } else {
            None
        };
        if let Some(message) = message {
            push(file, Rule::Determinism, t.line, message, out);
        }
    }
}

/// float-eq: `==`/`!=` where either operand is a float literal.
fn check_float_eq(file: &SourceFile, lexed: &Lexed, out: &mut Vec<Finding>) {
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if lexed.in_test[i] || !(t.is_punct("==") || t.is_punct("!=")) {
            continue;
        }
        let float_prev = i > 0 && toks[i - 1].kind == TokKind::Float;
        let float_next = toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Float);
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
    for f in model.functions() {
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

/// match-exhaustive: a `match` whose arms dispatch on `SimEvent`
/// variants must not use a wildcard arm — observers and dispatchers
/// must make a conscious decision when the event taxonomy grows. Type
/// evidence comes from the parsed arm patterns (`SimEvent::Variant`),
/// not from scrutinee-name heuristics.
fn check_match_exhaustive(
    file: &SourceFile,
    lexed: &Lexed,
    model: &FileModel,
    out: &mut Vec<Finding>,
) {
    for m in &model.matches {
        if lexed.in_test[m.kw_idx] {
            continue;
        }
        let arm_evidence = m
            .arms
            .iter()
            .any(|a| model.range_mentions_path(a.pat, EVENT_ENUM));
        if !arm_evidence {
            continue;
        }
        for arm in &m.arms {
            if model.arm_is_wildcard(arm) {
                push(
                    file,
                    Rule::MatchExhaustive,
                    arm.line,
                    format!(
                        "wildcard arm in a `match` over `{EVENT_ENUM}` — name every variant \
                         this site dispatches on (a new event must force a decision here), \
                         or justify the projection with `simlint: allow(match-exhaustive)`"
                    ),
                    out,
                );
            }
        }
    }
}

/// shard-safety: per-region parallel shards require `Send` state by
/// construction, so the crates the engine will shard ban non-`Send`
/// shared ownership and single-thread interior mutability outright:
/// `Rc`, `RefCell`, `Cell`, `UnsafeCell`, `static mut`,
/// `thread_local!`, and raw-pointer struct fields.
fn check_shard_safety(file: &SourceFile, lexed: &Lexed, model: &FileModel, out: &mut Vec<Finding>) {
    let toks = &lexed.tokens;
    // One finding per (line, name), so `Rc::new(RefCell::new(..))`
    // reports each banned type once even when repeated on the line.
    let mut seen: Vec<(u32, &str)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if lexed.in_test[i] || t.kind != TokKind::Ident {
            continue;
        }
        if t.is_ident("static") && toks.get(i + 1).is_some_and(|n| n.is_ident("mut")) {
            push(
                file,
                Rule::ShardSafety,
                t.line,
                "`static mut` is shared mutable state — a per-region shard cannot own it; \
                 pass state through the shard explicitly"
                    .to_string(),
                out,
            );
            continue;
        }
        if t.is_ident("thread_local") && toks.get(i + 1).is_some_and(|n| n.is_punct("!")) {
            push(
                file,
                Rule::ShardSafety,
                t.line,
                "`thread_local!` pins state to a worker thread — shards migrate between \
                 threads, so thread-local state breaks determinism"
                    .to_string(),
                out,
            );
            continue;
        }
        for (name, why) in SHARD_BANNED {
            if t.is_ident(name) && !seen.contains(&(t.line, name)) {
                seen.push((t.line, name));
                push(
                    file,
                    Rule::ShardSafety,
                    t.line,
                    format!(
                        "{why} — shard state must be `Send` by construction; use owned \
                         state, `Arc<Mutex<..>>`, or restructure (or justify with \
                         `simlint: allow(shard-safety)`)"
                    ),
                    out,
                );
            }
        }
    }
    // Raw-pointer fields: a struct holding `*const`/`*mut` cannot be
    // `Send` without an unsafe impl the rule refuses to assume.
    for s in model.structs() {
        for field in &s.fields {
            let Some(first) = model.tokens.get(field.ty.0) else {
                continue;
            };
            if first.is_punct("*") && !lexed.in_test[field.ty.0] {
                push(
                    file,
                    Rule::ShardSafety,
                    field.line,
                    format!(
                        "raw-pointer field in `{}` — `*const`/`*mut` fields make the struct \
                         non-`Send`; hold an index or an owned handle instead",
                        s.name
                    ),
                    out,
                );
            }
        }
    }
}

/// Whether a function is a constructor by naming convention — one-time
/// setup draws (seed derivation) are not hot-path sequential draws, and
/// the sharded engine re-derives per-shard seeds at construction.
fn is_constructor(name: &str) -> bool {
    name == "new" || name.starts_with("new_") || name.starts_with("with_")
}

/// rng-discipline: sequential `StdRng` draws create a data dependence
/// across every consumer of the stream, which (a) serializes the hot
/// path and (b) cannot be split across region shards without changing
/// results. Outside constructors and tests, hot-path code must use the
/// counter-based keyed streams (`comap_radio::stream`'s
/// `(seed, ident, counter)` pattern, DESIGN.md §11). The migration is
/// complete: the suppression budget is 0, so any new sequential draw
/// is a hard failure (see `--max-allows`).
fn check_rng_discipline(
    file: &SourceFile,
    lexed: &Lexed,
    model: &FileModel,
    out: &mut Vec<Finding>,
) {
    // Struct fields of the sequential RNG type, e.g. `rng: StdRng`.
    let mut rng_fields: Vec<String> = Vec::new();
    for s in model.structs() {
        for field in &s.fields {
            if let Some(name) = &field.name {
                if model.range_mentions_seq_rng(field.ty) && !rng_fields.contains(name) {
                    rng_fields.push(name.clone());
                }
            }
        }
    }
    for f in model.functions() {
        if lexed.in_test[f.name_idx] || is_constructor(&f.name) {
            continue;
        }
        let Some(body) = f.body else { continue };
        let locals = rng_locals(model, f, body);
        scan_body_for_draws(file, lexed, model, body, &rng_fields, &locals, out);
    }
}

impl FileModel<'_> {
    /// Whether `range` mentions the tracked sequential RNG type.
    fn range_mentions_seq_rng(&self, range: Range) -> bool {
        let end = range.1.min(self.tokens.len());
        self.tokens[range.0..end]
            .iter()
            .any(|t| t.is_ident(SEQ_RNG))
    }
}

/// Names of `StdRng`-typed bindings in scope inside `f`'s body:
/// parameters with an `StdRng` type and `let` bindings whose type or
/// initializer mentions `StdRng`.
fn rng_locals(model: &FileModel, f: &FnItem, body: (usize, usize)) -> Vec<String> {
    let mut locals: Vec<String> = Vec::new();
    for p in &f.params {
        if model.range_mentions_seq_rng(p.ty) && !locals.contains(&p.name) {
            locals.push(p.name.clone());
        }
    }
    for b in model.let_bindings(body) {
        if (model.range_mentions_seq_rng(b.ty) || model.range_mentions_seq_rng(b.init))
            && !locals.contains(&b.name)
        {
            locals.push(b.name);
        }
    }
    locals
}

fn scan_body_for_draws(
    file: &SourceFile,
    lexed: &Lexed,
    model: &FileModel,
    body: (usize, usize),
    rng_fields: &[String],
    locals: &[String],
    out: &mut Vec<Finding>,
) {
    let toks = model.tokens;
    let end = body.1.min(toks.len());
    let mut i = body.0 + 1;
    while i < end {
        if lexed.in_test[i] {
            i += 1;
            continue;
        }
        // `self.<rng-field>` …
        if toks[i].is_ident("self")
            && toks.get(i + 1).is_some_and(|t| t.is_punct("."))
            && toks
                .get(i + 2)
                .is_some_and(|t| rng_fields.iter().any(|f| t.is_ident(f)))
        {
            let field_idx = i + 2;
            if let Some(finding_line) = rng_use_after(model, i, field_idx) {
                push_rng_finding(file, finding_line, &toks[field_idx].text, out);
            }
            i = field_idx + 1;
            continue;
        }
        // Bare local rng binding (not a path segment or field access).
        if toks[i].kind == TokKind::Ident
            && locals.iter().any(|l| toks[i].is_ident(l))
            && !(i > 0 && (toks[i - 1].is_punct(".") || toks[i - 1].is_punct("::")))
        {
            if let Some(finding_line) = rng_use_after(model, i, i) {
                push_rng_finding(file, finding_line, &toks[i].text, out);
            }
        }
        i += 1;
    }
}

/// Decides whether the rng expression whose *first* token sits at
/// `start` (for `&mut` lookbehind) and whose last token sits at `last`
/// is a sequential use: a draw-method call, or a `&mut` borrow handing
/// the stream to a callee. Returns the line to report.
fn rng_use_after(model: &FileModel, start: usize, last: usize) -> Option<u32> {
    let toks = model.tokens;
    // `&mut <rng>` — the stream escapes into a callee (or a reborrow).
    if start >= 2 && toks[start - 1].is_ident("mut") && toks[start - 2].is_punct("&") {
        return Some(toks[last].line);
    }
    // `<rng>.method(..)` / `<rng>.method::<T>(..)` with a draw method.
    if toks.get(last + 1).is_some_and(|t| t.is_punct("."))
        && toks
            .get(last + 2)
            .is_some_and(|t| DRAW_METHODS.iter().any(|m| t.is_ident(m)))
    {
        let m = last + 2;
        let call = toks.get(m + 1).is_some_and(|t| t.is_punct("("))
            || (toks.get(m + 1).is_some_and(|t| t.is_punct("::"))
                && toks.get(m + 2).is_some_and(|t| t.is_punct("<")));
        if call {
            return Some(toks[m].line);
        }
    }
    None
}

fn push_rng_finding(file: &SourceFile, line: u32, binding: &str, out: &mut Vec<Finding>) {
    push(
        file,
        Rule::RngDiscipline,
        line,
        format!(
            "sequential `{SEQ_RNG}` draw through `{binding}` in hot-path simulation code — \
             use a counter-based keyed stream (`comap_radio::stream`, DESIGN.md §11) so \
             shards never share a mutable RNG; the migration is complete and the \
             suppression budget is 0, so new sequential draws are hard failures"
        ),
        out,
    );
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

/// The parsed `SimEvent` declaration.
#[derive(Debug)]
struct EventDecl {
    file: String,
    /// `(variant, line, snippet)` triples.
    variants: Vec<(String, u32, String)>,
}

/// Finds `enum SimEvent { ... }` in `file` via the item model.
fn find_event_decl(file: &SourceFile, lexed: &Lexed, model: &FileModel) -> Option<EventDecl> {
    let decl = model
        .enums()
        .into_iter()
        .find(|e| e.name == EVENT_ENUM && !lexed.in_test[e.kw_idx])?;
    if decl.variants.is_empty() {
        return None;
    }
    Some(EventDecl {
        file: file.rel_path.clone(),
        variants: decl
            .variants
            .iter()
            .map(|(name, line)| (name.clone(), *line, snippet_at(file, *line)))
            .collect(),
    })
}

/// Collects `SimEvent::Variant` *construction* sites (match arms and
/// other patterns do not count as emissions).
fn collect_event_constructions(lexed: &Lexed, out: &mut Vec<String>) {
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if lexed.in_test[i]
            || !toks[i].is_ident(EVENT_ENUM)
            || !toks.get(i + 1).is_some_and(|t| t.is_punct("::"))
        {
            continue;
        }
        let Some(variant) = toks.get(i + 2).filter(|t| t.kind == TokKind::Ident) else {
            continue;
        };
        let mut j = i + 3;
        let mut wildcard_body = false;
        if toks
            .get(j)
            .is_some_and(|t| t.is_punct("{") || t.is_punct("("))
        {
            let open = j;
            let mut depth = 0i32;
            while j < toks.len() {
                let t = &toks[j];
                if t.is_punct("{") || t.is_punct("(") {
                    depth += 1;
                } else if t.is_punct("}") || t.is_punct(")") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            // `Variant { .. }` is always a pattern.
            wildcard_body = j == open + 2 && toks.get(open + 1).is_some_and(|t| t.is_punct(".."));
            j += 1;
        }
        let next = toks.get(j);
        let is_pattern = wildcard_body
            || matches!(next, Some(n) if n.is_punct("=>") || n.is_punct("|") || n.is_punct("="));
        if !is_pattern {
            out.push(variant.text.clone());
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
    fn panic_policy_flags_and_suppresses() {
        let src = "fn a() { x.unwrap(); }\n\
                   // simlint: allow(panic-policy) — invariant: y is always present\n\
                   fn b() { y.expect(\"present\"); }\n";
        let out = lint_files(&[file("core", "crates/core/src/x.rs", src)]);
        assert_eq!(rules_of(&out), vec![(Rule::PanicPolicy, 1)]);
        assert_eq!(out.suppressed, 1);
        assert_eq!(out.allow_directives.get("panic-policy"), Some(&1));
    }

    #[test]
    fn determinism_scoped_to_sim_mac_core() {
        let src = "use std::collections::HashMap;\n";
        let flagged = lint_files(&[file("sim", "crates/sim/src/x.rs", src)]);
        assert_eq!(rules_of(&flagged), vec![(Rule::Determinism, 1)]);
        let unflagged = lint_files(&[file("experiments", "crates/experiments/src/x.rs", src)]);
        assert!(unflagged.findings.is_empty());
    }

    #[test]
    fn float_eq_needs_float_literal() {
        let src = "fn f(x: f64, n: u32) { if x == 0.0 {} if n == 0 {} }\n";
        let out = lint_files(&[file("core", "crates/core/src/x.rs", src)]);
        assert_eq!(rules_of(&out), vec![(Rule::FloatEq, 1)]);
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
    fn event_completeness_counts_constructions_not_patterns() {
        let decl = "pub enum SimEvent {\n    Used { n: u32 },\n    Orphan { n: u32 },\n    BareOrphan,\n}\n";
        let emit = "fn e() -> SimEvent { SimEvent::Used { n: 0 } }\n\
                    fn m(e: &SimEvent) -> u32 { match e { SimEvent::Orphan { .. } => 1, _ => 0 } }\n";
        let out = lint_files(&[
            file("sim", "crates/sim/src/observe.rs", decl),
            file("sim", "crates/sim/src/mac.rs", emit),
        ]);
        let names: Vec<&str> = out
            .findings
            .iter()
            .filter(|f| f.rule == Rule::EventCompleteness)
            .map(|f| f.message.split('`').nth(1).unwrap_or(""))
            .collect();
        assert_eq!(names, vec!["SimEvent::Orphan", "SimEvent::BareOrphan"]);
    }

    #[test]
    fn match_exhaustive_flags_event_projections() {
        let src = "fn f(e: &SimEvent) -> u32 {\n\
                   \x20   match *e {\n\
                   \x20       SimEvent::TxBegin { .. } => 1,\n\
                   \x20       _ => 0,\n\
                   \x20   }\n\
                   }\n";
        let flagged = lint_files(&[file("sim", "crates/sim/src/x.rs", src)]);
        assert_eq!(rules_of(&flagged), vec![(Rule::MatchExhaustive, 4)]);
        // Out-of-scope crates are not audited.
        let unflagged = lint_files(&[file("core", "crates/core/src/x.rs", src)]);
        assert!(unflagged.findings.is_empty());
    }

    #[test]
    fn shard_safety_flags_banned_state() {
        let src = "use std::rc::Rc;\n\
                   static mut COUNTER: u32 = 0;\n\
                   pub struct S { raw: *const u8 }\n";
        let out = lint_files(&[file("sim", "crates/sim/src/x.rs", src)]);
        assert_eq!(
            rules_of(&out),
            vec![
                (Rule::ShardSafety, 1),
                (Rule::ShardSafety, 2),
                (Rule::ShardSafety, 3)
            ]
        );
        // The experiments crate may use whatever it likes.
        let unflagged = lint_files(&[file("experiments", "crates/experiments/src/x.rs", src)]);
        assert!(unflagged.findings.is_empty());
    }

    #[test]
    fn rng_discipline_exempts_constructors_and_tests() {
        let src = "use rand::rngs::StdRng;\n\
                   pub struct E { rng: StdRng }\n\
                   impl E {\n\
                   \x20   pub fn new(mut rng: StdRng) -> Self { let s = rng.gen::<u64>(); E { rng } }\n\
                   \x20   pub fn draw(&mut self) -> f64 { self.rng.gen::<f64>() }\n\
                   }\n\
                   #[cfg(test)]\n\
                   mod tests { fn t() { let mut r = StdRng::seed_from_u64(1); r.gen::<u64>(); } }\n";
        let out = lint_files(&[file("sim", "crates/sim/src/x.rs", src)]);
        assert_eq!(rules_of(&out), vec![(Rule::RngDiscipline, 5)]);
    }

    #[test]
    fn rng_discipline_tracks_mut_borrows_and_locals() {
        let src = "use rand::rngs::StdRng;\n\
                   pub struct E { rng: StdRng, seed: u64 }\n\
                   impl E {\n\
                   \x20   pub fn fade(&mut self) -> f64 { helper(&mut self.rng) }\n\
                   \x20   pub fn local(&self) -> f64 {\n\
                   \x20       let mut r = StdRng::seed_from_u64(self.seed);\n\
                   \x20       r.gen::<f64>()\n\
                   \x20   }\n\
                   }\n";
        let out = lint_files(&[file("sim", "crates/sim/src/x.rs", src)]);
        assert_eq!(
            rules_of(&out),
            vec![(Rule::RngDiscipline, 4), (Rule::RngDiscipline, 7)]
        );
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
        // None of the bad directives count toward the allow budget.
        assert!(out.allow_directives.is_empty());
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); assert!(1.0 == 1.0); }\n}\n";
        let out = lint_files(&[file("core", "crates/core/src/x.rs", src)]);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }
}
