//! # comap-lint — `simlint`, the CO-MAP workspace linter
//!
//! A self-contained, offline static-analysis pass enforcing the project
//! invariants that neither the compiler nor clippy can see. The vendor
//! tree has no `syn`, so analysis runs on a hand-rolled token scanner
//! ([`lexer`]) plus a delimiter-matched item model ([`tree`]) — fn
//! signatures, struct fields and `let` bindings — precise enough for the
//! rules below, and dependency-free so the linter builds even when its
//! lint subjects do not.
//!
//! ## Rules
//!
//! | rule | scope | invariant protected |
//! |------|-------|---------------------|
//! | `unit-hygiene` | `comap-radio`, `comap-sim` | paper eqs. (1)–(4) are only meaningful with consistent units: public `fn` parameters named like powers/ratios/distances must use the `Dbm`/`Db`/`MilliWatts`/`Meters` newtypes, never raw `f64` |
//! | `float-eq` | all library code | `==`/`!=` against float literals is almost always a latent bug in Bianchi-derived math; exact comparisons must be justified |
//! | `shard-safety` | `comap-sim`, `comap-mac`, `comap-core`, `comap-radio` | the sharded parallel engine requires `Send` state by construction: no `Rc`, `RefCell`, `Cell`, `UnsafeCell`, `static mut`, `thread_local!`, or raw-pointer struct fields |
//! | `rng-discipline` | `comap-sim`, `comap-mac`, `comap-core` | region shards cannot share a sequential RNG stream without changing results: hot-path `StdRng` draws (outside constructors and tests) must use the counter-based keyed streams |
//! | `suppression-budget` | [`report::BUDGETS`] | suppressions ratchet down, never up: the per-rule count of `simlint: allow` directives must not exceed the rule's budget (`shard-safety` 0, `rng-discipline` 0) |
//! | `bad-suppression` | all library code | every `simlint:` directive is a well-formed `allow(<rule>)` naming a rule above, with a reason |
//!
//! Four former rules now run on the toolchain (DESIGN.md §10):
//! `determinism` is clippy's `disallowed_types`/`disallowed_methods`
//! (configured in the root `clippy.toml`), `panic-policy` is
//! `clippy::{unwrap_used, expect_used, panic, todo}`, `match-exhaustive`
//! is `clippy::{wildcard_enum_match_arm,
//! match_wildcard_for_single_variants}`, all denied by each library
//! root, and `event-completeness` is the runtime test
//! `crates/sim/tests/event_completeness.rs`.
//!
//! ## Suppressions
//!
//! Any finding can be silenced at its site with
//!
//! ```text
//! // simlint: allow(<rule>) — <reason>
//! ```
//!
//! on the same line or within the two lines above. The reason is
//! mandatory; bare or malformed directives are reported as
//! `bad-suppression`.
//!
//! ## CLI
//!
//! ```text
//! simlint --workspace [--json <path>] [--quiet] [paths...]
//! ```
//!
//! Exit code 0 when no unsuppressed finding remains and every budget
//! holds; 1 otherwise; 2 on usage or I/O errors. The `--json` report is
//! stamped with `schema_version` and carries per-rule suppression
//! counts. See `scripts/check.sh` and CI for the gating invocation.

#![forbid(unsafe_code)]
// Library code must not panic or keep unused dependencies, and every
// lint suppression is a reasoned `#[expect]`; clippy.toml bans wall
// clocks and hash containers (DESIGN.md §10).
#![cfg_attr(
    not(test),
    deny(
        unused_crate_dependencies,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo
    )
)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod lexer;
pub mod report;
pub mod rules;
pub mod tree;
pub mod workspace;

pub use rules::{lint_files, Finding, LintOutcome, Rule, SourceFile};
pub use workspace::{collect_sources, discover_workspace, load_source};
