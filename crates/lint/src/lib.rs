//! # comap-lint — `simlint`, the CO-MAP workspace linter
//!
//! A self-contained, offline static-analysis pass for the two project
//! invariants neither the compiler nor clippy can see. The vendor tree
//! has no `syn`, so analysis runs on a hand-rolled token scanner
//! ([`lexer`]) plus a delimiter-matched `fn`-signature model
//! ([`tree`]), dependency-free so the linter builds even when its lint
//! subjects do not.
//!
//! ## Rules
//!
//! | rule | scope | invariant protected |
//! |------|-------|---------------------|
//! | `unit-hygiene` | `comap-radio`, `comap-sim` | paper eqs. (1)–(4) are only meaningful with consistent units: public `fn` parameters named like powers/ratios/distances must use the `Dbm`/`Db`/`MilliWatts`/`Meters` newtypes, never raw `f64` |
//! | `float-eq` | all library code | `==`/`!=` against float literals (negative ones included) is almost always a latent bug in Bianchi-derived math; exact comparisons must be justified |
//! | `bad-suppression` | all library code | every `simlint:` directive is a well-formed `allow(<rule>)` naming a rule above, with a reason |
//!
//! Every other former rule now runs on the toolchain (DESIGN.md §10):
//! `determinism` and `shard-safety` are clippy's `disallowed_types`,
//! `disallowed_methods` and `disallowed_macros` (configured in the root
//! `clippy.toml`) plus `#![forbid(unsafe_code)]` and a `Send + Sync`
//! assertion over the simulation state in `comap-sim`;
//! `rng-discipline` is the dependency graph (`comap-sim`, `comap-mac`
//! and `comap-core` do not depend on `rand`, so they reach it only
//! through `comap_radio::stream`); `panic-policy` is
//! `clippy::{unwrap_used, expect_used, panic, todo}`;
//! `match-exhaustive` is `clippy::{wildcard_enum_match_arm,
//! match_wildcard_for_single_variants}`, all denied by each library
//! root; and `event-completeness` is the runtime test
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
//! ## Running
//!
//! simlint has no binary: the `workspace_is_clean` test
//! (`crates/lint/tests/workspace_clean.rs`) scans every library source
//! and fails on any unsuppressed finding, so `cargo test` is the gate.

#![forbid(unsafe_code)]
// Library code must not panic or keep unused dependencies, and every
// lint suppression is a reasoned `#[expect]`; clippy.toml bans wall
// clocks, hash containers and single-thread shared state (DESIGN.md §10).
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
pub mod rules;
pub mod tree;
pub mod workspace;

pub use rules::{lint_files, Finding, LintOutcome, Rule, SourceFile};
pub use workspace::collect_sources;
