//! # comap-lint — `simlint`, the CO-MAP workspace linter
//!
//! A self-contained, offline static-analysis pass enforcing the project
//! invariants the Rust compiler cannot see. The vendor tree has no
//! `syn`, so analysis runs on a hand-rolled token scanner ([`lexer`])
//! plus a brace-matched token-tree and item model ([`tree`]) — fn
//! signatures, struct fields, enum variants, `use` paths and parsed
//! `match` arms — precise enough for the rules below, and
//! dependency-free so the linter builds even when its lint subjects do
//! not.
//!
//! ## Rules
//!
//! | rule | scope | invariant protected |
//! |------|-------|---------------------|
//! | `unit-hygiene` | `comap-radio`, `comap-sim` | paper eqs. (1)–(4) are only meaningful with consistent units: public `fn` parameters named like powers/ratios/distances must use the `Dbm`/`Db`/`MilliWatts`/`Meters` newtypes, never raw `f64` |
//! | `determinism` | `comap-sim`, `comap-mac`, `comap-core` | the bit-determinism guarantee of the power ledger (PR 1) and the non-perturbation guarantee of the observer layer (PR 3): no `HashMap`/`HashSet`, no `Instant::now`/`SystemTime::now`, no `thread_rng` |
//! | `panic-policy` | all library code | library crates must not abort mid-run: no `.unwrap()`, `.expect(..)`, `panic!`, `todo!` outside `#[cfg(test)]`, tests, benches and binaries (`assert!` and `debug_assert!` remain legal — they state invariants) |
//! | `event-completeness` | `comap-sim` | every `SimEvent` variant must have ≥ 1 emission (construction) site in the simulator, so the observability schema never silently rots |
//! | `float-eq` | all library code | `==`/`!=` against float literals is almost always a latent bug in Bianchi-derived math; exact comparisons must be justified |
//! | `shard-safety` | `comap-sim`, `comap-mac`, `comap-core`, `comap-radio` | the sharded parallel engine (ROADMAP item 1) requires `Send` state by construction: no `Rc`, `RefCell`, `Cell`, `UnsafeCell`, `static mut`, `thread_local!`, or raw-pointer struct fields |
//! | `rng-discipline` | `comap-sim`, `comap-mac`, `comap-core` | region shards cannot share a sequential RNG stream without changing results: hot-path `StdRng` draws (outside constructors and tests) must migrate to the counter-based keyed streams of PR 7; pre-existing sites are a shrinking allowlist gated by `--max-allows` |
//! | `match-exhaustive` | `comap-sim`, `comap-experiments` | observers and dispatchers must decide when the event taxonomy grows: no `_` wildcard arm in a `match` whose arms dispatch on `SimEvent` variants |
//! | `suppression-budget` | per `--max-allows` flag | suppressions ratchet down, never up: the per-rule count of `simlint: allow` directives plus baseline entries must not exceed the budget |
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
//! `bad-suppression`. Whole findings can also be grandfathered in the
//! checked-in `simlint.baseline` at the workspace root (stamped with
//! `schema_version` and empty of entries at HEAD — the tree is clean).
//! Unstamped baselines are rejected with a typed error.
//!
//! ## CLI
//!
//! ```text
//! simlint --workspace [--json <path>] [--baseline <path>] [--write-baseline]
//!         [--max-allows <rule>=<n>]...
//! ```
//!
//! Exit code 0 when no unsuppressed, non-baselined finding remains and
//! every `--max-allows` budget holds; 1 otherwise; 2 on usage or I/O
//! errors (including an unstamped baseline). The `--json` report is
//! stamped with `schema_version` and carries per-rule suppression
//! counts. See `scripts/check.sh` and CI for the gating invocation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod lexer;
pub mod report;
pub mod rules;
pub mod tree;
pub mod workspace;

pub use rules::{lint_files, Finding, LintOutcome, Rule, SourceFile};
pub use workspace::{collect_sources, discover_workspace, load_source};
