//! # comap-experiments — regenerating the paper's evaluation
//!
//! One module per figure/table of the paper, each exposing a `run`
//! function that produces the figure's data series, plus a binary of the
//! same name that prints them (`cargo run --release -p comap-experiments
//! --bin fig08`). The experiment index lives in `DESIGN.md`; measured
//! results against the paper's numbers live in `EXPERIMENTS.md`.
//!
//! All experiments accept a `quick` flag that shrinks durations and seed
//! counts so the whole suite stays runnable in CI and in Criterion
//! benches.

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
#![cfg_attr(
    not(test),
    deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )
)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bench_diff;
pub mod fig01;
pub mod fig02;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig_scale;
pub mod instrument;
pub mod report;
pub mod runner;
pub mod table1;
pub mod topology;

pub use runner::{average_goodput, empirical_cdf, run_many, Cdf};
