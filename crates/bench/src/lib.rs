//! # comap-bench — benchmark support
//!
//! The actual benchmarks live in `benches/`:
//!
//! * `radio` — the eq. (3)/(4) math and propagation sampling,
//! * `protocol` — co-occurrence map lookups vs. fresh validation, the
//!   hidden-terminal census and the adaptation-table precomputation,
//! * `simulator` — event-loop throughput on canonical cells,
//! * `figures` — scaled-down versions of every paper experiment, so a
//!   regression in any scenario's runtime is caught.

#![forbid(unsafe_code)]
// Library code must not panic, and every lint suppression is a
// reasoned `#[expect]`; clippy.toml bans wall clocks, hash containers
// and single-thread shared state (DESIGN.md §10).
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)
)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
