//! Seeded input for the `suppression-budget` gate. This file is a lint
//! *fixture* (never compiled): it carries three justified `float-eq`
//! suppressions, so a `float-eq` budget of 2 must fail on it while 3
//! passes. The directives themselves are well-formed — the finding
//! belongs to the budget, not the sites.

pub fn first(x: f64) -> bool {
    // simlint: allow(float-eq) — 0.0 is an exact sentinel set by the caller
    x == 0.0
}

pub fn second(x: f64) -> bool {
    // simlint: allow(float-eq) — 1.0 is written verbatim by the config parser
    x == 1.0
}

pub fn third(x: f64) -> bool {
    // simlint: allow(float-eq) — invariant: 0.5 is the exact midpoint the caller writes
    x == 0.5
}
