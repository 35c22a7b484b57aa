//! The within-budget twin of `suppression_budget.rs`: one justified
//! suppression, so a `float-eq` budget of 1 must pass on this file.

pub fn first(x: f64) -> bool {
    // simlint: allow(float-eq) — 0.0 is an exact sentinel set by the caller
    x == 0.0
}

pub fn safe(x: f64) -> bool {
    x.abs() < 1e-9
}
