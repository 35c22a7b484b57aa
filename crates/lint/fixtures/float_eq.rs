//! Seeded float-eq violations. Linted as library code.

pub fn checks(x: f64, n: u32, label: &str) -> bool {
    // VIOLATION: == against a float literal.
    let a = x == 0.0;
    // VIOLATION: != against a float literal.
    let b = 1.5 != x;
    // VIOLATION: scientific-notation literal.
    let c = x == 1e-9;
    // VIOLATION: negative literal on the right (lexed as `-`, `1.0`).
    let h = x == -1.0;
    // OK: integer comparison.
    let d = n == 0;
    // OK: ordering comparisons are fine.
    let e = x <= 0.0 && x >= -1.0;
    // OK: strings and tuple fields are not floats.
    let f = label == "0.0";
    // OK (suppressed): exact sentinel comparison.
    // simlint: allow(float-eq) — 0.0 is an exact sentinel set by the caller
    let g = x == 0.0;
    a || b || c || d || e || f || g || h
}

pub struct P(pub u128);

impl P {
    pub fn is_zero(&self) -> bool {
        // OK: u128 field, integer literal.
        self.0 == 0
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_compare_exactly() {
        assert!(super::checks(0.0, 0, "x") || 1.0 == 1.0);
    }
}
