//! Planar geometry for node placement.
//!
//! CO-MAP only needs 2-D coordinates: the paper's neighbor tables store
//! `(X, Y)` offsets in meters (Fig. 3) and every interference computation
//! reduces to pairwise distances.

use std::fmt;

use rand::Rng;

use crate::units::Meters;

/// A 2-D position in meters.
///
/// ```rust
/// use comap_radio::Position;
/// let a = Position::new(0.0, 0.0);
/// let b = Position::new(3.0, 4.0);
/// assert_eq!(a.distance_to(b).value(), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Position {
    /// X coordinate in meters.
    pub x: f64,
    /// Y coordinate in meters.
    pub y: f64,
}

impl Position {
    /// The origin `(0, 0)`.
    pub const ORIGIN: Position = Position { x: 0.0, y: 0.0 };

    /// Creates a position from coordinates in meters.
    pub const fn new(x: f64, y: f64) -> Self {
        Position { x, y }
    }

    /// Euclidean distance to another position.
    pub fn distance_to(self, other: Position) -> Meters {
        Meters::new((self.x - other.x).hypot(self.y - other.y))
    }

    /// Returns this position displaced by `(dx, dy)` meters.
    pub fn offset(self, dx: f64, dy: f64) -> Position {
        Position::new(self.x + dx, self.y + dy)
    }

    /// Returns this position perturbed by a uniformly random error inside a
    /// disc of the given radius.
    ///
    /// This is the paper's position-inaccuracy study (Section VI-B): "we add
    /// random error within a certain range to the coordinates of each node".
    /// Sampling is area-uniform (radius ∝ √u), so errors are not biased
    /// toward the center.
    pub fn with_error<R: Rng + ?Sized>(self, radius: Meters, rng: &mut R) -> Position {
        // An error radius is non-negative; zero means exact positions.
        if radius.value() <= 0.0 {
            return self;
        }
        let r = radius.value() * rng.gen::<f64>().sqrt();
        let theta = rng.gen::<f64>() * std::f64::consts::TAU;
        self.offset(r * theta.cos(), r * theta.sin())
    }
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.1}, {:.1})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Position {
    fn from((x, y): (f64, f64)) -> Self {
        Position::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn distance_is_symmetric() {
        let a = Position::new(-8.0, 0.0);
        let b = Position::new(36.0, 2.0);
        assert_eq!(a.distance_to(b), b.distance_to(a));
    }

    #[test]
    fn distance_to_self_is_zero() {
        let p = Position::new(12.5, -3.0);
        assert_eq!(p.distance_to(p), Meters::ZERO);
    }

    #[test]
    fn error_stays_within_radius() {
        let mut rng = StdRng::seed_from_u64(7);
        let p = Position::new(10.0, 10.0);
        for _ in 0..1000 {
            let q = p.with_error(Meters::new(10.0), &mut rng);
            assert!(p.distance_to(q).value() <= 10.0 + 1e-9);
        }
    }

    #[test]
    fn zero_error_is_identity() {
        let mut rng = StdRng::seed_from_u64(7);
        let p = Position::new(1.0, 2.0);
        assert_eq!(p.with_error(Meters::ZERO, &mut rng), p);
    }

    #[test]
    fn error_is_area_uniform() {
        // With area-uniform sampling, ~25% of samples fall inside r/2.
        let mut rng = StdRng::seed_from_u64(42);
        let p = Position::ORIGIN;
        let n = 20_000;
        let inside = (0..n)
            .filter(|_| {
                p.with_error(Meters::new(8.0), &mut rng)
                    .distance_to(p)
                    .value()
                    < 4.0
            })
            .count();
        let frac = inside as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.02, "inner-disc fraction {frac}");
    }
}
