//! The DCF backoff counter.
//!
//! A node picks a uniform backoff in `[0, CW]` slots, decrements it while
//! the medium is idle, freezes it while busy, and transmits when it reaches
//! zero. Two contention-window policies are supported:
//!
//! * [`BackoffPolicy::Beb`] — standard binary exponential backoff
//!   (`CW_min … CW_max`, doubling after each failed attempt), used by the
//!   DCF baseline;
//! * [`BackoffPolicy::Constant`] — the fixed window `W` assumed by the
//!   analytical model (paper Section IV-D2, `τ = 2/(W+1)`), and the value
//!   CO-MAP's adaptation table installs per hidden-terminal count.

use comap_radio::stream::CounterRng;

/// How the contention window evolves across retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackoffPolicy {
    /// Binary exponential backoff between `cw_min` and `cw_max`
    /// (inclusive window bounds, conventionally `2^k − 1`).
    Beb {
        /// Initial (and post-success) contention window.
        cw_min: u32,
        /// Ceiling reached after repeated failures.
        cw_max: u32,
    },
    /// A fixed contention window `w` regardless of retries.
    Constant {
        /// The constant window.
        w: u32,
    },
}

impl BackoffPolicy {
    /// The 802.11b defaults: `CW_min = 31`, `CW_max = 1023`.
    pub const DSSS_DEFAULT: BackoffPolicy = BackoffPolicy::Beb {
        cw_min: 31,
        cw_max: 1023,
    };

    /// The contention window for a given retry count.
    pub fn window(self, retries: u32) -> u32 {
        match self {
            BackoffPolicy::Beb { cw_min, cw_max } => {
                let grown = (u64::from(cw_min) + 1) << retries.min(16);
                ((grown - 1) as u32).min(cw_max)
            }
            BackoffPolicy::Constant { w } => w,
        }
    }
}

/// A backoff counter mid-flight.
///
/// The counter is expressed in whole slots; the simulator converts elapsed
/// idle time into decremented slots when freezing.
///
/// ```rust
/// use comap_mac::backoff::{Backoff, BackoffPolicy};
/// use comap_radio::stream::CounterRng;
///
/// let mut rng = CounterRng::from_key(1, 0, 0);
/// let mut b = Backoff::draw(BackoffPolicy::Constant { w: 15 }, 0, &mut rng);
/// let start = b.slots_remaining();
/// b.consume(3);
/// assert_eq!(b.slots_remaining(), start.saturating_sub(3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    slots: u32,
}

impl Backoff {
    /// Draws a fresh uniform backoff in `[0, CW(retries)]` from a
    /// counter-keyed stream.
    pub fn draw(policy: BackoffPolicy, retries: u32, rng: &mut CounterRng) -> Self {
        Backoff {
            slots: rng.below_inclusive(policy.window(retries)),
        }
    }

    /// A backoff with an explicit number of slots (mainly for tests).
    pub fn from_slots(slots: u32) -> Self {
        Backoff { slots }
    }

    /// Slots still to be counted down.
    pub fn slots_remaining(self) -> u32 {
        self.slots
    }

    /// `true` once the counter reached zero and the node may transmit.
    pub fn is_expired(self) -> bool {
        self.slots == 0
    }

    /// Consumes up to `slots` idle slots (saturating at zero), returning
    /// how many were actually consumed.
    pub fn consume(&mut self, slots: u32) -> u32 {
        let consumed = self.slots.min(slots);
        self.slots -= consumed;
        consumed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beb_window_doubles_and_caps() {
        let p = BackoffPolicy::DSSS_DEFAULT;
        assert_eq!(p.window(0), 31);
        assert_eq!(p.window(1), 63);
        assert_eq!(p.window(2), 127);
        assert_eq!(p.window(5), 1023);
        assert_eq!(p.window(6), 1023);
        assert_eq!(p.window(60), 1023); // shift is clamped, no overflow
    }

    #[test]
    fn constant_window_ignores_retries() {
        let p = BackoffPolicy::Constant { w: 255 };
        assert_eq!(p.window(0), 255);
        assert_eq!(p.window(9), 255);
    }

    #[test]
    fn draw_is_within_window() {
        let mut rng = CounterRng::from_key(3, 0, 0);
        for retries in 0..4 {
            for _ in 0..200 {
                let b = Backoff::draw(BackoffPolicy::DSSS_DEFAULT, retries, &mut rng);
                assert!(b.slots_remaining() <= BackoffPolicy::DSSS_DEFAULT.window(retries));
            }
        }
    }

    #[test]
    fn draw_is_roughly_uniform() {
        let mut rng = CounterRng::from_key(4, 0, 0);
        let n = 40_000;
        let w = 31;
        let sum: u64 = (0..n)
            .map(|_| {
                u64::from(
                    Backoff::draw(BackoffPolicy::Constant { w }, 0, &mut rng).slots_remaining(),
                )
            })
            .sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 15.5).abs() < 0.3, "mean backoff = {mean}");
    }

    #[test]
    fn consume_freezes_at_zero() {
        let mut b = Backoff::from_slots(5);
        assert_eq!(b.consume(3), 3);
        assert!(!b.is_expired());
        assert_eq!(b.consume(10), 2);
        assert!(b.is_expired());
        assert_eq!(b.consume(1), 0);
    }

    #[test]
    fn zero_draw_expires_immediately() {
        let b = Backoff::from_slots(0);
        assert!(b.is_expired());
    }
}
