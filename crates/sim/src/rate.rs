//! Data-rate selection.
//!
//! The testbed runs Minstrel; its role in the paper's results is simple —
//! links pick higher rates when the SINR headroom allows (Fig. 8's rising
//! goodput as the interferer recedes). Three controllers cover that:
//!
//! * [`RateController::Fixed`] — the NS-2 experiments' fixed 6 Mbps,
//! * [`RateController::IdealSinr`] — a converged-Minstrel stand-in that
//!   picks the fastest rate whose minimum SINR clears the link's mean SNR
//!   (and, for CO-MAP concurrent transmissions, the mean SIR against the
//!   known ongoing interferer) by a configurable margin,
//! * [`RateController::Minstrel`] — the full sampling adapter
//!   ([`Minstrel`]): per-rate EWMA delivery probability learned from ACK
//!   feedback, used when rate convergence itself is under study.

use comap_radio::pathloss::LogNormalShadowing;
use comap_radio::rates::{PhyStandard, Rate};
use comap_radio::units::{Db, Meters};
use comap_radio::{Position, NOISE_FLOOR};

/// How senders choose their modulation rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RateController {
    /// Always use one rate.
    Fixed(Rate),
    /// Pick the fastest decodable rate from the link's mean SNR/SIR.
    IdealSinr {
        /// Safety margin subtracted from the estimated SINR before the
        /// table lookup (absorbs shadowing spread).
        margin: Db,
    },
    /// Minstrel-style sampling adaptation: the MAC keeps one [`Minstrel`]
    /// instance per destination and learns from ACK feedback.
    Minstrel,
}

impl RateController {
    /// The rate for a transmission from `src` to `dst`, optionally
    /// accounting for a concurrent interferer at `interferer` (CO-MAP
    /// exposed-terminal transmissions know who else is on the air).
    ///
    /// Falls back to the base rate when even that cannot be decoded —
    /// the MAC will try, and the PHY will sort out the loss.
    pub fn select(
        &self,
        channel: &LogNormalShadowing,
        standard: PhyStandard,
        src: Position,
        dst: Position,
        interferer: Option<Position>,
    ) -> Rate {
        match *self {
            RateController::Fixed(rate) => rate,
            // The Minstrel variant is resolved statefully by the MAC; this
            // stateless path only provides its optimistic starting point.
            #[expect(
                clippy::expect_used,
                reason = "Rate::all is a non-empty static table for every standard"
            )]
            RateController::Minstrel => *Rate::all(standard).last().expect("non-empty rate set"),
            RateController::IdealSinr { margin } => {
                let signal = channel.mean_power(src.distance_to(dst));
                let mut floor_mw = NOISE_FLOOR.to_milliwatts();
                if let Some(i) = interferer {
                    let d = i.distance_to(dst).max(Meters::new(1.0));
                    floor_mw += channel.mean_power(d).to_milliwatts();
                }
                let sinr = (signal - floor_mw.to_dbm()) - margin;
                Rate::best_for_sinr(standard, sinr).unwrap_or(match standard {
                    PhyStandard::Dsss => Rate::Mbps1,
                    PhyStandard::ErpOfdm => Rate::Mbps6,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comap_radio::units::Dbm;

    fn chan() -> LogNormalShadowing {
        LogNormalShadowing::testbed(Dbm::new(0.0))
    }

    #[test]
    fn fixed_is_fixed() {
        let rc = RateController::Fixed(Rate::Mbps6);
        let r = rc.select(
            &chan(),
            PhyStandard::ErpOfdm,
            Position::ORIGIN,
            Position::new(500.0, 0.0),
            None,
        );
        assert_eq!(r, Rate::Mbps6);
    }

    #[test]
    fn ideal_rate_decreases_with_distance() {
        let rc = RateController::IdealSinr {
            margin: Db::new(5.0),
        };
        let mut prev = Rate::Mbps11;
        for d in [5.0, 20.0, 40.0, 60.0, 90.0] {
            let r = rc.select(
                &chan(),
                PhyStandard::Dsss,
                Position::ORIGIN,
                Position::new(d, 0.0),
                None,
            );
            assert!(r <= prev, "rate must not increase with distance (d = {d})");
            prev = r;
        }
        assert_eq!(prev, Rate::Mbps1, "very long links fall to the base rate");
    }

    #[test]
    fn close_links_use_top_rate() {
        let rc = RateController::IdealSinr {
            margin: Db::new(5.0),
        };
        let r = rc.select(
            &chan(),
            PhyStandard::Dsss,
            Position::ORIGIN,
            Position::new(3.0, 0.0),
            None,
        );
        assert_eq!(r, Rate::Mbps11);
    }

    #[test]
    fn known_interferer_lowers_the_rate() {
        let rc = RateController::IdealSinr {
            margin: Db::new(3.0),
        };
        let clean = rc.select(
            &chan(),
            PhyStandard::Dsss,
            Position::ORIGIN,
            Position::new(8.0, 0.0),
            None,
        );
        let jammed = rc.select(
            &chan(),
            PhyStandard::Dsss,
            Position::ORIGIN,
            Position::new(8.0, 0.0),
            Some(Position::new(20.0, 0.0)),
        );
        assert!(jammed < clean, "{jammed} vs {clean}");
    }

    #[test]
    fn receding_interferer_restores_the_rate() {
        let rc = RateController::IdealSinr {
            margin: Db::new(3.0),
        };
        let mut prev = Rate::Mbps1;
        for d in [15.0, 30.0, 60.0, 120.0, 400.0] {
            let r = rc.select(
                &chan(),
                PhyStandard::Dsss,
                Position::ORIGIN,
                Position::new(8.0, 0.0),
                Some(Position::new(d, 0.0)),
            );
            assert!(r >= prev, "rate must not drop as interferer recedes");
            prev = r;
        }
    }
}

/// Minstrel-style sampling rate adaptation: per-rate EWMA of delivery
/// probability, throughput-ordered selection, periodic sampling of
/// non-best rates — a compact model of mac80211's Minstrel, which the
/// paper's testbed runs.
///
/// Unlike [`RateController::IdealSinr`] this learns purely from ACK
/// feedback, so it converges to whatever the channel actually supports.
#[derive(Debug, Clone)]
pub struct Minstrel {
    rates: Vec<Rate>,
    /// EWMA delivery probability per rate.
    ewma: Vec<f64>,
    /// Frames since the last sampling transmission.
    since_sample: u32,
    /// Rotating index of the next rate to sample.
    sample_cursor: usize,
}

/// Smoothing factor of the delivery-probability EWMA.
const MINSTREL_ALPHA: f64 = 0.25;
/// Every Nth frame samples a non-best rate.
const MINSTREL_SAMPLE_PERIOD: u32 = 10;

impl Minstrel {
    /// Creates a controller over a PHY family's rate set, optimistically
    /// initialized (all rates assumed perfect until proven otherwise, as
    /// Minstrel does on association).
    pub fn new(standard: PhyStandard) -> Self {
        let rates = Rate::all(standard).to_vec();
        let n = rates.len();
        Minstrel {
            rates,
            ewma: vec![1.0; n],
            since_sample: 0,
            sample_cursor: 0,
        }
    }

    /// Expected throughput of rate index `i` (probability × bit rate).
    fn throughput(&self, i: usize) -> f64 {
        self.ewma[i] * self.rates[i].bits_per_second()
    }

    /// Index of the current best rate by expected throughput.
    fn best_index(&self) -> usize {
        (0..self.rates.len())
            .max_by(|&a, &b| self.throughput(a).total_cmp(&self.throughput(b)))
            .unwrap_or(0)
    }

    /// Picks the rate for the next transmission: usually the
    /// throughput-best rate, periodically a sampled alternative.
    pub fn select(&mut self) -> Rate {
        self.since_sample += 1;
        let best = self.best_index();
        if self.since_sample >= MINSTREL_SAMPLE_PERIOD && self.rates.len() > 1 {
            self.since_sample = 0;
            // Rotate through the other rates.
            self.sample_cursor = (self.sample_cursor + 1) % self.rates.len();
            if self.sample_cursor == best {
                self.sample_cursor = (self.sample_cursor + 1) % self.rates.len();
            }
            return self.rates[self.sample_cursor];
        }
        self.rates[best]
    }

    /// Feeds back the outcome of a transmission at `rate`.
    pub fn report(&mut self, rate: Rate, success: bool) {
        if let Some(i) = self.rates.iter().position(|&r| r == rate) {
            let x = if success { 1.0 } else { 0.0 };
            self.ewma[i] = (1.0 - MINSTREL_ALPHA) * self.ewma[i] + MINSTREL_ALPHA * x;
        }
    }

    /// The current best rate (no sampling side effects).
    pub fn current_best(&self) -> Rate {
        self.rates[self.best_index()]
    }
}

#[cfg(test)]
mod minstrel_tests {
    use super::*;

    /// Deterministic channel stub: rates above a cutoff always fail.
    fn drive(m: &mut Minstrel, cutoff: Rate, frames: usize) {
        for _ in 0..frames {
            let r = m.select();
            m.report(r, r <= cutoff);
        }
    }

    #[test]
    fn starts_optimistic_at_top_rate() {
        let mut m = Minstrel::new(PhyStandard::Dsss);
        assert_eq!(m.select(), Rate::Mbps11);
    }

    #[test]
    fn converges_down_to_the_supported_rate() {
        let mut m = Minstrel::new(PhyStandard::Dsss);
        drive(&mut m, Rate::Mbps5_5, 200);
        assert_eq!(m.current_best(), Rate::Mbps5_5);
    }

    #[test]
    fn recovers_when_the_channel_improves() {
        let mut m = Minstrel::new(PhyStandard::Dsss);
        drive(&mut m, Rate::Mbps2, 200);
        assert_eq!(m.current_best(), Rate::Mbps2);
        // Channel clears: sampling rediscovers the top rate.
        drive(&mut m, Rate::Mbps11, 400);
        assert_eq!(m.current_best(), Rate::Mbps11);
    }

    #[test]
    fn sampling_occurs_periodically() {
        let mut m = Minstrel::new(PhyStandard::Dsss);
        let mut non_best = 0;
        for _ in 0..100 {
            let best = m.current_best();
            if m.select() != best {
                non_best += 1;
            }
            // No feedback: distribution driven purely by the sampler.
        }
        assert!((8..=15).contains(&non_best), "sampled {non_best} of 100");
    }

    #[test]
    fn ofdm_family_works_too() {
        let mut m = Minstrel::new(PhyStandard::ErpOfdm);
        drive(&mut m, Rate::Mbps12, 300);
        assert_eq!(m.current_best(), Rate::Mbps12);
    }
}
