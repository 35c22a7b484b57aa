//! Hidden-terminal census (paper Section IV-D1).
//!
//! For a link `S → R`, a neighbor is a **potential hidden terminal** when
//! it satisfies both conditions:
//!
//! 1. it lies inside the link's *interference range* — a concurrent
//!    transmission from it would drive the link's PRR (eq. 3) below a
//!    threshold, and
//! 2. it (probably) cannot carrier-sense `S`: by eq. (4),
//!    `Pr{P_r < T_cs} > 90 %`.
//!
//! Neighbors that *can* sense `S` and interfere are **contenders** — they
//! share the channel through CSMA rather than colliding blindly. Both
//! counts feed the analytical model's `(h, c)` lookup.
//!
//! # Range cull
//!
//! [`HtCensusEngine::census`] files a neighbor as `Independent` without
//! evaluating eqs. (3)–(4) when it lies beyond `CULL_MARGIN` (2) times
//! both closed-form ranges: the interference range around the receiver
//! and the 90 %-miss carrier-sense range around the sender. Every other
//! neighbor goes through [`HtCensusEngine::classify`]. The cull is exact:
//!
//! * eq. (3) is monotone increasing in the interferer distance and
//!   eq. (4) in the sender distance, so beyond the range where each
//!   crosses its threshold the verdict is "does not interfere" and
//!   "cannot sense" — the definition of `Independent`;
//! * doubling a distance moves either argument by `10 α log₁₀ 2`
//!   (≈ 8.7 dB at `α = 2.9`). On both presets that puts a culled
//!   neighbor's PRR at ≥ 0.98 against the 0.75 threshold and its miss
//!   probability at ≥ 0.999 against 0.9: gaps of more than 0.08, where
//!   the closed-form ranges, the probit refinement and `erfc` err by
//!   less than 1e-9, so no rounding can land a culled neighbor on the
//!   wrong side of a threshold;
//! * with `σ = 0` both equations are step functions switching exactly at
//!   the closed-form ranges, so the margin holds there too;
//! * near-field clamping only raises distances to `d₀`, which moves
//!   both probabilities further in the culled direction.
//!
//! This is the "superset by construction" argument of the medium's
//! relevance radius: the cull never decides anything `classify` would
//! decide differently, it only skips work.

use comap_radio::prr::ReceptionModel;
use comap_radio::units::{Dbm, Meters};
use comap_radio::Position;

use crate::neighbor::NeighborTable;
use crate::Addr;

/// How a neighbor relates to a given link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NeighborClass {
    /// Interferes with the link and cannot sense its sender: collides
    /// blindly.
    Hidden,
    /// Interferes (or shares airtime) but defers via carrier sense.
    Contender,
    /// Too far to matter: concurrent transmissions are harmless.
    Independent,
}

/// The censused neighborhood of one link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HtCensus<A> {
    /// Potential hidden terminals (paper's `N_ht`).
    pub hidden: Vec<A>,
    /// Contending nodes visible to carrier sense (paper's `c`).
    pub contenders: Vec<A>,
    /// Neighbors with no impact on the link.
    pub independent: Vec<A>,
}

impl<A> HtCensus<A> {
    /// `N_ht`, the count the adaptation table is indexed by.
    pub fn n_ht(&self) -> usize {
        self.hidden.len()
    }

    /// `c`, the number of contending nodes.
    pub fn n_contenders(&self) -> usize {
        self.contenders.len()
    }
}

/// Factor by which a neighbor must lie beyond both closed-form ranges
/// before [`HtCensusEngine::census`] files it as `Independent` without
/// classifying it (see the module docs for why 2 is exact).
const CULL_MARGIN: f64 = 2.0;

/// Census engine bundling the thresholds of Section IV-D1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HtCensusEngine {
    reception: ReceptionModel,
    t_cs: Dbm,
    /// PRR threshold defining "interferes with the link".
    interference_prr: f64,
    /// CS-miss probability above which a node counts as hidden (90 %).
    miss_probability: f64,
    /// `CULL_MARGIN ×` the 90 %-miss carrier-sense range, in meters.
    cs_cull_m: f64,
    /// `CULL_MARGIN ×` the interference range per meter of
    /// `max(d, d₀)` (the range is linear in it).
    int_cull_per_m: f64,
}

impl HtCensusEngine {
    /// Creates a census engine.
    ///
    /// # Panics
    ///
    /// Panics unless both probabilities are in `(0, 1)`.
    pub fn new(
        reception: ReceptionModel,
        t_cs: Dbm,
        interference_prr: f64,
        miss_probability: f64,
    ) -> Self {
        assert!(
            interference_prr > 0.0 && interference_prr < 1.0,
            "interference PRR threshold must be in (0, 1)"
        );
        assert!(
            miss_probability > 0.0 && miss_probability < 1.0,
            "miss probability must be in (0, 1)"
        );
        let d0 = reception.channel().reference_distance();
        HtCensusEngine {
            reception,
            t_cs,
            interference_prr,
            miss_probability,
            cs_cull_m: CULL_MARGIN
                * reception
                    .cs_range_for_miss_probability(t_cs, miss_probability)
                    .value(),
            int_cull_per_m: CULL_MARGIN
                * reception.interference_range(d0, interference_prr).value()
                / d0.value(),
        }
    }

    /// The cull radii for a link of length `d`: a neighbor farther than
    /// the first from the receiver *and* farther than the second from
    /// the sender is `Independent` without classification.
    pub fn cull_radii(&self, d: Meters) -> (Meters, Meters) {
        let d0 = self.reception.channel().reference_distance();
        (
            Meters::new(self.int_cull_per_m * d.max(d0).value()),
            Meters::new(self.cs_cull_m),
        )
    }

    /// Classifies a single neighbor with respect to the link `s → r`.
    pub fn classify(&self, s: Position, r: Position, neighbor: Position) -> NeighborClass {
        self.classify_link(s.distance_to(r), s, r, neighbor)
    }

    /// [`Self::classify`] with the link length `d = |s r|` precomputed.
    fn classify_link(
        &self,
        d: Meters,
        s: Position,
        r: Position,
        neighbor: Position,
    ) -> NeighborClass {
        let eps = self.reception.channel().reference_distance();
        let interferer_dist = neighbor.distance_to(r).max(eps);
        let interferes = self.reception.prr(d, interferer_dist) < self.interference_prr;
        let sense_dist = neighbor.distance_to(s).max(eps);
        let senses =
            self.reception.cs_miss_probability(sense_dist, self.t_cs) <= self.miss_probability;
        match (interferes, senses) {
            (true, false) => NeighborClass::Hidden,
            (_, true) => NeighborClass::Contender,
            (false, false) => NeighborClass::Independent,
        }
    }

    /// Runs the census of the link `s → r` over a neighbor table,
    /// excluding the link's own endpoints. Neighbors beyond both cull
    /// radii ([`Self::cull_radii`]) are filed as `Independent` without
    /// evaluating eqs. (3)–(4); the result, order included, is the one
    /// [`Self::classify`] on every neighbor would give.
    pub fn census<A: Addr>(
        &self,
        table: &NeighborTable<A>,
        s_addr: A,
        s: Position,
        r_addr: A,
        r: Position,
    ) -> HtCensus<A> {
        let mut census = HtCensus {
            hidden: Vec::new(),
            contenders: Vec::new(),
            independent: Vec::with_capacity(table.len()),
        };
        let d = s.distance_to(r);
        let (int_cull, cs_cull) = self.cull_radii(d);
        // Squared radii: the margin dwarfs any rounding of the squares.
        let (int_cull_sq, cs_cull_sq) = (int_cull.value().powi(2), cs_cull.value().powi(2));
        for (addr, entry) in table.iter() {
            if addr == s_addr || addr == r_addr {
                continue;
            }
            let p = entry.position;
            if distance_sq(p, r) > int_cull_sq && distance_sq(p, s) > cs_cull_sq {
                census.independent.push(addr);
                continue;
            }
            match self.classify_link(d, s, r, p) {
                NeighborClass::Hidden => census.hidden.push(addr),
                NeighborClass::Contender => census.contenders.push(addr),
                NeighborClass::Independent => census.independent.push(addr),
            }
        }
        census
    }
}

/// Squared Euclidean distance, without the `hypot` of
/// [`Position::distance_to`].
fn distance_sq(a: Position, b: Position) -> f64 {
    let (dx, dy) = (a.x - b.x, a.y - b.y);
    dx * dx + dy * dy
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MobilityConfig, ProtocolConfig};

    fn engine() -> HtCensusEngine {
        let cfg = ProtocolConfig::testbed();
        HtCensusEngine::new(
            cfg.reception(),
            cfg.t_cs,
            cfg.census_interference_prr,
            cfg.ht_miss_probability,
        )
    }

    #[test]
    fn nearby_node_is_a_contender() {
        // 10 m from the sender: surely senses it, counted as contender.
        let e = engine();
        let class = e.classify(
            Position::new(0.0, 0.0),
            Position::new(15.0, 0.0),
            Position::new(10.0, 0.0),
        );
        assert_eq!(class, NeighborClass::Contender);
    }

    #[test]
    fn paper_fig2_geometry_is_hidden() {
        // C1 at 0, AP1 at 15 m, C2 at 37 m: C2 cannot sense C1 (37 m is
        // beyond the ~28 m mean CS range) but its signal corrupts AP1
        // (22 m from AP1, close to the 15 m link length).
        let e = engine();
        let class = e.classify(
            Position::new(0.0, 0.0),
            Position::new(15.0, 0.0),
            Position::new(37.0, 0.0),
        );
        assert_eq!(class, NeighborClass::Hidden);
    }

    #[test]
    fn remote_node_is_independent() {
        let e = engine();
        let class = e.classify(
            Position::new(0.0, 0.0),
            Position::new(10.0, 0.0),
            Position::new(400.0, 0.0),
        );
        assert_eq!(class, NeighborClass::Independent);
    }

    #[test]
    fn census_excludes_link_endpoints() {
        let e = engine();
        let mut t = NeighborTable::new(MobilityConfig::default());
        t.insert("S", Position::new(0.0, 0.0));
        t.insert("R", Position::new(15.0, 0.0));
        t.insert("H", Position::new(37.0, 0.0));
        t.insert("C", Position::new(10.0, 0.0));
        t.insert("I", Position::new(400.0, 0.0));
        let census = e.census(
            &t,
            "S",
            Position::new(0.0, 0.0),
            "R",
            Position::new(15.0, 0.0),
        );
        assert_eq!(census.hidden, vec!["H"]);
        assert_eq!(census.contenders, vec!["C"]);
        assert_eq!(census.independent, vec!["I"]);
        assert_eq!(census.n_ht(), 1);
        assert_eq!(census.n_contenders(), 1);
    }

    #[test]
    fn class_transitions_with_distance_are_ordered() {
        // Sweeping a neighbor away from the sender along the link axis:
        // contender region, then hidden region, then independent.
        let e = engine();
        let s = Position::new(0.0, 0.0);
        let r = Position::new(15.0, 0.0);
        let mut seen = Vec::new();
        for x in (16..500).step_by(2) {
            let class = e.classify(s, r, Position::new(x as f64, 0.0));
            if seen.last() != Some(&class) {
                seen.push(class);
            }
        }
        assert_eq!(
            seen,
            vec![
                NeighborClass::Contender,
                NeighborClass::Hidden,
                NeighborClass::Independent
            ]
        );
    }

    #[test]
    #[should_panic(expected = "must be in (0, 1)")]
    fn thresholds_are_validated() {
        let cfg = ProtocolConfig::testbed();
        let _ = HtCensusEngine::new(cfg.reception(), cfg.t_cs, 0.95, 1.5);
    }
}
