//! # comap-radio — propagation and interference models
//!
//! Radio-layer substrate of the CO-MAP reproduction: strongly-typed power
//! and distance units, planar geometry, the log-normal shadowing propagation
//! model (paper eq. 1), and the closed-form packet-reception and
//! carrier-sense-miss probabilities the CO-MAP protocol is built on
//! (paper eqs. 2–4).
//!
//! The module map follows the paper's Section IV-B:
//!
//! * [`units`] — `Dbm`, `Db`, `MilliWatts`, `Meters` newtypes,
//! * [`geom`] — [`Position`] and distances,
//! * [`math`] — `erf`, the standard normal CDF `Φ` and its inverse,
//! * [`pathloss`] — Friis free-space reference and [`LogNormalShadowing`],
//! * [`prr`] — eq. (3) `PRR` and eq. (4) `Pr{P_r < T_cs}`,
//! * [`rates`] — 802.11 (HR/DSSS and ERP-OFDM) bit rates with minimum SINR,
//! * [`stream`] — counter-based keyed random streams (SplitMix64), the
//!   order-independent draw discipline every per-event sample follows.
//!
//! # Example
//!
//! Probability that a transmission at 15 m survives an interferer at 22 m
//! (the paper's hidden-terminal testbed geometry, Fig. 2):
//!
//! ```rust
//! use comap_radio::{prr::ReceptionModel, pathloss::LogNormalShadowing,
//!                   units::{Db, Dbm, Meters}};
//!
//! let chan = LogNormalShadowing::testbed(Dbm::new(0.0));
//! let model = ReceptionModel::new(chan, Db::new(4.0));
//! let p = model.prr(Meters::new(15.0), Meters::new(22.0));
//! assert!(p > 0.5 && p < 1.0);
//! ```

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
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod geom;
pub mod math;
pub mod pathloss;
pub mod prr;
pub mod rates;
pub mod stream;
pub mod units;

pub use geom::Position;
pub use pathloss::{FreeSpace, LogNormalShadowing};
pub use prr::ReceptionModel;
pub use rates::{PhyStandard, Rate};
pub use units::{Db, Dbm, Meters, MilliWatts};

/// Default thermal noise floor of a 2.4 GHz WLAN receiver.
///
/// The paper (Section IV-B) treats the noise floor as an environment
/// constant of −95 dBm and studies conflicts through SIR rather than SINR.
pub const NOISE_FLOOR: Dbm = Dbm::new(-95.0);
