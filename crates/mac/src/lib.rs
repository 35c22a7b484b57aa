//! # comap-mac — IEEE 802.11 MAC/PHY primitives
//!
//! The pieces of the 802.11 Distributed Coordination Function (DCF) that
//! both the plain-DCF baseline and CO-MAP build on:
//!
//! * [`time`] — integer-nanosecond simulation time and durations,
//! * [`timing`] — slot/SIFS/DIFS interframe spacing and frame airtime for
//!   the DSSS (802.11b) and ERP-OFDM (802.11g) PHYs,
//! * [`frames`] — frame kinds and on-air sizes, including CO-MAP's
//!   discovery header,
//! * [`backoff`] — the contention-window backoff counter (binary
//!   exponential or the constant window used by the analytical model),
//! * [`arq`] — the selective-repeat ARQ windows CO-MAP uses to survive
//!   ACK losses under concurrent exposed-terminal transmissions.
//!
//! Everything here is pure state-machine logic with no clocks or I/O; the
//! `comap-sim` crate drives it from a discrete-event loop.
//!
//! # Example
//!
//! Airtime of a 1500-byte payload at 11 Mbps with a long DSSS preamble:
//!
//! ```rust
//! use comap_mac::{frames::DATA_HEADER_BYTES, timing::PhyTiming};
//! use comap_radio::rates::Rate;
//!
//! let phy = PhyTiming::dsss();
//! let on_air = phy.frame_duration(DATA_HEADER_BYTES + 1500, Rate::Mbps11);
//! // 192 µs PLCP + (28 + 1500) * 8 / 11 µs ≈ 1303 µs
//! assert_eq!(on_air.as_micros_round(), 1303);
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

pub mod arq;
pub mod backoff;
pub mod frames;
pub mod time;
pub mod timing;

pub use arq::{Ack, SelectiveRepeatReceiver, SelectiveRepeatSender};
pub use backoff::{Backoff, BackoffPolicy};
pub use frames::FrameKind;
pub use time::{SimDuration, SimTime};
pub use timing::PhyTiming;
