//! Workload definitions and their input generators.
//!
//! Every input is generated here, from the workload seed alone, with the
//! benchmark's own SplitMix64 stream. The generators are modelled on the
//! experiment crate's `scale_campus` and `large_scale` topologies but do
//! not call them, so edits to the experiment crate cannot move the
//! benchmark's inputs.

use comap_mac::time::SimDuration;
use comap_radio::rates::Rate;
use comap_radio::units::Meters;
use comap_radio::Position;
use comap_sim::config::{MacFeatures, NodeSpec, SimConfig, Traffic};
use comap_sim::rate::RateController;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A 400-node constant-density campus whose clients keep moving.
    CampusMobile,
    /// Many static, saturated Fig. 10-style 3-AP / 9-client cells.
    CellsSaturated,
    /// The `CellsSaturated` jobs with the metrics and latency sinks on.
    CellsObserved,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [
        Workload::CampusMobile,
        Workload::CellsSaturated,
        Workload::CellsObserved,
    ];

    /// The workload's name on the command line and in the digest table.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CampusMobile => "campus_mobile",
            Workload::CellsSaturated => "cells_saturated",
            Workload::CellsObserved => "cells_observed",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Number of jobs in the workload's job set.
    pub fn jobs(self) -> usize {
        match self {
            Workload::CampusMobile => CAMPUS_JOBS,
            Workload::CellsSaturated | Workload::CellsObserved => CELL_JOBS,
        }
    }

    /// Number of jobs, from the start of the set, that the traced run
    /// replays in each pass.
    pub fn traced_jobs(self) -> usize {
        match self {
            Workload::CampusMobile => CAMPUS_TRACED_JOBS,
            Workload::CellsSaturated | Workload::CellsObserved => CELL_TRACED_JOBS,
        }
    }

    /// Simulated duration of every job of the workload.
    pub fn duration(self) -> SimDuration {
        match self {
            Workload::CampusMobile => SimDuration::from_millis(CAMPUS_DURATION_MS),
            Workload::CellsSaturated | Workload::CellsObserved => {
                SimDuration::from_millis(CELL_DURATION_MS)
            }
        }
    }

    /// Whether the jobs run with `MetricsSink` and `LatencySink` attached.
    pub fn observed(self) -> bool {
        self == Workload::CellsObserved
    }

    /// The configuration of job `job` of the pass generated from `seed`.
    pub fn job(self, seed: u64, job: usize) -> SimConfig {
        match self {
            Workload::CampusMobile => campus_mobile(&mut Stream::new(seed, CAMPUS_SALT, job)),
            // The observed cells run exactly the saturated cells' jobs.
            Workload::CellsSaturated | Workload::CellsObserved => {
                saturated_cell(&mut Stream::new(seed, CELLS_SALT, job))
            }
        }
    }
}

/// Campus jobs in the set, and how many of them the traced run replays.
const CAMPUS_JOBS: usize = 16;
const CAMPUS_TRACED_JOBS: usize = 2;
/// Cell jobs in the set, and how many of them the traced run replays.
const CELL_JOBS: usize = 48;
const CELL_TRACED_JOBS: usize = 12;
/// Simulated time of one campus job.
const CAMPUS_DURATION_MS: u64 = 1_000;
/// Simulated time of one cell job.
const CELL_DURATION_MS: u64 = 2_000;

/// Campus size: about 400 nodes, one AP per ten.
const CAMPUS_NODES: usize = 400;
/// Localization fix period of a moving client.
const FIX_PERIOD_US: u64 = 100_000;
/// Position error fed to CO-MAP in the cells.
const CELL_POSITION_ERROR_M: f64 = 5.0;

const CAMPUS_SALT: u64 = 0xC0FF_EE00_CA4B_0001;
const CELLS_SALT: u64 = 0xC0FF_EE00_CE11_0002;

/// SplitMix64, keyed by `(seed, salt, job)`.
struct Stream(u64);

impl Stream {
    fn new(seed: u64, salt: u64, job: usize) -> Stream {
        let mut s = Stream(seed ^ salt);
        let base = s.next_u64();
        Stream(base ^ (job as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }

    /// Uniform in `[0, n)`.
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A point `5..30` m from `home`, inside the `[lo, hi]` box.
fn near(rng: &mut Stream, home: Position, lo: (f64, f64), hi: (f64, f64)) -> Position {
    loop {
        let r = rng.range(5.0, 30.0);
        let theta = rng.range(0.0, std::f64::consts::TAU);
        let p = home.offset(r * theta.cos(), r * theta.sin());
        if (lo.0..=hi.0).contains(&p.x) && (lo.1..=hi.1).contains(&p.y) {
            return p;
        }
    }
}

/// The `campus_mobile` job: a square campus whose area grows with the
/// node count (one node per (280 m)², as in the paper's §VI study), an AP
/// per ten nodes, clients 5–30 m from a round-robin AP with light
/// two-way CBR, and random-waypoint motion for the whole run. Each
/// client walks toward a waypoint at 5–15 m/s and reports a fix every
/// 100 ms; one in eight roams to waypoints anywhere on the campus, the
/// rest stay within 30 m of their AP.
fn campus_mobile(rng: &mut Stream) -> SimConfig {
    let n = CAMPUS_NODES;
    let mut cfg = SimConfig::testbed(rng.next_u64());
    cfg.default_features = MacFeatures {
        discovery_header: false,
        ..MacFeatures::COMAP
    };
    cfg.inband_header = true;
    cfg.rate_controller = RateController::Fixed(Rate::Mbps11);

    let side = (n as f64).sqrt() * 280.0;
    let n_aps = n / 10;
    let ap_pos: Vec<Position> = (0..n_aps)
        .map(|_| Position::new(rng.range(0.0, side), rng.range(0.0, side)))
        .collect();
    let aps: Vec<_> = ap_pos
        .iter()
        .enumerate()
        .map(|(i, &p)| cfg.add_node(NodeSpec::ap(format!("AP{i}"), p)))
        .collect();

    let end_us = CAMPUS_DURATION_MS * 1_000;
    for i in 0..(n - n_aps) {
        let home = ap_pos[i % n_aps];
        let roamer = i % 8 == 7;
        let waypoint = |rng: &mut Stream| {
            if roamer {
                Position::new(rng.range(0.0, side), rng.range(0.0, side))
            } else {
                near(rng, home, (0.0, 0.0), (side, side))
            }
        };
        let start = near(rng, home, (0.0, 0.0), (side, side));
        let mut spec = NodeSpec::client(format!("C{i}"), start);
        let mut at = start;
        let mut target = waypoint(rng);
        let mut speed = rng.range(5.0, 15.0);
        let mut t_us = rng.below(FIX_PERIOD_US) + 1;
        while t_us < end_us {
            let step = speed * FIX_PERIOD_US as f64 / 1e6;
            let (dx, dy) = (target.x - at.x, target.y - at.y);
            let dist = (dx * dx + dy * dy).sqrt();
            if dist <= step {
                at = target;
                target = waypoint(rng);
                speed = rng.range(5.0, 15.0);
            } else {
                at = at.offset(dx / dist * step, dy / dist * step);
            }
            spec = spec.with_move(SimDuration::from_micros(t_us), at);
            t_us += FIX_PERIOD_US;
        }
        let c = cfg.add_node(spec);
        let ap = aps[i % n_aps];
        cfg.add_flow(c, ap, Traffic::Cbr { bps: 2.0e5 });
        cfg.add_flow(ap, c, Traffic::Cbr { bps: 2.0e5 });
    }
    cfg
}

/// One saturated cell: the Fig. 10 floor (three co-channel APs 60 m
/// apart on the large-scale channel, nine clients 5–30 m from their
/// nearest AP), CO-MAP with in-band headers and a 5 m position error,
/// saturated traffic both ways on every association, no movement.
fn saturated_cell(rng: &mut Stream) -> SimConfig {
    let mut cfg = SimConfig::large_scale(rng.next_u64());
    cfg.default_features = MacFeatures {
        discovery_header: false,
        ..MacFeatures::COMAP
    };
    cfg.inband_header = true;
    cfg.rate_controller = RateController::Fixed(Rate::Mbps6);
    cfg.position_error = Meters::new(CELL_POSITION_ERROR_M);

    let ap_pos = [
        Position::new(0.0, 0.0),
        Position::new(60.0, 0.0),
        Position::new(120.0, 0.0),
    ];
    let aps: Vec<_> = ap_pos
        .iter()
        .enumerate()
        .map(|(i, &p)| cfg.add_node(NodeSpec::ap(format!("AP{i}"), p)))
        .collect();
    for i in 0..9 {
        let home = rng.below(3) as usize;
        let pos = near(rng, ap_pos[home], (-30.0, -30.0), (150.0, 30.0));
        // Associate with the nearest AP, as the Fig. 10 floor does.
        let ap = (0..3)
            .min_by(|&a, &b| {
                ap_pos[a]
                    .distance_to(pos)
                    .value()
                    .total_cmp(&ap_pos[b].distance_to(pos).value())
            })
            .map_or(home, |a| a);
        let c = cfg.add_node(NodeSpec::client(format!("C{i}"), pos));
        cfg.add_flow(c, aps[ap], Traffic::Saturated);
        cfg.add_flow(aps[ap], c, Traffic::Saturated);
    }
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_are_a_function_of_the_seed() {
        for w in Workload::ALL {
            let a = w.job(7, 1);
            let b = w.job(7, 1);
            assert_eq!(format!("{:?}", a.nodes), format!("{:?}", b.nodes));
            assert_ne!(format!("{:?}", a.nodes), format!("{:?}", w.job(8, 1).nodes));
        }
    }

    #[test]
    fn observed_cells_run_the_saturated_cells_jobs() {
        let a = Workload::CellsSaturated.job(3, 5);
        let b = Workload::CellsObserved.job(3, 5);
        assert_eq!(format!("{:?}", a.nodes), format!("{:?}", b.nodes));
        assert_eq!(a.seed, b.seed);
    }

    #[test]
    fn campus_clients_move_for_the_whole_run() {
        let cfg = Workload::CampusMobile.job(1, 0);
        assert_eq!(cfg.nodes.len(), CAMPUS_NODES);
        let end = Workload::CampusMobile.duration();
        for node in cfg.nodes.iter().filter(|n| !n.ap) {
            let last = node.moves.last().map(|m| m.at);
            assert!(last.is_some_and(|t| t + SimDuration::from_micros(FIX_PERIOD_US) >= end));
        }
    }
}
