//! Medium hot-path benchmarks: `begin()`/`end()` cycles in isolation,
//! without the MAC or event loop on top. The link-mean cache should make
//! `begin()` a table lookup plus (under shadowing) one fast-fading draw
//! per receiver, and `set_position` is the only operation allowed to pay
//! the `powf`-heavy path-loss recomputation.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use comap_mac::time::{SimDuration, SimTime};
use comap_radio::pathloss::LogNormalShadowing;
use comap_radio::rates::Rate;
use comap_radio::units::{Db, Dbm};
use comap_radio::Position;
use comap_sim::frame::{Frame, FrameBody, NodeId};
use comap_sim::medium::{Medium, MediumBackend};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn grid(n: usize) -> Vec<Position> {
    (0..n)
        .map(|i| Position::new(9.0 * (i % 4) as f64, 9.0 * (i / 4) as f64))
        .collect()
}

/// The paper-§VI scale setting as the medium sees it: `n` nodes
/// scattered uniformly over a `side`-meter square, several relevance
/// ranges across, so each transmission touches only a handful of
/// receivers.
fn scatter(n: usize, side: f64) -> Vec<Position> {
    let mut rng = StdRng::seed_from_u64(42);
    (0..n)
        .map(|_| Position::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
        .collect()
}

fn data(src: usize, dst: usize) -> Frame {
    Frame {
        src: NodeId(src),
        dst: NodeId(dst),
        body: FrameBody::Data {
            seq: 0,
            payload_bytes: 1000,
            retry: false,
        },
        rate: Rate::Mbps11,
    }
}

fn at(us: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_micros(us)
}

/// One begin/end cycle per iteration on a medium kept warm across
/// iterations (state is restored by the cycle itself).
fn cycle_bench(c: &mut Criterion, name: &str, sigma: Db) {
    let chan = LogNormalShadowing::from_friis(Dbm::new(0.0), 2.9, sigma);
    let mut m = Medium::new(chan, grid(10), true, StdRng::seed_from_u64(7));
    let mut t = 0u64;
    c.bench_function(name, |b| {
        b.iter(|| {
            let src = (t / 100 % 10) as usize;
            let (tx, _) = m.begin(data(src, (src + 1) % 10), at(t), at(t + 100));
            let notes = m.end(tx, at(t + 100));
            t += 100;
            black_box(notes)
        })
    });
}

/// One begin/end cycle over an explicit backend and node set, the
/// transmitter rotating through every node.
fn backend_cycle_bench(
    c: &mut Criterion,
    name: &str,
    positions: Vec<Position>,
    backend: MediumBackend,
) {
    let n = positions.len();
    let chan = LogNormalShadowing::testbed(Dbm::new(0.0));
    let mut m = Medium::with_backend(chan, positions, true, StdRng::seed_from_u64(7), backend);
    let mut t = 0u64;
    c.bench_function(name, |b| {
        b.iter(|| {
            let src = (t / 100) as usize % n;
            let (tx, _) = m.begin(data(src, (src + 1) % n), at(t), at(t + 100));
            let notes = m.end(tx, at(t + 100));
            t += 100;
            black_box(notes)
        })
    });
}

/// One begin/end cycle plus one random-waypoint `set_position` per
/// iteration: the fig_scale mobility duty cycle, condensed. The mover is
/// always distinct from the transmitter, so the move never races an
/// active transmission of its own.
fn mobile_cycle_bench(
    c: &mut Criterion,
    name: &str,
    positions: Vec<Position>,
    backend: MediumBackend,
) {
    let n = positions.len();
    let side = 14000.0;
    let chan = LogNormalShadowing::testbed(Dbm::new(0.0));
    let mut m = Medium::with_backend(chan, positions, true, StdRng::seed_from_u64(7), backend);
    let mut wp = StdRng::seed_from_u64(1234);
    let mut t = 0u64;
    c.bench_function(name, |b| {
        b.iter(|| {
            let src = (t / 100) as usize % n;
            let (tx, _) = m.begin(data(src, (src + 1) % n), at(t), at(t + 100));
            let notes = m.end(tx, at(t + 100));
            let mover = (src + n / 2) % n;
            m.set_position(
                NodeId(mover),
                Position::new(wp.gen_range(0.0..side), wp.gen_range(0.0..side)),
            );
            t += 100;
            black_box(notes)
        })
    });
}

fn bench_medium(c: &mut Criterion) {
    cycle_bench(c, "medium_cycle_10_nodes_sigma0", Db::ZERO);
    cycle_bench(c, "medium_cycle_10_nodes_shadowed", Db::new(4.0));

    // The culling acceptance pair: a 150-node paper-§VI scatter. The
    // culled backend must stay ≥ 3× faster than the exhaustive one.
    backend_cycle_bench(
        c,
        "medium_cycle_150_nodes_exhaustive",
        scatter(150, 14000.0),
        MediumBackend::Exhaustive,
    );
    backend_cycle_bench(
        c,
        "medium_cycle_150_nodes_culled",
        scatter(150, 14000.0),
        MediumBackend::Culled,
    );

    // The mobility acceptance pair: the same 150-node scatter, but every
    // cycle also moves one (non-transmitting) node to a fresh waypoint —
    // the random-waypoint churn that makes `set_position` the hot path.
    mobile_cycle_bench(
        c,
        "medium_cycle_150_nodes_mobile_culled",
        scatter(150, 14000.0),
        MediumBackend::Culled,
    );

    c.bench_function("medium_set_position_10_nodes", |b| {
        let chan = LogNormalShadowing::testbed(Dbm::new(0.0));
        let mut m = Medium::new(chan, grid(10), true, StdRng::seed_from_u64(7));
        let mut x = 0.0f64;
        b.iter(|| {
            x = (x + 1.0) % 40.0;
            m.set_position(NodeId(3), Position::new(x, 5.0));
            black_box(m.sensed(NodeId(3)))
        })
    });
}

fn quick() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1200))
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_medium
}
criterion_main!(benches);
