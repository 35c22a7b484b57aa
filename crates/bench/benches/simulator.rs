//! Event-loop throughput: how much simulated air time the engine chews
//! through per wall-clock second on canonical cells. Measured per
//! simulated 100 ms so regressions in the MAC/medium hot path show up.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use comap_experiments::topology;
use comap_mac::time::SimDuration;
use comap_radio::rates::Rate;
use comap_radio::Position;
use comap_sim::config::{MacFeatures, NodeSpec, SimConfig, Traffic};
use comap_sim::rate::RateController;
use comap_sim::sim::Simulator;

fn two_node(features: MacFeatures) -> SimConfig {
    let mut cfg = SimConfig::testbed(1);
    cfg.default_features = features;
    cfg.rate_controller = RateController::Fixed(Rate::Mbps11);
    let a = cfg.add_node(NodeSpec::client("A", Position::new(0.0, 0.0)));
    let b = cfg.add_node(NodeSpec::ap("B", Position::new(10.0, 0.0)));
    cfg.add_flow(a, b, Traffic::Saturated);
    cfg
}

fn contention_cell(n: usize) -> SimConfig {
    let mut cfg = SimConfig::testbed(1);
    cfg.rate_controller = RateController::Fixed(Rate::Mbps11);
    let ap = cfg.add_node(NodeSpec::ap("AP", Position::new(0.0, 0.0)));
    for i in 0..n {
        let a = cfg.add_node(NodeSpec::client(
            format!("C{i}"),
            Position::new(10.0 + i as f64, i as f64),
        ));
        cfg.add_flow(a, ap, Traffic::Saturated);
    }
    cfg
}

/// The Fig. 10 floor (3 co-channel APs, 9 clients, CO-MAP, 5 m position
/// error) with every flow saturated: the MAC dispatch path under full
/// exposed-terminal load.
fn fig10_saturated() -> SimConfig {
    let (mut cfg, _) = topology::large_scale(1, 1, MacFeatures::COMAP, 5.0);
    for flow in &mut cfg.flows {
        flow.traffic = Traffic::Saturated;
    }
    cfg
}

fn bench_sim(c: &mut Criterion) {
    let dur = SimDuration::from_millis(100);
    c.bench_function("sim_100ms_lone_link_dcf", |b| {
        b.iter(|| black_box(Simulator::new(two_node(MacFeatures::DCF)).run(dur)))
    });
    c.bench_function("sim_100ms_lone_link_comap", |b| {
        b.iter(|| black_box(Simulator::new(two_node(MacFeatures::COMAP)).run(dur)))
    });
    c.bench_function("sim_100ms_5_station_cell", |b| {
        b.iter(|| black_box(Simulator::new(contention_cell(5)).run(dur)))
    });
    c.bench_function("sim_100ms_10_station_cell", |b| {
        b.iter(|| black_box(Simulator::new(contention_cell(10)).run(dur)))
    });
    c.bench_function("sim_200ms_fig10_saturated_comap", |b| {
        b.iter(|| black_box(Simulator::new(fig10_saturated()).run(SimDuration::from_millis(200))))
    });
    c.bench_function("sim_construction_with_protocols", |b| {
        b.iter(|| black_box(Simulator::new(two_node(MacFeatures::COMAP))))
    });
    let campus = topology::scale_campus(400, 1, MacFeatures::COMAP, 1).0;
    c.bench_function("sim_new_campus_400", |b| {
        b.iter(|| black_box(Simulator::new(campus.clone())))
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
    targets = bench_sim
}
criterion_main!(benches);
