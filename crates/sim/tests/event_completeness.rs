//! Every `SimEvent` variant must be emitted by some simulated run, so the
//! observability schema cannot silently rot: a variant that no run ever
//! produces is either dead or a broken emission site.
//!
//! The runs are the differential corpus (`common/mod.rs`) and the
//! CO-MAP topology of the observability tests with a third sender added,
//! which drives the ET watchdog into abandoning an opportunity (paper
//! §IV-C3, Fig. 6). No corpus run reaches `et_abandon`,
//! `et_opportunity` or `concurrent_tx` on its own.

mod common;

use comap_mac::time::SimDuration;
use comap_radio::Position;
use comap_sim::config::{MacFeatures, NodeSpec, SimConfig, Traffic};
use comap_sim::{SimEvent, Simulator, TimelineSink};

/// `type_name()` of every variant, in declaration order.
const KINDS: [&str; 25] = [
    "tx_begin",
    "tx_end",
    "capture",
    "hazard_drop",
    "rx_resolved",
    "cs_busy",
    "cs_idle",
    "enqueue",
    "dequeue",
    "backoff_draw",
    "defer",
    "resume",
    "ack_timeout",
    "retry",
    "drop",
    "delivered",
    "frame_queued",
    "frame_tx",
    "frame_acked",
    "frame_dropped",
    "header_heard",
    "et_opportunity",
    "et_abandon",
    "concurrent_tx",
    "adapt",
];

/// The variant's position in [`KINDS`]. Exhaustive and wildcard-free: a
/// new variant does not compile until it is listed here, and then this
/// test fails until some run emits it.
fn kind_index(event: &SimEvent) -> usize {
    match event {
        SimEvent::TxBegin { .. } => 0,
        SimEvent::TxEnd { .. } => 1,
        SimEvent::Capture { .. } => 2,
        SimEvent::HazardDrop { .. } => 3,
        SimEvent::RxResolved { .. } => 4,
        SimEvent::CsBusy { .. } => 5,
        SimEvent::CsIdle { .. } => 6,
        SimEvent::Enqueue { .. } => 7,
        SimEvent::Dequeue { .. } => 8,
        SimEvent::BackoffDraw { .. } => 9,
        SimEvent::Defer { .. } => 10,
        SimEvent::Resume { .. } => 11,
        SimEvent::AckTimeout { .. } => 12,
        SimEvent::Retry { .. } => 13,
        SimEvent::Drop { .. } => 14,
        SimEvent::Delivered { .. } => 15,
        SimEvent::FrameQueued { .. } => 16,
        SimEvent::FrameTx { .. } => 17,
        SimEvent::FrameAcked { .. } => 18,
        SimEvent::FrameDropped { .. } => 19,
        SimEvent::HeaderHeard { .. } => 20,
        SimEvent::EtOpportunity { .. } => 21,
        SimEvent::EtAbandon { .. } => 22,
        SimEvent::ConcurrentTx { .. } => 23,
        SimEvent::Adapt { .. } => 24,
    }
}

/// The observability tests' CO-MAP topology (C1 → AP1 and C2 → AP2,
/// whose senders are exposed terminals of each other) plus a third
/// sender C3 → AP3 beside C2. C2 and C3 often claim the same ET
/// opportunity against C1's frame; whichever fires first lifts the
/// other's RSSI past the watchdog threshold, and that one abandons.
fn three_exposed_senders(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::testbed(seed);
    cfg.default_features = MacFeatures::COMAP;
    let ap1 = cfg.add_node(NodeSpec::ap("AP1", Position::new(0.0, 0.0)));
    let c1 = cfg.add_node(NodeSpec::client("C1", Position::new(-8.0, 0.0)));
    let ap2 = cfg.add_node(NodeSpec::ap("AP2", Position::new(36.0, 0.0)));
    let c2 = cfg.add_node(NodeSpec::client("C2", Position::new(26.0, 0.0)));
    let ap3 = cfg.add_node(NodeSpec::ap("AP3", Position::new(36.0, 6.0)));
    let c3 = cfg.add_node(NodeSpec::client("C3", Position::new(26.0, 4.0)));
    cfg.add_flow(c1, ap1, Traffic::Saturated);
    cfg.add_flow(c2, ap2, Traffic::Saturated);
    cfg.add_flow(c3, ap3, Traffic::Saturated);
    cfg
}

/// Counts the events of each kind one run emits.
fn count_kinds(cfg: SimConfig, duration: SimDuration, counts: &mut [u64; KINDS.len()]) {
    let mut sim = Simulator::new(cfg);
    let (sink, handle) = TimelineSink::new();
    sim.attach_sink(Box::new(sink));
    sim.run(duration);
    for (_, event) in handle.events() {
        let k = kind_index(&event);
        assert_eq!(KINDS[k], event.type_name(), "KINDS is out of order");
        counts[k] += 1;
    }
}

#[test]
fn every_sim_event_variant_is_emitted() {
    let mut counts = [0u64; KINDS.len()];
    for s in common::all_scenarios() {
        count_kinds(s.cfg, s.duration, &mut counts);
    }
    count_kinds(
        three_exposed_senders(7),
        SimDuration::from_millis(120),
        &mut counts,
    );
    let missing: Vec<&str> = KINDS
        .iter()
        .zip(counts)
        .filter(|&(_, n)| n == 0)
        .map(|(&kind, _)| kind)
        .collect();
    assert!(missing.is_empty(), "never emitted: {missing:?}");
}
