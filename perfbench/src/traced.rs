//! The traced run: `Simulator::new` and `Simulator::run_core` replayed
//! in benchmark code over the simulator's public layer APIs
//! (`EventQueue`, `Medium`, `Mac`, `Observer`), with a span around every
//! call the replay makes into a layer.
//!
//! Spans are kept in memory for the whole job and folded into per-layer
//! totals once the job has finished, so the fold never lands inside a
//! timed interval. Each span's parent is the popped event that caused
//! it, and each event's parent is the job.

use std::collections::VecDeque;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use comap_core::protocol::Protocol;
use comap_mac::time::{SimDuration, SimTime};
use comap_radio::stream::CounterRng;
use comap_radio::Position;
use comap_sim::event::{Event, EventQueue};
use comap_sim::mac::{Mac, MacAction, MacConfig, MacCtx, MacEvent, StatEvent};
use comap_sim::medium::{Medium, PhyNote};
use comap_sim::{MediumCounters, NodeId, Observer, SimConfig, SimEvent, SimReport};

/// What a span times. `Event` spans are the popped events; every other
/// name is a call into one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Name {
    Job,
    Event(u8),
    QueuePop,
    QueueSchedule,
    MediumBegin,
    MediumEnd,
    MediumCtxRead,
    MediumSetPosition,
    Mac(u8),
    NeighborMoved,
    PositionReport,
    OnMoved,
    ObserveFanout,
    ObserveMediumDrain,
    ObserveFinish,
    SetupMedium,
    SetupProtocols,
    SetupMacs,
    SetupQueue,
}

/// `MacEvent` kinds, indexed as [`mac_kind`] numbers them.
pub const MAC_KINDS: [&str; 7] = [
    "sense",
    "rx",
    "tx_done",
    "flow_timer",
    "responder_timer",
    "traffic",
    "announce",
];

fn mac_kind(event: &MacEvent) -> usize {
    match event {
        MacEvent::Sense => 0,
        MacEvent::Rx { .. } => 1,
        MacEvent::TxDone { .. } => 2,
        MacEvent::FlowTimer => 3,
        MacEvent::ResponderTimer => 4,
        MacEvent::Traffic => 5,
        MacEvent::Announce { .. } => 6,
    }
}

/// One recorded span; times are nanoseconds since the job started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: Name,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
}

/// Exact work counts of one job, made at the layer boundaries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Pops per `Event` kind, indexed by `Event::kind_index`.
    pub pops: [u64; Event::KIND_COUNT],
    /// Schedules made by the event loop (set-up schedules excluded).
    pub schedules: u64,
    pub peak_len: u64,
    pub stale_pops: u64,
    /// `Medium` notes handed back, in `MAC_KINDS` order of the event
    /// they become: sense, rx, tx_done, announce.
    pub notes: [u64; 4],
    /// `Mac::handle` dispatches returning no action, per MAC kind.
    pub mac_noops: [u64; 7],
    /// `Mac::on_neighbor_moved` and `Mac::on_position_report` calls.
    pub neighbor_moved: u64,
    pub position_reports: u64,
    pub observed_events: u64,
    pub medium: MediumCounters,
    pub cooc_hits: u64,
    pub cooc_misses: u64,
    pub location_reports: u64,
    pub location_suppressed: u64,
}

/// What one traced job hands back.
#[derive(Debug)]
pub struct TracedJob {
    pub report: SimReport,
    pub counts: Counts,
    pub spans: Vec<Span>,
    /// Wall time of the replayed event loop alone.
    pub loop_wall: std::time::Duration,
}

/// Records spans against one job-wide clock.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Closes a span opened at `start`.
    fn close(&mut self, name: Name, start: u64, parent: u32) {
        let end = self.now();
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
        });
    }

    /// Opens a span whose name and end are filled in later; returns its
    /// index.
    fn open(&mut self, parent: u32) -> u32 {
        let start = self.now();
        self.spans.push(Span {
            name: Name::Job,
            start,
            end: start,
            parent,
        });
        (self.spans.len() - 1) as u32
    }
}

/// The replayed simulator: the same state as `Simulator`, plus the
/// tracer and the counts.
struct Replay {
    cfg: SimConfig,
    medium: Medium,
    queue: EventQueue,
    now: SimTime,
    macs: Vec<Mac>,
    flow_gen: Vec<u64>,
    resp_gen: Vec<u64>,
    report: SimReport,
    sinks: Vec<Box<dyn Observer>>,
    observing: bool,
    move_seed: u64,
    move_epoch: Vec<u64>,
    tr: Tracer,
    counts: Counts,
    /// Span index of the event being dispatched.
    event: u32,
}

/// Runs one job traced: `Simulator::new`, the attachment of `sinks`, and
/// `run(duration)`, as the simulator's own code does them.
pub fn run_job(
    cfg: SimConfig,
    sinks: Vec<Box<dyn Observer>>,
    duration: SimDuration,
    span_capacity: usize,
) -> TracedJob {
    let mut tr = Tracer {
        epoch: Instant::now(),
        spans: Vec::with_capacity(span_capacity),
    };
    let job = tr.open(0);
    let mut replay = Replay::new(cfg, tr, job);
    for sink in sinks {
        replay.attach_sink(sink);
    }
    let started = Instant::now();
    replay.run(duration);
    let loop_wall = started.elapsed();
    let mut tr = replay.tr;
    tr.spans[job as usize].end = tr.now();
    let mut counts = replay.counts;
    counts.medium = replay.medium.counters();
    for proto in replay.macs.iter().filter_map(Mac::protocol) {
        let (hits, misses) = proto.cooccurrence().stats();
        let (reports, suppressed) = proto.location_stats();
        counts.cooc_hits += hits;
        counts.cooc_misses += misses;
        counts.location_reports += reports;
        counts.location_suppressed += suppressed;
    }
    TracedJob {
        report: replay.report,
        counts,
        spans: tr.spans,
        loop_wall,
    }
}

impl Replay {
    /// `Simulator::new`, split into the four set-up spans. Protocols and
    /// MACs are built in two passes instead of interleaved; neither
    /// draws from a shared stream, so the result is the same.
    fn new(cfg: SimConfig, mut tr: Tracer, job: u32) -> Replay {
        let n = cfg.nodes.len();
        let true_positions: Vec<Position> = cfg.nodes.iter().map(|s| s.position).collect();

        let s = tr.now();
        let medium_rng = StdRng::seed_from_u64(cfg.seed ^ 0x9E37_79B9_7F4A_7C15);
        let mut medium = Medium::with_quantization(
            cfg.protocol.channel,
            true_positions.clone(),
            cfg.capture,
            medium_rng,
            cfg.backend,
            cfg.position_quantum,
        );
        medium.set_inband_announce(cfg.inband_header);
        tr.close(Name::SetupMedium, s, job);

        let s = tr.now();
        let mut error_rng = StdRng::seed_from_u64(cfg.seed ^ 0x6A09_E667_F3BC_C909);
        let reported: Vec<Position> = true_positions
            .iter()
            .map(|p| p.with_error(cfg.position_error, &mut error_rng))
            .collect();
        let mut protos: Vec<Option<Protocol<NodeId>>> = (0..n)
            .map(|i| {
                let id = NodeId(i);
                cfg.features_of(id).any().then(|| {
                    let mut p = Protocol::new(id, cfg.protocol);
                    p.set_own_position(reported[i]);
                    for (j, &pos) in reported.iter().enumerate() {
                        if j != i {
                            p.on_position_report(NodeId(j), pos);
                        }
                    }
                    p
                })
            })
            .collect();
        tr.close(Name::SetupProtocols, s, job);

        let s = tr.now();
        let mut macs = Vec::with_capacity(n);
        for (i, proto) in protos.iter_mut().enumerate() {
            let id = NodeId(i);
            let mac_cfg = MacConfig {
                id,
                features: cfg.features_of(id),
                phy: cfg.protocol.phy,
                rate_ctl: cfg.rate_controller,
                channel: cfg.protocol.channel,
                true_positions: true_positions.clone(),
                t_cs: cfg.protocol.t_cs,
                backoff: cfg.backoff,
                payload_bytes: cfg.nodes[i].payload.unwrap_or(cfg.payload_bytes),
                retry_limit: cfg.retry_limit,
                arq_window: cfg.protocol.arq_window,
                preamble_cs: cfg.preamble_cs,
            };
            let mut mac = Mac::new(mac_cfg, proto.take(), cfg.seed ^ 0x243F_6A88_85A3_08D3);
            for flow in cfg.flows_from(id) {
                mac.add_flow(flow.dst, flow.traffic);
            }
            macs.push(mac);
        }
        tr.close(Name::SetupMacs, s, job);

        let s = tr.now();
        let mut queue = EventQueue::new();
        for (i, spec) in cfg.nodes.iter().enumerate() {
            queue.schedule(SimTime::ZERO, Event::TrafficWakeup { node: NodeId(i) });
            for (step, mv) in spec.moves.iter().enumerate() {
                queue.schedule(
                    SimTime::ZERO + mv.at,
                    Event::Mobility {
                        node: NodeId(i),
                        step,
                    },
                );
            }
        }
        tr.close(Name::SetupQueue, s, job);

        let move_seed = cfg.seed ^ 0xBB67_AE85_84CA_A73B;
        Replay {
            cfg,
            medium,
            queue,
            now: SimTime::ZERO,
            macs,
            flow_gen: vec![0; n],
            resp_gen: vec![0; n],
            report: SimReport::default(),
            sinks: Vec::new(),
            observing: false,
            move_seed,
            move_epoch: vec![0; n],
            tr,
            counts: Counts::default(),
            event: job,
        }
    }

    fn attach_sink(&mut self, sink: Box<dyn Observer>) {
        self.observing = true;
        self.medium.enable_observation(self.cfg.protocol.t_cs);
        self.sinks.push(sink);
    }

    /// `Simulator::run_core` without the profiler.
    fn run(&mut self, duration: SimDuration) {
        let job = 0;
        let end = SimTime::ZERO + duration;
        loop {
            let ev = self.tr.open(job);
            let s = self.tr.now();
            let len = self.queue.len() as u64;
            let next = match self.queue.peek_time() {
                Some(t) if t <= end => self.queue.pop(),
                _ => None,
            };
            self.tr.close(Name::QueuePop, s, ev);
            let Some((t, event)) = next else {
                // The closing peek is no event: drop its spans.
                self.tr.spans.truncate(ev as usize);
                break;
            };
            self.counts.peak_len = self.counts.peak_len.max(len);
            let kind = event.kind_index();
            self.counts.pops[kind] += 1;
            self.event = ev;
            self.now = t;
            self.report.events += 1;
            match event {
                Event::TxEnd(tx) => {
                    let s = self.tr.now();
                    let notes = self.medium.end(tx, self.now);
                    self.tr.close(Name::MediumEnd, s, ev);
                    self.forward_medium_events();
                    self.dispatch_notes(notes);
                }
                Event::FlowTimer { node, gen } => {
                    if self.flow_gen[node.0] == gen {
                        self.dispatch(node, MacEvent::FlowTimer);
                    } else {
                        self.counts.stale_pops += 1;
                    }
                }
                Event::ResponderTimer { node, gen } => {
                    if self.resp_gen[node.0] == gen {
                        self.dispatch(node, MacEvent::ResponderTimer);
                    } else {
                        self.counts.stale_pops += 1;
                    }
                }
                Event::TrafficWakeup { node } => {
                    self.dispatch(node, MacEvent::Traffic);
                }
                Event::Mobility { node, step } => self.apply_move(node, step),
            }
            let span = &mut self.tr.spans[ev as usize];
            span.name = Name::Event(kind as u8);
            span.end = self.tr.epoch.elapsed().as_nanos() as u64;
        }
        self.report.duration = duration;
        self.report.medium = self.medium.stats();
        if self.observing {
            let s = self.tr.now();
            for sink in &mut self.sinks {
                sink.finish(&mut self.report);
            }
            self.tr.close(Name::ObserveFinish, s, job);
        }
    }

    fn emit(&mut self, event: SimEvent) {
        let s = self.tr.now();
        for sink in &mut self.sinks {
            sink.on_event(self.now, &event);
        }
        self.counts.observed_events += 1;
        self.tr.close(Name::ObserveFanout, s, self.event);
    }

    fn forward_medium_events(&mut self) {
        if !self.observing {
            return;
        }
        let drain = self.tr.open(self.event);
        let events = self.medium.take_events();
        let outer = std::mem::replace(&mut self.event, drain);
        for ev in &events {
            self.emit(*ev);
        }
        self.event = outer;
        self.medium.restore_event_buffer(events);
        let span = &mut self.tr.spans[drain as usize];
        span.name = Name::ObserveMediumDrain;
        span.end = self.tr.epoch.elapsed().as_nanos() as u64;
    }

    fn apply_move(&mut self, node: NodeId, step: usize) {
        let ev = self.event;
        let mv = self.cfg.nodes[node.0].moves[step];
        let s = self.tr.now();
        self.medium.set_position(node, mv.to);
        self.tr.close(Name::MediumSetPosition, s, ev);
        let truth = mv.to;
        self.move_epoch[node.0] += 1;
        let mut noise =
            CounterRng::from_key(self.move_seed, node.0 as u64, self.move_epoch[node.0]);
        let fix = truth.with_error(self.cfg.position_error, &mut noise);
        let n = self.macs.len();
        let s = self.tr.now();
        for i in 0..n {
            if i != node.0 {
                self.macs[i].on_neighbor_moved(node, mv.to);
            }
        }
        self.tr.close(Name::NeighborMoved, s, ev);
        self.counts.neighbor_moved += n as u64 - 1;
        let s = self.tr.now();
        let report = self.macs[node.0].on_moved(mv.to, fix);
        self.tr.close(Name::OnMoved, s, ev);
        if let Some(report) = report {
            self.report.position_reports += 1;
            let s = self.tr.now();
            for i in 0..n {
                if i != node.0 {
                    self.macs[i].on_position_report(node, report);
                }
            }
            self.tr.close(Name::PositionReport, s, ev);
            self.counts.position_reports += n as u64 - 1;
        }
    }

    fn dispatch(&mut self, node: NodeId, event: MacEvent) {
        let mut work = VecDeque::new();
        work.push_back((node, event));
        self.drain(work);
    }

    fn dispatch_notes(&mut self, notes: Vec<(NodeId, PhyNote)>) {
        let mut work = VecDeque::new();
        for (n, note) in notes {
            let event = match note {
                PhyNote::Sense => MacEvent::Sense,
                PhyNote::Rx { frame, rssi } => MacEvent::Rx { frame, rssi },
                PhyNote::TxDone { frame } => MacEvent::TxDone { frame },
                PhyNote::Announce { link, data_end } => MacEvent::Announce { link, data_end },
            };
            self.count_note(&event);
            work.push_back((n, event));
        }
        self.drain(work);
    }

    fn count_note(&mut self, event: &MacEvent) {
        let slot = match event {
            MacEvent::Sense => 0,
            MacEvent::Rx { .. } => 1,
            MacEvent::TxDone { .. } => 2,
            _ => 3,
        };
        self.counts.notes[slot] += 1;
    }

    fn drain(&mut self, mut work: VecDeque<(NodeId, MacEvent)>) {
        let ev = self.event;
        while let Some((node, event)) = work.pop_front() {
            let s = self.tr.now();
            let ctx = MacCtx {
                now: self.now,
                sensed: self.medium.sensed(node),
                transmitting: self.medium.is_transmitting(node),
                locked: self.medium.is_locked(node),
                observing: self.observing,
            };
            self.tr.close(Name::MediumCtxRead, s, ev);
            let kind = mac_kind(&event);
            let s = self.tr.now();
            let actions = self.macs[node.0].handle(event, ctx);
            self.tr.close(Name::Mac(kind as u8), s, ev);
            if actions.is_empty() {
                self.counts.mac_noops[kind] += 1;
            }
            for action in actions {
                self.apply(node, action, &mut work);
            }
        }
    }

    fn schedule(&mut self, at: SimTime, event: Event) {
        let s = self.tr.now();
        self.queue.schedule(at, event);
        self.tr.close(Name::QueueSchedule, s, self.event);
        self.counts.schedules += 1;
    }

    fn apply(&mut self, node: NodeId, action: MacAction, work: &mut VecDeque<(NodeId, MacEvent)>) {
        match action {
            MacAction::ArmFlowTimer(at) => {
                self.flow_gen[node.0] += 1;
                let gen = self.flow_gen[node.0];
                self.schedule(at, Event::FlowTimer { node, gen });
            }
            MacAction::CancelFlowTimer => {
                self.flow_gen[node.0] += 1;
            }
            MacAction::ArmResponderTimer(at) => {
                self.resp_gen[node.0] += 1;
                let gen = self.resp_gen[node.0];
                self.schedule(at, Event::ResponderTimer { node, gen });
            }
            MacAction::ScheduleTraffic(at) => {
                self.schedule(at, Event::TrafficWakeup { node });
            }
            MacAction::Transmit(frame) => {
                let duration = self
                    .cfg
                    .protocol
                    .phy
                    .frame_duration(frame.on_air_bytes(), frame.rate);
                let end = self.now + duration;
                let s = self.tr.now();
                let (tx, notes) = self.medium.begin(frame, self.now, end);
                self.tr.close(Name::MediumBegin, s, self.event);
                self.forward_medium_events();
                self.schedule(end, Event::TxEnd(tx));
                self.report.node_mut(node).airtime += duration;
                for (n, note) in notes {
                    match note {
                        PhyNote::Sense => {
                            self.count_note(&MacEvent::Sense);
                            work.push_back((n, MacEvent::Sense));
                        }
                        PhyNote::Announce { link, data_end } => {
                            let event = MacEvent::Announce { link, data_end };
                            self.count_note(&event);
                            work.push_back((n, event));
                        }
                        PhyNote::Rx { .. } | PhyNote::TxDone { .. } => {}
                    }
                }
            }
            MacAction::Stat(stat) => self.account(node, stat),
            MacAction::Emit(ev) => self.emit(ev),
        }
    }

    fn account(&mut self, node: NodeId, stat: StatEvent) {
        match stat {
            StatEvent::DataTx { dst } => {
                self.report.link_mut(node, dst).data_tx += 1;
            }
            StatEvent::Delivered { src, bytes } => {
                let link = self.report.link_mut(src, node);
                link.delivered_bytes += u64::from(bytes);
                link.delivered_frames += 1;
            }
            StatEvent::AckTimeout { dst } => {
                self.report.link_mut(node, dst).ack_timeouts += 1;
            }
            StatEvent::Drop { dst } => {
                self.report.link_mut(node, dst).drops += 1;
            }
            StatEvent::ConcurrentTx => {
                self.report.node_mut(node).concurrent_tx += 1;
            }
            StatEvent::EtAbandon => {
                self.report.node_mut(node).et_abandons += 1;
            }
            StatEvent::HeaderHeard => {
                self.report.node_mut(node).headers_heard += 1;
            }
        }
    }
}

/// Self time (span time minus the time of its direct children) per
/// span, in span order.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent as usize;
        if parent != i {
            child[parent] += s.end - s.start;
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| (s.end - s.start).saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use comap_sim::Simulator;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let span = |name, start, end, parent| Span {
            name,
            start,
            end,
            parent,
        };
        let spans = [
            span(Name::Job, 0, 100, 0),
            span(Name::Event(0), 10, 60, 0),
            span(Name::MediumEnd, 12, 30, 1),
            span(Name::ObserveMediumDrain, 30, 50, 1),
            span(Name::ObserveFanout, 35, 45, 3),
        ];
        assert_eq!(self_times(&spans), vec![50, 12, 18, 10, 10]);
    }

    #[test]
    fn the_replay_reproduces_the_simulator() {
        for w in [Workload::CellsSaturated, Workload::CellsObserved] {
            let cfg = w.job(1, 0);
            let duration = SimDuration::from_millis(200);
            let mut sim = Simulator::new(cfg.clone());
            for sink in crate::sinks(w) {
                sim.attach_sink(sink);
            }
            let (want, profile) = sim.run_profiled(duration);
            let got = run_job(cfg, crate::sinks(w), duration, 0);
            assert_eq!(
                got.report.to_json().to_string_compact(),
                want.to_json().to_string_compact()
            );
            let pops: Vec<u64> = profile.by_type.iter().map(|t| t.count).collect();
            assert_eq!(got.counts.pops.to_vec(), pops);
            assert_eq!(got.counts.medium, profile.medium_counters);
            assert_eq!(got.counts.observed_events > 0, w.observed());
            // Every span but the job's has an earlier parent.
            assert!(got
                .spans
                .iter()
                .skip(1)
                .enumerate()
                .all(|(i, s)| (s.parent as usize) <= i));
        }
    }
}
