//! Simulation configuration: nodes, flows, MAC features and presets.

use comap_core::config::ProtocolConfig;
use comap_mac::backoff::BackoffPolicy;
use comap_radio::units::Meters;
use comap_radio::Position;

use crate::frame::NodeId;
use crate::medium::MediumBackend;
use crate::rate::RateController;

/// Which CO-MAP extensions a node's MAC runs. All off = plain DCF.
///
/// Each toggle isolates one contribution for ablation benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MacFeatures {
    /// Send a discovery header before every data frame so neighbors learn
    /// about ongoing transmissions (Section V).
    pub discovery_header: bool,
    /// Act on discovered transmissions: validate concurrency through the
    /// co-occurrence map and run the enhanced ET scheduler (Section IV-C).
    pub et_concurrency: bool,
    /// Adapt payload size and contention window to the hidden-terminal
    /// census (Section IV-D).
    pub ht_adaptation: bool,
    /// Replace stop-and-wait ACKs with selective-repeat ARQ
    /// (Section IV-C4).
    pub selective_repeat: bool,
    /// RTS/CTS virtual carrier sense — the optional 802.11 baseline the
    /// paper disables ("overhead, inefficiency of detecting all HTs, and
    /// aggravation of the ET problem"); implemented so those claims can
    /// be measured.
    pub rts_cts: bool,
}

impl MacFeatures {
    /// Plain 802.11 DCF — the paper's baseline.
    pub const DCF: MacFeatures = MacFeatures {
        discovery_header: false,
        et_concurrency: false,
        ht_adaptation: false,
        selective_repeat: false,
        rts_cts: false,
    };

    /// Full CO-MAP.
    pub const COMAP: MacFeatures = MacFeatures {
        discovery_header: true,
        et_concurrency: true,
        ht_adaptation: true,
        selective_repeat: true,
        rts_cts: false,
    };

    /// Plain DCF with RTS/CTS virtual carrier sense.
    pub const DCF_RTS_CTS: MacFeatures = MacFeatures {
        rts_cts: true,
        ..MacFeatures::DCF
    };

    /// `true` if any CO-MAP feature is on (RTS/CTS is a baseline
    /// feature, not a CO-MAP one).
    pub fn any(self) -> bool {
        self.discovery_header || self.et_concurrency || self.ht_adaptation || self.selective_repeat
    }
}

/// Offered traffic of one flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traffic {
    /// Always backlogged (the testbed's Iperf behaviour).
    Saturated,
    /// Constant bit rate in payload bits per second (Table I uses 3 Mbps).
    Cbr {
        /// Offered payload rate.
        bps: f64,
    },
}

/// One node to instantiate.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Human-readable label used in reports and traces.
    pub name: String,
    /// True position on the floor plan.
    pub position: Position,
    /// Whether this node is an access point (affects nothing physical;
    /// used by reports and the quickstart example).
    pub ap: bool,
    /// Per-node feature override; `None` inherits the simulation default.
    pub features: Option<MacFeatures>,
    /// Per-node payload-size override; `None` inherits
    /// [`SimConfig::payload_bytes`].
    pub payload: Option<u32>,
    /// Scheduled movements (step motion): at each instant the node jumps
    /// to the given position, its location service decides whether to
    /// broadcast a report, and the physics follow the new geometry.
    pub moves: Vec<Move>,
}

/// One scheduled movement of a node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Move {
    /// When the movement happens (simulation time from start).
    pub at: comap_mac::time::SimDuration,
    /// Where the node ends up.
    pub to: Position,
}

impl NodeSpec {
    /// A client station.
    pub fn client(name: impl Into<String>, position: Position) -> Self {
        NodeSpec {
            name: name.into(),
            position,
            ap: false,
            features: None,
            payload: None,
            moves: Vec::new(),
        }
    }

    /// An access point.
    pub fn ap(name: impl Into<String>, position: Position) -> Self {
        NodeSpec {
            name: name.into(),
            position,
            ap: true,
            features: None,
            payload: None,
            moves: Vec::new(),
        }
    }

    /// Overrides the MAC features of this node.
    pub fn with_features(mut self, features: MacFeatures) -> Self {
        self.features = Some(features);
        self
    }

    /// Overrides the payload size of this node's frames.
    pub fn with_payload(mut self, payload_bytes: u32) -> Self {
        self.payload = Some(payload_bytes);
        self
    }

    /// Schedules a movement.
    pub fn with_move(mut self, at: comap_mac::time::SimDuration, to: Position) -> Self {
        self.moves.push(Move { at, to });
        self
    }
}

/// A unidirectional traffic flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowSpec {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Offered load.
    pub traffic: Traffic,
}

/// Full description of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Master seed; every RNG stream derives from it.
    pub seed: u64,
    /// Protocol/channel parameters (shared by physics and CO-MAP logic).
    pub protocol: ProtocolConfig,
    /// Default MAC features for nodes without an override.
    pub default_features: MacFeatures,
    /// Data-rate selection policy.
    pub rate_controller: RateController,
    /// Backoff policy of non-adapted nodes.
    pub backoff: BackoffPolicy,
    /// Payload size of non-adapted frames, in bytes.
    pub payload_bytes: u32,
    /// Retry limit before a frame is dropped.
    pub retry_limit: u32,
    /// Radius of the synthetic position error added to every *reported*
    /// position (the true position still governs the physics).
    pub position_error: Meters,
    /// Preamble capture: allow a stronger late frame to steal the
    /// receiver lock. On by default (commodity behaviour); off for the
    /// ablation bench.
    pub capture: bool,
    /// Preamble-based carrier sense: the channel also counts as busy
    /// while the receiver is locked onto a decodable frame, mirroring
    /// 802.11 preamble detection (NS-2's wide CS range). Off restores
    /// pure energy detection — the analytical model's world.
    pub preamble_cs: bool,
    /// In-band discovery headers (the paper's Section V method 1): the
    /// link announcement rides inside every data frame's MAC header
    /// instead of a separate header packet, costing 4 bytes instead of
    /// a whole frame. Used by the NS-2-style large-scale experiments.
    pub inband_header: bool,
    /// How many receivers the medium's sweep enumerates: `Exhaustive`
    /// puts every node in one grid cell, `Culled` sizes cells by the
    /// relevance range. Both backends are bit-identical (the
    /// differential harness pins it); `Culled` is only faster, so it is
    /// the default.
    pub backend: MediumBackend,
    /// Grid resolution the physics snap *true* positions onto: moves
    /// that stay inside one quantum cell coalesce into no-ops instead of
    /// invalidating the mover's link cache. The default (1 m) sits far
    /// below the shadowing deviation, so the snap is physically
    /// invisible; [`Meters::ZERO`] disables quantization entirely.
    pub position_quantum: Meters,
    /// Nodes, indexed by [`NodeId`].
    pub nodes: Vec<NodeSpec>,
    /// Traffic matrix.
    pub flows: Vec<FlowSpec>,
}

impl SimConfig {
    /// A configuration over the paper's testbed channel (Section VI-A).
    pub fn testbed(seed: u64) -> Self {
        Self::with_protocol(seed, ProtocolConfig::testbed())
    }

    /// A configuration over the paper's large-scale Table I channel.
    pub fn large_scale(seed: u64) -> Self {
        Self::with_protocol(seed, ProtocolConfig::large_scale())
    }

    /// A configuration over an arbitrary protocol preset.
    pub fn with_protocol(seed: u64, protocol: ProtocolConfig) -> Self {
        SimConfig {
            seed,
            protocol,
            default_features: MacFeatures::DCF,
            rate_controller: RateController::Fixed(protocol.model_rate),
            backoff: BackoffPolicy::DSSS_DEFAULT,
            payload_bytes: 1000,
            retry_limit: 7,
            position_error: Meters::ZERO,
            capture: true,
            preamble_cs: true,
            inband_header: false,
            backend: MediumBackend::Culled,
            position_quantum: Meters::new(crate::medium::DEFAULT_POSITION_QUANTUM_M),
            nodes: Vec::new(),
            flows: Vec::new(),
        }
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self, spec: NodeSpec) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(spec);
        id
    }

    /// Adds a unidirectional flow.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint does not exist or `src == dst`.
    pub fn add_flow(&mut self, src: NodeId, dst: NodeId, traffic: Traffic) {
        assert!(src.0 < self.nodes.len(), "unknown flow source {src}");
        assert!(dst.0 < self.nodes.len(), "unknown flow destination {dst}");
        assert_ne!(src, dst, "flow endpoints must differ");
        self.flows.push(FlowSpec { src, dst, traffic });
    }

    /// The effective features of a node.
    pub fn features_of(&self, node: NodeId) -> MacFeatures {
        self.nodes[node.0].features.unwrap_or(self.default_features)
    }

    /// Flows originating at `node`.
    pub fn flows_from(&self, node: NodeId) -> impl Iterator<Item = &FlowSpec> + '_ {
        self.flows.iter().filter(move |f| f.src == node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_and_flow_registration() {
        let mut cfg = SimConfig::testbed(1);
        let a = cfg.add_node(NodeSpec::client("a", Position::ORIGIN));
        let b = cfg.add_node(NodeSpec::ap("b", Position::new(5.0, 0.0)));
        cfg.add_flow(a, b, Traffic::Saturated);
        assert_eq!(cfg.flows_from(a).count(), 1);
        assert_eq!(cfg.flows_from(b).count(), 0);
        assert_eq!((a, b), (NodeId(0), NodeId(1)));
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn self_flow_panics() {
        let mut cfg = SimConfig::testbed(1);
        let a = cfg.add_node(NodeSpec::client("a", Position::ORIGIN));
        cfg.add_flow(a, a, Traffic::Saturated);
    }

    #[test]
    fn feature_override_wins() {
        let mut cfg = SimConfig::testbed(1);
        cfg.default_features = MacFeatures::COMAP;
        let a =
            cfg.add_node(NodeSpec::client("a", Position::ORIGIN).with_features(MacFeatures::DCF));
        let b = cfg.add_node(NodeSpec::client("b", Position::ORIGIN));
        assert_eq!(cfg.features_of(a), MacFeatures::DCF);
        assert_eq!(cfg.features_of(b), MacFeatures::COMAP);
    }

    #[test]
    fn dcf_has_no_features() {
        assert!(!MacFeatures::DCF.any());
        assert!(MacFeatures::COMAP.any());
    }
}
