//! Per-link and per-node statistics, aggregated into a [`SimReport`].

use std::collections::BTreeMap;

use comap_mac::time::SimDuration;

use crate::frame::NodeId;
use crate::json::{check_schema_version, Json, SchemaError, SCHEMA_VERSION};
use crate::metrics::Metrics;

/// Counters of one directed link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Unique payload bytes delivered (duplicates excluded).
    pub delivered_bytes: u64,
    /// Unique data frames delivered.
    pub delivered_frames: u64,
    /// Data-frame transmissions attempted (including retransmissions).
    pub data_tx: u64,
    /// ACK timeouts observed by the sender.
    pub ack_timeouts: u64,
    /// Frames abandoned after the retry limit.
    pub drops: u64,
}

/// Counters of one node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Time spent transmitting anything.
    pub airtime: SimDuration,
    /// Concurrent (exposed-terminal) transmissions started by CO-MAP.
    pub concurrent_tx: u64,
    /// Exposed opportunities abandoned by the RSSI watchdog.
    pub et_abandons: u64,
    /// Discovery headers decoded.
    pub headers_heard: u64,
}

/// Counters kept by the radio medium itself — physical-layer outcomes
/// that per-link MAC counters cannot see.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MediumStats {
    /// Receiver locks stolen by preamble capture (a stronger frame
    /// arrived mid-reception and was decodable over the locked one).
    pub captures: u64,
    /// Frames held to the end of their lock but killed by the accrued
    /// bit-error hazard (collision / interference losses).
    pub hazard_drops: u64,
    /// Times the incremental power ledger was verified against a
    /// from-scratch recomputation (debug builds only; 0 in release).
    pub ledger_checks: u64,
}

/// Results of one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimReport {
    /// Simulated duration.
    pub duration: SimDuration,
    /// Per-directed-link counters.
    pub links: BTreeMap<(NodeId, NodeId), LinkStats>,
    /// Per-node counters.
    pub nodes: BTreeMap<NodeId, NodeStats>,
    /// Total events processed (diagnostics).
    pub events: u64,
    /// Position reports broadcast by moving nodes (the protocol's
    /// location-sharing overhead).
    pub position_reports: u64,
    /// Physical-layer counters from the medium.
    pub medium: MediumStats,
    /// Per-node metrics, present when a
    /// [`MetricsSink`](crate::metrics::MetricsSink) was attached.
    pub metrics: Option<Metrics>,
}

impl SimReport {
    /// Goodput of the directed link `src → dst` in payload bits/s.
    pub fn link_goodput_bps(&self, src: NodeId, dst: NodeId) -> f64 {
        let secs = self.duration.as_secs_f64();
        // Durations are non-negative, so this is exactly the zero check.
        if secs <= 0.0 {
            return 0.0;
        }
        self.links
            .get(&(src, dst))
            .map(|l| l.delivered_bytes as f64 * 8.0 / secs)
            .unwrap_or(0.0)
    }

    /// Sum of goodput over every link, in bits/s.
    pub fn aggregate_goodput_bps(&self) -> f64 {
        let secs = self.duration.as_secs_f64();
        // Durations are non-negative, so this is exactly the zero check.
        if secs <= 0.0 {
            return 0.0;
        }
        self.links
            .values()
            .map(|l| l.delivered_bytes as f64)
            .sum::<f64>()
            * 8.0
            / secs
    }

    /// Goodput of every link, ordered by `(src, dst)`.
    pub fn per_link_goodputs(&self) -> Vec<((NodeId, NodeId), f64)> {
        self.links
            .keys()
            .map(|&(s, d)| ((s, d), self.link_goodput_bps(s, d)))
            .collect()
    }

    /// Frame delivery ratio of one link (`delivered / attempted`, counting
    /// retransmissions as attempts).
    pub fn link_delivery_ratio(&self, src: NodeId, dst: NodeId) -> f64 {
        match self.links.get(&(src, dst)) {
            Some(l) if l.data_tx > 0 => l.delivered_frames as f64 / l.data_tx as f64,
            _ => 0.0,
        }
    }

    /// Mutable access to a link's counters, creating them if absent.
    pub fn link_mut(&mut self, src: NodeId, dst: NodeId) -> &mut LinkStats {
        self.links.entry((src, dst)).or_default()
    }

    /// Mutable access to a node's counters, creating them if absent.
    pub fn node_mut(&mut self, node: NodeId) -> &mut NodeStats {
        self.nodes.entry(node).or_default()
    }

    /// Serializes the report (including the metrics section, when
    /// present) as a JSON object.
    pub fn to_json(&self) -> Json {
        let links = self
            .links
            .iter()
            .map(|(&(src, dst), l)| {
                Json::obj(vec![
                    ("src", Json::Uint(src.0 as u64)),
                    ("dst", Json::Uint(dst.0 as u64)),
                    ("delivered_bytes", Json::Uint(l.delivered_bytes)),
                    ("delivered_frames", Json::Uint(l.delivered_frames)),
                    ("data_tx", Json::Uint(l.data_tx)),
                    ("ack_timeouts", Json::Uint(l.ack_timeouts)),
                    ("drops", Json::Uint(l.drops)),
                ])
            })
            .collect();
        let nodes = self
            .nodes
            .iter()
            .map(|(&node, n)| {
                Json::obj(vec![
                    ("node", Json::Uint(node.0 as u64)),
                    ("airtime_ns", Json::Uint(n.airtime.as_nanos())),
                    ("concurrent_tx", Json::Uint(n.concurrent_tx)),
                    ("et_abandons", Json::Uint(n.et_abandons)),
                    ("headers_heard", Json::Uint(n.headers_heard)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("schema_version", Json::Uint(SCHEMA_VERSION)),
            ("duration_ns", Json::Uint(self.duration.as_nanos())),
            ("events", Json::Uint(self.events)),
            ("position_reports", Json::Uint(self.position_reports)),
            ("links", Json::Arr(links)),
            ("nodes", Json::Arr(nodes)),
            (
                "medium",
                Json::obj(vec![
                    ("captures", Json::Uint(self.medium.captures)),
                    ("hazard_drops", Json::Uint(self.medium.hazard_drops)),
                    ("ledger_checks", Json::Uint(self.medium.ledger_checks)),
                ]),
            ),
            (
                "metrics",
                match &self.metrics {
                    Some(m) => m.to_json(),
                    None => Json::Null,
                },
            ),
        ])
    }

    /// Parses a report from its [`SimReport::to_json`] form.
    ///
    /// # Errors
    ///
    /// Returns a [`SchemaError`] when the `schema_version` stamp is
    /// missing or mismatched, or when a required field is absent or
    /// malformed.
    pub fn from_json(v: &Json) -> Result<SimReport, SchemaError> {
        check_schema_version(v, "sim report")?;
        let malformed = || SchemaError::new("sim report: missing or malformed field");
        let arr = |key: &str| v.get(key).and_then(Json::as_arr).ok_or_else(malformed);
        let field = |obj: &Json, key: &str| -> Result<u64, SchemaError> {
            obj.get(key).and_then(Json::as_u64).ok_or_else(malformed)
        };
        let mut links = BTreeMap::new();
        for l in arr("links")? {
            let key = (
                NodeId(field(l, "src")? as usize),
                NodeId(field(l, "dst")? as usize),
            );
            links.insert(
                key,
                LinkStats {
                    delivered_bytes: field(l, "delivered_bytes")?,
                    delivered_frames: field(l, "delivered_frames")?,
                    data_tx: field(l, "data_tx")?,
                    ack_timeouts: field(l, "ack_timeouts")?,
                    drops: field(l, "drops")?,
                },
            );
        }
        let mut nodes = BTreeMap::new();
        for n in arr("nodes")? {
            nodes.insert(
                NodeId(field(n, "node")? as usize),
                NodeStats {
                    airtime: SimDuration::from_nanos(field(n, "airtime_ns")?),
                    concurrent_tx: field(n, "concurrent_tx")?,
                    et_abandons: field(n, "et_abandons")?,
                    headers_heard: field(n, "headers_heard")?,
                },
            );
        }
        let medium = v.get("medium").ok_or_else(malformed)?;
        let metrics = v.get("metrics").ok_or_else(malformed)?;
        let metrics = if let Json::Null = metrics {
            None
        } else {
            Some(Metrics::from_json(metrics)?)
        };
        Ok(SimReport {
            duration: SimDuration::from_nanos(field(v, "duration_ns")?),
            links,
            nodes,
            events: field(v, "events")?,
            position_reports: field(v, "position_reports")?,
            medium: MediumStats {
                captures: field(medium, "captures")?,
                hazard_drops: field(medium, "hazard_drops")?,
                ledger_checks: field(medium, "ledger_checks")?,
            },
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goodput_accounts_bits_per_second() {
        let mut r = SimReport {
            duration: SimDuration::from_secs(2),
            ..Default::default()
        };
        r.link_mut(NodeId(0), NodeId(1)).delivered_bytes = 250_000;
        assert_eq!(r.link_goodput_bps(NodeId(0), NodeId(1)), 1_000_000.0);
        assert_eq!(r.link_goodput_bps(NodeId(1), NodeId(0)), 0.0);
        assert_eq!(r.aggregate_goodput_bps(), 1_000_000.0);
    }

    #[test]
    fn zero_duration_is_zero_goodput() {
        let mut r = SimReport::default();
        r.link_mut(NodeId(0), NodeId(1)).delivered_bytes = 100;
        assert_eq!(r.link_goodput_bps(NodeId(0), NodeId(1)), 0.0);
    }

    #[test]
    fn delivery_ratio() {
        let mut r = SimReport {
            duration: SimDuration::from_secs(1),
            ..Default::default()
        };
        let l = r.link_mut(NodeId(0), NodeId(1));
        l.data_tx = 10;
        l.delivered_frames = 7;
        assert_eq!(r.link_delivery_ratio(NodeId(0), NodeId(1)), 0.7);
        assert_eq!(r.link_delivery_ratio(NodeId(2), NodeId(3)), 0.0);
    }

    #[test]
    fn per_link_listing_is_ordered() {
        let mut r = SimReport {
            duration: SimDuration::from_secs(1),
            ..Default::default()
        };
        r.link_mut(NodeId(2), NodeId(0)).delivered_bytes = 1;
        r.link_mut(NodeId(0), NodeId(1)).delivered_bytes = 1;
        let keys: Vec<_> = r.per_link_goodputs().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![(NodeId(0), NodeId(1)), (NodeId(2), NodeId(0))]);
    }
}
