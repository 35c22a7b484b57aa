//! The output check behind `failed_frac`.
//!
//! Every job must pass invariants that hold for any seed; on the seeds
//! listed in `digests.txt` its report must also hash to the recorded
//! reference digest. The digest leaves out the `events` field: removing
//! stale timer pops lowers the event count without changing what the
//! simulation computes.

use std::collections::BTreeMap;

use comap_sim::{Json, SimReport};

/// Reference digests, one `workload seed job digest` line each.
const REFERENCE: &str = include_str!("../digests.txt");

/// The reference digest table.
#[derive(Debug, Default)]
pub struct Digests(BTreeMap<(String, u64, usize), u64>);

impl Digests {
    /// Parses the checked-in table.
    pub fn reference() -> Digests {
        let mut table = BTreeMap::new();
        for line in REFERENCE.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let parsed = match f.as_slice() {
                [w, s, j, d] => s
                    .parse()
                    .ok()
                    .zip(j.parse().ok())
                    .zip(u64::from_str_radix(d, 16).ok())
                    .map(|((s, j), d)| ((w.to_string(), s, j), d)),
                _ => None,
            };
            let (key, digest) = parsed.unwrap_or_else(|| panic!("bad digest line: {line}"));
            table.insert(key, digest);
        }
        Digests(table)
    }

    /// The recorded digest of `(workload, seed, job)`, if the seed is one
    /// of the reference seeds.
    pub fn get(&self, workload: &str, seed: u64, job: usize) -> Option<u64> {
        self.0.get(&(workload.to_string(), seed, job)).copied()
    }
}

/// FNV-1a digest of the report's JSON without its `events` field.
pub fn digest(report: &SimReport) -> u64 {
    let json = match report.to_json() {
        Json::Obj(fields) => Json::Obj(fields.into_iter().filter(|(k, _)| k != "events").collect()),
        other => other,
    };
    json.to_string_compact()
        .bytes()
        .fold(0xCBF2_9CE4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
}

/// Checks one job's report: the seed-independent invariants, then the
/// reference digest when `expected` is given. Returns every violation.
pub fn check(report: &SimReport, expected: Option<u64>) -> Vec<String> {
    let mut errors = Vec::new();
    for (&(src, dst), l) in &report.links {
        if l.delivered_frames > l.data_tx {
            errors.push(format!(
                "link {src}->{dst}: {} frames delivered from {} data transmissions",
                l.delivered_frames, l.data_tx
            ));
        }
        if l.ack_timeouts > l.data_tx {
            errors.push(format!(
                "link {src}->{dst}: {} ACK timeouts for {} data transmissions",
                l.ack_timeouts, l.data_tx
            ));
        }
    }
    for (node, n) in &report.nodes {
        if n.airtime > report.duration {
            errors.push(format!(
                "node {node}: airtime {} exceeds the run",
                n.airtime
            ));
        }
    }
    if report.aggregate_goodput_bps() <= 0.0 {
        errors.push("aggregate goodput is zero".to_string());
    }
    let text = report.to_json().to_string_compact();
    let round_trip = Json::parse(&text)
        .map_err(|e| format!("{e:?}"))
        .and_then(|j| SimReport::from_json(&j).map_err(|e| format!("{e:?}")));
    match round_trip {
        Ok(back) if back.to_json().to_string_compact() == text => {}
        Ok(_) => errors.push("report changes on a JSON round trip".to_string()),
        Err(e) => errors.push(format!("report does not parse back: {e}")),
    }
    if let Some(want) = expected {
        let got = digest(report);
        if got != want {
            errors.push(format!("digest {got:016x}, reference {want:016x}"));
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use comap_mac::time::SimDuration;
    use comap_radio::Position;
    use comap_sim::{NodeId, NodeSpec, SimConfig, Simulator, Traffic};

    fn report() -> SimReport {
        let mut cfg = SimConfig::testbed(5);
        let a = cfg.add_node(NodeSpec::client("A", Position::new(0.0, 0.0)));
        let b = cfg.add_node(NodeSpec::ap("B", Position::new(10.0, 0.0)));
        cfg.add_flow(a, b, Traffic::Saturated);
        Simulator::new(cfg).run(SimDuration::from_millis(50))
    }

    #[test]
    fn a_clean_report_passes_and_the_digest_ignores_events() {
        let mut r = report();
        assert!(check(&r, None).is_empty());
        let d = digest(&r);
        assert!(check(&r, Some(d)).is_empty());
        r.events += 7;
        assert_eq!(digest(&r), d);
        r.position_reports += 1;
        assert_ne!(digest(&r), d);
        assert_eq!(check(&r, Some(d)).len(), 1);
    }

    #[test]
    fn invariant_violations_are_reported() {
        let mut r = report();
        let link = r
            .links
            .get_mut(&(NodeId(0), NodeId(1)))
            .expect("the flow's link");
        link.delivered_frames = link.data_tx + 1;
        link.ack_timeouts = link.data_tx + 1;
        r.node_mut(NodeId(0)).airtime = r.duration + SimDuration::from_micros(1);
        assert_eq!(check(&r, None).len(), 3);
        assert_eq!(check(&SimReport::default(), None).len(), 1);
    }

    #[test]
    fn the_reference_table_parses() {
        let table = Digests::reference();
        assert!(table.get("cells_saturated", 9973, 0).is_some());
        assert!(table.get("cells_saturated", 9972, 0).is_none());
    }
}
