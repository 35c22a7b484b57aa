//! Shared command line and instrumentation plumbing for the experiment
//! binaries.
//!
//! Every binary parses its arguments once, at the top of `main`, through
//! [`Instrumentation::from_args`], and exits with status 2 on anything
//! it does not know — a typo'd flag never silently runs full mode. The
//! accepted flags are:
//!
//! * `--quick` / `-q` — fewer seeds and shorter simulations.
//! * `--report-json=<path>` (`fig_scale` only) — run the representative
//!   150-node campus once and write its `SimReport` JSON to `<path>`.
//! * `--trace=<path>` — run one representative simulation of the
//!   experiment's topology with a [`JsonlSink`] attached and write the
//!   full event stream to `<path>` as JSON Lines.
//! * `--metrics` — attach a [`MetricsSink`] to the same run and print a
//!   per-node summary (airtime utilization, queue depths, backoff
//!   stages, SINR) after the experiment's own output.
//! * `--profile-json=<path>` — profile the event loop of the same run
//!   and write the [`RunProfile`] JSON to `<path>`.
//! * `--latency-json=<path>` — attach a [`LatencySink`] to the same
//!   run, print per-node and aggregate end-to-end latency percentiles
//!   (p50/p95/p99) and write the latency section to `<path>` as JSON.
//!
//! The instrumented run is *additional* to the experiment itself: the
//! figures average over many seeds and attach no sinks, so their numbers
//! stay untouched, while the flags give a deep view into one
//! representative seed of the same topology.

use std::path::PathBuf;
use std::process::exit;

use comap_mac::time::SimDuration;
use comap_sim::config::{MacFeatures, SimConfig};
use comap_sim::json::SCHEMA_VERSION;
use comap_sim::{Json, JsonlSink, LatencyHistogram, LatencySink, MetricsSink, Simulator};

use crate::topology;

/// Command line of an experiment binary: the run mode plus the
/// instrumentation requests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Instrumentation {
    /// The experiment whose representative run the flags instrument.
    experiment: &'static str,
    /// Run the fast pass (`--quick` / `-q`).
    pub quick: bool,
    /// Write the representative run's report here (`fig_scale` only).
    pub report_json: Option<PathBuf>,
    /// Write the event stream of the representative run here as JSONL.
    pub trace: Option<PathBuf>,
    /// Print the metrics summary of the representative run.
    pub metrics: bool,
    /// Write the event-loop profile of the representative run here.
    pub profile_json: Option<PathBuf>,
    /// Write the latency section of the representative run here and
    /// print its end-to-end percentiles.
    pub latency_json: Option<PathBuf>,
}

impl Instrumentation {
    /// Parses the process arguments of `experiment`'s binary, exiting
    /// with status 2 and a message on an unknown argument or a
    /// path-taking flag with no value.
    pub fn from_args(experiment: &'static str) -> Self {
        match Self::parse(experiment, std::env::args().skip(1)) {
            Ok(inst) => inst,
            Err(msg) => {
                eprintln!("error: {msg}");
                exit(2);
            }
        }
    }

    /// `true` when any flag requesting the instrumented run was given.
    pub fn any(&self) -> bool {
        self.trace.is_some()
            || self.metrics
            || self.profile_json.is_some()
            || self.latency_json.is_some()
    }

    fn parse(experiment: &'static str, args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut inst = Instrumentation {
            experiment,
            ..Instrumentation::default()
        };
        let args: Vec<String> = args.collect();
        let mut i = 0;
        while i < args.len() {
            let arg = args[i].as_str();
            i += 1;
            let (flag, inline) = match arg.split_once('=') {
                Some((flag, v)) => (flag, Some(v)),
                None => (arg, None),
            };
            let slot = match flag {
                "--quick" | "-q" if inline.is_none() => {
                    inst.quick = true;
                    continue;
                }
                "--metrics" if inline.is_none() => {
                    inst.metrics = true;
                    continue;
                }
                "--trace" => &mut inst.trace,
                "--profile-json" => &mut inst.profile_json,
                "--latency-json" => &mut inst.latency_json,
                "--report-json" if experiment == "fig_scale" => &mut inst.report_json,
                _ => return Err(format!("unknown argument `{arg}`")),
            };
            let value = match inline {
                Some(v) => v,
                None => {
                    i += 1;
                    args.get(i - 1).ok_or(format!("{flag} requires a path"))?
                }
            };
            *slot = Some(PathBuf::from(value));
        }
        Ok(inst)
    }

    /// When any instrumentation flag is present, runs one instrumented
    /// representative simulation of the experiment — call it after the
    /// figure's own output.
    pub fn run_if_requested(&self) {
        if !self.any() {
            return;
        }
        let (cfg, duration) = representative(self.experiment);
        self.run(self.experiment, cfg, duration);
    }

    /// Runs one instrumented simulation of `cfg` for `duration`,
    /// honouring every requested flag. Exits with a message when an
    /// output file cannot be created.
    pub fn run(&self, name: &str, cfg: SimConfig, duration: SimDuration) {
        let mut sim = Simulator::new(cfg);
        if let Some(path) = &self.trace {
            match JsonlSink::create(path) {
                Ok(sink) => sim.attach_sink(Box::new(sink)),
                Err(e) => {
                    eprintln!("error: cannot create trace file {}: {e}", path.display());
                    exit(1);
                }
            }
        }
        if self.metrics {
            sim.attach_sink(Box::new(MetricsSink::new()));
        }
        if self.latency_json.is_some() {
            sim.attach_sink(Box::new(LatencySink::new()));
        }

        println!(
            "\n== instrumentation: one representative {name} run ({} ms) ==",
            duration.as_nanos() / 1_000_000
        );
        let report = if let Some(path) = &self.profile_json {
            let (report, profile) = sim.run_profiled(duration);
            let text = profile.to_json().to_string_compact();
            if let Err(e) = std::fs::write(path, text + "\n") {
                eprintln!("error: cannot write profile {}: {e}", path.display());
                exit(1);
            }
            print!("{}", profile.summary());
            println!("profile written to {}", path.display());
            report
        } else {
            sim.run(duration)
        };

        if let Some(path) = &self.trace {
            println!("event trace written to {}", path.display());
        }
        if let Some(path) = &self.latency_json {
            let latency = report
                .metrics
                .as_ref()
                .and_then(|m| m.latency.as_ref())
                // simlint: allow(panic-policy) — the run above attached a LatencySink whenever latency_json is set
                .expect("LatencySink was attached");
            for (node, l) in &latency.nodes {
                print_latency_line(&format!("node {node}"), &l.e2e, l.delivered, l.dropped);
            }
            let agg = latency.aggregate();
            print_latency_line("aggregate", &agg.e2e, agg.delivered, agg.dropped);
            let artifact = Json::obj(vec![
                ("schema_version", Json::Uint(SCHEMA_VERSION)),
                ("experiment", Json::str(name)),
                ("latency", latency.to_json()),
            ]);
            if let Err(e) = std::fs::write(path, artifact.to_string_compact() + "\n") {
                eprintln!("error: cannot write latency JSON {}: {e}", path.display());
                exit(1);
            }
            println!("latency section written to {}", path.display());
        }
        if self.metrics {
            // simlint: allow(panic-policy) — the run above attached a MetricsSink whenever self.metrics is set
            let metrics = report.metrics.as_ref().expect("MetricsSink was attached");
            let total_ns = duration.as_nanos() as f64;
            for (node, m) in &metrics.nodes {
                let busy: u64 = m.airtime_busy_ns.iter().sum();
                let draws: u64 = m.backoff_stage.iter().sum();
                let sinr = m
                    .sinr
                    .mean()
                    .map(|s| format!("{s:.1} dB over {} rx", m.sinr.count))
                    .unwrap_or_else(|| "n/a".to_string());
                println!(
                    "node {:>2}: airtime {:5.1}%  queue peak {} (mean {:.2})  \
                     {draws} backoff draws  SINR mean {sinr}",
                    node.0,
                    100.0 * busy as f64 / total_ns,
                    m.queue_depth_peak,
                    m.mean_queue_depth().unwrap_or(0.0),
                );
            }
        }
    }
}

/// Prints one end-to-end latency summary line (p50/p95/p99).
fn print_latency_line(label: &str, e2e: &LatencyHistogram, delivered: u64, dropped: u64) {
    let q = |p: f64| {
        e2e.quantile(p)
            .map(|ns| format!("{:.3} ms", ns as f64 / 1e6))
            .unwrap_or_else(|| "n/a".to_string())
    };
    println!(
        "  {label:<10} e2e p50 {} p95 {} p99 {}  ({delivered} delivered, {dropped} dropped)",
        q(0.50),
        q(0.95),
        q(0.99)
    );
}

/// A representative configuration of the named experiment: the
/// topology one seed of that figure would run, paired with a duration
/// long enough to exercise every code path yet short enough for CI.
pub fn representative(name: &str) -> (SimConfig, SimDuration) {
    let duration = SimDuration::from_millis(400);
    let cfg = match name {
        "fig02" => topology::ht_testbed(1000, 1, MacFeatures::COMAP, 1).0,
        "fig07" => topology::validation_cell(5, 3, 255, 1000, 1).0,
        "fig09" => topology::fig9_topology(0, MacFeatures::COMAP, 1).0,
        "fig10" | "table1" => topology::large_scale(1, 1, MacFeatures::COMAP, 0.0).0,
        // The full 150-node campus: the profiler run CI checks in as a
        // BENCH artifact exercises the culled medium at top scale.
        "fig_scale" => crate::fig_scale::representative_config(1),
        // ablation, all, fig01, fig08, rtscts: the ET testbed is their
        // common ground (C2 in the exposed region).
        _ => topology::et_testbed(26.0, MacFeatures::COMAP, 1).0,
    };
    (cfg, duration)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn try_parse(experiment: &'static str, args: &[&str]) -> Result<Instrumentation, String> {
        Instrumentation::parse(experiment, args.iter().map(|s| s.to_string()))
    }

    fn parse(args: &[&str]) -> Instrumentation {
        try_parse("fig02", args).expect("valid args")
    }

    #[test]
    fn parses_all_flag_forms() {
        let inst = parse(&[
            "--trace=/tmp/a.jsonl",
            "--metrics",
            "--profile-json",
            "/tmp/p.json",
            "--latency-json=/tmp/l.json",
        ]);
        assert_eq!(inst.trace, Some(PathBuf::from("/tmp/a.jsonl")));
        assert!(inst.metrics);
        assert_eq!(inst.profile_json, Some(PathBuf::from("/tmp/p.json")));
        assert_eq!(inst.latency_json, Some(PathBuf::from("/tmp/l.json")));
        assert!(inst.any());
    }

    #[test]
    fn accepts_quick_and_rejects_unknown_args() {
        for quick in ["--quick", "-q"] {
            let inst = parse(&[quick]);
            assert!(inst.quick);
            assert!(!inst.any());
        }
        for bad in ["--quik", "somefile"] {
            let err = try_parse("fig02", &[bad]).unwrap_err();
            assert!(err.contains(bad), "{err}");
        }
    }

    #[test]
    fn report_json_is_a_fig_scale_flag() {
        for args in [&["--report-json=r.json"][..], &["--report-json", "r.json"]] {
            let inst = try_parse("fig_scale", args).unwrap();
            assert_eq!(inst.report_json, Some(PathBuf::from("r.json")));
            assert!(!inst.any());
        }
        assert!(try_parse("fig_scale", &["--report-json"]).is_err());
        assert!(try_parse("fig02", &["--report-json=r.json"]).is_err());
    }

    #[test]
    fn separated_value_form() {
        let inst = parse(&["--trace", "t.jsonl"]);
        assert_eq!(inst.trace, Some(PathBuf::from("t.jsonl")));
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(try_parse("fig02", &["--profile-json"]).is_err());
    }

    #[test]
    fn every_experiment_has_a_representative() {
        for name in [
            "ablation",
            "all",
            "fig01",
            "fig02",
            "fig07",
            "fig08",
            "fig09",
            "fig10",
            "fig_scale",
            "rtscts",
            "table1",
        ] {
            let (cfg, d) = representative(name);
            assert!(!cfg.nodes.is_empty(), "{name} has nodes");
            assert!(!cfg.flows.is_empty(), "{name} has flows");
            assert!(d.as_nanos() > 0);
        }
    }
}
