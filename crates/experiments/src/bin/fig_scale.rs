//! Runs the scalability sweep (paper §VI setting): 30–150
//! random-waypoint nodes through both medium backends, printing the
//! culling speedup and asserting bit-identical reports.
//!
//! Extra flag on top of the common instrumentation ones:
//!
//! * `--report-json=<path>` — additionally run the representative
//!   150-node campus once (quick duration, culled backend) and write
//!   its `SimReport` JSON to `<path>`. CI runs this twice and byte-diffs
//!   the outputs as a determinism gate.

use comap_experiments::instrument::Instrumentation;
use comap_experiments::report::{mbps, Table};
use comap_mac::time::SimDuration;
use comap_sim::Simulator;

fn main() {
    let cli = Instrumentation::from_args("fig_scale");
    let fig = comap_experiments::fig_scale::run(cli.quick);
    let mut t = Table::new(
        "Scalability — spatial culling vs exhaustive medium (paper §VI campus)",
        &[
            "nodes",
            "exhaustive (ms)",
            "culled (ms)",
            "speedup",
            "identical",
            "aggregate goodput",
        ],
    );
    for p in &fig.points {
        t.row(&[
            format!("{}", p.n),
            format!("{:.1}", p.exhaustive_ms),
            format!("{:.1}", p.culled_ms),
            format!("{:.2}x", p.speedup()),
            format!("{}", p.identical),
            mbps(p.aggregate_bps),
        ]);
    }
    t.print();

    if let Some(path) = &cli.report_json {
        let cfg = comap_experiments::fig_scale::representative_config(1);
        let report = Simulator::new(cfg).run(SimDuration::from_millis(400));
        let text = report.to_json().to_string_compact();
        if let Err(e) = std::fs::write(path, text + "\n") {
            eprintln!("error: cannot write report {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("representative report written to {}", path.display());
    }

    cli.run_if_requested();
}
