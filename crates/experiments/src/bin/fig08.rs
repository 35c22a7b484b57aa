//! Regenerates Fig. 8: CO-MAP vs basic DCF in the ET testbed.

use comap_experiments::instrument::Instrumentation;
use comap_experiments::report::{mbps, Table};

fn main() {
    let cli = Instrumentation::from_args("fig08");
    let fig = comap_experiments::fig08::run(cli.quick);
    let mut t = Table::new(
        "Fig. 8 — goodput in the ET testbed, basic DCF vs CO-MAP",
        &[
            "C2 position (m)",
            "DCF C1 (Mbps)",
            "DCF C2 (Mbps)",
            "CO-MAP C1 (Mbps)",
            "CO-MAP C2 (Mbps)",
        ],
    );
    for p in &fig.points {
        t.row(&[
            format!("{:.0}", p.c2_x),
            mbps(p.dcf),
            mbps(p.dcf_c2),
            mbps(p.comap),
            mbps(p.comap_c2),
        ]);
    }
    t.print();
    println!(
        "mean C1 gain: {:+.1}% (paper: +77.5%), exposed-region C1 gain: {:+.1}%, aggregate: {:+.1}%",
        fig.mean_gain() * 100.0,
        fig.exposed_region_gain() * 100.0,
        fig.exposed_region_aggregate_gain() * 100.0
    );
    cli.run_if_requested();
}
