//! Regenerates Fig. 1: ET motivation, goodput of C1→AP1 vs C2 position
//! under basic DCF.

use comap_experiments::instrument::Instrumentation;
use comap_experiments::report::{mbps, Table};

fn main() {
    let cli = Instrumentation::from_args("fig01");
    let fig = comap_experiments::fig01::run(cli.quick);
    let mut t = Table::new(
        "Fig. 1 — goodput of C1→AP1 under basic DCF vs C2 position",
        &["C2 position (m from AP1)", "C1→AP1 (Mbps)", "C2→AP2 (Mbps)"],
    );
    for p in &fig.points {
        t.row(&[
            format!("{:.0}", p.c2_x),
            mbps(p.c1_goodput),
            mbps(p.c2_goodput),
        ]);
    }
    t.print();
    println!(
        "near end: {} Mbps, exposed-region mean: {} Mbps, far end: {} Mbps",
        mbps(fig.near_end()),
        mbps(fig.exposed_region_mean()),
        mbps(fig.far_end())
    );
    cli.run_if_requested();
}
