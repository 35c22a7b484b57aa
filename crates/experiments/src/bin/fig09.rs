//! Regenerates Fig. 9: CDF of C1→AP1 goodput over ten HT topologies,
//! CO-MAP vs DCF.

use comap_experiments::instrument::Instrumentation;
use comap_experiments::report::{mbps, Table};

fn main() {
    let cli = Instrumentation::from_args("fig09");
    let fig = comap_experiments::fig09::run(cli.quick);
    let mut t = Table::new(
        "Fig. 9 — C1→AP1 goodput per topology",
        &["Topology", "DCF (Mbps)", "CO-MAP (Mbps)"],
    );
    for p in &fig.points {
        t.row(&[p.index.to_string(), mbps(p.dcf), mbps(p.comap)]);
    }
    t.print();
    let d = fig.dcf_cdf();
    let c = fig.comap_cdf();
    println!(
        "CDF medians: DCF {} Mbps, CO-MAP {} Mbps; mean gain {:+.1}% (paper: +38.5%)",
        mbps(d.quantile(0.5)),
        mbps(c.quantile(0.5)),
        fig.mean_gain() * 100.0
    );
    cli.run_if_requested();
}
