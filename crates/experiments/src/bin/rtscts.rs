//! Quantifies the paper's reasons for disabling RTS/CTS (Section VI-A):
//! the handshake serializes exposed terminals that could have been
//! concurrent (aggravating the ET problem) while fixing hidden-terminal
//! collisions only at a steep overhead — CO-MAP beats it on both fronts.

use comap_experiments::instrument::Instrumentation;
use comap_experiments::report::{mbps, Table};
use comap_experiments::topology::{et_testbed, ht_testbed};
use comap_mac::time::SimDuration;
use comap_sim::config::MacFeatures;
use comap_sim::sim::Simulator;

fn main() {
    let cli = Instrumentation::from_args("rtscts");
    let (seeds, duration): (&[u64], _) = if cli.quick {
        (&[1], SimDuration::from_millis(400))
    } else {
        (&[1, 2, 3, 4], SimDuration::from_secs(2))
    };
    let variants = [
        ("DCF", MacFeatures::DCF),
        ("DCF + RTS/CTS", MacFeatures::DCF_RTS_CTS),
        ("CO-MAP", MacFeatures::COMAP),
    ];

    let mut t = Table::new(
        "Exposed-terminal testbed (C2 at 26 m): total two-link goodput",
        &["MAC", "C1→AP1 (Mbps)", "C2→AP2 (Mbps)", "sum (Mbps)"],
    );
    for (name, features) in variants {
        let (mut g1, mut g2) = (0.0, 0.0);
        for &seed in seeds {
            let (cfg, ids) = et_testbed(26.0, features, seed);
            let r = Simulator::new(cfg).run(duration);
            g1 += r.link_goodput_bps(ids.c1, ids.ap1) / seeds.len() as f64;
            g2 += r.link_goodput_bps(ids.c2, ids.ap2) / seeds.len() as f64;
        }
        t.row(&[name.into(), mbps(g1), mbps(g2), mbps(g1 + g2)]);
    }
    t.print();

    let mut t = Table::new(
        "Hidden-terminal testbed (one HT): measured link",
        &[
            "MAC",
            "C1→AP1 (Mbps)",
            "ACK timeouts / data tx",
            "phy captures / hazard kills",
        ],
    );
    for (name, features) in variants {
        let (mut g, mut to, mut tx) = (0.0, 0u64, 0u64);
        let (mut cap, mut hzd) = (0u64, 0u64);
        for &seed in seeds {
            let (cfg, ids) = ht_testbed(1000, 1, features, seed);
            let r = Simulator::new(cfg).run(duration);
            g += r.link_goodput_bps(ids.c1, ids.ap1) / seeds.len() as f64;
            if let Some(l) = r.links.get(&(ids.c1, ids.ap1)) {
                to += l.ack_timeouts;
                tx += l.data_tx;
            }
            cap += r.medium.captures;
            hzd += r.medium.hazard_drops;
        }
        t.row(&[
            name.into(),
            mbps(g),
            format!("{to} / {tx}"),
            format!("{cap} / {hzd}"),
        ]);
    }
    t.print();
    println!(
        "RTS/CTS removes hidden-terminal collisions but serializes the exposed pair;\n\
         CO-MAP keeps the collision protection *and* the concurrency."
    );
    cli.run_if_requested();
}
