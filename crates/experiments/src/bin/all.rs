//! Runs every experiment in sequence (pass --quick for a fast pass).

use comap_experiments::instrument::Instrumentation;

fn main() {
    let cli = Instrumentation::from_args("all");
    for (name, f) in [
        ("table1", run_table1 as fn(bool)),
        ("fig01", run_fig01),
        ("fig02", run_fig02),
        ("fig07", run_fig07),
        ("fig08", run_fig08),
        ("fig09", run_fig09),
        ("fig10", run_fig10),
    ] {
        println!("\n########## {name} ##########");
        f(cli.quick);
    }
    cli.run_if_requested();
}

fn run_table1(_quick: bool) {
    comap_experiments::table1::build().print();
}

fn run_fig01(quick: bool) {
    let fig = comap_experiments::fig01::run(quick);
    println!(
        "fig01: near {:.2} Mbps, exposed-region mean {:.2} Mbps, far {:.2} Mbps",
        fig.near_end() / 1e6,
        fig.exposed_region_mean() / 1e6,
        fig.far_end() / 1e6
    );
}

fn run_fig02(quick: bool) {
    let fig = comap_experiments::fig02::run(quick);
    println!(
        "fig02: best payload {} B (no HT) vs {} B (1 HT)",
        fig.best_payload_without_ht(),
        fig.best_payload_with_ht()
    );
}

fn run_fig07(quick: bool) {
    let fig = comap_experiments::fig07::run(quick);
    println!(
        "fig07: mean model-vs-sim error {:.1}%",
        fig.mean_relative_error() * 100.0
    );
}

fn run_fig08(quick: bool) {
    let fig = comap_experiments::fig08::run(quick);
    println!(
        "fig08: mean gain {:+.1}%, exposed-region gain {:+.1}%",
        fig.mean_gain() * 100.0,
        fig.exposed_region_gain() * 100.0
    );
}

fn run_fig09(quick: bool) {
    let fig = comap_experiments::fig09::run(quick);
    println!("fig09: mean gain {:+.1}%", fig.mean_gain() * 100.0);
}

fn run_fig10(quick: bool) {
    let fig = comap_experiments::fig10::run(quick);
    use comap_experiments::fig10::Variant;
    println!(
        "fig10: CO-MAP(0) gain {:+.1}%, CO-MAP(10 m) gain {:+.1}%",
        fig.gain_over_dcf(Variant::CoMap(0.0)) * 100.0,
        fig.gain_over_dcf(Variant::CoMap(10.0)) * 100.0
    );
}
