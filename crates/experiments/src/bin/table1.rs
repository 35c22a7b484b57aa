//! Prints Table I (parameter settings) from the canonical preset.

use comap_experiments::instrument::Instrumentation;

fn main() {
    let cli = Instrumentation::from_args("table1");
    comap_experiments::table1::build().print();
    cli.run_if_requested();
}
