//! Runs the mechanism / credit / placement ablations. `BS_QUICK=1` smoke.

use bs_harness::experiments::ablations;
use bs_harness::{report, Fidelity};

fn main() {
    bs_harness::cli::no_flags("ablations");
    let r = ablations::run_experiment(Fidelity::from_env());
    print!("{}", ablations::render(&r));
    report::write_json("ablations", &r);
}
