//! Regenerates Figure 9 (BO tuning session). `BS_QUICK=1` for smoke mode.

use bs_harness::experiments::fig09;
use bs_harness::{report, Fidelity};

fn main() {
    bs_harness::cli::no_flags("fig09");
    let r = fig09::run_experiment(Fidelity::from_env());
    print!("{}", fig09::render(&r));
    report::write_json("fig09", &r);
}
