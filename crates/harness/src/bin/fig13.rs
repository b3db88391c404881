//! Regenerates Figure 13 (bandwidth sweep). `BS_QUICK=1` for smoke mode.

use bs_harness::experiments::fig13;
use bs_harness::{report, Fidelity};

fn main() {
    bs_harness::cli::no_flags("fig13");
    let r = fig13::run_experiment(Fidelity::from_env());
    print!("{}", fig13::render(&r));
    report::write_json("fig13", &r);
}
