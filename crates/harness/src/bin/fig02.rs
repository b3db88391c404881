//! Regenerates Figure 2 (contrived example). `BS_QUICK=1` for smoke mode.

use bs_harness::experiments::fig02;
use bs_harness::{report, Fidelity};

fn main() {
    bs_harness::cli::no_flags("fig02");
    let r = fig02::run_experiment(Fidelity::from_env());
    print!("{}", fig02::render(&r));
    report::write_json("fig02", &r);
}
