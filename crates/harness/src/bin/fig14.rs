//! Regenerates Figure 14 (tuner search cost). `BS_QUICK=1` for smoke mode.

use bs_harness::experiments::fig14;
use bs_harness::{report, Fidelity};

fn main() {
    bs_harness::cli::no_flags("fig14");
    let r = fig14::run_experiment(Fidelity::from_env());
    print!("{}", fig14::render(&r));
    report::write_json("fig14", &r);
}
