//! Regenerates Figure 4 (partition/credit sweeps). `BS_QUICK=1` for smoke.

use bs_harness::experiments::fig04;
use bs_harness::{report, Fidelity};

fn main() {
    bs_harness::cli::no_flags("fig04");
    let r = fig04::run_experiment(Fidelity::from_env());
    print!("{}", fig04::render(&r));
    report::write_json("fig04", &r);
}
