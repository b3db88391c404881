//! Regenerates Table 1 (best partition/credit sizes). `BS_QUICK=1` smoke.

use bs_harness::experiments::table1;
use bs_harness::{report, Fidelity};

fn main() {
    bs_harness::cli::no_flags("table1");
    let r = table1::run_experiment(Fidelity::from_env());
    print!("{}", table1::render(&r));
    report::write_json("table1", &r);
}
