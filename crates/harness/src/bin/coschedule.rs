//! Runs the §7 co-tenant-congestion experiment. `BS_QUICK=1` smoke.

use bs_harness::experiments::coschedule;
use bs_harness::{report, Fidelity};

fn main() {
    bs_harness::cli::no_flags("coschedule");
    let r = coschedule::run_experiment(Fidelity::from_env());
    print!("{}", coschedule::render(&r));
    report::write_json("coschedule", &r);
}
