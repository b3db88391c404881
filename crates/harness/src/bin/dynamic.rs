//! Runs the §7 future-directions extensions (dynamic re-tuning under a
//! bandwidth schedule; per-layer partition sizes). `BS_QUICK=1` smoke.

use bs_harness::experiments::dynamic;
use bs_harness::{report, Fidelity};

fn main() {
    bs_harness::cli::no_flags("dynamic");
    let r = dynamic::run_experiment(Fidelity::from_env());
    print!("{}", dynamic::render(&r));
    report::write_json("dynamic", &r);
}
