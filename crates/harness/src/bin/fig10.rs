//! Regenerates Figure 10 (vgg16 scaling). `BS_QUICK=1` for smoke mode.

use bs_harness::experiments::scaling;
use bs_harness::{report, Fidelity};

fn main() {
    bs_harness::cli::no_flags("fig10");
    let r = scaling::run_experiment("Figure 10", bs_models::zoo::vgg16(), Fidelity::from_env());
    print!("{}", scaling::render(&r));
    report::write_json("fig10", &r);
}
