//! Regenerates Figure 12 (transformer scaling). `BS_QUICK=1` for smoke mode.

use bs_harness::experiments::scaling;
use bs_harness::{report, Fidelity};

fn main() {
    bs_harness::cli::no_flags("fig12");
    let r = scaling::run_experiment(
        "Figure 12",
        bs_models::zoo::transformer(),
        Fidelity::from_env(),
    );
    print!("{}", scaling::render(&r));
    report::write_json("fig12", &r);
}
