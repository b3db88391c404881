//! Regenerates Figure 11 (resnet50 scaling). `BS_QUICK=1` for smoke mode.

use bs_harness::experiments::scaling;
use bs_harness::{report, Fidelity};

fn main() {
    bs_harness::cli::no_flags("fig11");
    let r = scaling::run_experiment(
        "Figure 11",
        bs_models::zoo::resnet50(),
        Fidelity::from_env(),
    );
    print!("{}", scaling::render(&r));
    report::write_json("fig11", &r);
}
