//! Runs the robustness study: BS vs FIFO under the committed fault
//! fixture (degradation curve, graceful completion, §3.5 re-tune
//! trigger). `BS_QUICK=1` smoke.
//!
//! Like `--bin cluster`, the binary asserts its own headline claims on
//! every run — CI smoke failure means a real regression, not a stale
//! table.

use bs_harness::experiments::faults;
use bs_harness::{report, Fidelity};
use bs_runtime::RunOutcome;

fn main() {
    bs_harness::cli::no_flags("faults");
    let r = faults::run_experiment(Fidelity::from_env());
    print!("{}", faults::render(&r));
    for row in &r.rows {
        assert!(
            !matches!(row.outcome, RunOutcome::Failed { .. }),
            "{} / {} / {} failed instead of degrading",
            row.fabric,
            row.condition,
            row.scheduler
        );
    }
    assert_eq!(
        r.drift.clean_drifts, 0,
        "clean run must not trigger re-tuning"
    );
    assert!(
        r.drift.faulted_drifts > 0,
        "the fixture's bandwidth shift must trigger re-tuning"
    );
    report::write_json("faults", &r);
}
