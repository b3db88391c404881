//! The simulated outputs a `BENCH_<n>.json` entry records (`sim_speed` /
//! `sim_finished_at_ns` for the single-job scenarios, `sim_jain_fairness`
//! / `sim_makespan_ns` for the cluster ones) are part of the perf
//! runner's contract: a performance change must leave them bit for bit
//! where they were. The gate compares only events/sec, so this test pins
//! them: each full-size macro scenario of `bs_bench::baseline` runs once
//! and must render the values committed in `BENCH_4.json`. The two `_par`
//! entries of that file have no scenario left and are not pinned.

use bs_bench::baseline::{
    cluster_4job_macro, cluster_mixed_macro, macro_scenarios, run_cluster_macro, run_macro,
};
use serde::Value;

/// Asserts `entry`'s float field `rate` and integer field `ns`.
fn assert_pinned(entry: &Value, rate: (&str, f64), ns: (&str, u64)) {
    let name = entry.get("name");
    assert_eq!(
        entry.get(rate.0),
        Some(&Value::F64(rate.1)),
        "{name:?}: {}",
        rate.0
    );
    assert_eq!(
        entry.get(ns.0),
        Some(&Value::U64(ns.1)),
        "{name:?}: {}",
        ns.0
    );
}

#[test]
fn single_job_scenarios_reproduce_their_committed_outputs() {
    let pins = [
        ("ps_fifo_bytescheduler", 2674.6720716217, 1_865_745_692),
        ("ps_fluid_bytescheduler", 2775.0771363042445, 1_800_744_072),
        ("allreduce_bytescheduler", 317.0236865238085, 1_965_837_770),
    ];
    let scenarios = macro_scenarios(false);
    assert_eq!(scenarios.len(), pins.len());
    for (s, (name, speed, finished_at_ns)) in scenarios.iter().zip(pins) {
        assert_eq!(s.name, name);
        assert_pinned(
            &run_macro(s, 1),
            ("sim_speed", speed),
            ("sim_finished_at_ns", finished_at_ns),
        );
    }
}

#[test]
fn cluster_scenarios_reproduce_their_committed_outputs() {
    let pins = [
        (cluster_4job_macro(false), 0.8262889452783384, 8_194_828_243),
        (
            cluster_mixed_macro("cluster_8job_mixed_seq", 3, 5, false),
            0.9714792187153066,
            2_688_969_671,
        ),
        (
            cluster_mixed_macro("cluster_16job_mixed_seq", 6, 10, false),
            0.8991679971170987,
            6_033_059_205,
        ),
    ];
    for (m, fairness, makespan_ns) in pins {
        assert_pinned(
            &run_cluster_macro(&m, 1),
            ("sim_jain_fairness", fairness),
            ("sim_makespan_ns", makespan_ns),
        );
    }
}
