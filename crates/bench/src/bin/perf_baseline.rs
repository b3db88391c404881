//! Tracked performance runner: times the macro scenarios and fabric
//! microbenchmarks that gate simulator-performance PRs, and writes the
//! numbers to `BENCH_<n>.json` (committed, so the trajectory is diffable
//! across PRs). Scenario definitions live in [`bs_bench::baseline`],
//! shared with the CI regression gate (`bin/perf_gate`) so the two
//! always time the same thing.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release -p bs-bench --bin perf_baseline
//! ```
//!
//! Environment knobs:
//!
//! - `BS_BENCH_OUT`     — output path (default `BENCH_1.json`).
//! - `BS_BENCH_REPS`    — wall-clock repetitions per scenario (default 3;
//!   the minimum is reported, which is the standard way to reject noise).
//! - `BS_BENCH_QUICK`   — when set, one repetition and shrunken scenario
//!   sizes; used by the CI smoke job where absolute numbers don't matter.
//! - `BS_BENCH_BEFORE`  — path to a previous `BENCH_*.json`; its `results`
//!   section is embedded under `before` and per-scenario speedups are
//!   computed, so a refactor PR can carry its own before/after evidence.
//!
//! Metrics per macro scenario: wall seconds (min over reps), simulated
//! communication completions ("events") and events/sec, peak in-flight
//! transfers, and the simulated training speed (which must not change
//! across a pure-performance refactor — determinism is checked by the
//! golden-trace test, not here). The mixed cluster scenarios keep the
//! `_seq` suffix of their names so they stay comparable with the
//! committed `BENCH_*.json` files.

use std::time::Instant;

use bs_bench::baseline::{
    cluster_4job_macro, cluster_mixed_macro, macro_scenarios, obj, replay_service_macro,
    run_cluster_macro, run_macro, run_replay_macro, speedups,
};
use bs_net::{FluidNetwork, NetConfig, NetPort, Network, NodeId, Transport};
use bs_sim::SimTime;
use serde::Value;

/// Drains a fluid network to idle, stepping event by event.
fn drain_fluid(n: &mut FluidNetwork) {
    loop {
        let t = n.next_event_time();
        if t.is_never() {
            break;
        }
        n.advance(t);
    }
}

/// Sequential-churn micro: one flow at a time, many of them. Before the
/// slot free-list this scaled quadratically (every `reallocate` walked a
/// `frozen` vector sized by every transfer ever issued).
fn micro_fluid_sequential(total: usize) -> (f64, u64) {
    let mut n = FluidNetwork::new(16, NetConfig::gbps(8.0, Transport::ideal()));
    let t0 = Instant::now();
    let mut now = SimTime::ZERO;
    for i in 0..total {
        n.submit(now, NodeId(i % 8), NodeId(8 + (i % 8)), 1_000_000, i as u64);
        drain_fluid(&mut n);
        now = n.next_event_time().min(now + SimTime::from_millis(2));
    }
    (t0.elapsed().as_secs_f64(), total as u64)
}

/// Concurrent-churn micro: rounds of 64 simultaneous flows, drained to
/// idle — `reallocate` under real contention.
fn micro_fluid_concurrent(rounds: usize) -> (f64, u64) {
    let mut n = FluidNetwork::new(16, NetConfig::gbps(8.0, Transport::ideal()));
    let t0 = Instant::now();
    let mut now = SimTime::ZERO;
    let mut submitted = 0u64;
    for round in 0..rounds {
        for f in 0..64usize {
            let src = f % 8;
            let dst = 8 + ((f + round) % 8);
            n.submit(now, NodeId(src), NodeId(dst), 500_000, submitted);
            submitted += 1;
        }
        drain_fluid(&mut n);
        now += SimTime::from_millis(10);
    }
    (t0.elapsed().as_secs_f64(), submitted)
}

/// Poll micro: `next_event_time` on a fluid fabric with 64 active flows.
fn micro_fluid_poll(calls: usize) -> (f64, u64) {
    let mut n = FluidNetwork::new(16, NetConfig::gbps(8.0, Transport::ideal()));
    for f in 0..64usize {
        n.submit(
            SimTime::ZERO,
            NodeId(f % 8),
            NodeId(8 + (f % 8)),
            1_000_000 + f as u64 * 1000,
            f as u64,
        );
    }
    let t0 = Instant::now();
    let mut acc = SimTime::ZERO;
    for _ in 0..calls {
        acc = acc.max(std::hint::black_box(n.next_event_time()));
    }
    std::hint::black_box(acc);
    (t0.elapsed().as_secs_f64(), calls as u64)
}

/// Poll micro: `next_event_time` on the FIFO fabric with 8 on-wire
/// transfers and deep queues.
fn micro_fifo_poll(calls: usize) -> (f64, u64) {
    let mut n = Network::new(16, NetConfig::gbps(8.0, Transport::ideal()));
    for f in 0..64usize {
        n.submit(
            SimTime::ZERO,
            NodeId(f % 8),
            NodeId(8 + (f % 8)),
            1_000_000,
            f as u64,
        );
    }
    let t0 = Instant::now();
    let mut acc = SimTime::ZERO;
    for _ in 0..calls {
        acc = acc.max(std::hint::black_box(n.next_event_time()));
    }
    std::hint::black_box(acc);
    (t0.elapsed().as_secs_f64(), calls as u64)
}

fn micro_entry(name: &str, wall: f64, ops: u64) -> Value {
    eprintln!(
        "  {:<28} {:>8.1} ms wall, {} ops, {:>12.0} ops/sec",
        name,
        wall * 1e3,
        ops,
        ops as f64 / wall
    );
    obj(vec![
        ("name", Value::Str(name.to_string())),
        ("wall_sec", Value::F64(wall)),
        ("ops", Value::U64(ops)),
        ("ops_per_sec", Value::F64(ops as f64 / wall)),
    ])
}

fn main() {
    let quick = std::env::var("BS_BENCH_QUICK").is_ok();
    let reps: usize = std::env::var("BS_BENCH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 1 } else { 3 })
        .max(1);
    let out_path = std::env::var("BS_BENCH_OUT").unwrap_or_else(|_| "BENCH_1.json".to_string());

    eprintln!("macro scenarios ({reps} reps, min wall):");
    let mut macros: Vec<Value> = macro_scenarios(quick)
        .iter()
        .map(|s| run_macro(s, reps))
        .collect();
    macros.push(run_cluster_macro(&cluster_4job_macro(quick), reps));
    for (name, n_ps, n_ar) in [
        ("cluster_8job_mixed", 3usize, 5usize),
        ("cluster_16job_mixed", 6, 10),
    ] {
        let seq = cluster_mixed_macro(&format!("{name}_seq"), n_ps, n_ar, quick);
        macros.push(run_cluster_macro(&seq, reps));
    }
    macros.push(run_replay_macro(&replay_service_macro(quick), reps));

    eprintln!("micro benches:");
    let scale = if quick { 10 } else { 1 };
    let micros = vec![
        {
            let (w, ops) = micro_fluid_sequential(10_000 / scale);
            micro_entry("fluid_sequential_churn", w, ops)
        },
        {
            let (w, ops) = micro_fluid_concurrent(50 / scale.min(10));
            micro_entry("fluid_concurrent_churn", w, ops)
        },
        {
            let (w, ops) = micro_fluid_poll(200_000 / scale);
            micro_entry("fluid_poll", w, ops)
        },
        {
            let (w, ops) = micro_fifo_poll(200_000 / scale);
            micro_entry("fifo_poll", w, ops)
        },
    ];

    let results = obj(vec![
        ("macro", Value::Array(macros)),
        ("micro", Value::Array(micros)),
    ]);

    let mut doc = vec![
        ("bench", Value::Str("perf_baseline".to_string())),
        ("quick", Value::Bool(quick)),
        ("reps", Value::U64(reps as u64)),
        (
            "units",
            obj(vec![
                (
                    "wall_sec",
                    Value::Str("min wall-clock seconds over reps".to_string()),
                ),
                (
                    "events_per_sec",
                    Value::Str("simulated comm completions per wall second".to_string()),
                ),
                (
                    "ops_per_sec",
                    Value::Str("micro-bench operations per wall second".to_string()),
                ),
            ]),
        ),
        ("results", results.clone()),
    ];

    if let Ok(before_path) = std::env::var("BS_BENCH_BEFORE") {
        // A missing or malformed baseline skips the comparison instead of
        // discarding the measurements we just paid for.
        match std::fs::read_to_string(&before_path)
            .map_err(|e| e.to_string())
            .and_then(|t| serde_json::from_str(&t).map_err(|e| e.to_string()))
        {
            Ok(before) => {
                let before_results = before
                    .get("results")
                    .cloned()
                    .unwrap_or_else(|| before.clone());
                doc.push((
                    "speedup_wall",
                    obj(vec![
                        (
                            "macro",
                            speedups(&before_results, &results, "macro", "wall_sec"),
                        ),
                        (
                            "micro",
                            speedups(&before_results, &results, "micro", "wall_sec"),
                        ),
                    ]),
                ));
                doc.push(("before", before_results));
            }
            Err(e) => eprintln!("warning: ignoring BS_BENCH_BEFORE={before_path}: {e}"),
        }
    }

    let json = serde_json::to_string_pretty(&obj(doc)).expect("serialise bench output");
    if let Err(e) = std::fs::write(&out_path, json + "\n") {
        eprintln!("error: writing {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out_path}");
}
