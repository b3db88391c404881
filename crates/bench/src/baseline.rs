//! Shared machinery for the tracked performance runner
//! (`bin/perf_baseline`) and the CI regression gate (`bin/perf_gate`).
//!
//! Both binaries must time the *same* scenarios for their numbers to be
//! comparable, so the scenario definitions, the timing loops, and the
//! gate's comparison rule all live here. The committed `BENCH_<n>.json`
//! files at the repository root are produced by `perf_baseline` from
//! these definitions; `perf_gate` re-times the macro scenarios fresh and
//! compares events/sec against the newest committed baseline.

use std::time::Instant;

use bs_cluster::{run_cluster, run_cluster_observed, ClusterConfig, JobSpec, PlacementPolicy};
use bs_models::{DnnModel, GpuSpec, ModelBuilder, SampleUnit};
use bs_net::{FabricModel, NetConfig, Transport};
use bs_runtime::{run, run_observed, Arch, SchedulerKind, WorldConfig};
use bs_scope::ScopeBus;
use bs_sim::SimTime;
use serde::Value;

/// The comm-heavy toy model used across the runtime tests: a big tensor
/// near the input (VGG-like inversion) so FIFO order hurts and the
/// scheduler has real work to do.
pub fn comm_heavy() -> DnnModel {
    let gpu = GpuSpec::custom(1e12, 2.0);
    ModelBuilder::new("toy", gpu, 8, SampleUnit::Images)
        .explicit(
            "l0",
            40_000_000,
            SimTime::from_millis(4),
            SimTime::from_millis(8),
        )
        .explicit(
            "l1",
            5_000_000,
            SimTime::from_millis(4),
            SimTime::from_millis(8),
        )
        .explicit(
            "l2",
            5_000_000,
            SimTime::from_millis(4),
            SimTime::from_millis(8),
        )
        .explicit(
            "l3",
            1_000_000,
            SimTime::from_millis(4),
            SimTime::from_millis(8),
        )
        .build()
}

/// A single-job macro scenario.
pub struct MacroScenario {
    pub name: &'static str,
    pub cfg: WorldConfig,
}

/// The tracked single-job macro scenarios.
pub fn macro_scenarios(quick: bool) -> Vec<MacroScenario> {
    let iters = if quick { 5 } else { 20 };
    let net = NetConfig::gbps(10.0, Transport::tcp());
    let bs = SchedulerKind::ByteScheduler {
        partition: 500_000,
        credit: 2_000_000,
    };
    let mk = |arch: Arch, engine, sched, fabric| {
        let mut c = WorldConfig::new(comm_heavy(), 4, arch, net, engine, sched);
        c.iters = iters;
        c.warmup = 2;
        c.jitter = 0.0;
        c.seed = 1;
        c.fabric = fabric;
        c
    };
    vec![
        MacroScenario {
            name: "ps_fifo_bytescheduler",
            cfg: mk(
                Arch::ps(4),
                bs_engine::EngineConfig::mxnet_ps(),
                bs,
                FabricModel::SerialFifo,
            ),
        },
        MacroScenario {
            name: "ps_fluid_bytescheduler",
            cfg: mk(
                Arch::ps(4),
                bs_engine::EngineConfig::mxnet_ps(),
                bs,
                FabricModel::FairShare,
            ),
        },
        MacroScenario {
            name: "allreduce_bytescheduler",
            cfg: mk(
                Arch::allreduce(),
                bs_engine::EngineConfig::mxnet_allreduce(),
                SchedulerKind::ByteScheduler {
                    partition: 2_000_000,
                    credit: 8_000_000,
                },
                FabricModel::SerialFifo,
            ),
        },
    ]
}

/// True when `BS_BENCH_SCOPE` asks the timing loops to attach a
/// (subscriber-less) scope observation bus to every rep, so the perf
/// gate can price the recording overhead against the same committed
/// events/sec floors as the plain runs.
pub fn scope_enabled() -> bool {
    std::env::var("BS_BENCH_SCOPE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Times one single-job macro scenario (`reps` repetitions, min wall)
/// and renders its tracked entry.
pub fn run_macro(s: &MacroScenario, reps: usize) -> Value {
    let run_one = || {
        if scope_enabled() {
            run_observed(&s.cfg, Some(&mut ScopeBus::new()))
        } else {
            run(&s.cfg)
        }
    };
    // One untimed warmup rep: the first simulation in a process pays
    // first-touch page faults and clock ramp-up, which would otherwise
    // poison low-rep runs (the CI gate uses few reps).
    std::hint::black_box(run_one());
    let mut wall_min = f64::INFINITY;
    let mut result = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = run_one();
        wall_min = wall_min.min(t0.elapsed().as_secs_f64());
        result = Some(r);
    }
    let r = result.expect("at least one rep");
    eprintln!(
        "  {:<28} {:>8.1} ms wall, {} events, {:>12.0} events/sec, peak in-flight {}",
        s.name,
        wall_min * 1e3,
        r.comm_events,
        r.comm_events as f64 / wall_min,
        r.peak_in_flight,
    );
    obj(vec![
        ("name", Value::Str(s.name.to_string())),
        ("wall_sec", Value::F64(wall_min)),
        ("events", Value::U64(r.comm_events)),
        (
            "events_per_sec",
            Value::F64(r.comm_events as f64 / wall_min),
        ),
        ("peak_in_flight", Value::U64(r.peak_in_flight as u64)),
        ("sim_speed", Value::F64(r.speed)),
        ("sim_finished_at_ns", Value::U64(r.finished_at.as_nanos())),
    ])
}

/// One timed cluster scenario: a config, its tenants, and a name for the
/// tracked entry.
pub struct ClusterMacro {
    pub name: String,
    pub cluster: ClusterConfig,
    pub specs: Vec<JobSpec>,
}

/// Cluster-mode macro: 4 comm-heavy jobs packed onto 8 machines of one
/// shared fluid fabric — times the multi-job driver's tag demuxing and
/// per-job advance loop under real contention. Events are total fabric
/// deliveries across all tenants.
pub fn cluster_4job_macro(quick: bool) -> ClusterMacro {
    let iters = if quick { 5 } else { 20 };
    let net = NetConfig::gbps(10.0, Transport::tcp());
    let specs: Vec<JobSpec> = (0..4)
        .map(|j| {
            let mut c = WorldConfig::new(
                comm_heavy(),
                2,
                Arch::ps(2),
                net,
                bs_engine::EngineConfig::mxnet_ps(),
                if j % 2 == 0 {
                    SchedulerKind::ByteScheduler {
                        partition: 500_000,
                        credit: 2_000_000,
                    }
                } else {
                    SchedulerKind::Baseline
                },
            );
            c.iters = iters;
            c.warmup = 2;
            c.jitter = 0.0;
            c.seed = 1 + j as u64;
            JobSpec::train(format!("job{j}"), c)
        })
        .collect();
    let mut cluster = ClusterConfig::new(8, net);
    cluster.fabric = FabricModel::FairShare;
    cluster.placement = PlacementPolicy::Packed;
    ClusterMacro {
        name: "cluster_4job_fluid_packed".to_string(),
        cluster,
        specs,
    }
}

/// Mixed co-tenancy macro: `n_ps` 2-worker PS jobs contending on the
/// shared fabric plus `n_ar` all-reduce jobs whose collective streams
/// are private, so the cluster loop interleaves fabric traffic with many
/// jobs' private events.
pub fn cluster_mixed_macro(name: &str, n_ps: usize, n_ar: usize, quick: bool) -> ClusterMacro {
    let iters = if quick { 4 } else { 10 };
    let net = NetConfig::gbps(10.0, Transport::tcp());
    let mut specs: Vec<JobSpec> = Vec::new();
    for j in 0..n_ps {
        let mut c = WorldConfig::new(
            comm_heavy(),
            2,
            Arch::ps(2),
            net,
            bs_engine::EngineConfig::mxnet_ps(),
            if j % 2 == 0 {
                SchedulerKind::ByteScheduler {
                    partition: 500_000,
                    credit: 2_000_000,
                }
            } else {
                SchedulerKind::Baseline
            },
        );
        c.iters = iters;
        c.warmup = 2;
        c.jitter = 0.0;
        c.seed = 1 + j as u64;
        specs.push(JobSpec::train(format!("ps{j}"), c));
    }
    for j in 0..n_ar {
        let mut c = WorldConfig::new(
            comm_heavy(),
            2,
            Arch::allreduce(),
            net,
            bs_engine::EngineConfig::mxnet_allreduce(),
            SchedulerKind::ByteScheduler {
                partition: 2_000_000,
                credit: 8_000_000,
            },
        );
        // AR tenants keep twice the PS tenants' iterations, so the
        // scenario stays the one the committed `BENCH_*.json` files timed.
        c.iters = iters * 2;
        c.warmup = 2;
        c.jitter = 0.0;
        c.seed = 100 + j as u64;
        specs.push(JobSpec::train(format!("ar{j}"), c));
    }
    let mut cluster = ClusterConfig::new((2 * n_ps).max(2), net);
    cluster.fabric = FabricModel::FairShare;
    cluster.placement = PlacementPolicy::Packed;
    ClusterMacro {
        name: name.to_string(),
        cluster,
        specs,
    }
}

/// Times a cluster macro (`reps` repetitions, min wall) and renders its
/// tracked entry. Events are total shared-fabric deliveries; simulated
/// outputs (makespan, fairness) are recorded so a perf refactor can show
/// its numbers did not move.
pub fn run_cluster_macro(m: &ClusterMacro, reps: usize) -> Value {
    let run_one = || {
        if scope_enabled() {
            run_cluster_observed(&m.cluster, &m.specs, Some(&mut ScopeBus::new()))
        } else {
            run_cluster(&m.cluster, &m.specs)
        }
    };
    // Untimed warmup rep, as in `run_macro`.
    std::hint::black_box(run_one());
    let mut wall_min = f64::INFINITY;
    let mut result = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = run_one();
        wall_min = wall_min.min(t0.elapsed().as_secs_f64());
        result = Some(r);
    }
    let r = result.expect("at least one rep");
    eprintln!(
        "  {:<28} {:>8.1} ms wall, {} events, {:>12.0} events/sec, makespan {:?}",
        m.name,
        wall_min * 1e3,
        r.fabric_events,
        r.fabric_events as f64 / wall_min,
        r.makespan,
    );
    obj(vec![
        ("name", Value::Str(m.name.clone())),
        ("wall_sec", Value::F64(wall_min)),
        ("events", Value::U64(r.fabric_events)),
        (
            "events_per_sec",
            Value::F64(r.fabric_events as f64 / wall_min),
        ),
        ("sim_jain_fairness", Value::F64(r.jain_fairness)),
        ("sim_makespan_ns", Value::U64(r.makespan.as_nanos())),
    ])
}

/// One timed what-if-service scenario: a normalized trace, base replay
/// options, and the query stream driven through a fresh
/// [`bs_replay::ReplayService`].
pub struct ReplayServiceMacro {
    pub name: String,
    pub jobs: Vec<bs_replay::TraceJob>,
    pub base: bs_replay::ReplayOptions,
    pub queries: Vec<bs_replay::WhatIfQuery>,
    pub batch: usize,
}

/// What-if service macro: the committed Philly-style fixture (truncated),
/// a 6-config query mix cycled to 12 queries in batches of 4 — times
/// trace replay on the shared worker pool *and* the service's
/// fingerprint/dedup/LRU path. Events are aggregate shared-fabric
/// deliveries across all answers (cached answers included: the service
/// answered them), so the existing events/sec gate rule applies
/// unchanged.
pub fn replay_service_macro(quick: bool) -> ReplayServiceMacro {
    let text = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/traces/philly_day.json"
    ));
    let jobs = bs_replay::load_trace(text, bs_replay::TraceFormat::PhillyJson)
        .expect("committed fixture loads");
    let base = bs_replay::ReplayOptions {
        iters_cap: 3,
        truncate: Some(if quick { 6 } else { 16 }),
        ..bs_replay::ReplayOptions::default()
    };
    let mut mix: Vec<bs_replay::WhatIfQuery> = Vec::new();
    for b in [10.0, 25.0, 40.0] {
        mix.push(bs_replay::WhatIfQuery {
            bandwidth_gbps: Some(b),
            ..bs_replay::WhatIfQuery::default()
        });
    }
    for p in [PlacementPolicy::Packed, PlacementPolicy::NetworkAware] {
        mix.push(bs_replay::WhatIfQuery {
            placement: Some(p),
            ..bs_replay::WhatIfQuery::default()
        });
    }
    mix.push(bs_replay::WhatIfQuery {
        scheduler: Some(SchedulerKind::Baseline),
        ..bs_replay::WhatIfQuery::default()
    });
    let n_queries = mix.len() * 2; // every config repeats once → cache hits
    let queries = (0..n_queries).map(|i| mix[i % mix.len()].clone()).collect();
    ReplayServiceMacro {
        name: "replay_whatif_service".to_string(),
        jobs,
        base,
        queries,
        batch: 4,
    }
}

/// Times a what-if-service macro (`reps` repetitions, min wall; a fresh
/// service per rep so the LRU starts cold every time) and renders its
/// tracked entry. Events aggregate fabric deliveries over all answers.
pub fn run_replay_macro(m: &ReplayServiceMacro, reps: usize) -> Value {
    let serve = || {
        let mut svc = bs_replay::ReplayService::new(m.jobs.clone(), m.base.clone(), 8);
        let mut events = 0u64;
        for chunk in m.queries.chunks(m.batch) {
            for a in svc.submit_batch(chunk) {
                events += a.report.fabric_events;
            }
        }
        (events, svc.stats())
    };
    // Untimed warmup rep, as in `run_macro`.
    std::hint::black_box(serve());
    let mut wall_min = f64::INFINITY;
    let mut result = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = serve();
        wall_min = wall_min.min(t0.elapsed().as_secs_f64());
        result = Some(r);
    }
    let (events, stats) = result.expect("at least one rep");
    let qps = m.queries.len() as f64 / wall_min;
    eprintln!(
        "  {:<28} {:>8.1} ms wall, {} events, {:>12.0} events/sec, {:.1} queries/sec ({} cached, {} deduped)",
        m.name,
        wall_min * 1e3,
        events,
        events as f64 / wall_min,
        qps,
        stats.cache_hits,
        stats.batch_dedup,
    );
    obj(vec![
        ("name", Value::Str(m.name.clone())),
        ("wall_sec", Value::F64(wall_min)),
        ("events", Value::U64(events)),
        ("events_per_sec", Value::F64(events as f64 / wall_min)),
        ("queries", Value::U64(m.queries.len() as u64)),
        ("queries_per_sec", Value::F64(qps)),
        ("cache_hits", Value::U64(stats.cache_hits)),
        ("batch_dedup", Value::U64(stats.batch_dedup)),
        ("executed", Value::U64(stats.executed)),
    ])
}

/// Builds a JSON object from string keys.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Reads a float field from a macro entry.
pub fn get_f64(v: &Value, key: &str) -> Option<f64> {
    match v.get(key) {
        Some(Value::F64(f)) => Some(*f),
        _ => None,
    }
}

/// Per-scenario wall-time ratios old/new, keyed by scenario name.
pub fn speedups(before: &Value, after: &Value, section: &str, key: &str) -> Value {
    let mut out = Vec::new();
    let (Some(Value::Array(old)), Some(Value::Array(new))) =
        (before.get(section), after.get(section))
    else {
        return Value::Object(out);
    };
    for n in new {
        let Some(Value::Str(name)) = n.get("name") else {
            continue;
        };
        let old_wall = old
            .iter()
            .find(|o| o.get("name") == n.get("name"))
            .and_then(|o| o.get(key));
        if let (Some(Value::F64(ow)), Some(Value::F64(nw))) = (old_wall, n.get(key)) {
            if *nw > 0.0 {
                out.push((name.clone(), Value::F64(ow / nw)));
            }
        }
    }
    Value::Object(out)
}

/// Extracts `(name, events_per_sec)` for every macro entry of a
/// `BENCH_<n>.json` document (or of its bare `results` section).
pub fn macro_events_per_sec(doc: &Value) -> Vec<(String, f64)> {
    let results = doc.get("results").unwrap_or(doc);
    let Some(Value::Array(entries)) = results.get("macro") else {
        return Vec::new();
    };
    entries
        .iter()
        .filter_map(|e| match (e.get("name"), e.get("events_per_sec")) {
            (Some(Value::Str(n)), Some(Value::F64(eps))) => Some((n.clone(), *eps)),
            _ => None,
        })
        .collect()
}

/// The gate rule: a fresh macro scenario regresses when its events/sec
/// falls more than `tolerance` below the committed baseline's. Scenarios
/// present on only one side are ignored (new scenarios gate from the
/// next baseline on). Returns one human-readable line per regression.
pub fn gate_failures(
    baseline: &[(String, f64)],
    fresh: &[(String, f64)],
    tolerance: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    for (name, new_eps) in fresh {
        let Some((_, old_eps)) = baseline.iter().find(|(n, _)| n == name) else {
            continue;
        };
        let floor = old_eps * (1.0 - tolerance);
        if *new_eps < floor {
            failures.push(format!(
                "{name}: {new_eps:.0} events/sec is {:.1}% below the \
                 baseline's {old_eps:.0} (floor {floor:.0} at {:.0}% tolerance)",
                (1.0 - new_eps / old_eps) * 100.0,
                tolerance * 100.0,
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(rows: &[(&str, f64)]) -> Vec<(String, f64)> {
        rows.iter().map(|(n, e)| (n.to_string(), *e)).collect()
    }

    /// The gate demonstrably fails against a doctored (inflated)
    /// baseline, and names the offending scenario.
    #[test]
    fn gate_fails_on_doctored_baseline() {
        let doctored = entries(&[("ps_fifo_bytescheduler", 1e12)]);
        let fresh = entries(&[("ps_fifo_bytescheduler", 2_500_000.0)]);
        let failures = gate_failures(&doctored, &fresh, 0.15);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("ps_fifo_bytescheduler"));
    }

    #[test]
    fn gate_passes_within_tolerance_and_ignores_unknown_scenarios() {
        let baseline = entries(&[("a", 1000.0), ("gone", 500.0)]);
        // 14% below baseline: inside the 15% band. "new" has no baseline
        // yet and must not trip the gate.
        let fresh = entries(&[("a", 860.0), ("new", 1.0)]);
        assert!(gate_failures(&baseline, &fresh, 0.15).is_empty());
        // 16% below: outside the band.
        let fresh = entries(&[("a", 840.0)]);
        assert_eq!(gate_failures(&baseline, &fresh, 0.15).len(), 1);
    }

    /// End-to-end through the JSON path: a doctored BENCH document makes
    /// the gate fail.
    #[test]
    fn gate_fails_through_a_doctored_bench_document() {
        let doc = obj(vec![(
            "results",
            obj(vec![(
                "macro",
                Value::Array(vec![obj(vec![
                    ("name", Value::Str("cluster_4job_fluid_packed".into())),
                    ("events_per_sec", Value::F64(9e9)),
                ])]),
            )]),
        )]);
        let baseline = macro_events_per_sec(&doc);
        assert_eq!(baseline.len(), 1);
        let fresh = entries(&[("cluster_4job_fluid_packed", 1_500_000.0)]);
        assert_eq!(gate_failures(&baseline, &fresh, 0.15).len(), 1);
    }
}
