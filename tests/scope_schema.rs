//! The scope observation bus's export contract, pinned four ways:
//!
//! 1. `results/events.schema.json` is the checked-in JSON-Schema for
//!    every `events.jsonl` row the flight recorder writes. A real
//!    faulted run's rows — plus synthetic rows covering the kinds a
//!    single-job run cannot produce — are parsed back and validated
//!    with the shared draft-07-subset validator, and the schema
//!    bs-scope embeds at compile time must be byte-identical to the
//!    committed file.
//! 2. The validator must have teeth: corrupted rows are rejected.
//! 3. Per-seed byte-determinism: the same config records the same
//!    `events.jsonl` bytes on both fabric disciplines, and a different
//!    seed records different bytes.
//! 4. The online rollups agree with the offline telemetry: summed
//!    `net_window` utilisation seconds equal the time-weighted integral
//!    of bs-telemetry's per-direction utilisation series, and summed
//!    `iter_done` busy seconds equal worker 0's `gpu_busy_secs`, with
//!    busy + stall = wall (property-tested over seeds and jitter).
//! 5. A cluster run observed on the bus completes, and its event stream
//!    and result do not depend on `ClusterConfig::threads`.

mod common;

use bs_cluster::{run_cluster_observed, ClusterConfig, JobSpec, PlacementPolicy};
use bs_engine::EngineConfig;
use bs_faults::FaultPlan;
use bs_net::{FabricModel, NetConfig, Transport};
use bs_runtime::{run_observed, Arch, SchedulerKind, WorldConfig};
use bs_scope::{Collector, FlightHandle, FlightRecorder, ScopeBus, ScopeEvent, EVENTS_SCHEMA};
use bs_sim::SimTime;
use bs_telemetry::Metric;
use bs_tune::LiveDrift;
use common::schema::{committed, validate};
use proptest::prelude::*;
use serde_json::Value;

/// The golden comm-heavy scenario with the committed fault fixture, so
/// one run produces iteration, window, retransmit, fault and drift rows.
fn faulted_scenario(fabric: FabricModel) -> WorldConfig {
    let mut cfg = common::scenario(fabric);
    let text = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/fault_plan.json"),
    )
    .expect("committed fault fixture");
    let mut plan = FaultPlan::from_json(&text).expect("fixture parses");
    // The fixture's timings target the multi-second VGG16 study; the
    // golden toy run lasts well under a second, so re-time the bandwidth
    // shift to land mid-run and raise the loss rate enough for a short
    // run to actually retransmit.
    for (ev, at_us) in plan
        .link_events
        .iter_mut()
        .zip([100_000u64, 100_000, 300_000, 300_000])
    {
        ev.at_us = at_us;
    }
    plan.loss_rate = 0.02;
    cfg.faults = Some(plan);
    cfg
}

/// Records one observed run, returning the flight-recorder handle.
fn record(cfg: &WorldConfig) -> FlightHandle {
    let mut bus = ScopeBus::new();
    bus.subscribe(Box::new(LiveDrift::new(cfg.warmup)));
    let (rec, handle) = FlightRecorder::new();
    bus.subscribe(Box::new(rec));
    run_observed(cfg, Some(&mut bus));
    handle
}

/// Synthetic events for the kinds a single-job run cannot emit (waves
/// and what-if batches come from the replay layer, drift from the
/// tuner), so the conformance test covers every row shape.
fn synthetic_rows() -> Vec<String> {
    let mut bus = ScopeBus::new();
    let (rec, handle) = FlightRecorder::new();
    bus.subscribe(Box::new(rec));
    bus.publish(ScopeEvent::WaveAdmitted {
        wave: 0,
        at: SimTime::ZERO,
        jobs: 3,
    });
    bus.publish(ScopeEvent::WaveDone {
        wave: 0,
        at: SimTime::from_secs(2),
        jobs: 3,
        jct_mean_secs: 1.25,
        jct_max_secs: 2.0,
    });
    bus.publish(ScopeEvent::Drift {
        job: 1,
        at: SimTime::from_millis(1500),
        iter: 7,
        baseline: 10.0,
        observed: 2.5,
    });
    bus.publish(ScopeEvent::WhatIfBatch {
        batch: 1,
        at: SimTime::ZERO,
        queries: 4,
        computed: 2,
        cache_hits: 1,
        batch_dedup: 1,
    });
    // The cluster driver's machine-failure reaction sequence.
    bus.publish(ScopeEvent::FaultFired {
        job: 2,
        at: SimTime::from_secs(3),
        kind: "machine_down",
        node: 1,
        scale: 0.0,
    });
    bus.publish(ScopeEvent::Checkpoint {
        job: 2,
        at: SimTime::from_secs(3),
        machine: 1,
        iter: 5,
        cost_secs: 9.1,
    });
    bus.publish(ScopeEvent::Migrate {
        job: 2,
        at: SimTime::from_secs(3),
        node: 0,
        from_machine: 1,
        to_machine: 4,
    });
    bus.publish(ScopeEvent::Resume {
        job: 2,
        at: SimTime::from_millis(12_100),
        iter: 5,
        lost_iters: 2,
    });
    handle.rows()
}

#[test]
fn events_jsonl_validates_against_committed_schema() {
    let schema = committed("events.schema.json");
    let mut rows = record(&faulted_scenario(FabricModel::SerialFifo)).rows();
    rows.extend(record(&faulted_scenario(FabricModel::FairShare)).rows());
    rows.extend(synthetic_rows());
    let mut kinds_seen = std::collections::BTreeSet::new();
    for (i, row) in rows.iter().enumerate() {
        let doc = serde_json::from_str(row)
            .unwrap_or_else(|e| panic!("row {i} is not valid JSON ({e}): {row}"));
        let mut errs = Vec::new();
        validate(&schema, &doc, "$", &mut errs);
        assert!(
            errs.is_empty(),
            "row {i} ({row}) violates schema: {errs:#?}"
        );
        if let Some(Value::Str(kind)) = doc.get("type") {
            kinds_seen.insert(kind.clone());
        }
    }
    // The faulted runs plus the synthetic rows must exercise every kind.
    for kind in [
        "iter_done",
        "retransmit",
        "fault_fired",
        "net_window",
        "stall_window",
        "iter_ema",
        "drift",
        "wave_admitted",
        "wave_done",
        "whatif_batch",
        "checkpoint",
        "migrate",
        "resume",
    ] {
        assert!(kinds_seen.contains(kind), "no {kind:?} row produced");
    }
}

#[test]
fn embedded_schema_matches_committed_file() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results/events.schema.json");
    let text = std::fs::read_to_string(&path).expect("committed schema");
    assert_eq!(
        EVENTS_SCHEMA,
        text,
        "bs_scope::EVENTS_SCHEMA must be byte-identical to {}",
        path.display()
    );
}

#[test]
fn validator_rejects_corrupted_rows() {
    let schema = committed("events.schema.json");
    let rows = record(&faulted_scenario(FabricModel::SerialFifo)).rows();
    let good = rows
        .iter()
        .find(|r| r.contains("\"retransmit\""))
        .expect("faulted run retransmits");
    type Corruption = Box<dyn Fn(&mut Vec<(String, Value)>)>;
    let corrupt: Vec<(&str, Corruption)> = vec![
        (
            "unknown event type",
            Box::new(|row| row[1].1 = Value::Str("bogus".into())),
        ),
        (
            "wrong schema version",
            Box::new(|row| row[0].1 = Value::U64(2)),
        ),
        (
            "missing timestamp",
            Box::new(|row| row.retain(|(k, _)| k != "t_ns")),
        ),
        (
            "unexpected field",
            Box::new(|row| row.push(("extra".into(), Value::Null))),
        ),
        (
            "zeroth attempt",
            Box::new(|row| {
                let at = row
                    .iter()
                    .position(|(k, _)| k == "attempt")
                    .expect("attempt");
                row[at].1 = Value::U64(0);
            }),
        ),
    ];
    for (what, mutate) in corrupt {
        let mut doc = serde_json::from_str(good).expect("row parses");
        let Value::Object(fields) = &mut doc else {
            panic!("row is an object")
        };
        mutate(fields);
        let mut errs = Vec::new();
        validate(&schema, &doc, "$", &mut errs);
        assert!(!errs.is_empty(), "validator accepted a row with {what}");
    }
}

#[test]
fn event_stream_is_byte_deterministic_per_seed() {
    for fabric in [FabricModel::SerialFifo, FabricModel::FairShare] {
        let cfg = faulted_scenario(fabric);
        let a = record(&cfg).to_jsonl();
        let b = record(&cfg).to_jsonl();
        assert_eq!(a, b, "{fabric:?}: same seed must record the same bytes");
        let mut other = cfg.clone();
        other.seed = cfg.seed + 1;
        assert_ne!(
            a,
            record(&other).to_jsonl(),
            "{fabric:?}: a different seed must perturb the stream"
        );
    }
}

/// Two 4-rank ResNet-50 ring tenants with jittered compute, packed on a
/// shared fair-share fabric and flight-recorded. Returns the serialised
/// result and the `events.jsonl` bytes.
fn observed_ring_pair(threads: usize, seeds: (u64, u64)) -> (String, String) {
    let tenant = |name: &str, seed: u64| {
        let mut cfg = WorldConfig::new(
            bs_models::zoo::resnet50(),
            4,
            Arch::allreduce(),
            NetConfig::gbps(25.0, Transport::rdma()),
            EngineConfig::mxnet_allreduce(),
            SchedulerKind::ByteScheduler {
                partition: 1_000_000,
                credit: 4_000_000,
            },
        );
        cfg.iters = 8;
        cfg.warmup = 1;
        cfg.jitter = 0.05;
        cfg.seed = seed;
        JobSpec::train(name, cfg)
    };
    let specs = [tenant("ring0", seeds.0), tenant("ring1", seeds.1)];
    let mut cluster = ClusterConfig::new(16, NetConfig::gbps(25.0, Transport::rdma()));
    cluster.fabric = FabricModel::FairShare;
    cluster.placement = PlacementPolicy::Packed;
    cluster.threads = threads;
    let mut bus = ScopeBus::new();
    let (rec, handle) = FlightRecorder::new();
    bus.subscribe(Box::new(rec));
    let r = run_cluster_observed(&cluster, &specs, Some(&mut bus));
    bus.finish(r.makespan);
    let result = serde_json::to_string(&r).expect("serialize cluster result");
    (result, handle.to_jsonl())
}

/// Regression: an observed cluster run of jittered ring tenants at
/// `threads = 2` used to panic with an out-of-bounds index while
/// publishing buffered job events. It must complete and record exactly
/// what the `threads = 1` run records.
#[test]
fn observed_cluster_run_ignores_thread_count() {
    for seeds in [(5, 6), (7, 8)] {
        let (seq_result, seq_events) = observed_ring_pair(1, seeds);
        assert!(
            seq_events.contains(r#""type":"iter_done""#),
            "seeds {seeds:?}: the bus must record the run"
        );
        let (result, events) = observed_ring_pair(2, seeds);
        assert_eq!(result, seq_result, "seeds {seeds:?}: result differs");
        assert_eq!(events, seq_events, "seeds {seeds:?}: events.jsonl differs");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tumbling `net_window` rollup is an exact re-binning of the
    /// fabric's utilisation signal: summed window utilisation seconds
    /// must equal the integral of every per-direction telemetry series,
    /// on both fabric disciplines, for any seed and jitter.
    #[test]
    fn net_windows_integrate_to_telemetry_totals(
        seed in 1u64..64,
        jitter in 0.0f64..0.05,
        fifo in any::<bool>(),
    ) {
        let fabric = if fifo { FabricModel::SerialFifo } else { FabricModel::FairShare };
        let mut cfg = common::scenario(fabric);
        cfg.seed = seed;
        cfg.jitter = jitter;
        cfg.record_metrics = true;
        let mut bus = ScopeBus::new();
        let (coll, log) = Collector::new();
        bus.subscribe(Box::new(coll));
        let r = run_observed(&cfg, Some(&mut bus));
        let windowed: f64 = log
            .events()
            .iter()
            .filter_map(|e| match e {
                ScopeEvent::NetWindow { util_secs, .. } => Some(*util_secs),
                _ => None,
            })
            .sum();
        let ms = r.metrics.expect("metrics recorded");
        let telemetry: f64 = ms
            .entries()
            .iter()
            .filter(|(name, _)| name.starts_with("net/nic") && name.ends_with("_util"))
            .map(|(_, m)| match m {
                Metric::Series(ts) => ts.integral_secs(ms.horizon),
                other => panic!("utilisation must be a series, got {other:?}"),
            })
            .sum();
        prop_assert!(telemetry > 0.0, "scenario must move bytes");
        prop_assert!(
            (windowed - telemetry).abs() <= 1e-9 * telemetry.max(1.0),
            "windows sum to {windowed}, telemetry integrates to {telemetry}"
        );
        // The job side agrees the same way: worker 0's per-iteration
        // busy seconds sum to its GPU-busy total, and each iteration's
        // busy and stall split its wall time.
        let (mut wall, mut busy, mut stall) = (0.0f64, 0.0f64, 0.0f64);
        for e in log.events().iter() {
            if let ScopeEvent::IterDone { wall_secs, busy_secs, stall_secs, .. } = e {
                wall += wall_secs;
                busy += busy_secs;
                stall += stall_secs;
            }
        }
        let gpu_busy = ms.get_gauge("worker0/gpu_busy_secs").expect("gpu busy gauge");
        prop_assert!(busy > 0.0, "worker 0 must compute");
        prop_assert!(
            (busy - gpu_busy).abs() <= 1e-9 * gpu_busy,
            "iter_done busy sums to {busy}, worker0/gpu_busy_secs is {gpu_busy}"
        );
        prop_assert!(
            (busy + stall - wall).abs() <= 1e-9 * wall,
            "busy {busy} + stall {stall} != wall {wall}"
        );
    }
}
