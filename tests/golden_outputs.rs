//! Golden digests of the recorder outputs that no other fixture covers:
//! the Chrome trace (`Trace::to_chrome_json`) of a PS run, a ByteScheduler
//! ring run, a Horovod-fused baseline ring run and a 2-job cluster with
//! trace, xray and metrics all on, the full result
//! serialisation of each training job (metrics and xray report), the
//! `events.jsonl` flight-recorder stream and the result of an observed
//! faulted PS run (its loss forces retransmits, so the fabric's wire log
//! holds one tag several times), and the trace and results of a cluster
//! run whose machine failure checkpoints and migrates a job (the resumed
//! job re-runs iterations under tags the wire log already holds), and
//! the job paths each architecture takes only under one policy: P3's
//! release-gated credit on PS (with loss, so a lost delivery skips the
//! reclaim it already made), FIFO partitioning on the ring (multi-partition
//! tensors fused whole on the baseline graph), the baseline PS with
//! MXNet's big-array split (key-level pull gating), and a lossy ring under
//! the baseline and ByteScheduler (the collective retry path).
//!
//! The six `sim_pin` scenarios are pinned apart, by the exact simulated
//! values (speed and finish time, or Jain fairness and makespan) they
//! have always produced.
//!
//! Each artefact is pinned by its byte length, its row counts (Chrome
//! events by phase, JSON-lines rows) and a 64-bit FNV-1a digest, so a
//! refactor of how compute spans, ring spans, flow arrows, counter
//! tracks or `IterDone` rows are recorded must reproduce them exactly.
//! The fixture is `tests/fixtures/golden_outputs.json`. Regenerate after
//! an *intentional* output change with
//!
//! ```text
//! BS_UPDATE_GOLDEN=1 cargo test --test golden_outputs
//! ```
//!
//! and review the fixture diff like any other behavioural change.

#[allow(dead_code)]
mod common;

use bs_cluster::{run_cluster, ClusterConfig, FaultReaction, JobSpec, PlacementPolicy};
use bs_engine::EngineConfig;
use bs_faults::{FaultPlan, MachineFailure};
use bs_net::{FabricModel, NetConfig, Transport};
use bs_runtime::{run, run_observed, Arch, RunOutcome, RunResult, SchedulerKind, WorldConfig};
use bs_scope::{FlightRecorder, ScopeBus};
use bs_sim::{SimTime, Trace};
use bs_tune::LiveDrift;
use serde_json::Value;

fn fnv1a(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Length, digest and the given row counts of one artefact.
fn pin(name: &str, text: &str, rows: Vec<(&str, u64)>) -> Value {
    let mut fields = vec![
        ("artefact".to_string(), Value::Str(name.to_string())),
        ("bytes".to_string(), Value::U64(text.len() as u64)),
    ];
    for (k, n) in rows {
        fields.push((k.to_string(), Value::U64(n)));
    }
    fields.push(("fnv1a".to_string(), Value::Str(fnv1a(text.as_bytes()))));
    Value::Object(fields)
}

/// Pins a Chrome trace, counting its events per phase.
fn pin_trace(name: &str, trace: &Trace) -> Value {
    let json = trace.to_chrome_json();
    let count = |ph: &str| json.matches(&format!(r#""ph":"{ph}""#)).count() as u64;
    pin(
        name,
        &json,
        vec![
            ("tracks", count("M")),
            ("spans", count("X")),
            ("flows", count("s")),
            ("counter_samples", count("C")),
        ],
    )
}

/// Pins a run result's serialisation without its trace (pinned apart).
fn pin_result(name: &str, r: &RunResult) -> Value {
    let mut r = r.clone();
    r.trace = None;
    let json = serde_json::to_string(&r).expect("serialize result");
    pin(name, &json, Vec::new())
}

fn all_recorders(cfg: &mut WorldConfig) {
    cfg.record_trace = true;
    cfg.record_xray = true;
    cfg.record_metrics = true;
}

/// The golden comm-heavy PS scenario.
fn ps_run() -> RunResult {
    let mut cfg = common::scenario(FabricModel::SerialFifo);
    all_recorders(&mut cfg);
    run(&cfg)
}

/// A 4-rank ring of the comm-heavy toy under ByteScheduler.
fn ring_cfg(seed: u64) -> WorldConfig {
    let mut cfg = WorldConfig::new(
        common::comm_heavy(),
        4,
        Arch::allreduce(),
        NetConfig::gbps(10.0, Transport::tcp()),
        EngineConfig::mxnet_allreduce(),
        SchedulerKind::ByteScheduler {
            partition: 4_000_000,
            credit: 16_000_000,
        },
    );
    cfg.iters = 6;
    cfg.warmup = 1;
    cfg.jitter = 0.02;
    cfg.seed = seed;
    cfg
}

fn ring_run() -> RunResult {
    let mut cfg = ring_cfg(3);
    all_recorders(&mut cfg);
    run(&cfg)
}

/// The same ring under the Horovod baseline: `Arch::allreduce()`'s 64 MB
/// tensor fusion launched on its 2.5 ms coordinator cycle.
fn baseline_ring_run() -> RunResult {
    let mut cfg = ring_cfg(3);
    cfg.scheduler = SchedulerKind::Baseline;
    all_recorders(&mut cfg);
    run(&cfg)
}

/// A ByteScheduler PS job and a late-arriving baseline ring job on 4
/// packed machines.
fn cluster_run() -> bs_cluster::ClusterResult {
    let ps = common::scenario(FabricModel::FairShare);
    let mut ring = ring_cfg(5);
    ring.scheduler = SchedulerKind::Baseline;
    let mut cluster = ClusterConfig::new(4, ps.net);
    cluster.fabric = FabricModel::FairShare;
    cluster.placement = PlacementPolicy::Packed;
    cluster.record_trace = true;
    cluster.record_xray = true;
    cluster.record_metrics = true;
    run_cluster(
        &cluster,
        &[
            JobSpec::train("ps", ps),
            JobSpec::train_at("ring", ring, SimTime::from_millis(20)),
        ],
    )
}

/// Two golden PS jobs packed on 5 machines; machine 1 (a node of the
/// first job) fails mid-run and restores later, so the first job is
/// checkpointed and migrated onto the spare machine and re-runs its lost
/// iterations there.
fn migrate_cluster_run() -> bs_cluster::ClusterResult {
    let a = common::scenario(FabricModel::SerialFifo);
    let mut b = common::scenario(FabricModel::SerialFifo);
    b.seed = 11;
    let mut cluster = ClusterConfig::new(5, a.net);
    cluster.placement = PlacementPolicy::Packed;
    cluster.record_trace = true;
    cluster.record_xray = true;
    cluster.record_metrics = true;
    cluster.reaction = FaultReaction::CheckpointMigrate;
    cluster.faults = Some(FaultPlan {
        machine_failures: vec![MachineFailure {
            machine: 1,
            at_us: 60_000,
            restore_us: Some(2_000_000),
        }],
        ..FaultPlan::empty()
    });
    let r = run_cluster(
        &cluster,
        &[JobSpec::train("job0", a), JobSpec::train("job1", b)],
    );
    assert!(!r.migrations.is_empty(), "the failure must migrate a job");
    r
}

/// The golden PS scenario under the committed fault fixture (re-timed to
/// land inside the short run, with enough loss to retransmit), observed
/// on a bus with drift detection and a flight recorder: its result and
/// its `events.jsonl` stream.
fn faulted_run() -> (RunResult, String) {
    let mut cfg = common::scenario(FabricModel::SerialFifo);
    let text = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/fault_plan.json"),
    )
    .expect("committed fault fixture");
    let mut plan = FaultPlan::from_json(&text).expect("fixture parses");
    for (ev, at_us) in plan
        .link_events
        .iter_mut()
        .zip([100_000u64, 100_000, 300_000, 300_000])
    {
        ev.at_us = at_us;
    }
    plan.loss_rate = 0.02;
    cfg.faults = Some(plan);
    all_recorders(&mut cfg);
    let mut bus = ScopeBus::new();
    bus.subscribe(Box::new(LiveDrift::new(cfg.warmup)));
    let (rec, handle) = FlightRecorder::new();
    bus.subscribe(Box::new(rec));
    let r = run_observed(&cfg, Some(&mut bus));
    (r, handle.to_jsonl())
}

/// A plan whose only fault is Bernoulli delivery loss at `rate`.
fn loss_only(rate: f64) -> FaultPlan {
    FaultPlan {
        loss_rate: rate,
        ..FaultPlan::empty()
    }
}

/// The golden PS scenario under P3, losing deliveries: P3 takes its
/// credit back when the wire releases a message, so a lost delivery has
/// nothing left to reclaim.
fn p3_lossy_ps_run() -> RunResult {
    let mut cfg = common::scenario(FabricModel::SerialFifo);
    cfg.scheduler = SchedulerKind::P3;
    cfg.faults = Some(loss_only(0.05));
    all_recorders(&mut cfg);
    run(&cfg)
}

/// The golden ring under FIFO partitioning: a baseline graph whose
/// tensors have several partitions, each fused whole.
fn fifo_partitioned_ring_run() -> RunResult {
    let mut cfg = ring_cfg(3);
    cfg.scheduler = SchedulerKind::FifoPartitioned {
        partition: 4_000_000,
    };
    all_recorders(&mut cfg);
    run(&cfg)
}

/// The golden PS scenario's baseline with MXNet's big-array split: the
/// big tensors are sliced across shards, and a worker pulls a tensor
/// only once every slice is aggregated.
fn bigarray_ps_run() -> RunResult {
    let mut cfg = common::scenario(FabricModel::SerialFifo);
    cfg.scheduler = SchedulerKind::Baseline;
    cfg.arch = Arch::Ps {
        mode: bs_comm::PsMode::Synchronous,
        num_servers: 2,
        baseline_bigarray_split: true,
    };
    all_recorders(&mut cfg);
    run(&cfg)
}

/// The golden ring under `scheduler`, losing collectives: a lost fused
/// batch re-runs whole after the backoff.
fn lossy_ring_run(scheduler: SchedulerKind) -> RunResult {
    let mut cfg = ring_cfg(3);
    cfg.scheduler = scheduler;
    cfg.faults = Some(loss_only(0.15));
    all_recorders(&mut cfg);
    run(&cfg)
}

fn render() -> String {
    let ps = ps_run();
    let ring = ring_run();
    let baseline_ring = baseline_ring_run();
    let cluster = cluster_run();
    let (faulted, events) = faulted_run();
    let migrate = migrate_cluster_run();
    let mut pins = vec![
        pin_trace("ps_trace", ps.trace.as_ref().expect("trace recorded")),
        pin_result("ps_result", &ps),
        pin_trace("ring_trace", ring.trace.as_ref().expect("trace recorded")),
        pin_result("ring_result", &ring),
        pin_trace(
            "baseline_ring_trace",
            baseline_ring.trace.as_ref().expect("trace recorded"),
        ),
        pin_result("baseline_ring_result", &baseline_ring),
        pin_trace(
            "cluster_trace",
            cluster.trace.as_ref().expect("trace recorded"),
        ),
    ];
    for j in &cluster.jobs {
        pins.push(pin_result(&format!("cluster_{}_result", j.name), &j.result));
    }
    pins.push(pin(
        "faulted_ps_events_jsonl",
        &events,
        vec![("rows", events.lines().count() as u64)],
    ));
    pins.push(pin_result("faulted_ps_result", &faulted));
    pins.push(pin_trace(
        "migrate_cluster_trace",
        migrate.trace.as_ref().expect("trace recorded"),
    ));
    for j in &migrate.jobs {
        pins.push(pin_result(
            &format!("migrate_cluster_{}_result", j.name),
            &j.result,
        ));
    }
    let bytescheduler = ring_cfg(3).scheduler;
    for (name, r) in [
        ("p3_lossy_ps", p3_lossy_ps_run()),
        ("fifo_partitioned_ring", fifo_partitioned_ring_run()),
        ("bigarray_ps", bigarray_ps_run()),
        (
            "lossy_baseline_ring",
            lossy_ring_run(SchedulerKind::Baseline),
        ),
        ("lossy_bytescheduler_ring", lossy_ring_run(bytescheduler)),
    ] {
        // The lossy runs must take the retry path they pin.
        let retried = matches!(r.outcome, RunOutcome::DegradedCompleted { .. });
        assert_eq!(retried, name.contains("lossy"), "{name}: {:?}", r.outcome);
        pins.push(pin_trace(
            &format!("{name}_trace"),
            r.trace.as_ref().expect("trace recorded"),
        ));
        pins.push(pin_result(&format!("{name}_result"), &r));
    }
    serde_json::to_string_pretty(&Value::Array(pins)).expect("render pins") + "\n"
}

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_outputs.json")
}

#[test]
fn recorder_outputs_match_committed_digests() {
    let actual = render();
    let path = fixture_path();
    if std::env::var("BS_UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &actual).expect("write fixture");
        eprintln!("updated {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run with BS_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "a recorder output diverged from its committed digest; if the \
         change is intentional, regenerate with BS_UPDATE_GOLDEN=1 and \
         review the diff"
    );
}

// The simulated outputs of the six macro scenarios the retired perf
// runner timed (`BENCH_1.json`–`BENCH_4.json` in git history recorded
// them as `sim_*` fields): the training speed and finish time of the
// single-job runs, the Jain fairness and makespan of the cluster runs.
// They are part of the repository's output contract, so a performance
// change must leave them where they were, to the last bit.

/// A comm-heavy job at 10 Gbps TCP with jitter off and 2 warm-up
/// iterations.
fn sim_pin_job(
    arch: Arch,
    sched: SchedulerKind,
    workers: usize,
    iters: u64,
    seed: u64,
) -> WorldConfig {
    let engine = match arch {
        Arch::AllReduce { .. } => EngineConfig::mxnet_allreduce(),
        _ => EngineConfig::mxnet_ps(),
    };
    let mut c = WorldConfig::new(
        common::comm_heavy(),
        workers,
        arch,
        NetConfig::gbps(10.0, Transport::tcp()),
        engine,
        sched,
    );
    c.iters = iters;
    c.warmup = 2;
    c.jitter = 0.0;
    c.seed = seed;
    c
}

const PS_BS: SchedulerKind = SchedulerKind::ByteScheduler {
    partition: 500_000,
    credit: 2_000_000,
};
const RING_BS: SchedulerKind = SchedulerKind::ByteScheduler {
    partition: 2_000_000,
    credit: 8_000_000,
};

/// `n_ps` 2-worker PS tenants (ByteScheduler and the baseline
/// alternating, `ps_iters` iterations) and `n_ar` 2-rank ring tenants
/// (twice the iterations), packed onto a shared fluid fabric.
fn sim_pin_cluster(n_ps: usize, n_ar: usize, ps_iters: u64) -> bs_cluster::ClusterResult {
    let mut specs = Vec::new();
    for j in 0..n_ps {
        let sched = if j % 2 == 0 {
            PS_BS
        } else {
            SchedulerKind::Baseline
        };
        let c = sim_pin_job(Arch::ps(2), sched, 2, ps_iters, 1 + j as u64);
        specs.push(JobSpec::train(format!("ps{j}"), c));
    }
    for j in 0..n_ar {
        let c = sim_pin_job(Arch::allreduce(), RING_BS, 2, ps_iters * 2, 100 + j as u64);
        specs.push(JobSpec::train(format!("ar{j}"), c));
    }
    let mut cluster =
        ClusterConfig::new((2 * n_ps).max(2), NetConfig::gbps(10.0, Transport::tcp()));
    cluster.fabric = FabricModel::FairShare;
    cluster.placement = PlacementPolicy::Packed;
    run_cluster(&cluster, &specs)
}

#[test]
fn single_job_scenarios_reproduce_their_committed_outputs() {
    for (name, arch, sched, fabric, speed, finished_at_ns) in [
        (
            "ps_fifo_bytescheduler",
            Arch::ps(4),
            PS_BS,
            FabricModel::SerialFifo,
            2674.6720716217,
            1_865_745_692,
        ),
        (
            "ps_fluid_bytescheduler",
            Arch::ps(4),
            PS_BS,
            FabricModel::FairShare,
            2775.0771363042445,
            1_800_744_072,
        ),
        (
            "allreduce_bytescheduler",
            Arch::allreduce(),
            RING_BS,
            FabricModel::SerialFifo,
            317.0236865238085,
            1_965_837_770,
        ),
    ] {
        let mut cfg = sim_pin_job(arch, sched, 4, 20, 1);
        cfg.fabric = fabric;
        let r = run(&cfg);
        assert_eq!(
            (r.speed, r.finished_at.as_nanos()),
            (speed, finished_at_ns),
            "{name}: (speed, finished_at ns)"
        );
    }
}

#[test]
fn cluster_scenarios_reproduce_their_committed_outputs() {
    for (name, n_ps, n_ar, ps_iters, fairness, makespan_ns) in [
        (
            "cluster_4job_fluid_packed",
            4,
            0,
            20,
            0.8262889452783384,
            8_194_828_243,
        ),
        (
            "cluster_8job_mixed_seq",
            3,
            5,
            10,
            0.9714792187153066,
            2_688_969_671,
        ),
        (
            "cluster_16job_mixed_seq",
            6,
            10,
            10,
            0.8991679971170987,
            6_033_059_205,
        ),
    ] {
        let r = sim_pin_cluster(n_ps, n_ar, ps_iters);
        assert_eq!(
            (r.jain_fairness, r.makespan.as_nanos()),
            (fairness, makespan_ns),
            "{name}: (Jain fairness, makespan ns)"
        );
    }
}
