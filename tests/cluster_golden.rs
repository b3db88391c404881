//! Golden fixture for the multi-job cluster driver: a deterministic
//! 2-job run on each fabric is pinned to a committed fingerprint, so
//! refactors of the cluster event loop (tag demuxing, per-job advance
//! order, arrival handling) can prove they are behaviour-preserving.
//!
//! Same contract as `golden_trace.rs`: floats render with Rust's
//! shortest-round-trip formatting, so string equality is bit equality.
//! Regenerate after an *intentional* model change with
//!
//! ```text
//! BS_UPDATE_GOLDEN=1 cargo test --test cluster_golden
//! ```
//!
//! and review the fixture diff like any other behavioural change.

#[allow(dead_code)]
mod common;

use bs_cluster::{run_cluster, ClusterConfig, ClusterResult, JobSpec, PlacementPolicy};
use bs_engine::EngineConfig;
use bs_faults::FaultPlan;
use bs_net::{FabricModel, NetConfig, Transport};
use bs_runtime::{Arch, SchedulerKind, WorldConfig};
use bs_sim::SimTime;
use serde_json::Value;

fn job(sched: SchedulerKind, seed: u64) -> WorldConfig {
    let mut c = WorldConfig::new(
        common::comm_heavy(),
        2,
        Arch::ps(2),
        NetConfig::gbps(10.0, Transport::tcp()),
        EngineConfig::mxnet_ps(),
        sched,
    );
    c.iters = 8;
    c.warmup = 2;
    c.jitter = 0.02;
    c.seed = seed;
    c
}

/// Two jobs sharing 4 machines under packed placement, the second
/// arriving 20 ms late — exercises tag demuxing, contention, and
/// arrival offsets all at once.
/// The golden scenario with an optional cluster-scope fault plan
/// attached — `None` and `Some(FaultPlan::empty())` must be
/// indistinguishable (see `empty_cluster_plan_reproduces_golden_bytes`).
fn scenario_with(fabric: FabricModel, faults: Option<FaultPlan>) -> ClusterResult {
    let bs = job(
        SchedulerKind::ByteScheduler {
            partition: 1_000_000,
            credit: 4_000_000,
        },
        7,
    );
    let fifo = job(SchedulerKind::Baseline, 11);
    let mut cluster = ClusterConfig::new(4, bs.net);
    cluster.fabric = fabric;
    cluster.placement = PlacementPolicy::Packed;
    cluster.faults = faults;
    run_cluster(
        &cluster,
        &[
            JobSpec::train("bs", bs),
            JobSpec::train_at("fifo", fifo, SimTime::from_millis(20)),
        ],
    )
}

/// The determinism-relevant surface of a cluster run: per-job completion
/// data plus the cluster-level aggregates.
fn fingerprint(label: &str, r: &ClusterResult) -> Value {
    let jobs = r
        .jobs
        .iter()
        .map(|j| {
            Value::Object(vec![
                ("name".to_string(), Value::Str(j.name.clone())),
                ("arrival_ns".to_string(), Value::U64(j.arrival.as_nanos())),
                (
                    "finished_at_ns".to_string(),
                    Value::U64(j.finished_at.as_nanos()),
                ),
                ("jct_ns".to_string(), Value::U64(j.jct.as_nanos())),
                (
                    "iter_times".to_string(),
                    Value::Array(j.result.iter_times.iter().map(|t| Value::F64(*t)).collect()),
                ),
                ("speed".to_string(), Value::F64(j.result.speed)),
                ("p2p_bytes".to_string(), Value::U64(j.result.p2p_bytes)),
                ("comm_events".to_string(), Value::U64(j.result.comm_events)),
            ])
        })
        .collect();
    let links = r
        .link_utilisation
        .iter()
        .map(|l| {
            Value::Object(vec![
                ("machine".to_string(), Value::U64(l.machine as u64)),
                ("up".to_string(), Value::F64(l.up)),
                ("down".to_string(), Value::F64(l.down)),
            ])
        })
        .collect();
    Value::Object(vec![
        ("scenario".to_string(), Value::Str(label.to_string())),
        ("jobs".to_string(), Value::Array(jobs)),
        ("makespan_ns".to_string(), Value::U64(r.makespan.as_nanos())),
        ("jain_fairness".to_string(), Value::F64(r.jain_fairness)),
        ("link_utilisation".to_string(), Value::Array(links)),
        ("fabric_events".to_string(), Value::U64(r.fabric_events)),
    ])
}

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_cluster.json")
}

fn render() -> String {
    render_with(|| None)
}

fn render_with(faults: impl Fn() -> Option<FaultPlan>) -> String {
    let fifo = scenario_with(FabricModel::SerialFifo, faults());
    let fluid = scenario_with(FabricModel::FairShare, faults());
    let doc = Value::Array(vec![
        fingerprint("two_job_packed_fifo_fabric", &fifo),
        fingerprint("two_job_packed_fluid_fabric", &fluid),
    ]);
    serde_json::to_string_pretty(&doc).expect("render fingerprint") + "\n"
}

#[test]
fn matches_committed_fixture_on_both_fabrics() {
    let actual = render();
    let path = fixture_path();
    if std::env::var("BS_UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir fixtures");
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
        "cluster output diverged from the golden fixture; if the \
         behaviour change is intentional, regenerate with BS_UPDATE_GOLDEN=1 \
         and review the diff"
    );
}

/// Two in-process runs must agree exactly — catches hidden global state
/// in the cluster driver (fabric reuse, RNG leakage between jobs).
#[test]
fn repeated_cluster_runs_are_bit_identical() {
    assert_eq!(render(), render());
}

/// Attaching the *empty* cluster fault plan changes not one byte of the
/// golden fixture: the cluster injector, like the solo one, is
/// pay-for-what-you-inject — no plan events means no RNG draws, no extra
/// simulator events, no perturbed timestamps.
#[test]
fn empty_cluster_plan_reproduces_golden_bytes() {
    let committed = std::fs::read_to_string(fixture_path())
        .expect("golden cluster fixture exists (generate with BS_UPDATE_GOLDEN=1)");
    assert_eq!(
        render_with(|| Some(FaultPlan::empty())),
        committed,
        "an empty cluster fault plan must be the identity on the golden scenario"
    );
}
