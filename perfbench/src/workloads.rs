//! The four workloads' fixed inputs and the digests their outputs are
//! checked by. Sizes are chosen so one pass takes tens of milliseconds:
//! a ten-second run then holds over a hundred passes, enough for a
//! median and a valid 90th percentile.

use bs_cluster::{ClusterConfig, ClusterResult, JobSpec, PlacementPolicy};
use bs_engine::EngineConfig;
use bs_net::{FabricModel, NetConfig, Transport};
use bs_replay::{ReplayOptions, ReplayReport};
use bs_runtime::{Arch, RunResult, SchedulerKind, WorldConfig};
use bs_sim::SimTime;

use crate::gen::tenant_seed;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "train_ps_observed",
    "train_ring",
    "cluster_mixed",
    "whatif_service",
];

/// Per-op compute jitter of every simulated workload.
pub const JITTER: f64 = 0.05;
/// Iterations per `train_ps_observed` pass.
pub const PS_ITERS: u64 = 6;
/// Iterations per `train_ring` pass.
pub const RING_ITERS: u64 = 100;
/// Iterations per tenant per `cluster_mixed` pass.
pub const CLUSTER_ITERS: u64 = 4;
/// Simulation threads of the `cluster_mixed` pass.
pub const CLUSTER_THREADS: usize = 2;
/// LRU capacity of the what-if service.
pub const WHATIF_CACHE: usize = 8;
/// Queries per what-if batch.
pub const WHATIF_BATCH: usize = 4;
/// The trace the what-if service replays: the repository's Philly-style
/// day fixture.
pub const WHATIF_TRACE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../tests/fixtures/traces/philly_day.json"
);

const MB: u64 = 1_000_000;

/// `train_ps_observed`: VGG16, 16 workers × 16 servers, ByteScheduler
/// (4 MB partitions, 16 MB credit) on the FIFO fabric. `recorders`
/// switches on the per-job metrics and xray recorders; the scope bus is
/// the caller's.
pub fn ps_config(seed: u64, recorders: bool) -> WorldConfig {
    let mut cfg = WorldConfig::new(
        bs_models::zoo::vgg16(),
        16,
        Arch::ps(16),
        NetConfig::gbps(100.0, Transport::rdma()),
        EngineConfig::mxnet_ps(),
        SchedulerKind::ByteScheduler {
            partition: 4 * MB,
            credit: 16 * MB,
        },
    );
    cfg.fabric = FabricModel::SerialFifo;
    cfg.iters = PS_ITERS;
    cfg.warmup = 2;
    cfg.seed = seed;
    cfg.jitter = JITTER;
    cfg.record_metrics = recorders;
    cfg.record_xray = recorders;
    cfg
}

/// `train_ring`: ResNet-50 on a 16-rank ring all-reduce, ByteScheduler
/// (1 MB partitions, 4 MB credit), recorders off.
pub fn ring_config(seed: u64) -> WorldConfig {
    let mut cfg = WorldConfig::new(
        bs_models::zoo::resnet50(),
        16,
        Arch::allreduce(),
        NetConfig::gbps(100.0, Transport::rdma()),
        EngineConfig::mxnet_allreduce(),
        SchedulerKind::ByteScheduler {
            partition: MB,
            credit: 4 * MB,
        },
    );
    cfg.iters = RING_ITERS;
    cfg.warmup = 2;
    cfg.seed = seed;
    cfg.jitter = JITTER;
    cfg
}

/// `cluster_mixed` cluster: 16 machines on a shared max-min fair fluid
/// fabric, packed placement, recorders off.
pub fn cluster_config(threads: usize) -> ClusterConfig {
    let mut c = ClusterConfig::new(16, NetConfig::gbps(25.0, Transport::rdma()));
    c.fabric = FabricModel::FairShare;
    c.placement = PlacementPolicy::Packed;
    c.threads = threads;
    c
}

/// `cluster_mixed` tenants: six 4-worker PS jobs alternating VGG16 and
/// ResNet-50 and alternating ByteScheduler with the baseline, then four
/// 4-rank ResNet-50 ring jobs. Each tenant jitters under its own seed.
pub fn cluster_specs(seed: u64) -> Vec<JobSpec> {
    let net = NetConfig::gbps(25.0, Transport::rdma());
    let mut specs = Vec::new();
    for i in 0..6 {
        let model = if i % 2 == 0 {
            bs_models::zoo::vgg16()
        } else {
            bs_models::zoo::resnet50()
        };
        let sched = if (i / 2) % 2 == 0 {
            SchedulerKind::ByteScheduler {
                partition: 4 * MB,
                credit: 16 * MB,
            }
        } else {
            SchedulerKind::Baseline
        };
        let cfg = WorldConfig::new(model, 4, Arch::ps(4), net, EngineConfig::mxnet_ps(), sched);
        specs.push(JobSpec::train(format!("ps{i}"), tenant(cfg, seed, i)));
    }
    for i in 0..4 {
        let cfg = WorldConfig::new(
            bs_models::zoo::resnet50(),
            4,
            Arch::allreduce(),
            net,
            EngineConfig::mxnet_allreduce(),
            SchedulerKind::ByteScheduler {
                partition: MB,
                credit: 4 * MB,
            },
        );
        specs.push(JobSpec::train(format!("ring{i}"), tenant(cfg, seed, 6 + i)));
    }
    specs
}

fn tenant(mut cfg: WorldConfig, seed: u64, idx: usize) -> WorldConfig {
    cfg.iters = CLUSTER_ITERS;
    cfg.warmup = 1;
    cfg.seed = tenant_seed(seed, idx);
    cfg.jitter = JITTER;
    cfg
}

/// The what-if service's base options: the replay defaults with the
/// iteration cap at 3 and the replay seeded from the run seed.
pub fn whatif_base(seed: u64) -> ReplayOptions {
    ReplayOptions {
        iters_cap: 3,
        seed,
        ..ReplayOptions::default()
    }
}

/// FNV-1a over the fields an output check compares.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(mut self, b: &[u8]) -> Digest {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(self, v: u64) -> Digest {
        self.bytes(&v.to_le_bytes())
    }

    pub fn f64(self, v: f64) -> Digest {
        self.u64(v.to_bits())
    }

    pub fn time(self, t: SimTime) -> Digest {
        self.u64(t.as_nanos())
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// One run's checked output: when it finished, its communication event
/// count and its measured iteration marks.
pub fn run_digest(r: &RunResult) -> u64 {
    let mut d = Digest::new()
        .time(r.finished_at)
        .u64(r.comm_events)
        .u64(r.p2p_bytes)
        .u64(r.collective_bytes)
        .u64(r.iter_times.len() as u64);
    for &t in &r.iter_times {
        d = d.f64(t);
    }
    d.finish()
}

/// A single-job pass's checked output: the run plus the number of scope
/// events it published (0 when unobserved).
pub fn pass_digest(r: &RunResult, scope_events: u64) -> u64 {
    Digest::new().u64(run_digest(r)).u64(scope_events).finish()
}

/// A cluster run's checked output: makespan, fairness, fabric events and
/// every job's completion.
pub fn cluster_digest(c: &ClusterResult) -> u64 {
    let mut d = Digest::new()
        .time(c.makespan)
        .f64(c.jain_fairness)
        .u64(c.fabric_events);
    for j in &c.jobs {
        d = d
            .bytes(j.name.as_bytes())
            .time(j.jct)
            .time(j.finished_at)
            .u64(run_digest(&j.result));
    }
    d.finish()
}

/// A what-if answer's checked output: the whole report.
pub fn report_digest(r: &ReplayReport) -> u64 {
    let json = serde_json::to_string(r).expect("replay reports serialize");
    Digest::new().bytes(json.as_bytes()).finish()
}

/// Simulated training iterations a replay ran, summed over its jobs.
pub fn report_iters(r: &ReplayReport) -> u64 {
    r.jobs.iter().map(|j| j.iters).sum()
}

/// Simulated training iterations a cluster pass runs, summed over jobs.
pub fn specs_iters(specs: &[JobSpec]) -> u64 {
    specs
        .iter()
        .map(|s| match s {
            JobSpec::Train { cfg, .. } => cfg.iters,
            JobSpec::Burst { .. } => 0,
        })
        .sum()
}
