//! Experiment configuration: everything that defines one training run.

use bs_comm::PsMode;
use bs_engine::EngineConfig;
use bs_models::DnnModel;
use bs_net::{FabricModel, NetConfig};
use serde::Serialize;

/// Gradient-synchronisation architecture.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub enum Arch {
    /// Sharded parameter server. The paper co-locates one shard per worker
    /// machine (`num_servers == num_workers` in all its PS experiments).
    Ps {
        /// Synchronous or asynchronous training.
        mode: PsMode,
        /// Number of PS shards.
        num_servers: usize,
        /// Whether the *baseline* splits tensors above 1 MB across shards
        /// (MXNet's big-array bound). The paper's baselines show the
        /// naive whole-tensor round-robin placement and its load
        /// imbalance (§6.2), so the default is `false`; flipping it is
        /// the balanced-baseline ablation.
        baseline_bigarray_split: bool,
    },
    /// Ring all-reduce (NCCL-style).
    AllReduce {
        /// Horovod-style tensor fusion threshold: items waiting for the
        /// ring are coalesced into single collectives up to this many
        /// bytes — whole tensors under the baseline, the partitions the
        /// master scheduler releases under a scheduling policy (which
        /// wraps Horovod, so keeps its fusion, §5). `None` disables
        /// fusion. Vanilla Horovod defaults to 64 MB.
        baseline_fusion_bytes: Option<u64>,
        /// Expected wait before a baseline fused batch launches, modelling
        /// Horovod's coordinator cycle (default CYCLE_TIME = 5 ms ⇒ a mean
        /// wait of half that). ByteScheduler replaces the cycle with
        /// event-driven scheduling, so scheduled runs pay nothing here.
        baseline_cycle_delay_us: u64,
    },
}

impl Arch {
    /// Synchronous PS with one shard per worker — the paper's PS layout.
    pub fn ps(num_workers: usize) -> Arch {
        Arch::Ps {
            mode: PsMode::Synchronous,
            num_servers: num_workers,
            baseline_bigarray_split: false,
        }
    }

    /// All-reduce with Horovod's default 64 MB fusion and 5 ms
    /// coordinator cycle (mean wait 2.5 ms, baseline only).
    pub fn allreduce() -> Arch {
        Arch::AllReduce {
            baseline_fusion_bytes: Some(64 * 1024 * 1024),
            baseline_cycle_delay_us: 2_500,
        }
    }

    /// Number of scheduler lanes this architecture needs (§2.2: PS
    /// schedules upload and download independently; all-reduce has one
    /// stream).
    pub fn num_lanes(&self) -> usize {
        match self {
            Arch::Ps { .. } => 2,
            Arch::AllReduce { .. } => 1,
        }
    }
}

/// Which scheduling policy drives communication.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum SchedulerKind {
    /// The vanilla framework: FIFO readiness order, no repartitioning,
    /// engine graph as shipped (barrier and all).
    Baseline,
    /// FIFO order but with fixed-size partitioning — Figure 4(a)'s
    /// configuration, isolating partition overhead from scheduling.
    FifoPartitioned {
        /// Partition size in bytes.
        partition: u64,
    },
    /// FIFO order with partitioning *and* credit-metered release —
    /// Figure 4(b)'s configuration: the ByteScheduler machinery with all
    /// priorities equal, isolating the credit-size trade-off.
    FifoCredit {
        /// Partition size in bytes.
        partition: u64,
        /// Credit size in bytes.
        credit: u64,
    },
    /// P3 (Jayarajan et al.): priority + 160 KB partitions + stop-and-wait.
    P3,
    /// ByteScheduler with explicit knobs (δ, c). The auto-tuner searches
    /// over these.
    ByteScheduler {
        /// Partition size δ in bytes.
        partition: u64,
        /// Credit size c in bytes (per lane).
        credit: u64,
    },
}

impl SchedulerKind {
    /// Whether this policy requires the ByteScheduler engine rewrite
    /// (Dependency Proxies + out-of-engine communication). The baselines
    /// run the engine graph as shipped.
    pub fn needs_scheduled_engine(&self) -> bool {
        matches!(
            self,
            SchedulerKind::P3
                | SchedulerKind::ByteScheduler { .. }
                | SchedulerKind::FifoCredit { .. }
        )
    }

    /// Display name for result tables.
    pub fn label(&self) -> &'static str {
        match self {
            SchedulerKind::Baseline => "Baseline",
            SchedulerKind::FifoPartitioned { .. } => "FIFO+partition",
            SchedulerKind::FifoCredit { .. } => "FIFO+credit",
            SchedulerKind::P3 => "P3",
            SchedulerKind::ByteScheduler { .. } => "ByteScheduler",
        }
    }
}

/// A synthetic co-tenant: every worker NIC periodically carries a foreign
/// burst (modelled as a server→worker transfer sharing the same ports the
/// job's pulls use, plus a worker→server burst on the push side).
#[derive(Clone, Copy, Debug, Serialize)]
pub struct BackgroundLoad {
    /// Bytes per burst.
    pub burst_bytes: u64,
    /// Gap between one burst's delivery and the next submission, µs.
    /// Smaller gap = heavier congestion; gap 0 ≈ a saturating tenant.
    pub gap_us: u64,
}

/// One complete experiment configuration.
#[derive(Clone, Debug, Serialize)]
pub struct WorldConfig {
    /// The model being trained.
    pub model: DnnModel,
    /// Number of workers. For PS runs a "worker" is a machine (8 GPUs, the
    /// paper's layout); for all-reduce a worker is one GPU.
    pub num_workers: usize,
    /// GPUs aggregated inside each worker (8 for PS machines, 1 for
    /// all-reduce ranks). Scales the global batch; intra-worker scaling is
    /// assumed perfect (see DESIGN.md).
    pub gpus_per_worker: u64,
    /// Gradient-synchronisation architecture.
    pub arch: Arch,
    /// Network bandwidth + transport.
    pub net: NetConfig,
    /// Which framework engine flavour is simulated (vanilla form; the
    /// runtime applies the ByteScheduler rewrite automatically when the
    /// scheduler needs it).
    pub engine: EngineConfig,
    /// Scheduling policy.
    pub scheduler: SchedulerKind,
    /// Point-to-point fabric discipline (PS runs only; the collective
    /// stream has its own model). `SerialFifo` is the paper's abstraction
    /// and the default; `FairShare` is the multiplexed-transport
    /// sensitivity study.
    pub fabric: FabricModel,
    /// Per-tensor partition-size override for the ByteScheduler policy —
    /// the §7 "different partition sizes for different layers" extension.
    /// When set, entry `i` replaces the uniform δ for tensor `i`.
    pub per_tensor_partition: Option<Vec<u64>>,
    /// Communication-priority override: entry `i` is tensor `i`'s
    /// priority (lower = more urgent). Defaults to the §3.2 derivation
    /// (layer index). Used by the Theorem 1 exhaustive-permutation tests
    /// and available for custom policies.
    pub priority_override: Option<Vec<u64>>,
    /// A co-tenant's traffic contending on this job's NICs (§7 "shared
    /// network with congestion"). PS runs only.
    pub background: Option<BackgroundLoad>,
    /// Deterministic fault schedule for this run: link degradations and
    /// flaps (PS fabrics), per-transfer Bernoulli loss, and worker
    /// stragglers, recovered per the plan's
    /// [`bs_faults::RecoveryPolicy`]. `None` — and the empty plan — leave
    /// every run bit-identical to a fault-free one.
    pub faults: Option<bs_faults::FaultPlan>,
    /// Record an execution trace (compute ops, wire occupancies,
    /// collectives) into [`crate::RunResult::trace`], exportable to
    /// `chrome://tracing` via `bs_sim::Trace::to_chrome_json`.
    pub record_trace: bool,
    /// Record run metrics (credit occupancy, queue depths, per-NIC
    /// utilisation, GPU busy/stall accounting) into
    /// [`crate::RunResult::metrics`]. Off by default: the disabled path
    /// costs one branch per instrumented point, keeping benchmark runs
    /// bit-identical with or without the telemetry layer compiled in.
    pub record_metrics: bool,
    /// Record the causal event log (per-partition lifecycles, compute
    /// spans, credit stalls, aggregation instants) and attach the derived
    /// critical-path attribution to [`crate::RunResult::xray`]. With
    /// `record_trace` also set, flow arrows (BP → wire) ride along in the
    /// Perfetto trace. Off by default and recording-only — results stay
    /// bit-identical with or without it.
    pub record_xray: bool,
    /// Iterations to run.
    pub iters: u64,
    /// Iterations discarded before measuring (the paper warms up for 10).
    pub warmup: u64,
    /// RNG seed for compute jitter.
    pub seed: u64,
    /// Fractional std-dev of per-op compute jitter (0 disables).
    pub jitter: f64,
}

impl WorldConfig {
    /// A configuration with the measurement defaults used across the
    /// harness: 15 measured iterations after 3 warm-up, 1 % jitter.
    pub fn new(
        model: DnnModel,
        num_workers: usize,
        arch: Arch,
        net: NetConfig,
        engine: EngineConfig,
        scheduler: SchedulerKind,
    ) -> Self {
        let gpus_per_worker = match arch {
            Arch::Ps { .. } => 8,
            Arch::AllReduce { .. } => 1,
        };
        WorldConfig {
            model,
            num_workers,
            gpus_per_worker,
            arch,
            net,
            engine,
            scheduler,
            fabric: FabricModel::SerialFifo,
            per_tensor_partition: None,
            priority_override: None,
            background: None,
            faults: None,
            record_trace: false,
            record_metrics: false,
            record_xray: false,
            iters: 18,
            warmup: 3,
            seed: 1,
            jitter: 0.01,
        }
    }

    /// Total GPUs across the job — the x-axis of Figures 10–12.
    pub fn total_gpus(&self) -> u64 {
        self.num_workers as u64 * self.gpus_per_worker
    }

    /// Samples processed per iteration across the job.
    pub fn global_batch(&self) -> u64 {
        self.model.batch_per_worker * self.total_gpus()
    }

    /// The paper's "linear scaling" reference: single-GPU speed times the
    /// GPU count.
    pub fn linear_scaling_speed(&self) -> f64 {
        self.model.single_worker_speed() * self.total_gpus() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bs_net::Transport;

    #[test]
    fn ps_runs_count_machines_and_8_gpus_each() {
        let cfg = WorldConfig::new(
            bs_models::zoo::vgg16(),
            4,
            Arch::ps(4),
            NetConfig::gbps(100.0, Transport::tcp()),
            EngineConfig::mxnet_ps(),
            SchedulerKind::Baseline,
        );
        assert_eq!(cfg.total_gpus(), 32);
        assert_eq!(cfg.global_batch(), 32 * 32);
        assert_eq!(cfg.arch.num_lanes(), 2);
    }

    #[test]
    fn allreduce_runs_count_single_gpu_ranks() {
        let cfg = WorldConfig::new(
            bs_models::zoo::resnet50(),
            16,
            Arch::allreduce(),
            NetConfig::gbps(100.0, Transport::rdma()),
            EngineConfig::mxnet_allreduce(),
            SchedulerKind::Baseline,
        );
        assert_eq!(cfg.total_gpus(), 16);
        assert_eq!(cfg.arch.num_lanes(), 1);
    }

    #[test]
    fn only_scheduling_policies_rewrite_the_engine() {
        assert!(!SchedulerKind::Baseline.needs_scheduled_engine());
        assert!(!SchedulerKind::FifoPartitioned { partition: 4096 }.needs_scheduled_engine());
        assert!(SchedulerKind::P3.needs_scheduled_engine());
        assert!(SchedulerKind::ByteScheduler {
            partition: 1,
            credit: 1
        }
        .needs_scheduled_engine());
    }

    #[test]
    fn linear_scaling_is_gpu_proportional() {
        let model = bs_models::zoo::vgg16();
        let mk = |n| {
            WorldConfig::new(
                model.clone(),
                n,
                Arch::ps(n),
                NetConfig::gbps(100.0, Transport::tcp()),
                EngineConfig::mxnet_ps(),
                SchedulerKind::Baseline,
            )
        };
        assert!((mk(8).linear_scaling_speed() / mk(2).linear_scaling_speed() - 4.0).abs() < 1e-9);
    }
}
