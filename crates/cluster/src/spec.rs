//! Cluster and job specifications.

use bs_faults::FaultPlan;
use bs_net::{FabricModel, NetConfig};
use bs_runtime::{BackgroundLoad, JobState, WorldConfig};
use bs_sim::SimTime;
use serde::Serialize;

use crate::placement::PlacementPolicy;

/// What the cluster driver does when a machine fails mid-run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum FaultReaction {
    /// Checkpoint every affected training job at its last completed
    /// iteration barrier, pay the §7 checkpoint-restart cost, remap the
    /// job's nodes onto healthy machines and resume — re-running the lost
    /// iterations. Jobs with no feasible placement (now or at any future
    /// machine restore) fail closed with
    /// [`bs_runtime::RunOutcome::Failed`]. The default.
    CheckpointMigrate,
    /// No reaction: affected jobs ride out the outage through the
    /// loss-recovery path (retransmits queue against the dead NIC until
    /// it is restored, or the retry cap fails the job). A job with a
    /// node on a machine the timeline never restores cannot ride it out
    /// and fails closed with [`bs_runtime::RunOutcome::Failed`] at the
    /// failure instant. The baseline the migration study compares
    /// against.
    None,
}

/// The shared infrastructure every job runs on.
#[derive(Clone, Debug, Serialize)]
pub struct ClusterConfig {
    /// Machines in the cluster. Each machine is one fabric node (one
    /// duplex NIC); a machine may host one job's worker and another job's
    /// PS shard simultaneously — that is the contention being modelled.
    pub machines: usize,
    /// NIC bandwidth + transport, uniform across machines.
    pub net: NetConfig,
    /// Sharing discipline of the shared fabric.
    pub fabric: FabricModel,
    /// How job-local nodes map onto machines.
    pub placement: PlacementPolicy,
    /// Record a merged Chrome trace with per-job track groups.
    pub record_trace: bool,
    /// Record run metrics: per-job scheduler/GPU telemetry (landing in
    /// each [`crate::JobOutcome`]'s `result.metrics`) plus cluster-level
    /// fabric utilisation and per-job per-NIC traffic shares (landing in
    /// [`crate::ClusterResult::metrics`]). Off by default, same overhead
    /// contract as [`WorldConfig::record_metrics`].
    pub record_metrics: bool,
    /// Record each training job's causal event log and attach per-job
    /// critical-path attribution to its `result.xray`. Off by default,
    /// same recording-only contract as [`WorldConfig::record_xray`].
    pub record_xray: bool,
    /// Record per-NIC-direction active-job sets and occupancy spans on
    /// the shared fabric and attach the reduced link-contention matrix to
    /// [`crate::ClusterResult::contention`]. Off by default, same
    /// recording-only contract as the other recorders: enabling it never
    /// changes any simulation event.
    pub record_contention: bool,
    /// Accepted and ignored: every cluster run is one sequential event
    /// loop, whatever the value. Parallelism lives across runs instead:
    /// what-if query batches and experiment sweeps fan out on
    /// `bs_sim::WorkerPool`.
    pub threads: usize,
    /// Cluster-scope fault plan. Link events and flaps name *machines*
    /// (fabric nodes shared by every tenant) and are applied to the
    /// shared fabric exactly once; `machine_failures` take whole machines
    /// down and trigger the configured [`FaultReaction`]; loss, straggler
    /// and recovery settings project onto every training job that has no
    /// private plan of its own, each through its own split-seed RNG
    /// stream.
    pub faults: Option<FaultPlan>,
    /// What to do when a machine fails. Ignored when no machine ever
    /// fails.
    pub reaction: FaultReaction,
}

impl ClusterConfig {
    /// A cluster with the default FIFO fabric and round-robin placement.
    pub fn new(machines: usize, net: NetConfig) -> ClusterConfig {
        ClusterConfig {
            machines,
            net,
            fabric: FabricModel::SerialFifo,
            placement: PlacementPolicy::RoundRobinSpread,
            record_trace: false,
            record_metrics: false,
            record_xray: false,
            record_contention: false,
            threads: 1,
            faults: None,
            reaction: FaultReaction::CheckpointMigrate,
        }
    }
}

/// One tenant of the cluster.
#[derive(Clone, Debug)]
#[allow(clippy::large_enum_variant)]
pub enum JobSpec {
    /// A full training job. `cfg.net` is used only for the job's private
    /// collective stream (all-reduce); its point-to-point traffic rides
    /// the *cluster's* fabric at the cluster's `net`.
    Train {
        /// Display name ("vgg16-bs", …).
        name: String,
        /// When the job's compute starts.
        arrival: SimTime,
        /// The complete run configuration.
        cfg: WorldConfig,
    },
    /// A degenerate tenant that only injects looping co-tenant bursts —
    /// the cluster-native form of [`BackgroundLoad`]. It occupies
    /// `2 * pairs` machines (`pairs` "workers" and `pairs` "servers",
    /// bursting both directions on each pair) and never finishes; the
    /// cluster run ends when every training job does.
    Burst {
        /// Display name.
        name: String,
        /// When the first bursts are injected.
        arrival: SimTime,
        /// Burst size and gap.
        load: BackgroundLoad,
        /// Worker/server machine pairs carrying bursts.
        pairs: usize,
        /// Seed of the gap-jitter RNG stream.
        seed: u64,
    },
}

impl JobSpec {
    /// A training job arriving at time zero.
    pub fn train(name: impl Into<String>, cfg: WorldConfig) -> JobSpec {
        JobSpec::train_at(name, cfg, SimTime::ZERO)
    }

    /// A training job arriving at `arrival`.
    pub fn train_at(name: impl Into<String>, cfg: WorldConfig, arrival: SimTime) -> JobSpec {
        JobSpec::Train {
            name: name.into(),
            arrival,
            cfg,
        }
    }

    /// A burst-only tenant active from time zero.
    pub fn burst(
        name: impl Into<String>,
        load: BackgroundLoad,
        pairs: usize,
        seed: u64,
    ) -> JobSpec {
        JobSpec::Burst {
            name: name.into(),
            arrival: SimTime::ZERO,
            load,
            pairs,
            seed,
        }
    }

    /// The tenant's display name.
    pub fn name(&self) -> &str {
        match self {
            JobSpec::Train { name, .. } | JobSpec::Burst { name, .. } => name,
        }
    }

    /// When the tenant becomes active.
    pub fn arrival(&self) -> SimTime {
        match self {
            JobSpec::Train { arrival, .. } | JobSpec::Burst { arrival, .. } => *arrival,
        }
    }

    /// Machines this tenant occupies on the shared fabric (0 for
    /// all-reduce training jobs: their collective stream is private).
    pub fn nodes_needed(&self) -> usize {
        match self {
            JobSpec::Train { cfg, .. } => JobState::fabric_nodes_needed(cfg),
            JobSpec::Burst { pairs, .. } => 2 * pairs,
        }
    }

    /// Rough traffic demand, used by network-aware placement to weight
    /// machine load: gradient bytes per iteration for a training job, one
    /// burst for a burst tenant.
    pub fn demand_bytes(&self) -> u64 {
        match self {
            JobSpec::Train { cfg, .. } => {
                cfg.model.layers.iter().map(|l| l.param_bytes).sum::<u64>()
            }
            JobSpec::Burst { load, .. } => load.burst_bytes,
        }
    }
}
