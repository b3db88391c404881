//! Multi-job shared-fabric cluster simulation.
//!
//! The paper's §7 names co-scheduling in a shared cluster as the open
//! problem: ByteScheduler orders one job's traffic perfectly but ignores
//! what the *other* tenants of the network are doing. This crate builds
//! the testbed that question needs — `N` concurrent training jobs
//! multiplexed over **one** fabric under **one** simulated clock, so jobs
//! genuinely contend on shared machine NICs rather than being approximated
//! by synthetic burst generators.
//!
//! The pieces:
//!
//! * [`JobSpec`] — one tenant: a full training job (any model, PS or
//!   all-reduce, any scheduler policy, an arrival time and iteration
//!   budget), or a degenerate burst source that only injects co-tenant
//!   traffic (the cluster-native form of
//!   [`bs_runtime::BackgroundLoad`]).
//! * [`PlacementPolicy`] — how job-local nodes map onto cluster machines:
//!   round-robin spread, packed, or network-aware (CASSINI-style: place
//!   to minimise expected link overlap between jobs).
//! * [`run_cluster`] — places the jobs, projects a cluster fault plan
//!   onto them, and runs [`bs_runtime::driver`]'s event loop over the
//!   tenants: the same loop `World::run` drives with one tenant, so a
//!   single-job cluster is *event-identical* to `World::run` by
//!   construction. The crate's hooks add per-job traffic attribution and
//!   the machine-failure reaction (checkpoint, migrate, resume).
//! * [`ClusterResult`] — per-job completion times (JCT), makespan,
//!   Jain's fairness index over per-job throughput, and per-machine link
//!   utilisation; optionally a merged Chrome trace with one track group
//!   per job.
//!
//! Contention semantics: jobs sharing a machine share that machine's NIC
//! in both directions, under whichever [`bs_net::FabricModel`] the
//! cluster uses (strict FIFO or max-min fair). All-reduce jobs keep their
//! ring on a private collective stream (exactly as a solo run does) and therefore only contend for machines, not wires; see
//! DESIGN.md for the rationale and limits of that approximation.

pub mod contention;
pub mod driver;
pub mod metrics;
pub mod placement;
pub mod spec;

pub use contention::{
    ContentionMatrix, JobLinkShare, LinkContention, PairContention, CONTENTION_SCHEMA,
    CONTENTION_SCHEMA_VERSION,
};
pub use driver::{run_cluster, run_cluster_observed};
pub use metrics::{
    jain_index, percentile_nearest_rank, ClusterResult, DistSummary, JobOutcome, LinkUtil,
    MigrationRecord, NodeMove,
};
pub use placement::PlacementPolicy;
pub use spec::{ClusterConfig, FaultReaction, JobSpec};
