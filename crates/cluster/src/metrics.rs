//! Cluster-level metrics: JCT, makespan, fairness, link utilisation.

use bs_runtime::RunResult;

use crate::contention::ContentionMatrix;
use bs_sim::{SimTime, Trace};
use bs_telemetry::MetricSet;
use serde::Serialize;

/// Jain's fairness index over the given allocations:
/// `(Σx)² / (n · Σx²)`. 1.0 = perfectly fair, `1/n` = one tenant takes
/// everything. Empty input yields 1.0 (nothing to be unfair about).
pub fn jain_index(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        return 1.0;
    }
    sum * sum / (xs.len() as f64 * sq)
}

/// Nearest-rank percentile of `sorted` (ascending): the value at 1-based
/// rank `⌈p/100 · n⌉`, clamped to `[1, n]`.
///
/// Tie-breaking is by construction exact: the result is always an element
/// of the input (never an interpolation), and equal values occupy
/// consecutive ranks in their input order, so `percentile(xs, 100.0)` is
/// the maximum and `percentile(xs, 0.0)` the minimum. Panics on an empty
/// slice — an empty distribution has no percentiles; callers decide what
/// that means.
pub fn percentile_nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty distribution");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of [0, 100]");
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "input must be sorted ascending"
    );
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// A full distribution summary: the tail percentiles the replay layer
/// reports instead of means. All values are in the unit of the input
/// (seconds for JCT distributions).
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct DistSummary {
    /// Sample count.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Nearest-rank 50th percentile.
    pub p50: f64,
    /// Nearest-rank 95th percentile.
    pub p95: f64,
    /// Nearest-rank 99th percentile.
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
}

impl DistSummary {
    /// Summarises `xs` (any order). Panics when empty, like
    /// [`percentile_nearest_rank`].
    pub fn from_unsorted(mut xs: Vec<f64>) -> DistSummary {
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        DistSummary {
            n: xs.len(),
            mean,
            p50: percentile_nearest_rank(&xs, 50.0),
            p95: percentile_nearest_rank(&xs, 95.0),
            p99: percentile_nearest_rank(&xs, 99.0),
            max: *xs.last().expect("non-empty"),
        }
    }
}

/// One machine NIC's utilisation over the cluster makespan, as delivered
/// payload bytes over the effective link capacity.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct LinkUtil {
    /// Machine index.
    pub machine: usize,
    /// Uplink (egress) utilisation in [0, ~1].
    pub up: f64,
    /// Downlink (ingress) utilisation in [0, ~1].
    pub down: f64,
}

/// One node's move during a migration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct NodeMove {
    /// Job-local node index.
    pub node: usize,
    /// Machine the node sat on when its host failed.
    pub from: usize,
    /// Healthy machine it resumed on.
    pub to: usize,
}

/// One checkpoint → migrate → resume reaction to a machine failure, as
/// recorded by the cluster driver's recovery loop.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct MigrationRecord {
    /// Training job (spec index) that was checkpointed.
    pub job: usize,
    /// When the hosting machine failed (= the checkpoint instant: the
    /// job restarts from its last completed iteration barrier).
    pub at: SimTime,
    /// When the job's engines resumed — `at` plus the §7
    /// checkpoint-restart cost, or later if the job had to wait for a
    /// machine restore to find capacity.
    pub resumed_at: SimTime,
    /// The machine whose failure triggered this migration.
    pub machine: usize,
    /// Iteration barrier the checkpoint captured (completed by every
    /// worker).
    pub checkpoint_iter: u64,
    /// In-progress iterations discarded by the rollback: the most
    /// advanced worker's completed count minus `checkpoint_iter`.
    pub lost_iters: u64,
    /// Nodes that changed machines (survivor nodes stay pinned and are
    /// not listed).
    pub moved: Vec<NodeMove>,
}
#[derive(Clone, Debug, Serialize)]
pub struct JobOutcome {
    /// The spec's display name.
    pub name: String,
    /// Arrival time.
    pub arrival: SimTime,
    /// When the job's last iteration retired.
    pub finished_at: SimTime,
    /// Job completion time: `finished_at - arrival`.
    pub jct: SimTime,
    /// Machines backing the job's local nodes.
    pub machines: Vec<usize>,
    /// The job's full single-job measurement (speed, iteration times,
    /// per-job traffic counters).
    pub result: RunResult,
}

/// The outcome of one cluster run.
#[derive(Clone, Debug, Serialize)]
pub struct ClusterResult {
    /// Training jobs in spec order (burst tenants produce no outcome).
    pub jobs: Vec<JobOutcome>,
    /// When the last training job finished.
    pub makespan: SimTime,
    /// Jain's index over per-job throughput (1/JCT) — how evenly the
    /// fabric served the tenants.
    pub jain_fairness: f64,
    /// Per-machine NIC utilisation over the makespan (all tenants'
    /// traffic, burst tenants included).
    pub link_utilisation: Vec<LinkUtil>,
    /// Total point-to-point deliveries on the shared fabric — the
    /// cluster-mode events/sec numerator for the perf baseline.
    pub fabric_events: u64,
    /// Merged execution trace with per-job track groups (`job0/…`), when
    /// [`crate::ClusterConfig::record_trace`] was set.
    pub trace: Option<Trace>,
    /// Cluster-level metrics, when
    /// [`crate::ClusterConfig::record_metrics`] was set: shared-fabric
    /// telemetry under `net/` and per-job per-NIC traffic shares under
    /// `job{j}/nic{m}/`. Per-job scheduler/GPU metrics live in each
    /// job's [`JobOutcome::result`].
    pub metrics: Option<MetricSet>,
    /// Link-contention matrix (per NIC direction busy/contended time,
    /// per-job solo vs contended byte shares, pairwise phase-collision
    /// fractions), when [`crate::ClusterConfig::record_contention`] was
    /// set.
    pub contention: Option<ContentionMatrix>,
    /// Every checkpoint → migrate → resume the driver's recovery loop
    /// performed, in decision order. Empty when no machine failed (or
    /// the reaction was [`crate::FaultReaction::None`]).
    pub migrations: Vec<MigrationRecord>,
}

impl ClusterResult {
    /// The busiest NIC direction's utilisation.
    pub fn peak_link_utilisation(&self) -> f64 {
        self.link_utilisation
            .iter()
            .flat_map(|l| [l.up, l.down])
            .fold(0.0, f64::max)
    }

    /// Mean JCT across training jobs, seconds.
    pub fn mean_jct_secs(&self) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        self.jobs.iter().map(|j| j.jct.as_secs_f64()).sum::<f64>() / self.jobs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-computed nearest-rank fixtures. For n = 10 and p = 50,
    /// rank = ⌈0.5 · 10⌉ = 5 → the 5th smallest; p = 95 → rank ⌈9.5⌉ =
    /// 10 → the max; p = 99 likewise. For n = 100, p95 is exactly the
    /// 95th smallest.
    #[test]
    fn nearest_rank_matches_hand_computed_fixtures() {
        let xs: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        assert_eq!(percentile_nearest_rank(&xs, 50.0), 5.0);
        assert_eq!(percentile_nearest_rank(&xs, 90.0), 9.0);
        assert_eq!(percentile_nearest_rank(&xs, 95.0), 10.0);
        assert_eq!(percentile_nearest_rank(&xs, 99.0), 10.0);
        assert_eq!(percentile_nearest_rank(&xs, 100.0), 10.0);
        assert_eq!(percentile_nearest_rank(&xs, 0.0), 1.0);

        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile_nearest_rank(&xs, 50.0), 50.0);
        assert_eq!(percentile_nearest_rank(&xs, 95.0), 95.0);
        assert_eq!(percentile_nearest_rank(&xs, 99.0), 99.0);

        // Ties: the result is an input element, so a run of equal values
        // spanning the rank yields exactly that value.
        let xs = [1.0, 2.0, 2.0, 2.0, 9.0];
        assert_eq!(percentile_nearest_rank(&xs, 50.0), 2.0);
        assert_eq!(percentile_nearest_rank(&xs, 99.0), 9.0);

        // Single sample: every percentile is that sample.
        assert_eq!(percentile_nearest_rank(&[7.5], 1.0), 7.5);
        assert_eq!(percentile_nearest_rank(&[7.5], 99.0), 7.5);
    }

    #[test]
    fn dist_summary_sorts_and_orders_percentiles() {
        let s = DistSummary::from_unsorted(vec![9.0, 1.0, 5.0, 3.0, 7.0]);
        assert_eq!(s.n, 5);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.p50, 5.0);
        assert_eq!(s.p95, 9.0);
        assert_eq!(s.p99, 9.0);
        assert_eq!(s.max, 9.0);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_of_empty_panics() {
        percentile_nearest_rank(&[], 50.0);
    }

    #[test]
    fn jain_bounds() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[5.0, 5.0, 5.0]), 1.0);
        // One tenant hogging everything tends to 1/n.
        let j = jain_index(&[1.0, 0.0, 0.0]);
        assert!((j - 1.0 / 3.0).abs() < 1e-12, "{j}");
        // Moderate skew lands strictly between.
        let j = jain_index(&[2.0, 1.0]);
        assert!(j > 0.5 && j < 1.0);
    }
}
