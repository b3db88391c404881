//! §7 "co-scheduling in a shared cluster", the multi-job half: real
//! concurrent training jobs contending on one fabric, instead of the
//! synthetic-burst approximation in [`super::coschedule`].
//!
//! Two studies:
//!
//! 1. **Co-tenant** — a ByteScheduler job and a FIFO-baseline job packed
//!    onto the same machines, each compared with its solo run. The
//!    finding mirrors the synthetic study: contention costs everyone real
//!    throughput, but ByteScheduler's ordering advantage survives — its
//!    gains come from *when* bytes are sent, which a co-tenant does not
//!    change.
//! 2. **Placement** — 2, 4 and 8 jobs on a fixed 8-machine cluster under
//!    all three [`PlacementPolicy`]s, reporting makespan, mean JCT,
//!    Jain's fairness over per-job throughput, and peak link utilisation.
//!    Network-aware placement only helps while the cluster has slack;
//!    once every machine is shared, policy differences wash out and
//!    fairness is what distinguishes the fabric disciplines.
//!
//! Runs on the fluid (max-min fair) fabric: multi-tenant NIC sharing is
//! what that model exists for.

use bs_cluster::{
    run_cluster, run_cluster_observed, ClusterConfig, ClusterResult, FaultReaction, JobSpec,
    PlacementPolicy,
};
use bs_faults::FaultPlan;
use bs_net::FabricModel;
use bs_runtime::{run, RunOutcome, SchedulerKind, WorldConfig};
use bs_sim::SimTime;
use serde::Serialize;

use crate::fidelity::Fidelity;
use crate::report::{fmt_speed, fmt_speedup, Table};
use crate::setups::Setup;

/// Machines in the placement-study cluster.
pub const MACHINES: usize = 8;
/// GPUs per job (2 PS workers of 8 GPUs each + 2 co-located shards).
pub const GPUS_PER_JOB: u64 = 16;
/// Link bandwidth, Gbps.
pub const GBPS: f64 = 25.0;

/// One job of the co-tenant study.
#[derive(Clone, Debug, Serialize)]
pub struct CoTenantRow {
    /// Job name ("bytescheduler" / "fifo-baseline").
    pub name: String,
    /// Speed when running alone on its machines.
    pub solo_speed: f64,
    /// Speed when packed with the other job.
    pub shared_speed: f64,
    /// `shared/solo - 1` (negative = slowdown).
    pub slowdown: f64,
    /// Completion time in the shared run, seconds.
    pub jct_secs: f64,
}

/// One placement-study configuration.
#[derive(Clone, Debug, Serialize)]
pub struct PlacementRow {
    /// Concurrent jobs.
    pub jobs: usize,
    /// Placement policy label.
    pub policy: &'static str,
    /// Cluster makespan, seconds.
    pub makespan_secs: f64,
    /// Mean job completion time, seconds.
    pub mean_jct_secs: f64,
    /// Jain's fairness over per-job throughput.
    pub jain: f64,
    /// Busiest NIC direction's utilisation.
    pub peak_link_util: f64,
}

/// The whole experiment.
#[derive(Clone, Debug, Serialize)]
pub struct ClusterStudy {
    /// Co-tenant rows (one per job).
    pub cotenant: Vec<CoTenantRow>,
    /// Placement rows (jobs × policy).
    pub placement: Vec<PlacementRow>,
}

/// ByteScheduler knobs for the cluster jobs — the Table 1 neighbourhood
/// for VGG16 PS RDMA; the cluster study compares policies, not knobs.
fn bytescheduler() -> SchedulerKind {
    SchedulerKind::ByteScheduler {
        partition: 4_000_000,
        credit: 16_000_000,
    }
}

/// One job's configuration: VGG16, MXNet PS, RDMA at [`GBPS`].
fn job_cfg(fid: Fidelity, sched: SchedulerKind, seed: u64) -> WorldConfig {
    let mut cfg = Setup::MxnetPsRdma.config(bs_models::zoo::vgg16(), GPUS_PER_JOB, GBPS, sched);
    fid.apply(&mut cfg);
    cfg.seed = seed;
    // The cluster fabric is fluid; solo reference runs must match it.
    cfg.fabric = FabricModel::FairShare;
    cfg
}

fn cluster(machines: usize, placement: PlacementPolicy, cfg: &WorldConfig) -> ClusterConfig {
    let mut c = ClusterConfig::new(machines, cfg.net);
    c.fabric = FabricModel::FairShare;
    c.placement = placement;
    c
}

/// The default base seed — the value every committed artefact and
/// EXPERIMENTS.md table was produced with.
pub const DEFAULT_SEED: u64 = 21;

/// Runs both studies. `seed` is the base jitter seed: the co-tenant jobs
/// run at `seed` / `seed + 1` and placement-study job `j` at
/// `seed + 79 + j`, so [`DEFAULT_SEED`] reproduces the committed
/// artefacts exactly and any other value gives an independent synthetic
/// mix that is itself reproducible from the CLI (`cluster --seed N`).
pub fn run_experiment(fid: Fidelity, seed: u64) -> ClusterStudy {
    // --- Study 1: one ByteScheduler job and one FIFO job, packed. ---
    let bs_cfg = job_cfg(fid, bytescheduler(), seed);
    let fifo_cfg = job_cfg(fid, SchedulerKind::Baseline, seed + 1);
    let specs = vec![
        JobSpec::train("bytescheduler", bs_cfg.clone()),
        JobSpec::train("fifo-baseline", fifo_cfg.clone()),
    ];
    let shared = run_cluster(
        &cluster(bs_cfg.num_workers * 2, PlacementPolicy::Packed, &bs_cfg),
        &specs,
    );
    let solo_speeds = [run(&bs_cfg).speed, run(&fifo_cfg).speed];
    let cotenant = shared
        .jobs
        .iter()
        .zip(solo_speeds)
        .map(|(j, solo)| CoTenantRow {
            name: j.name.clone(),
            solo_speed: solo,
            shared_speed: j.result.speed,
            slowdown: j.result.speed / solo - 1.0,
            jct_secs: j.jct.as_secs_f64(),
        })
        .collect();

    // --- Study 2: 2/4/8 jobs × 3 placement policies. ---
    let mut placement = Vec::new();
    for &n_jobs in &[2usize, 4, 8] {
        let specs: Vec<JobSpec> = (0..n_jobs)
            .map(|j| {
                let sched = if j % 2 == 0 {
                    bytescheduler()
                } else {
                    SchedulerKind::Baseline
                };
                let cfg = job_cfg(fid, sched, seed + 79 + j as u64);
                // Staggered arrivals: a new tenant every 50 ms.
                JobSpec::train_at(format!("job{j}"), cfg, SimTime::from_millis(50 * j as u64))
            })
            .collect();
        for policy in PlacementPolicy::all() {
            let template = job_cfg(fid, bytescheduler(), 1);
            let r = run_cluster(&cluster(MACHINES, policy, &template), &specs);
            placement.push(PlacementRow {
                jobs: n_jobs,
                policy: policy.label(),
                makespan_secs: r.makespan.as_secs_f64(),
                mean_jct_secs: r.mean_jct_secs(),
                jain: r.jain_fairness,
                peak_link_util: r.peak_link_utilisation(),
            });
        }
    }
    ClusterStudy {
        cotenant,
        placement,
    }
}

/// Runs one deterministic 2-job cluster with a recorded trace — the
/// configuration the `cluster` binary uses for its bit-identical-trace
/// verification and JSON artefact. `record_metrics` additionally turns
/// on run telemetry (the `cluster --metrics` path); `record_xray` turns
/// on the causal event log and per-job critical-path attribution (the
/// `cluster --xray` path).
pub fn reference_run(fid: Fidelity, record_metrics: bool, record_xray: bool) -> ClusterResult {
    let bs_cfg = job_cfg(fid, bytescheduler(), 21);
    let fifo_cfg = job_cfg(fid, SchedulerKind::Baseline, 22);
    let mut c = cluster(bs_cfg.num_workers * 2, PlacementPolicy::Packed, &bs_cfg);
    c.record_trace = true;
    c.record_metrics = record_metrics;
    c.record_xray = record_xray;
    run_cluster(
        &c,
        &[
            JobSpec::train("bytescheduler", bs_cfg),
            JobSpec::train("fifo-baseline", fifo_cfg),
        ],
    )
}

/// Runs the 2-job reference cluster with a scope bus attached — the
/// `cluster --watch` path. Caller owns the bus (subscribers and the
/// final `finish` call), so the binary can mix a live table, a flight
/// recorder and a drift bank on one stream.
pub fn observed_reference(fid: Fidelity, bus: &mut bs_scope::ScopeBus) -> ClusterResult {
    let bs_cfg = job_cfg(fid, bytescheduler(), 21);
    let fifo_cfg = job_cfg(fid, SchedulerKind::Baseline, 22);
    let c = cluster(bs_cfg.num_workers * 2, PlacementPolicy::Packed, &bs_cfg);
    run_cluster_observed(
        &c,
        &[
            JobSpec::train("bytescheduler", bs_cfg),
            JobSpec::train("fifo-baseline", fifo_cfg),
        ],
        Some(bus),
    )
}

/// Runs the 4-tenant contention reference behind `cluster --contention`:
/// three PS training tenants (two ByteScheduler, one FIFO) and one burst
/// tenant packed onto 4 machines, with the link-contention observatory
/// recording. Every tenant pushes through every shared NIC, so the
/// matrix has all six pairs and genuinely contended links. (All-reduce
/// tenants are deliberately absent: their collective streams are private,
/// so they contend for machines, not wires — see the crate doc.)
pub fn contention_reference(fid: Fidelity) -> ClusterResult {
    use bs_runtime::BackgroundLoad;
    let specs = vec![
        JobSpec::train("bytescheduler-a", job_cfg(fid, bytescheduler(), 21)),
        JobSpec::train("bytescheduler-b", job_cfg(fid, bytescheduler(), 22)),
        JobSpec::train("fifo-baseline", job_cfg(fid, SchedulerKind::Baseline, 23)),
        JobSpec::burst(
            "burst-bg",
            BackgroundLoad {
                burst_bytes: 4 << 20,
                gap_us: 2_000,
            },
            2,
            97,
        ),
    ];
    let template = job_cfg(fid, bytescheduler(), 1);
    let mut c = cluster(template.num_workers * 2, PlacementPolicy::Packed, &template);
    c.record_contention = true;
    run_cluster(&c, &specs)
}

/// Loads the committed cluster-scope fault fixture
/// (`tests/fixtures/cluster_fault_plan.json`): one machine failure with
/// a scheduled restore, a transient link degradation, low transfer loss
/// and one straggler window. The single source of truth for the
/// migration study, the `cluster --faults` CI smoke and
/// `tests/cluster_faults.rs`.
pub fn cluster_fault_fixture() -> FaultPlan {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/cluster_fault_plan.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing cluster fault fixture {} ({e})", path.display()));
    FaultPlan::from_json(&text).expect("committed fixture parses")
}

/// One (fabric, reaction) arm of the migration study.
#[derive(Clone, Debug, Serialize)]
pub struct MigrationRow {
    /// Fabric model label ("fifo" / "fluid").
    pub fabric: &'static str,
    /// Reaction label ("no-reaction" / "checkpoint+migrate").
    pub reaction: &'static str,
    /// Cluster makespan, seconds.
    pub makespan_secs: f64,
    /// Mean job completion time, seconds.
    pub mean_jct_secs: f64,
    /// Checkpoint → migrate → resume cycles the driver performed.
    pub migrations: usize,
    /// Iterations rolled back and re-run across all migrations.
    pub lost_iters: u64,
    /// Per-job outcome cells, spec order.
    pub outcomes: Vec<String>,
}

/// Makespan comparison of the two reactions on one fabric.
#[derive(Clone, Debug, Serialize)]
pub struct MigrationSaving {
    /// Fabric model label.
    pub fabric: &'static str,
    /// Makespan when affected jobs ride out the outage, seconds.
    pub no_reaction_secs: f64,
    /// Makespan under checkpoint+migrate, seconds.
    pub migrate_secs: f64,
    /// `no_reaction - migrate`; positive means migration wins.
    pub saved_secs: f64,
}

/// The machine-failure reaction study.
#[derive(Clone, Debug, Serialize)]
pub struct MigrationStudy {
    /// Fabric × reaction grid.
    pub rows: Vec<MigrationRow>,
    /// Per-fabric makespan comparison.
    pub savings: Vec<MigrationSaving>,
}

fn outcome_cell(o: &RunOutcome) -> String {
    match o {
        RunOutcome::Completed => "completed".into(),
        RunOutcome::DegradedCompleted { retries, reroutes } => {
            format!("degraded ({retries} retries, {reroutes} reroutes)")
        }
        RunOutcome::Failed { reason } => format!("FAILED: {reason}"),
    }
}

/// Runs the §7 machine-failure reaction comparison behind
/// Machines of the migration study's cluster: the reference pair's
/// nodes plus one spare, so the health-aware remap has somewhere to move
/// a failed machine's nodes. A plan for [`migration_study`] must fit it.
pub fn migration_machines(fid: Fidelity) -> usize {
    job_cfg(fid, bytescheduler(), 21).num_workers * 2 + 1
}

/// `cluster --faults`: the 2-job reference pair packed onto
/// `2·num_workers` machines plus one spare, with `plan` as the cluster
/// fault plan, once letting affected jobs ride out the outage
/// ([`FaultReaction::None`] — retransmits queue against the dead NIC
/// until its scheduled restore) and once with the driver's reactive
/// checkpoint/migrate/resume loop. Both arms pay the same link
/// degradation, loss stream and straggler window; only the reaction
/// differs, so the makespan gap prices the §7 checkpoint-restart
/// decision itself.
pub fn migration_study(fid: Fidelity, plan: &FaultPlan) -> MigrationStudy {
    let machines = migration_machines(fid);
    let mut rows = Vec::new();
    let mut savings = Vec::new();
    for (fabric, flabel) in [
        (FabricModel::SerialFifo, "fifo"),
        (FabricModel::FairShare, "fluid"),
    ] {
        let mut makespans = [0.0f64; 2];
        for (k, (reaction, rlabel)) in [
            (FaultReaction::None, "no-reaction"),
            (FaultReaction::CheckpointMigrate, "checkpoint+migrate"),
        ]
        .into_iter()
        .enumerate()
        {
            let bs_cfg = job_cfg(fid, bytescheduler(), 21);
            let fifo_cfg = job_cfg(fid, SchedulerKind::Baseline, 22);
            let mut c = cluster(machines, PlacementPolicy::Packed, &bs_cfg);
            c.fabric = fabric;
            c.faults = Some(plan.clone());
            c.reaction = reaction;
            let r = run_cluster(
                &c,
                &[
                    JobSpec::train("bytescheduler", bs_cfg),
                    JobSpec::train("fifo-baseline", fifo_cfg),
                ],
            );
            makespans[k] = r.makespan.as_secs_f64();
            rows.push(MigrationRow {
                fabric: flabel,
                reaction: rlabel,
                makespan_secs: r.makespan.as_secs_f64(),
                mean_jct_secs: r.mean_jct_secs(),
                migrations: r.migrations.len(),
                lost_iters: r.migrations.iter().map(|m| m.lost_iters).sum(),
                outcomes: r
                    .jobs
                    .iter()
                    .map(|j| outcome_cell(&j.result.outcome))
                    .collect(),
            });
        }
        savings.push(MigrationSaving {
            fabric: flabel,
            no_reaction_secs: makespans[0],
            migrate_secs: makespans[1],
            saved_secs: makespans[0] - makespans[1],
        });
    }
    MigrationStudy { rows, savings }
}

/// Renders the migration-study grid, headed by the `plan` it ran, and
/// the per-fabric verdict lines.
pub fn render_migration(m: &MigrationStudy, plan: &str) -> String {
    let mut out = String::new();
    let mut t = Table::new(
        format!("§7 extension — machine failure: ride out the outage vs checkpoint+migrate (2 jobs packed + 1 spare machine, {plan})"),
        &[
            "fabric",
            "reaction",
            "makespan (s)",
            "mean JCT (s)",
            "migrations",
            "lost iters",
            "job outcomes",
        ],
    );
    for r in &m.rows {
        t.row(vec![
            r.fabric.into(),
            r.reaction.into(),
            format!("{:.2}", r.makespan_secs),
            format!("{:.2}", r.mean_jct_secs),
            r.migrations.to_string(),
            r.lost_iters.to_string(),
            r.outcomes.join("; "),
        ]);
    }
    out.push_str(&t.render());
    for s in &m.savings {
        out.push_str(&format!(
            "{}: checkpoint+migrate finishes {:.2} s earlier than riding out the outage ({:.2} s vs {:.2} s)\n",
            s.fabric, s.saved_secs, s.migrate_secs, s.no_reaction_secs
        ));
    }
    out
}

/// Renders both tables.
pub fn render(s: &ClusterStudy) -> String {
    let mut out = String::new();
    let mut t = Table::new(
        format!("§7 extension — real co-tenant jobs, packed placement (VGG16, MXNet PS RDMA, {GBPS} Gbps, fluid fabric)"),
        &["job", "solo", "shared", "slowdown", "JCT (s)"],
    );
    for r in &s.cotenant {
        t.row(vec![
            r.name.clone(),
            fmt_speed(r.solo_speed),
            fmt_speed(r.shared_speed),
            fmt_speedup(r.slowdown),
            format!("{:.2}", r.jct_secs),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');
    let mut t = Table::new(
        format!("§7 extension — placement policies on {MACHINES} machines (mixed ByteScheduler/FIFO jobs, staggered arrivals)"),
        &["jobs", "policy", "makespan (s)", "mean JCT (s)", "Jain", "peak link util"],
    );
    for r in &s.placement {
        t.row(vec![
            r.jobs.to_string(),
            r.policy.to_string(),
            format!("{:.2}", r.makespan_secs),
            format!("{:.2}", r.mean_jct_secs),
            format!("{:.3}", r.jain),
            format!("{:.2}", r.peak_link_util),
        ]);
    }
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_cotenants_contend_and_scheduling_still_wins() {
        let s = run_experiment(Fidelity::quick(), DEFAULT_SEED);
        // Sharing never helps anyone; the ByteScheduler job overlaps the
        // slower FIFO job for its whole lifetime and must lose strictly.
        // (The FIFO job may tie: its co-tenant can retire inside its
        // warmup window, leaving the measured iterations uncontended.)
        for r in &s.cotenant {
            assert!(
                r.shared_speed <= r.solo_speed,
                "{}: shared {} must not beat solo {}",
                r.name,
                r.shared_speed,
                r.solo_speed
            );
        }
        assert!(
            s.cotenant[0].shared_speed < s.cotenant[0].solo_speed,
            "the ByteScheduler job must pay for contention"
        );
        // ...but the ByteScheduler job stays ahead of the FIFO job.
        assert!(
            s.cotenant[0].shared_speed > s.cotenant[1].shared_speed,
            "ByteScheduler {} must beat FIFO {} under contention",
            s.cotenant[0].shared_speed,
            s.cotenant[1].shared_speed
        );
        // With room to spare (2 jobs on 8 machines), spreading beats
        // packing on makespan.
        let row = |jobs: usize, policy: &str| {
            s.placement
                .iter()
                .find(|r| r.jobs == jobs && r.policy == policy)
                .expect("row present")
        };
        assert!(
            row(2, "round-robin").makespan_secs <= row(2, "packed").makespan_secs,
            "spread must not lose to packed while the cluster has slack"
        );
        for r in &s.placement {
            assert!(r.jain > 0.0 && r.jain <= 1.0 + 1e-12, "Jain in (0,1]");
            assert!(r.peak_link_util > 0.0, "traffic must register on links");
        }
    }

    #[test]
    fn migration_beats_riding_out_the_outage_on_both_fabrics() {
        let m = migration_study(Fidelity::quick(), &cluster_fault_fixture());
        assert_eq!(m.rows.len(), 4, "2 fabrics x 2 reactions");
        for r in &m.rows {
            assert!(
                r.outcomes.iter().all(|o| !o.starts_with("FAILED")),
                "{}/{}: a job failed: {:?}",
                r.fabric,
                r.reaction,
                r.outcomes
            );
            if r.reaction == "checkpoint+migrate" {
                assert!(
                    r.migrations >= 1,
                    "{}: the failure must trigger at least one migration",
                    r.fabric
                );
                assert!(
                    r.outcomes.iter().all(|o| o.starts_with("degraded")),
                    "{}: migrated jobs must report DegradedCompleted: {:?}",
                    r.fabric,
                    r.outcomes
                );
            } else {
                assert_eq!(
                    r.migrations, 0,
                    "{}: no-reaction must not migrate",
                    r.fabric
                );
            }
        }
        for s in &m.savings {
            assert!(
                s.saved_secs > 0.0,
                "{}: checkpoint+migrate must beat no-reaction on makespan \
                 ({:.2} s vs {:.2} s)",
                s.fabric,
                s.migrate_secs,
                s.no_reaction_secs
            );
        }
    }
}
