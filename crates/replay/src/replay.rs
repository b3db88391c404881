//! Wave-scheduled trace replay through the shared-fabric cluster
//! simulator.
//!
//! The replay layer admits jobs FCFS in **waves**: arrival-sorted
//! batches of at most [`ReplayOptions::wave`] jobs, each wave simulated
//! as one cluster run whose epoch is `max(previous wave's absolute
//! finish, first arrival in the wave)`. The wave size is a model knob,
//! not a simulator limit: the driver runs any number of tenants on one
//! fabric. A job arriving mid-wave keeps its stagger (its in-run
//! arrival offset is `arrival − epoch`); a job arriving before its wave's
//! epoch queues, and that admission wait is reported separately:
//!
//! * **queueing delay** = `admitted − arrival` — time spent waiting for
//!   the fabric (earlier waves draining);
//! * **run time** = `finish − admitted` — time on the fabric, contending
//!   with the rest of its wave;
//! * **JCT** = queueing + run.
//!
//! This is deliberately the strictest FCFS batch discipline: no
//! backfilling, no wave overlap. It makes the replay deterministic (the
//! wave partition depends only on arrival order) and the queueing/run
//! split exact, at the cost of under-utilising the fabric between waves —
//! DESIGN.md §14 discusses the trade-off.

use bs_cluster::{
    run_cluster, run_cluster_observed, ClusterConfig, ClusterResult, DistSummary, JobSpec,
    PlacementPolicy,
};
use bs_engine::EngineConfig;
use bs_faults::FaultPlan;
use bs_net::{FabricModel, NetConfig, Transport};
use bs_runtime::{Arch, SchedulerKind, WorldConfig};
use bs_scope::{ScopeBus, ScopeEvent};
use bs_sim::SimTime;
use serde::Serialize;

use crate::trace::TraceJob;

/// Everything that parameterises one replay — also the identity the
/// what-if service fingerprints queries by.
#[derive(Clone, Debug, Serialize)]
pub struct ReplayOptions {
    /// NIC bandwidth of every cluster machine, Gbps.
    pub bandwidth_gbps: f64,
    /// Machines in the cluster (each an 8-GPU box with one duplex NIC).
    pub machines: usize,
    /// Jobs admitted per wave (at least 1), each wave one `run_cluster`
    /// call.
    pub wave: usize,
    /// Trace-seconds → simulated-seconds compression. Public traces
    /// span weeks; at `1e-3` a day of arrivals lands in ~86 simulated
    /// seconds, enough for waves to actually contend.
    pub arrival_scale: f64,
    /// Upper bound on per-job simulated iterations (the lower bound is
    /// the simulator's warmup+2 floor).
    pub iters_cap: u64,
    /// Base RNG seed; job `i` jitters under `seed ^ i·φ` (golden-ratio
    /// stream splitting), so one knob reproduces the whole replay.
    pub seed: u64,
    /// Communication scheduler every replayed job runs.
    pub scheduler: SchedulerKind,
    /// How job-local nodes map onto machines.
    pub placement: PlacementPolicy,
    /// Replay only the first `n` jobs of the trace (arrival order), for
    /// smoke tests and truncated benchmarks. `None` replays everything.
    pub truncate: Option<usize>,
    /// Cluster-scope fault plan applied to **every wave**: each wave is
    /// one independent cluster run, so the plan's machine indices name
    /// the replay cluster's machines and its times are wave-relative
    /// (a failure at 150 ms recurs 150 ms into each wave). Machine
    /// failures trigger the driver's checkpoint/migrate/resume reaction;
    /// jobs with no healthy placement wait for the plan's scheduled
    /// restore.
    pub faults: Option<FaultPlan>,
}

impl Default for ReplayOptions {
    fn default() -> ReplayOptions {
        ReplayOptions {
            bandwidth_gbps: 25.0,
            machines: 8,
            wave: 8,
            arrival_scale: 1e-3,
            iters_cap: 8,
            seed: 1,
            scheduler: SchedulerKind::ByteScheduler {
                partition: 4_000_000,
                credit: 16_000_000,
            },
            placement: PlacementPolicy::RoundRobinSpread,
            truncate: None,
            faults: None,
        }
    }
}

/// One job's replay outcome. All times are simulated seconds on the
/// compressed axis.
#[derive(Clone, Debug, Serialize)]
pub struct ReplayedJob {
    /// Trace job id.
    pub name: String,
    /// Model class label the job normalized onto.
    pub class: &'static str,
    /// Trace GPU demand.
    pub gpus: u64,
    /// PS worker machines the job simulated with.
    pub workers: usize,
    /// Simulated iterations run.
    pub iters: u64,
    /// Wave index the job was admitted in.
    pub wave: usize,
    /// Compressed arrival.
    pub arrival_secs: f64,
    /// When the job's compute actually started: `max(arrival, epoch)`.
    pub admitted_secs: f64,
    /// `admitted − arrival`.
    pub queueing_secs: f64,
    /// `finish − admitted`.
    pub run_secs: f64,
    /// `queueing + run`.
    pub jct_secs: f64,
}

/// The outcome of replaying a whole trace.
#[derive(Clone, Debug, Serialize)]
pub struct ReplayReport {
    /// Per-job outcomes, in admission (arrival) order.
    pub jobs: Vec<ReplayedJob>,
    /// Waves the trace was admitted in.
    pub waves: usize,
    /// Absolute finish of the last wave, simulated seconds.
    pub makespan_secs: f64,
    /// Full JCT distribution (seconds).
    pub jct: DistSummary,
    /// Queueing-delay distribution (seconds).
    pub queueing: DistSummary,
    /// Run-time distribution (seconds).
    pub run: DistSummary,
    /// Total shared-fabric deliveries across all waves — the
    /// events/sec numerator for the replay benchmark.
    pub fabric_events: u64,
}

/// PS worker machines for a trace job: one per 8 GPUs, clamped so
/// workers + co-located shards fit the smallest supported cluster.
pub fn workers_for(gpus: u64) -> usize {
    (gpus.div_ceil(8) as usize).clamp(1, 4)
}

/// Builds the [`WorldConfig`] a trace job replays as: its class's model
/// on a sharded synchronous PS (the paper's layout), MXNet engine, RDMA
/// transport, fluid fabric, jitter seeded per job.
pub fn job_config(job: &TraceJob, idx: usize, opts: &ReplayOptions) -> WorldConfig {
    let workers = workers_for(job.gpus);
    let mut cfg = WorldConfig::new(
        job.class.model(),
        workers,
        Arch::ps(workers),
        NetConfig::gbps(opts.bandwidth_gbps, Transport::rdma()),
        EngineConfig::mxnet_ps(),
        opts.scheduler,
    );
    cfg.fabric = FabricModel::FairShare;
    cfg.iters = job.iters.clamp(3, opts.iters_cap.max(3));
    cfg.warmup = 1;
    cfg.jitter = 0.01;
    // Golden-ratio stream splitting: one base seed fans out to
    // decorrelated per-job streams, and the whole replay reproduces from
    // `opts.seed` alone.
    cfg.seed = opts.seed ^ (idx as u64).wrapping_mul(0x9E3779B97F4A7C15);
    cfg
}

/// One wave's full cluster outcome, kept only by the recording replay
/// variant ([`replay_trace_recorded`]): the per-wave telemetry
/// (`result.metrics`) and link-contention matrix (`result.contention`)
/// that the aggregate [`ReplayReport`] deliberately flattens away.
#[derive(Clone, Debug)]
pub struct ReplayWave {
    /// Wave index (0-based, admission order).
    pub wave: usize,
    /// Absolute start of the wave's cluster run, simulated seconds.
    pub epoch_secs: f64,
    /// The wave's cluster run, with whatever recorders were enabled.
    pub result: ClusterResult,
}

/// Replays a normalized trace under the given options. Deterministic:
/// the same trace and options serialize to byte-identical reports.
pub fn replay_trace(jobs: &[TraceJob], opts: &ReplayOptions) -> ReplayReport {
    replay_trace_recorded(jobs, opts, false, false).0
}

/// [`replay_trace`] with per-wave recorders: when `record_metrics` /
/// `record_contention` is set, each wave's cluster run records fabric
/// telemetry / the link-contention matrix and the full per-wave
/// [`ClusterResult`]s are returned alongside the aggregate report.
/// Recording is observation-only — the report is byte-identical to the
/// unrecorded [`replay_trace`] either way.
pub fn replay_trace_recorded(
    jobs: &[TraceJob],
    opts: &ReplayOptions,
    record_metrics: bool,
    record_contention: bool,
) -> (ReplayReport, Vec<ReplayWave>) {
    replay_trace_observed(jobs, opts, record_metrics, record_contention, None)
}

/// [`replay_trace_recorded`] with an optional scope observation bus.
///
/// Each wave publishes a `wave_admitted` event at its epoch, runs its
/// cluster under the bus with the bus offset set to the epoch — so every
/// in-wave event lands on the replay's absolute compressed-time axis —
/// and closes with a `wave_done` carrying the wave's JCT summary. The
/// bus is finished (rollups flushed) at the replay's makespan.
pub fn replay_trace_observed(
    jobs: &[TraceJob],
    opts: &ReplayOptions,
    record_metrics: bool,
    record_contention: bool,
    mut scope: Option<&mut ScopeBus>,
) -> (ReplayReport, Vec<ReplayWave>) {
    assert!(!jobs.is_empty(), "cannot replay an empty trace");
    let wave_size = opts.wave.max(1);

    // Admission order: arrival, then trace position for ties.
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by(|&a, &b| {
        jobs[a]
            .submit_secs
            .partial_cmp(&jobs[b].submit_secs)
            .expect("finite arrivals")
            .then(a.cmp(&b))
    });
    if let Some(n) = opts.truncate {
        order.truncate(n.max(1));
    }

    let cluster = {
        let mut c = ClusterConfig::new(
            opts.machines,
            NetConfig::gbps(opts.bandwidth_gbps, Transport::rdma()),
        );
        c.fabric = FabricModel::FairShare;
        c.placement = opts.placement;
        c.record_metrics = record_metrics;
        c.record_contention = record_contention;
        c.faults = opts.faults.clone();
        c
    };
    let keep_waves = record_metrics || record_contention;

    let mut out: Vec<ReplayedJob> = Vec::with_capacity(order.len());
    let mut wave_results: Vec<ReplayWave> = Vec::new();
    let mut fabric_events = 0u64;
    let mut clock = 0.0f64; // absolute finish of the previous wave
    let mut waves = 0usize;
    for batch in order.chunks(wave_size) {
        let first_arrival = jobs[batch[0]].submit_secs * opts.arrival_scale;
        let epoch = clock.max(first_arrival);
        let specs: Vec<JobSpec> = batch
            .iter()
            .map(|&i| {
                let arrival = jobs[i].submit_secs * opts.arrival_scale;
                JobSpec::train_at(
                    jobs[i].name.clone(),
                    job_config(&jobs[i], i, opts),
                    SimTime::from_secs_f64((arrival - epoch).max(0.0)),
                )
            })
            .collect();
        let r = match scope.as_deref_mut() {
            Some(bus) => {
                // Every event the wave publishes shifts onto the replay's
                // absolute compressed-time axis.
                bus.set_offset(SimTime::from_secs_f64(epoch));
                bus.publish(ScopeEvent::WaveAdmitted {
                    wave: waves,
                    at: SimTime::ZERO,
                    jobs: batch.len(),
                });
                let r = run_cluster_observed(&cluster, &specs, Some(bus));
                let jcts: Vec<f64> = r.jobs.iter().map(|o| o.jct.as_secs_f64()).collect();
                bus.publish(ScopeEvent::WaveDone {
                    wave: waves,
                    at: r.makespan,
                    jobs: r.jobs.len(),
                    jct_mean_secs: jcts.iter().sum::<f64>() / jcts.len() as f64,
                    jct_max_secs: jcts.iter().cloned().fold(0.0, f64::max),
                });
                r
            }
            None => run_cluster(&cluster, &specs),
        };
        fabric_events += r.fabric_events;
        for (&i, outcome) in batch.iter().zip(&r.jobs) {
            let arrival = jobs[i].submit_secs * opts.arrival_scale;
            let admitted = epoch + outcome.arrival.as_secs_f64();
            let finish = epoch + outcome.finished_at.as_secs_f64();
            out.push(ReplayedJob {
                name: outcome.name.clone(),
                class: jobs[i].class.label(),
                gpus: jobs[i].gpus,
                workers: workers_for(jobs[i].gpus),
                iters: jobs[i].iters.clamp(3, opts.iters_cap.max(3)),
                wave: waves,
                arrival_secs: arrival,
                admitted_secs: admitted,
                queueing_secs: admitted - arrival,
                run_secs: finish - admitted,
                jct_secs: finish - arrival,
            });
        }
        clock = epoch + r.makespan.as_secs_f64();
        if keep_waves {
            wave_results.push(ReplayWave {
                wave: waves,
                epoch_secs: epoch,
                result: r,
            });
        }
        waves += 1;
    }
    if let Some(bus) = scope {
        bus.set_offset(SimTime::ZERO);
        bus.finish(SimTime::from_secs_f64(clock));
    }

    let report = ReplayReport {
        jct: DistSummary::from_unsorted(out.iter().map(|j| j.jct_secs).collect()),
        queueing: DistSummary::from_unsorted(out.iter().map(|j| j.queueing_secs).collect()),
        run: DistSummary::from_unsorted(out.iter().map(|j| j.run_secs).collect()),
        makespan_secs: clock,
        jobs: out,
        waves,
        fabric_events,
    };
    (report, wave_results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ModelClass;

    fn tiny_trace(n: usize) -> Vec<TraceJob> {
        (0..n)
            .map(|i| TraceJob {
                name: format!("job-{i}"),
                submit_secs: 40.0 * i as f64,
                gpus: 8,
                duration_secs: 1200.0,
                class: ModelClass::Alexnet,
                iters: 3,
            })
            .collect()
    }

    #[test]
    fn jct_decomposes_into_queueing_plus_run() {
        let report = replay_trace(
            &tiny_trace(3),
            &ReplayOptions {
                wave: 2,
                iters_cap: 3,
                ..ReplayOptions::default()
            },
        );
        assert_eq!(report.jobs.len(), 3);
        assert_eq!(report.waves, 2);
        for j in &report.jobs {
            assert!(
                (j.jct_secs - (j.queueing_secs + j.run_secs)).abs() < 1e-9,
                "{j:?}"
            );
            assert!(j.queueing_secs >= 0.0 && j.run_secs > 0.0, "{j:?}");
            assert!(j.admitted_secs >= j.arrival_secs);
        }
        // The second wave's job queues behind the first wave iff the
        // fabric was still busy at its arrival; either way admission
        // respects FCFS: admitted times are non-decreasing.
        let admitted: Vec<f64> = report.jobs.iter().map(|j| j.admitted_secs).collect();
        assert!(admitted.windows(2).all(|w| w[0] <= w[1]), "{admitted:?}");
        assert!(report.makespan_secs > 0.0);
        assert!(report.fabric_events > 0);
    }

    #[test]
    fn wave_size_one_serialises_the_cluster() {
        let report = replay_trace(
            &tiny_trace(2),
            &ReplayOptions {
                wave: 1,
                iters_cap: 3,
                ..ReplayOptions::default()
            },
        );
        assert_eq!(report.waves, 2);
        // With one job per wave there is no intra-wave contention; the
        // second job cannot start before the first finishes or its own
        // arrival, whichever is later.
        let (a, b) = (&report.jobs[0], &report.jobs[1]);
        let first_finish = a.admitted_secs + a.run_secs;
        assert!(b.admitted_secs >= first_finish.min(b.arrival_secs) - 1e-9);
    }

    #[test]
    fn recorded_waves_carry_metrics_and_contention_without_changing_report() {
        let trace = tiny_trace(3);
        let opts = ReplayOptions {
            wave: 2,
            iters_cap: 3,
            ..ReplayOptions::default()
        };
        let plain = serde_json::to_string(&replay_trace(&trace, &opts)).expect("serializes");
        let (report, waves) = replay_trace_recorded(&trace, &opts, true, true);
        // Recording is observation-only: the aggregate report is
        // byte-identical to the unrecorded replay.
        assert_eq!(serde_json::to_string(&report).expect("serializes"), plain);
        assert_eq!(waves.len(), report.waves);
        for (i, w) in waves.iter().enumerate() {
            assert_eq!(w.wave, i);
            assert!(w.result.metrics.is_some(), "wave {i} metrics");
            let m = w.result.contention.as_ref().expect("wave contention");
            assert!(!m.links.is_empty(), "wave {i} saw fabric traffic");
        }
        // Unrecorded replay keeps no per-wave results at all.
        assert!(replay_trace_recorded(&trace, &opts, false, false)
            .1
            .is_empty());
    }

    #[test]
    fn per_wave_cluster_faults_apply_deterministically() {
        use bs_faults::MachineFailure;
        let trace = tiny_trace(3);
        let mut opts = ReplayOptions {
            wave: 2,
            iters_cap: 3,
            ..ReplayOptions::default()
        };
        let clean = serde_json::to_string(&replay_trace(&trace, &opts)).expect("serializes");
        opts.faults = Some(FaultPlan {
            machine_failures: vec![MachineFailure {
                machine: 1,
                at_us: 20_000,
                restore_us: Some(2_000_000),
            }],
            ..FaultPlan::empty()
        });
        let a = serde_json::to_string(&replay_trace(&trace, &opts)).expect("serializes");
        let b = serde_json::to_string(&replay_trace(&trace, &opts)).expect("serializes");
        assert_eq!(a, b, "faulted replay must stay byte-deterministic");
        assert_ne!(
            a, clean,
            "the recurring machine failure must perturb the replay"
        );
    }

    #[test]
    fn replay_is_deterministic() {
        let trace = tiny_trace(3);
        let opts = ReplayOptions {
            iters_cap: 3,
            ..ReplayOptions::default()
        };
        let a = serde_json::to_string(&replay_trace(&trace, &opts)).expect("serializes");
        let b = serde_json::to_string(&replay_trace(&trace, &opts)).expect("serializes");
        assert_eq!(a, b);
    }
}
