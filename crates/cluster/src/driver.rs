//! The cluster driver: N jobs placed on one shared fabric.
//!
//! The event loop itself is `bs_runtime::driver`'s — the same loop a
//! solo `bs_runtime::run` drives with one tenant, so a one-job cluster
//! reproduces the solo run by construction. This module adds only what
//! is cluster-specific: placement, projecting the cluster plan's loss
//! and stragglers onto tenants, the machine-failure reaction
//! (checkpoint, migrate, resume) behind [`DriverHooks`], and the
//! [`ClusterResult`] assembly.

use bs_faults::{ClusterChange, ClusterFaultEntry, ClusterFaultInjector, FaultPlan, PlanTarget};
use bs_net::{CompletedTransfer, Fabric, NetPort, NodeId, WireXrayRecord, CONTENTION_JOB_LIMIT};
use bs_scope::{ScopeBus, ScopeEvent};
use bs_tune::RestartCost;

use crate::contention::ContentionMatrix;
use bs_runtime::driver::{
    self, hoist_job_links, push_fault_event, route_drop, wire_owner, WireTags,
};
use bs_runtime::job::wire_span_into_trace;
use bs_runtime::traffic::BurstSource;
use bs_runtime::{DriverHooks, JobNetStats, JobState, NodeMap, RunOutcome, Tenant};
use bs_sim::{SimTime, Trace};
use bs_telemetry::MetricSet;

use crate::metrics::{jain_index, ClusterResult, JobOutcome, LinkUtil, MigrationRecord, NodeMove};
use crate::placement::PlacementPolicy;
use crate::spec::{ClusterConfig, FaultReaction, JobSpec};

/// The cluster's additions to the driver loop: per-job and per-machine
/// traffic attribution, and the reactive recovery loop for machine
/// failures.
struct ClusterHooks {
    job_bytes: Vec<u64>,
    job_events: Vec<u64>,
    /// `[j][m] = (up, down)` delivered bytes, metrics mode only.
    job_nic_bytes: Option<Vec<Vec<(u64, u64)>>>,
    /// Machine health as of the driver clock, flipped by machine edges.
    healthy: Vec<bool>,
    reaction: FaultReaction,
    /// §7 checkpoint-restart cost model pricing each migration.
    restart: RestartCost,
    /// Rebuilt job states must re-attach to the observation bus.
    scope_on: bool,
    migrations: Vec<MigrationRecord>,
}

impl DriverHooks for ClusterHooks {
    fn on_delivered(&mut self, j: usize, c: &CompletedTransfer) {
        self.job_bytes[j] += c.bytes;
        self.job_events[j] += 1;
        if let Some(share) = self.job_nic_bytes.as_mut() {
            share[j][c.src.0].0 += c.bytes;
            share[j][c.dst.0].1 += c.bytes;
        }
    }

    fn on_machine_edge<P: NetPort>(
        &mut self,
        change: ClusterChange,
        now: SimTime,
        timeline: &[ClusterFaultEntry],
        tenants: &mut [Tenant],
        wires: &mut WireTags,
        fabric: &mut P,
    ) {
        match change {
            ClusterChange::MachineDown { machine } => {
                self.on_machine_down(machine, now, timeline, tenants, wires, fabric)
            }
            ClusterChange::MachineUp { machine } => {
                self.healthy[machine] = true;
                push_fault_event(tenants, None, machine, machine, "machine_up", 1.0, now);
                fabric.revive_port(now, NodeId(machine));
            }
            ClusterChange::Link(_) => unreachable!("the driver applies link changes"),
        }
    }
}

/// Machine health at instant `t`: every machine edge in the static
/// timeline with `at <= t`, applied in timeline order over an
/// all-healthy start. The timeline never changes mid-run, so health at
/// any future instant is known at decision time — that is what makes
/// deferred placement deterministic.
fn healthy_at(timeline: &[ClusterFaultEntry], machines: usize, t: SimTime) -> Vec<bool> {
    let mut h = vec![true; machines];
    for e in timeline {
        if e.at > t {
            break;
        }
        match e.change {
            ClusterChange::MachineDown { machine } => h[machine] = false,
            ClusterChange::MachineUp { machine } => h[machine] = true,
            ClusterChange::Link(_) => {}
        }
    }
    h
}

/// The earliest resume instant `>= earliest` at which a health-aware
/// remap of `current` exists: `earliest` itself, else the pending queue
/// — each future machine restore in time order. `None` means no
/// placement will ever exist and the job must fail.
fn find_placement(
    timeline: &[ClusterFaultEntry],
    machines: usize,
    current: &[NodeId],
    earliest: SimTime,
) -> Option<(SimTime, Vec<NodeId>)> {
    let restores = timeline
        .iter()
        .filter(|e| e.at > earliest && matches!(e.change, ClusterChange::MachineUp { .. }))
        .map(|e| e.at);
    for at in std::iter::once(earliest).chain(restores) {
        let health = healthy_at(timeline, machines, at);
        if let Some(nodes) = PlacementPolicy::remap_healthy(current, &health) {
            return Some((at, nodes));
        }
    }
    None
}

impl ClusterHooks {
    /// The reactive recovery loop for one failed machine.
    ///
    /// Health bookkeeping first, then the port kill: in-flight transfers
    /// of tenants that will migrate die silently with their checkpointed
    /// state, everyone else's route into loss recovery (retransmits queue
    /// against the dead NIC until it restores). Finally each affected
    /// training job — unfinished, not failed, with a node on the machine
    /// — is checkpointed and migrated in job order.
    fn on_machine_down<P: NetPort>(
        &mut self,
        machine: usize,
        now: SimTime,
        timeline: &[ClusterFaultEntry],
        tenants: &mut [Tenant],
        wires: &mut WireTags,
        fabric: &mut P,
    ) {
        self.healthy[machine] = false;
        push_fault_event(tenants, None, machine, machine, "machine_down", 0.0, now);
        // Without a reaction, a job rides the outage out only if the
        // machine comes back; one it never does fails closed here.
        let restored = timeline
            .iter()
            .any(|e| e.at > now && e.change == ClusterChange::MachineUp { machine });
        let mut affected: Vec<usize> = Vec::new();
        if self.reaction == FaultReaction::CheckpointMigrate || !restored {
            for (j, tenant) in tenants.iter().enumerate() {
                if let Tenant::Train {
                    state,
                    finished: None,
                    ..
                } = tenant
                {
                    if state.failed().is_none()
                        && state.nodes().fabric_nodes().iter().any(|n| n.0 == machine)
                    {
                        affected.push(j);
                    }
                }
            }
        }
        for d in fabric.kill_port(now, NodeId(machine)) {
            if affected.contains(&wire_owner(d.tag)) {
                continue;
            }
            route_drop(tenants, wires, d, now, fabric);
        }
        for j in affected {
            if self.reaction == FaultReaction::CheckpointMigrate {
                self.checkpoint_migrate(j, machine, now, timeline, tenants, fabric);
                wires.apply(&mut tenants[j], j, now, fabric);
            } else if let Tenant::Train { state, .. } = &mut tenants[j] {
                // Its fabric footprint goes with it, as a doomed
                // migration's does.
                fabric.cancel_where(now, &mut |tag| wire_owner(tag) == j);
                let reason = format!("machine {machine} failed and is never restored");
                state.abort(reason, now);
            }
        }
    }

    /// Checkpoints job `j` at its last completed iteration barrier,
    /// prices the restart with the §7 cost model, remaps its nodes onto
    /// healthy machines (deferring to a future restore when the healthy
    /// pool is too small) and rebuilds its state to resume there — or
    /// fails the job closed when no placement will ever exist. The
    /// rebuilt job buffers its co-tenant bursts, to restart at once on
    /// its new nodes.
    fn checkpoint_migrate<P: NetPort>(
        &mut self,
        j: usize,
        failed_machine: usize,
        now: SimTime,
        timeline: &[ClusterFaultEntry],
        tenants: &mut [Tenant],
        fabric: &mut P,
    ) {
        // The job's entire fabric footprint is torn down — queued and
        // in-flight transfers on *every* port, not just the dead one.
        // Ports stay up for co-tenants.
        fabric.cancel_where(now, &mut |tag| wire_owner(tag) == j);
        let Tenant::Train { state, cfg, .. } = &mut tenants[j] else {
            unreachable!("only training jobs migrate")
        };
        // The checkpoint barrier backs off so the resumed run keeps at
        // least the two iterations the measurement contract needs.
        let ckpt = state
            .completed_iterations()
            .min(cfg.iters.saturating_sub(2));
        let lost = state
            .debug_iterations()
            .into_iter()
            .max()
            .unwrap_or(0)
            .saturating_sub(ckpt);
        let model_bytes: u64 = cfg.model.layers.iter().map(|l| l.param_bytes).sum();
        let cost_secs = self.restart.total_secs(model_bytes);
        let earliest = now + SimTime::from_secs_f64(cost_secs);
        let machines = self.healthy.len();
        let Some((resume_at, new_nodes)) =
            find_placement(timeline, machines, state.nodes().fabric_nodes(), earliest)
        else {
            state.abort(
                format!(
                    "machine {failed_machine} failed and no healthy placement \
                     exists for {} nodes, now or at any scheduled restore",
                    state.nodes().fabric_nodes().len()
                ),
                now,
            );
            return;
        };
        let old_nodes: Vec<NodeId> = state.nodes().fabric_nodes().to_vec();
        let mut cfg2 = cfg.clone();
        cfg2.iters = cfg.iters - ckpt;
        cfg2.warmup = cfg.warmup.min(cfg2.iters - 2);
        let mut next = JobState::build_at(&cfg2, NodeMap::new(j, new_nodes.clone()), resume_at);
        next.emit_background();
        if self.scope_on {
            next.enable_scope(j);
        }
        next.scope_push(ScopeEvent::FaultFired {
            job: j,
            at: now,
            kind: "machine_down",
            node: failed_machine,
            scale: 0.0,
        });
        next.scope_push(ScopeEvent::Checkpoint {
            job: j,
            at: now,
            machine: failed_machine,
            iter: ckpt,
            cost_secs,
        });
        let mut moved: Vec<NodeMove> = Vec::new();
        for (local, (old, new)) in old_nodes.iter().zip(&new_nodes).enumerate() {
            if old != new {
                next.scope_push(ScopeEvent::Migrate {
                    job: j,
                    at: now,
                    node: local,
                    from_machine: old.0,
                    to_machine: new.0,
                });
                moved.push(NodeMove {
                    node: local,
                    from: old.0,
                    to: new.0,
                });
            }
        }
        next.scope_push(ScopeEvent::Resume {
            job: j,
            at: resume_at,
            iter: ckpt,
            lost_iters: lost,
        });
        self.migrations.push(MigrationRecord {
            job: j,
            at: now,
            resumed_at: resume_at,
            machine: failed_machine,
            checkpoint_iter: ckpt,
            lost_iters: lost,
            moved,
        });
        *state = next;
        *cfg = cfg2;
    }
}

/// Runs every job to completion on one shared fabric and reports
/// cluster-level metrics. Deterministic: the same specs and seeds produce
/// a bit-identical result (including the trace).
///
/// Panics if the cluster deadlocks before every training job finishes.
pub fn run_cluster(cluster: &ClusterConfig, specs: &[JobSpec]) -> ClusterResult {
    run_cluster_observed(cluster, specs, None)
}

/// [`run_cluster`] with an optional scope observation bus attached.
///
/// With a bus, every training tenant and the shared fabric publish
/// lifecycle events as they happen. Observation is recording-only; the
/// `scope_observation_is_recording_only` test pins that. The caller owns
/// the stream's close: call `bus.finish(makespan)` when no further runs
/// will publish onto it.
pub fn run_cluster_observed(
    cluster: &ClusterConfig,
    specs: &[JobSpec],
    mut scope: Option<&mut ScopeBus>,
) -> ClusterResult {
    assert!(!specs.is_empty(), "a cluster run needs at least one job");
    let placements = cluster.placement.place(cluster.machines, specs);
    // The cluster-scope fault timeline: the cluster plan's link changes
    // and machine failures, plus every tenant's hoisted job-private link
    // events — each applied to the shared fabric exactly once.
    let mut injector = ClusterFaultInjector::new();
    if let Some(plan) = &cluster.faults {
        let target = PlanTarget::Cluster {
            machines: cluster.machines,
        };
        if let Err(e) = plan.check_fits(target) {
            panic!("invalid cluster fault plan: {e}");
        }
        injector.add_plan(plan);
    }
    let mut fabric = Fabric::new(cluster.fabric, cluster.machines.max(2), cluster.net);
    let tap = fabric.tap();
    if cluster.record_trace || cluster.record_xray {
        tap.enable_wire_log();
    }
    if cluster.record_metrics {
        tap.enable_telemetry(SimTime::ZERO);
    }
    if cluster.record_contention {
        assert!(
            specs.len() <= CONTENTION_JOB_LIMIT,
            "contention recording tracks at most {CONTENTION_JOB_LIMIT} jobs per run; \
             this run has {}",
            specs.len()
        );
        tap.enable_contention(SimTime::ZERO, wire_owner);
    }

    let mut tenants: Vec<Tenant> = specs
        .iter()
        .zip(&placements)
        .enumerate()
        .map(|(j, (spec, nodes))| match spec {
            JobSpec::Train { arrival, cfg, .. } => {
                let mut cfg = cfg.clone();
                cfg.record_trace = cluster.record_trace;
                cfg.record_metrics = cluster.record_metrics;
                cfg.record_xray = cluster.record_xray;
                let node_map = NodeMap::new(j, nodes.clone());
                if cfg.faults.is_some() {
                    // A tenant's link events touch shared ports: they join
                    // the cluster timeline, translated to machines.
                    hoist_job_links(&mut injector, &mut cfg, &node_map);
                } else if let Some(cp) = &cluster.faults {
                    // The cluster plan's loss/straggler streams project
                    // onto every tenant without a private plan, each
                    // drawing from its own split-seed RNG stream (see
                    // `bs_faults::job_seed`).
                    cfg.faults = Some(FaultPlan {
                        loss_rate: cp.loss_rate,
                        stragglers: cp
                            .stragglers
                            .iter()
                            .filter(|s| s.worker < cfg.num_workers)
                            .copied()
                            .collect(),
                        recovery: cp.recovery,
                        ..FaultPlan::empty()
                    });
                }
                let state = JobState::build_at(&cfg, node_map, *arrival);
                Tenant::train(state, cfg, *arrival)
            }
            JobSpec::Burst {
                arrival,
                load,
                pairs,
                seed,
                ..
            } => Tenant::Burst {
                src: BurstSource::new(*load, *seed),
                nodes: NodeMap::new(j, nodes.clone()),
                pairs: *pairs,
                seed_at: *arrival,
                seeded: false,
                submits: Vec::new(),
            },
        })
        .collect();

    if let Some(bus) = scope.as_deref_mut() {
        fabric.tap().enable_scope(SimTime::ZERO, bus.window());
        for (j, tenant) in tenants.iter_mut().enumerate() {
            if let Tenant::Train { state, .. } = tenant {
                state.enable_scope(j);
            }
        }
    }

    // Per-job traffic attribution; per-machine totals are the fabric
    // tap's. The per-(job, machine) share matrix is recording-only, like
    // every other telemetry path.
    let mut hooks = ClusterHooks {
        job_bytes: vec![0u64; tenants.len()],
        job_events: vec![0u64; tenants.len()],
        job_nic_bytes: cluster
            .record_metrics
            .then(|| vec![vec![(0u64, 0u64); cluster.machines]; tenants.len()]),
        healthy: vec![true; cluster.machines],
        reaction: cluster.reaction,
        restart: RestartCost::paper_default(),
        scope_on: scope.is_some(),
        migrations: Vec::new(),
    };
    injector.seal();
    let faults = (!injector.is_empty()).then_some(&mut injector);
    let (makespan, wires) = driver::drive(
        &mut tenants,
        &mut fabric,
        faults,
        &mut hooks,
        scope.as_deref_mut(),
    );
    if let Some(bus) = scope {
        // The bus itself stays open: the caller may chain further runs,
        // e.g. replay waves, onto it.
        driver::finish_scope(&mut fabric, &mut tenants, makespan, bus);
    }
    let ClusterHooks {
        job_bytes,
        job_events,
        job_nic_bytes,
        migrations,
        ..
    } = hooks;
    // Xray and the span trace read one wire log: each training job
    // gets its own records under job-local tags, and the trace gets
    // every record's wire span under its job's prefix.
    let mut trace = cluster.record_trace.then(Trace::new);
    let mut per_job: Vec<Vec<WireXrayRecord>> = vec![Vec::new(); tenants.len()];
    for (j, rec) in wires.resolve_log(fabric.tap().take_wire_log()) {
        if let Some(trace) = trace.as_mut() {
            wire_span_into_trace(trace, &rec, &format!("job{j}/"));
        }
        if cluster.record_xray {
            per_job[j].push(rec);
        }
    }

    let peak_in_flight = fabric.peak_in_flight();
    let peak_port_utilisation = fabric.peak_port_utilisation(makespan);
    let fabric_events = fabric.transfers_delivered();
    let tap = fabric.tap();
    let machine_bytes: Vec<(u64, u64)> = (0..cluster.machines).map(|m| tap.node_bytes(m)).collect();

    // Cluster-level metrics: the shared fabric's telemetry plus each
    // tenant's share of every NIC's delivered traffic.
    let mut metrics = cluster.record_metrics.then(MetricSet::new);
    if let Some(ms) = metrics.as_mut() {
        ms.horizon = makespan;
        if let Some(fm) = fabric.tap().take_metrics(makespan) {
            ms.absorb("net/", fm);
        }
        if let Some(share) = &job_nic_bytes {
            for (j, per_machine) in share.iter().enumerate() {
                for (m, &(up, down)) in per_machine.iter().enumerate() {
                    if up == 0 && down == 0 {
                        continue;
                    }
                    ms.counter(format!("job{j}/nic{m}/up_bytes"), up);
                    ms.counter(format!("job{j}/nic{m}/down_bytes"), down);
                    let frac = |part: u64, total: u64| {
                        if total > 0 {
                            part as f64 / total as f64
                        } else {
                            0.0
                        }
                    };
                    let (up_total, down_total) = machine_bytes[m];
                    ms.gauge(format!("job{j}/nic{m}/up_share"), frac(up, up_total));
                    ms.gauge(format!("job{j}/nic{m}/down_share"), frac(down, down_total));
                }
            }
        }
    }

    let contention = fabric.tap().take_contention().map(|log| {
        let names = specs.iter().map(|s| s.name().to_string()).collect();
        ContentionMatrix::reduce(&log, makespan, names)
    });

    if let (Some(trace), Some(ms)) = (trace.as_mut(), metrics.as_ref()) {
        for t in ms.counter_tracks() {
            trace.push_counter(t.name, t.samples);
        }
    }

    let mut outcomes: Vec<JobOutcome> = Vec::new();
    for (j, (spec, tenant)) in specs.iter().zip(tenants).enumerate() {
        let Tenant::Train {
            state,
            cfg,
            arrival,
            finished,
        } = tenant
        else {
            continue;
        };
        let finished_at = finished.expect("training job finished");
        // Report the machines the job *ended* on — identical to the
        // placement unless the recovery loop migrated it.
        let machines: Vec<usize> = state.nodes().fabric_nodes().iter().map(|n| n.0).collect();
        let net = JobNetStats {
            p2p_bytes: job_bytes[j],
            comm_events: job_events[j],
            peak_in_flight,
            peak_port_utilisation,
        };
        let mut result = state.close_out(
            &cfg,
            finished_at,
            net,
            std::mem::take(&mut per_job[j]),
            trace.as_mut(),
            &format!("job{j}/"),
        );
        // A migrated job finished, but not unscathed: surface each
        // checkpoint/migrate cycle as a reroute so the outcome can never
        // read as a clean completion.
        let migs = migrations.iter().filter(|m| m.job == j).count() as u64;
        if migs > 0 {
            result.outcome = match result.outcome {
                RunOutcome::Completed => RunOutcome::DegradedCompleted {
                    retries: 0,
                    reroutes: migs,
                },
                RunOutcome::DegradedCompleted { retries, reroutes } => {
                    RunOutcome::DegradedCompleted {
                        retries,
                        reroutes: reroutes + migs,
                    }
                }
                failed => failed,
            };
        }
        outcomes.push(JobOutcome {
            name: spec.name().to_string(),
            arrival,
            finished_at,
            jct: finished_at - arrival,
            machines,
            result,
        });
    }
    assert!(
        !outcomes.is_empty(),
        "a cluster run needs at least one training job"
    );

    let throughputs: Vec<f64> = outcomes.iter().map(|o| 1.0 / o.jct.as_secs_f64()).collect();
    let capacity = cluster.net.bytes_per_sec() * makespan.as_secs_f64();
    let util = |bytes: u64| {
        if capacity > 0.0 {
            bytes as f64 / capacity
        } else {
            0.0
        }
    };
    let link_utilisation = machine_bytes
        .iter()
        .enumerate()
        .map(|(m, &(up, down))| LinkUtil {
            machine: m,
            up: util(up),
            down: util(down),
        })
        .collect();

    ClusterResult {
        jobs: outcomes,
        makespan,
        jain_fairness: jain_index(&throughputs),
        link_utilisation,
        fabric_events,
        trace,
        metrics,
        contention,
        migrations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlacementPolicy;
    use bs_engine::EngineConfig;
    use bs_net::{FabricModel, NetConfig, Transport};
    use bs_runtime::{Arch, BackgroundLoad, SchedulerKind, WorldConfig};
    use bs_sim::SimTime;

    /// The runtime test-suite's comm-heavy toy: a big first tensor.
    fn comm_heavy() -> bs_models::DnnModel {
        use bs_models::{GpuSpec, ModelBuilder, SampleUnit};
        let gpu = GpuSpec::custom(1e12, 2.0);
        ModelBuilder::new("toy", gpu, 8, SampleUnit::Images)
            .explicit(
                "l0",
                40_000_000,
                SimTime::from_millis(4),
                SimTime::from_millis(8),
            )
            .explicit(
                "l1",
                5_000_000,
                SimTime::from_millis(4),
                SimTime::from_millis(8),
            )
            .explicit(
                "l2",
                5_000_000,
                SimTime::from_millis(4),
                SimTime::from_millis(8),
            )
            .build()
    }

    fn job_cfg(sched: SchedulerKind, seed: u64) -> WorldConfig {
        let mut c = WorldConfig::new(
            comm_heavy(),
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

    fn bs() -> SchedulerKind {
        SchedulerKind::ByteScheduler {
            partition: 2_000_000,
            credit: 8_000_000,
        }
    }

    #[test]
    fn single_job_cluster_matches_solo_run() {
        let cfg = job_cfg(bs(), 11);
        let solo = bs_runtime::run(&cfg);
        let cluster = ClusterConfig::new(4, cfg.net);
        let r = run_cluster(&cluster, &[JobSpec::train("solo", cfg)]);
        assert_eq!(r.jobs.len(), 1);
        let j = &r.jobs[0];
        assert_eq!(j.result.speed, solo.speed);
        assert_eq!(j.finished_at, solo.finished_at);
        assert_eq!(j.result.p2p_bytes, solo.p2p_bytes);
        assert_eq!(j.result.comm_events, solo.comm_events);
        assert_eq!(r.makespan, solo.finished_at);
        assert_eq!(r.jain_fairness, 1.0);
    }

    #[test]
    fn cluster_runs_are_deterministic() {
        let mut cluster = ClusterConfig::new(4, NetConfig::gbps(10.0, Transport::tcp()));
        cluster.placement = PlacementPolicy::Packed;
        cluster.record_trace = true;
        let specs = vec![
            JobSpec::train("a", job_cfg(bs(), 3)),
            JobSpec::train("b", job_cfg(SchedulerKind::Baseline, 4)),
        ];
        let r1 = run_cluster(&cluster, &specs);
        let r2 = run_cluster(&cluster, &specs);
        assert_eq!(r1.makespan, r2.makespan);
        assert_eq!(r1.jain_fairness, r2.jain_fairness);
        let t1 = r1.trace.unwrap().to_chrome_json();
        let t2 = r2.trace.unwrap().to_chrome_json();
        assert_eq!(t1, t2, "same seed must give a bit-identical trace");
    }

    #[test]
    fn packed_jobs_contend_and_slow_each_other_down() {
        let cfg = job_cfg(bs(), 5);
        let solo = bs_runtime::run(&cfg);
        let mut cluster = ClusterConfig::new(4, cfg.net);
        cluster.placement = PlacementPolicy::Packed;
        let specs = vec![
            JobSpec::train("a", job_cfg(bs(), 5)),
            JobSpec::train("b", job_cfg(bs(), 6)),
        ];
        let r = run_cluster(&cluster, &specs);
        for j in &r.jobs {
            assert!(
                j.result.speed < solo.speed * 0.95,
                "sharing every NIC must cost real throughput: {} vs solo {}",
                j.result.speed,
                solo.speed
            );
        }
    }

    #[test]
    fn spread_placement_isolates_when_cluster_has_room() {
        let mut packed = ClusterConfig::new(8, NetConfig::gbps(10.0, Transport::tcp()));
        packed.placement = PlacementPolicy::Packed;
        let mut spread = packed.clone();
        spread.placement = PlacementPolicy::RoundRobinSpread;
        let specs = vec![
            JobSpec::train("a", job_cfg(bs(), 5)),
            JobSpec::train("b", job_cfg(bs(), 6)),
        ];
        let rp = run_cluster(&packed, &specs);
        let rs = run_cluster(&spread, &specs);
        assert!(
            rs.makespan < rp.makespan,
            "disjoint placement must finish sooner: {} vs {}",
            rs.makespan,
            rp.makespan
        );
    }

    #[test]
    fn burst_tenant_slows_a_colocated_job() {
        let specs_solo = vec![JobSpec::train("a", job_cfg(bs(), 5))];
        let mut cluster = ClusterConfig::new(4, NetConfig::gbps(10.0, Transport::tcp()));
        cluster.placement = PlacementPolicy::Packed;
        let solo = run_cluster(&cluster, &specs_solo);
        let specs = vec![
            JobSpec::train("a", job_cfg(bs(), 5)),
            JobSpec::burst(
                "cross-traffic",
                BackgroundLoad {
                    burst_bytes: 4 << 20,
                    gap_us: 200,
                },
                2,
                99,
            ),
        ];
        let r = run_cluster(&cluster, &specs);
        assert_eq!(r.jobs.len(), 1, "burst tenants produce no outcome");
        assert!(
            r.jobs[0].result.speed < solo.jobs[0].result.speed,
            "co-located bursts must cost throughput: {} vs {}",
            r.jobs[0].result.speed,
            solo.jobs[0].result.speed
        );
    }

    #[test]
    fn recorded_metrics_cover_jobs_fabric_and_nic_shares() {
        let mut cluster = ClusterConfig::new(4, NetConfig::gbps(10.0, Transport::tcp()));
        cluster.placement = PlacementPolicy::Packed;
        let specs = vec![
            JobSpec::train("a", job_cfg(bs(), 3)),
            JobSpec::train("b", job_cfg(SchedulerKind::Baseline, 4)),
        ];
        let plain = run_cluster(&cluster, &specs);
        assert!(plain.metrics.is_none());
        assert!(plain.jobs.iter().all(|j| j.result.metrics.is_none()));

        cluster.record_metrics = true;
        cluster.record_trace = true;
        let r = run_cluster(&cluster, &specs);
        // Telemetry is recording-only: the simulation is unchanged.
        assert_eq!(r.makespan, plain.makespan);
        assert_eq!(r.jobs[0].result.speed, plain.jobs[0].result.speed);

        let ms = r.metrics.as_ref().expect("cluster metrics");
        assert_eq!(ms.horizon, r.makespan);
        assert!(ms.get_series("net/nic0/up_util").is_some());
        // Packed placement: both jobs share every NIC, and their shares
        // of each NIC's delivered bytes sum to 1.
        for m in 0..4 {
            let s0 = ms.get_gauge(&format!("job0/nic{m}/up_share"));
            let s1 = ms.get_gauge(&format!("job1/nic{m}/up_share"));
            let (s0, s1) = (s0.expect("job0 share"), s1.expect("job1 share"));
            assert!(s0 > 0.0 && s1 > 0.0);
            assert!((s0 + s1 - 1.0).abs() < 1e-12);
        }
        // Each job carries its own scheduler/GPU telemetry and stall
        // accounting closed at its own finish time.
        for j in &r.jobs {
            let jm = j.result.metrics.as_ref().expect("job metrics");
            assert_eq!(jm.horizon, j.finished_at);
            assert!(jm.get_gauge("worker0/comm_stall_secs").expect("stall") > 0.0);
            assert!(jm.get_series("worker0/gpu_busy").is_some());
        }
        // The merged trace carries job-prefixed counter tracks.
        let trace = r.trace.as_ref().expect("trace");
        assert!(trace.counters.iter().any(|t| t.name.starts_with("job1/")));
        assert!(trace.counters.iter().any(|t| t.name.starts_with("net/")));
    }

    #[test]
    fn recorded_xray_attributes_each_job_independently() {
        let mut cluster = ClusterConfig::new(4, NetConfig::gbps(10.0, Transport::tcp()));
        cluster.placement = PlacementPolicy::Packed;
        let specs = vec![
            JobSpec::train("a", job_cfg(bs(), 3)),
            JobSpec::train("b", job_cfg(SchedulerKind::Baseline, 4)),
        ];
        let plain = run_cluster(&cluster, &specs);
        assert!(plain.jobs.iter().all(|j| j.result.xray.is_none()));

        cluster.record_xray = true;
        cluster.record_trace = true;
        let r = run_cluster(&cluster, &specs);
        // Recording-only: the shared simulation is unchanged.
        assert_eq!(r.makespan, plain.makespan);
        for (j, p) in r.jobs.iter().zip(&plain.jobs) {
            assert_eq!(j.result.speed, p.result.speed);
            let x = j.result.xray.as_ref().expect("per-job xray");
            for it in &x.iterations {
                assert_eq!(it.attribution.total_ns(), it.wall_ns());
            }
            assert_eq!(x.totals.total_ns(), x.measured_wall_ns);
            assert!(x.totals.wire_ns > 0, "contended jobs spend wire time");
        }
        assert_eq!(
            r.jobs[0].result.xray.as_ref().unwrap().scheduler,
            "ByteScheduler"
        );
        // Flow arrows land in the merged trace under job prefixes.
        let trace = r.trace.as_ref().expect("trace");
        assert!(trace
            .flows
            .iter()
            .any(|f| f.from_track.starts_with("job1/")));
    }

    #[test]
    fn recorded_contention_measures_link_overlap() {
        let mut cluster = ClusterConfig::new(4, NetConfig::gbps(10.0, Transport::tcp()));
        cluster.placement = PlacementPolicy::Packed;
        let specs = vec![
            JobSpec::train("a", job_cfg(bs(), 3)),
            JobSpec::train("b", job_cfg(SchedulerKind::Baseline, 4)),
        ];
        let plain = run_cluster(&cluster, &specs);
        assert!(plain.contention.is_none());

        cluster.record_contention = true;
        let r = run_cluster(&cluster, &specs);
        // Recording-only: the shared simulation is unchanged.
        assert_eq!(r.makespan, plain.makespan);
        assert_eq!(r.jobs[0].result.speed, plain.jobs[0].result.speed);

        let m = r.contention.as_ref().expect("contention matrix");
        assert_eq!(m.schema_version, crate::CONTENTION_SCHEMA_VERSION);
        assert_eq!(m.horizon, r.makespan);
        assert_eq!(m.jobs, vec!["a".to_string(), "b".to_string()]);
        // Packed placement: both PS jobs push traffic through every
        // machine's NIC in both directions.
        assert_eq!(m.links.len(), 2 * cluster.machines);
        for l in &m.links {
            assert!(l.busy_secs > 0.0, "machine {} idle", l.machine);
            assert!(l.contended_secs <= l.busy_secs + 1e-12);
            assert_eq!(l.jobs.len(), 2, "both tenants touch every NIC");
            for s in &l.jobs {
                assert!(s.active_secs > 0.0);
                assert!(s.solo_bytes >= 0.0 && s.contended_bytes >= 0.0);
            }
        }
        assert!(
            m.links.iter().any(|l| l.contended_secs > 0.0),
            "co-located tenants must collide somewhere"
        );
        // Exactly one pair, genuinely overlapping.
        assert_eq!(m.pairs.len(), 1);
        let p = &m.pairs[0];
        assert_eq!((p.a, p.b), (0, 1));
        assert!(p.overlap_secs > 0.0);
        assert!(p.phase_collision > 0.0 && p.phase_collision <= 1.0);

        // Byte-deterministic: a repeat run renders identical JSON.
        let again = run_cluster(&cluster, &specs);
        assert_eq!(
            serde_json::to_string_pretty(m).unwrap(),
            serde_json::to_string_pretty(again.contention.as_ref().unwrap()).unwrap()
        );
    }

    /// An all-reduce tenant: its collective stream is private (zero
    /// shared-fabric nodes).
    fn ar_cfg(seed: u64) -> WorldConfig {
        let mut c = WorldConfig::new(
            comm_heavy(),
            2,
            Arch::allreduce(),
            NetConfig::gbps(10.0, Transport::tcp()),
            bs_engine::EngineConfig::mxnet_allreduce(),
            bs(),
        );
        c.iters = 8;
        c.warmup = 2;
        c.jitter = 0.02;
        c.seed = seed;
        c
    }

    /// The complete observable surface of a run — outcomes, metrics,
    /// xray, trace, link utilisation — rendered to JSON. Floats use
    /// shortest-round-trip formatting, so string equality is bit
    /// equality.
    fn full_fingerprint(r: &ClusterResult) -> String {
        serde_json::to_string(r).expect("serialize cluster result")
    }

    /// The observability contract: attaching a scope bus changes nothing
    /// observable (recording-only) on either fabric, and the bus really
    /// records the run.
    #[test]
    fn scope_observation_is_recording_only() {
        use bs_scope::{FlightRecorder, ScopeBus};
        for fabric in [FabricModel::SerialFifo, FabricModel::FairShare] {
            let mut cluster = ClusterConfig::new(6, NetConfig::gbps(10.0, Transport::tcp()));
            cluster.fabric = fabric;
            cluster.placement = PlacementPolicy::Packed;
            let specs = vec![
                JobSpec::train("a", job_cfg(bs(), 21)),
                JobSpec::train("b", job_cfg(SchedulerKind::Baseline, 22)),
                JobSpec::train("ring", ar_cfg(23)),
                JobSpec::burst(
                    "bg",
                    BackgroundLoad {
                        burst_bytes: 1 << 20,
                        gap_us: 500,
                    },
                    1,
                    99,
                ),
            ];
            let plain = full_fingerprint(&run_cluster(&cluster, &specs));
            let mut bus = ScopeBus::new();
            let (rec, handle) = FlightRecorder::new();
            bus.subscribe(Box::new(rec));
            let r = run_cluster_observed(&cluster, &specs, Some(&mut bus));
            bus.finish(r.makespan);
            assert_eq!(
                full_fingerprint(&r),
                plain,
                "{fabric:?}: observation must be recording-only"
            );
            assert!(
                handle.to_jsonl().lines().count() > 10,
                "{fabric:?}: the bus must actually record the run"
            );
        }
    }

    /// A cluster plan failing machine 1 mid-run, restored much later.
    fn failure_plan(at_us: u64, restore_us: Option<u64>) -> bs_faults::FaultPlan {
        bs_faults::FaultPlan {
            machine_failures: vec![bs_faults::MachineFailure {
                machine: 1,
                at_us,
                restore_us,
            }],
            ..bs_faults::FaultPlan::empty()
        }
    }

    #[test]
    fn machine_failure_checkpoints_migrates_and_degrades_outcome() {
        // Five machines, job packed on 0..4: machine 4 is the spare the
        // health-aware remap must pick when machine 1 dies.
        let mut cluster = ClusterConfig::new(5, NetConfig::gbps(10.0, Transport::tcp()));
        cluster.placement = PlacementPolicy::Packed;
        cluster.faults = Some(failure_plan(150_000, None));
        let specs = vec![JobSpec::train("victim", job_cfg(bs(), 7))];
        let r = run_cluster(&cluster, &specs);

        assert_eq!(r.migrations.len(), 1, "one failure, one migration");
        let m = &r.migrations[0];
        assert_eq!((m.job, m.machine), (0, 1));
        assert_eq!(m.at, SimTime::from_micros(150_000));
        // §7 cost for the 50 MB toy model: 5 s fixed + 50e6 / 25e6 = 7 s.
        assert_eq!(
            m.resumed_at,
            m.at + SimTime::from_secs_f64(7.0),
            "resume must pay exactly the checkpoint-restart cost"
        );
        assert_eq!(
            m.moved,
            vec![crate::NodeMove {
                node: 1,
                from: 1,
                to: 4
            }]
        );

        let j = &r.jobs[0];
        assert_eq!(
            j.machines,
            vec![0, 4, 2, 3],
            "outcome reports final placement"
        );
        match j.result.outcome {
            RunOutcome::DegradedCompleted { reroutes, .. } => {
                assert!(reroutes >= 1, "migration must surface as a reroute")
            }
            ref o => panic!("migrated job must not read as clean: {o:?}"),
        }
        // The job still finished all its work: restart cost plus re-run
        // iterations push completion past the solo run.
        let solo = bs_runtime::run(&job_cfg(bs(), 7));
        assert!(
            j.finished_at > solo.finished_at + SimTime::from_secs(6),
            "outage must cost real time: {} vs solo {}",
            j.finished_at,
            solo.finished_at
        );
    }

    #[test]
    fn migrated_job_keeps_its_co_tenant_load() {
        let mut cluster = ClusterConfig::new(5, NetConfig::gbps(10.0, Transport::tcp()));
        cluster.placement = PlacementPolicy::Packed;
        cluster.faults = Some(failure_plan(150_000, None));
        cluster.record_trace = true;
        let mut cfg = job_cfg(bs(), 7);
        cfg.background = Some(BackgroundLoad {
            burst_bytes: 1 << 20,
            gap_us: 500,
        });
        let r = run_cluster(&cluster, &[JobSpec::train("victim", cfg)]);
        assert_eq!(r.migrations.len(), 1, "one failure, one migration");
        let resumed = r.migrations[0].resumed_at;
        let trace = r.trace.expect("trace recorded");
        assert!(
            trace
                .spans
                .iter()
                .any(|s| s.name == "co-tenant burst" && s.start > resumed),
            "the co-tenant load must survive the migration (resumed at {resumed})"
        );
    }

    #[test]
    fn checkpoint_migrate_beats_no_reaction_on_makespan() {
        // The dead NIC holds the job's PS shard; without migration every
        // push/pull through machine 1 waits out the 30 s outage, while
        // the reactive driver pays ~9 s restart plus re-run time.
        let net = NetConfig::gbps(10.0, Transport::tcp());
        let specs = vec![JobSpec::train("victim", job_cfg(bs(), 7))];
        let mut reactive = ClusterConfig::new(5, net);
        reactive.placement = PlacementPolicy::Packed;
        reactive.faults = Some(failure_plan(150_000, Some(30_000_000)));
        let mut passive = reactive.clone();
        passive.reaction = FaultReaction::None;
        let rm = run_cluster(&reactive, &specs);
        let rn = run_cluster(&passive, &specs);
        assert_eq!(rm.migrations.len(), 1);
        assert!(rn.migrations.is_empty(), "no reaction, no migrations");
        assert!(
            rm.makespan < rn.makespan,
            "checkpoint+migrate must beat riding out the outage: {} vs {}",
            rm.makespan,
            rn.makespan
        );
    }

    #[test]
    fn unplaceable_job_fails_closed() {
        // Four machines, the job needs all four, machine 1 never
        // restores: no placement can exist, the job must fail — not hang.
        let mut cluster = ClusterConfig::new(4, NetConfig::gbps(10.0, Transport::tcp()));
        cluster.placement = PlacementPolicy::Packed;
        cluster.faults = Some(failure_plan(150_000, None));
        let specs = vec![JobSpec::train("doomed", job_cfg(bs(), 7))];
        let r = run_cluster(&cluster, &specs);
        assert!(r.migrations.is_empty());
        match &r.jobs[0].result.outcome {
            RunOutcome::Failed { reason } => {
                assert!(reason.contains("no healthy placement"), "{reason}")
            }
            o => panic!("expected fail-closed, got {o:?}"),
        }
        assert_eq!(
            r.jobs[0].finished_at,
            SimTime::from_micros(150_000),
            "a doomed job fails at the outage instant"
        );
    }

    #[test]
    fn never_restored_machine_fails_a_passive_job_closed() {
        // No reaction and machine 1 never comes back: the job cannot
        // ride the outage out, so it fails at the outage instant instead
        // of stalling the run.
        for fabric in [FabricModel::SerialFifo, FabricModel::FairShare] {
            let mut cluster = ClusterConfig::new(5, NetConfig::gbps(10.0, Transport::tcp()));
            cluster.fabric = fabric;
            cluster.placement = PlacementPolicy::Packed;
            cluster.reaction = FaultReaction::None;
            cluster.faults = Some(failure_plan(150_000, None));
            let specs = vec![JobSpec::train("stranded", job_cfg(bs(), 7))];
            let r = run_cluster(&cluster, &specs);
            assert!(
                r.migrations.is_empty(),
                "{fabric:?}: no reaction, no migrations"
            );
            match &r.jobs[0].result.outcome {
                RunOutcome::Failed { reason } => {
                    assert!(reason.contains("machine 1"), "{fabric:?}: {reason}")
                }
                o => panic!("{fabric:?}: expected fail-closed, got {o:?}"),
            }
            assert_eq!(r.jobs[0].finished_at, SimTime::from_micros(150_000));
        }
    }

    #[test]
    fn flap_ending_inside_a_machine_outage_keeps_the_port_down() {
        // Machine 1 (a worker of the packed job) flaps at 100 ms and
        // fails at 150 ms until 60 s; the flap ends at 300 ms. The port
        // must stay down until the restore, so riding the outage out
        // takes past 60 s.
        let mut plan = failure_plan(150_000, Some(60_000_000));
        plan.flaps = vec![bs_faults::LinkFlap {
            node: 1,
            from_us: 100_000,
            to_us: 300_000,
        }];
        for fabric in [FabricModel::SerialFifo, FabricModel::FairShare] {
            let mut cluster = ClusterConfig::new(5, NetConfig::gbps(10.0, Transport::tcp()));
            cluster.fabric = fabric;
            cluster.placement = PlacementPolicy::Packed;
            cluster.reaction = FaultReaction::None;
            cluster.faults = Some(plan.clone());
            let r = run_cluster(&cluster, &[JobSpec::train("rider", job_cfg(bs(), 7))]);
            assert!(
                r.makespan > SimTime::from_secs_f64(60.0),
                "{fabric:?}: the flap's end revived a dead machine's port (makespan {})",
                r.makespan
            );
        }
    }

    #[test]
    fn second_failure_inside_a_migration_window_migrates_again() {
        // Machine 1 fails at 150 ms: the job moves its node to spare
        // machine 4 and resumes 7 s later. At 1 s, before that resume,
        // machine 2 of its new placement fails until 3 s: the job is
        // checkpointed again and resumes once capacity exists.
        let mut plan = failure_plan(150_000, Some(60_000_000));
        plan.machine_failures.push(bs_faults::MachineFailure {
            machine: 2,
            at_us: 1_000_000,
            restore_us: Some(3_000_000),
        });
        for fabric in [FabricModel::SerialFifo, FabricModel::FairShare] {
            let mut cluster = ClusterConfig::new(5, NetConfig::gbps(10.0, Transport::tcp()));
            cluster.fabric = fabric;
            cluster.placement = PlacementPolicy::Packed;
            cluster.faults = Some(plan.clone());
            let specs = vec![JobSpec::train("twice", job_cfg(bs(), 7))];
            let r = run_cluster(&cluster, &specs);
            assert_eq!(
                r.migrations.len(),
                2,
                "{fabric:?}: two failures, two migrations"
            );
            let (first, second) = (&r.migrations[0], &r.migrations[1]);
            assert_eq!((first.machine, second.machine), (1, 2), "{fabric:?}");
            assert!(
                first.at < second.at && second.at < first.resumed_at,
                "{fabric:?}: the second failure must land inside the first window \
                 ({} < {} < {})",
                first.at,
                second.at,
                first.resumed_at
            );
            assert!(
                matches!(
                    r.jobs[0].result.outcome,
                    RunOutcome::DegradedCompleted { .. }
                ),
                "{fabric:?}: {:?}",
                r.jobs[0].result.outcome
            );
            assert_eq!(
                full_fingerprint(&r),
                full_fingerprint(&run_cluster(&cluster, &specs)),
                "{fabric:?}: reruns must be byte-identical"
            );
        }
    }

    #[test]
    fn capacity_shortage_defers_resume_to_the_restore() {
        // Four machines, job on all four: the remap has no spare, but the
        // failed machine restores at 20 s — the pending queue resumes the
        // job there instead of failing it.
        let mut cluster = ClusterConfig::new(4, NetConfig::gbps(10.0, Transport::tcp()));
        cluster.placement = PlacementPolicy::Packed;
        cluster.faults = Some(failure_plan(150_000, Some(20_000_000)));
        let specs = vec![JobSpec::train("patient", job_cfg(bs(), 7))];
        let r = run_cluster(&cluster, &specs);
        assert_eq!(r.migrations.len(), 1);
        let m = &r.migrations[0];
        assert_eq!(
            m.resumed_at,
            SimTime::from_micros(20_000_000),
            "resume waits for the restore, not just the restart cost"
        );
        assert!(m.moved.is_empty(), "the job resumes on its original nodes");
        assert!(matches!(
            r.jobs[0].result.outcome,
            RunOutcome::DegradedCompleted { .. }
        ));
    }

    /// The hoisted-fault path is the solo injector path: a single-job
    /// cluster whose job carries a full link-level plan (scales, a flap,
    /// loss) replays bit-for-bit against `bs_runtime::run`.
    #[test]
    fn single_job_cluster_with_link_plan_matches_solo() {
        use bs_faults::{LinkDir, LinkEvent, LinkFlap, RecoveryPolicy};
        let mut cfg = job_cfg(bs(), 11);
        cfg.faults = Some(bs_faults::FaultPlan {
            link_events: vec![
                LinkEvent {
                    at_us: 100_000,
                    node: 2,
                    dir: LinkDir::Down,
                    scale: 0.25,
                },
                LinkEvent {
                    at_us: 300_000,
                    node: 2,
                    dir: LinkDir::Down,
                    scale: 1.0,
                },
            ],
            flaps: vec![LinkFlap {
                node: 0,
                from_us: 150_000,
                to_us: 180_000,
            }],
            loss_rate: 0.02,
            recovery: RecoveryPolicy {
                timeout_us: 1_000,
                max_retries: 20,
            },
            ..bs_faults::FaultPlan::empty()
        });
        let solo = bs_runtime::run(&cfg);
        let cluster = ClusterConfig::new(4, cfg.net);
        let r = run_cluster(&cluster, &[JobSpec::train("solo", cfg)]);
        let j = &r.jobs[0];
        assert_eq!(j.result.outcome, solo.outcome);
        assert_eq!(j.result.speed, solo.speed);
        assert_eq!(j.finished_at, solo.finished_at);
        assert_eq!(j.result.p2p_bytes, solo.p2p_bytes);
        assert_eq!(j.result.comm_events, solo.comm_events);
        assert_eq!(j.result.iter_times, solo.iter_times);
    }

    /// A flap owner that fails mid-flap does not take its flap with it:
    /// while a co-located tenant still runs, the owner's remaining link
    /// changes fire, so the shared port comes back and the neighbour
    /// finishes.
    #[test]
    fn failed_flap_owner_still_restores_the_shared_port() {
        use bs_faults::{FaultPlan, LinkFlap, RecoveryPolicy};
        use bs_scope::{Collector, ScopeBus};
        let (down, up) = (SimTime::from_micros(40_000), SimTime::from_micros(70_000));
        let mut owner = job_cfg(bs(), 5);
        owner.faults = Some(FaultPlan {
            flaps: vec![LinkFlap {
                node: 0,
                from_us: 40_000,
                to_us: 70_000,
            }],
            recovery: RecoveryPolicy {
                timeout_us: 1_000,
                max_retries: 0,
            },
            ..FaultPlan::empty()
        });
        // Packed on a fair-share fabric: both jobs' transfers cross
        // machine 0 concurrently, so the flap kills some of each.
        let mut cluster = ClusterConfig::new(4, NetConfig::gbps(10.0, Transport::tcp()));
        cluster.fabric = FabricModel::FairShare;
        cluster.placement = PlacementPolicy::Packed;
        let specs = vec![
            JobSpec::train("owner", owner),
            JobSpec::train("neighbour", job_cfg(bs(), 6)),
        ];
        let mut bus = ScopeBus::new();
        let (collector, log) = Collector::new();
        bus.subscribe(Box::new(collector));
        let r = run_cluster_observed(&cluster, &specs, Some(&mut bus));
        let (owner, neighbour) = (&r.jobs[0], &r.jobs[1]);
        assert!(
            matches!(owner.result.outcome, RunOutcome::Failed { .. }),
            "the owner must fail at flap-down, got {:?}",
            owner.result.outcome
        );
        assert_eq!(owner.finished_at, down);
        assert!(
            !matches!(neighbour.result.outcome, RunOutcome::Failed { .. }),
            "the neighbour must complete, got {:?}",
            neighbour.result.outcome
        );
        assert!(
            neighbour.finished_at > up,
            "the neighbour ran across the flap"
        );
        let fired: Vec<(&str, SimTime)> = log
            .events()
            .into_iter()
            .filter_map(|e| match e {
                ScopeEvent::FaultFired { job, kind, at, .. } => {
                    assert_eq!(job, 0, "only the owner's flap fires");
                    Some((kind, at))
                }
                _ => None,
            })
            .collect();
        assert_eq!(fired, vec![("flap_down", down), ("flap_up", up)]);
    }

    #[test]
    fn late_arrival_shifts_completion_not_jct_much() {
        let mut cluster = ClusterConfig::new(8, NetConfig::gbps(10.0, Transport::tcp()));
        cluster.placement = PlacementPolicy::RoundRobinSpread;
        let arrival = SimTime::from_millis(500);
        let specs = vec![
            JobSpec::train("early", job_cfg(bs(), 5)),
            JobSpec::train_at("late", job_cfg(bs(), 6), arrival),
        ];
        let r = run_cluster(&cluster, &specs);
        let late = &r.jobs[1];
        assert_eq!(late.arrival, arrival);
        assert!(late.finished_at > arrival);
        assert_eq!(late.jct, late.finished_at - arrival);
        assert!(r.makespan >= late.finished_at.max(r.jobs[0].finished_at));
    }

    /// A 1-worker, 1-shard PS job on a two-layer model small enough to
    /// run a thousand iterations in a debug build.
    fn tiny_ps(iters: u64, seed: u64) -> WorldConfig {
        use bs_models::{GpuSpec, ModelBuilder, SampleUnit};
        let (fwd, bwd) = (SimTime::from_micros(50), SimTime::from_micros(100));
        let model = ModelBuilder::new("tiny", GpuSpec::custom(1e12, 2.0), 8, SampleUnit::Images)
            .explicit("l0", 100_000, fwd, bwd)
            .explicit("l1", 100_000, fwd, bwd)
            .build();
        let mut c = WorldConfig::new(
            model,
            1,
            Arch::ps(1),
            NetConfig::gbps(10.0, Transport::tcp()),
            EngineConfig::mxnet_ps(),
            SchedulerKind::Baseline,
        );
        c.iters = iters;
        c.warmup = 1;
        c.seed = seed;
        c
    }

    #[test]
    fn ps_cluster_runs_past_1024_iterations() {
        // Tokens of iteration 1024 on set bit 58 and up: nothing may
        // read a tenant out of those bits.
        let mut cluster = ClusterConfig::new(2, NetConfig::gbps(10.0, Transport::tcp()));
        cluster.placement = PlacementPolicy::Packed;
        let specs = vec![
            JobSpec::train("a", tiny_ps(1030, 1)),
            JobSpec::train("b", tiny_ps(1030, 2)),
        ];
        let r = run_cluster(&cluster, &specs);
        for j in &r.jobs {
            assert_eq!(j.result.outcome, RunOutcome::Completed);
            assert_eq!(j.result.iter_times.len(), 1028);
            assert_eq!(j.result.p2p_bytes, 1030 * 2 * 200_000);
        }
    }

    #[test]
    fn forty_tenants_share_one_fabric() {
        let mut cluster = ClusterConfig::new(8, NetConfig::gbps(10.0, Transport::tcp()));
        cluster.record_trace = true;
        let specs: Vec<JobSpec> = (0..40)
            .map(|j| JobSpec::train(format!("j{j}"), tiny_ps(3, j)))
            .collect();
        let r = run_cluster(&cluster, &specs);
        assert_eq!(r.jobs.len(), 40);
        for j in &r.jobs {
            assert_eq!(j.result.p2p_bytes, 3 * 2 * 200_000);
        }
        // Every job's wire spans land under its own track prefix, named
        // by its job-local tags.
        let trace = r.trace.expect("trace").to_chrome_json();
        assert!(trace.contains("push t1.p0@it2"));
        assert!(trace.contains("job39/worker0/down"));
    }

    #[test]
    #[should_panic(
        expected = "contention recording tracks at most 64 jobs per run; this run has 65"
    )]
    fn contention_recording_rejects_more_jobs_than_its_mask_holds() {
        let mut cluster = ClusterConfig::new(8, NetConfig::gbps(10.0, Transport::tcp()));
        cluster.record_contention = true;
        let specs: Vec<JobSpec> = (0..65)
            .map(|j| JobSpec::train(format!("j{j}"), tiny_ps(3, j)))
            .collect();
        run_cluster(&cluster, &specs);
    }
}
