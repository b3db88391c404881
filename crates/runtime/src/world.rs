//! The single-job run: one [`JobState`] as the only tenant of the driver
//! loop ([`crate::driver`]) on a private fabric.
//!
//! A solo run is a one-tenant cluster by construction: job 0 with an
//! identity [`NodeMap`], its link faults hoisted onto the driver's
//! timeline. This module keeps what is solo-specific — the fabric's
//! size and recorders, and the result assembly (an un-prefixed trace,
//! the fabric's `net/` metrics inside the job's result).

use bs_faults::ClusterFaultInjector;
use bs_net::Fabric;
use bs_scope::ScopeBus;
use bs_sim::{SimTime, Trace};

use crate::config::{Arch, WorldConfig};
use crate::driver::{self, hoist_job_links, Tenant, WireTags};
use crate::job::{wire_span_into_trace, JobNetStats, JobState, NodeMap};
use crate::result::RunResult;

/// Runs one configuration to completion and reports the measured speed.
///
/// Panics with a diagnostic if the configuration deadlocks — a scheduling
/// policy that loses work or a dependency cycle is a bug, not a data point.
pub fn run(cfg: &WorldConfig) -> RunResult {
    run_observed(cfg, None)
}

/// [`run`] with an optional scope observation bus attached.
///
/// When `scope` is `Some`, the job and fabric publish lifecycle events
/// (iteration boundaries, retransmits, fault firings, NIC-utilisation
/// windows) onto the bus as they happen. Observation is recording-only:
/// it never feeds back into simulation decisions, so the run's results,
/// traces and metrics are byte-identical with or without a bus — the
/// `scope_recording_does_not_change_results` test pins this.
pub fn run_observed(cfg: &WorldConfig, mut scope: Option<&mut ScopeBus>) -> RunResult {
    let nodes_needed = JobState::fabric_nodes_needed(cfg);
    // Ring runs keep their collective stream private and never touch
    // the point-to-point fabric; give them a minimal idle one.
    let mut fabric = Fabric::new(cfg.fabric, nodes_needed.max(2), cfg.net);
    if matches!(cfg.arch, Arch::Ps { .. }) {
        let tap = fabric.tap();
        if cfg.record_trace || cfg.record_xray {
            tap.enable_wire_log();
        }
        if cfg.record_metrics {
            tap.enable_telemetry(SimTime::ZERO);
        }
    }
    let nodes = NodeMap::identity(nodes_needed);
    let mut injector = ClusterFaultInjector::new();
    let mut job_cfg = cfg.clone();
    hoist_job_links(&mut injector, &mut job_cfg, &nodes);
    injector.seal();
    let mut state = JobState::build(&job_cfg, nodes);
    if let Some(bus) = scope.as_deref_mut() {
        state.enable_scope(0);
        fabric.tap().enable_scope(SimTime::ZERO, bus.window());
    }
    let mut tenants = [Tenant::train(state, job_cfg, SimTime::ZERO)];
    let faults = (!injector.is_empty()).then_some(&mut injector);
    let (now, wires) = driver::drive(
        &mut tenants,
        &mut fabric,
        faults,
        &mut (),
        scope.as_deref_mut(),
    );
    if let Some(bus) = scope {
        driver::finish_scope(&mut fabric, &mut tenants, now, bus);
        bus.finish(now);
    }
    let [Tenant::Train { state, .. }] = tenants else {
        unreachable!("a solo run has one training tenant")
    };
    into_result(state, fabric, &wires, now, cfg)
}

fn into_result(
    job: JobState,
    mut fabric: Fabric,
    wires: &WireTags,
    now: SimTime,
    cfg: &WorldConfig,
) -> RunResult {
    // Xray and the span trace read one wire log, under job-local tags.
    let wire: Vec<_> = wires
        .resolve_log(fabric.tap().take_wire_log())
        .map(|(_, rec)| rec)
        .collect();
    let mut trace = cfg.record_trace.then(Trace::new);
    if let Some(trace) = trace.as_mut() {
        for rec in &wire {
            wire_span_into_trace(trace, rec, "");
        }
    }
    let net = JobNetStats {
        p2p_bytes: fabric.bytes_delivered(),
        comm_events: fabric.transfers_delivered(),
        peak_in_flight: fabric.peak_in_flight(),
        peak_port_utilisation: fabric.peak_port_utilisation(now),
    };
    let mut result = job.close_out(cfg, now, net, wire, trace.as_mut(), "");
    if let Some(fm) = fabric.tap().take_metrics(now) {
        // With both recorders on, the fabric's series double as Perfetto
        // counter tracks beside the job's.
        if let Some(trace) = trace.as_mut() {
            for t in fm.counter_tracks() {
                trace.push_counter(format!("net/{}", t.name), t.samples);
            }
        }
        result
            .metrics
            .get_or_insert_with(bs_telemetry::MetricSet::new)
            .absorb("net/", fm);
    }
    result.trace = trace;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulerKind;
    use bs_engine::EngineConfig;
    use bs_models::{DnnModel, GpuSpec, ModelBuilder, SampleUnit};
    use bs_net::{NetConfig, Transport};

    /// A small comm-heavy model: the first layer carries a big tensor
    /// (VGG/Transformer-like inversion: big tensors near the input suffer
    /// most under FIFO).
    fn comm_heavy() -> DnnModel {
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
            .explicit(
                "l3",
                1_000_000,
                SimTime::from_millis(4),
                SimTime::from_millis(8),
            )
            .build()
    }

    fn net10g() -> NetConfig {
        NetConfig::gbps(10.0, Transport::tcp())
    }

    fn cfg(
        model: DnnModel,
        workers: usize,
        arch: Arch,
        engine: EngineConfig,
        sched: SchedulerKind,
    ) -> WorldConfig {
        let mut c = WorldConfig::new(model, workers, arch, net10g(), engine, sched);
        c.iters = 10;
        c.warmup = 2;
        c.jitter = 0.0;
        c
    }

    fn bs(partition: u64, credit: u64) -> SchedulerKind {
        SchedulerKind::ByteScheduler { partition, credit }
    }

    #[test]
    fn baseline_ps_runs_and_is_sublinear() {
        let c = cfg(
            comm_heavy(),
            2,
            Arch::ps(2),
            EngineConfig::mxnet_ps(),
            SchedulerKind::Baseline,
        );
        let r = run(&c);
        assert!(r.speed > 0.0);
        assert!(
            r.speed < c.linear_scaling_speed(),
            "comm-heavy baseline cannot hit linear scaling"
        );
        assert!(r.p2p_bytes > 0);
    }

    #[test]
    fn bytescheduler_beats_baseline_on_ps() {
        let base = run(&cfg(
            comm_heavy(),
            2,
            Arch::ps(2),
            EngineConfig::mxnet_ps(),
            SchedulerKind::Baseline,
        ));
        let tuned = run(&cfg(
            comm_heavy(),
            2,
            Arch::ps(2),
            EngineConfig::mxnet_ps(),
            bs(2_000_000, 8_000_000),
        ));
        assert!(
            tuned.speed > base.speed,
            "ByteScheduler {} must beat baseline {}",
            tuned.speed,
            base.speed
        );
    }

    #[test]
    fn barrier_engine_is_slower_than_per_layer_engine() {
        let mxnet = run(&cfg(
            comm_heavy(),
            2,
            Arch::ps(2),
            EngineConfig::mxnet_ps(),
            SchedulerKind::Baseline,
        ));
        let tf = run(&cfg(
            comm_heavy(),
            2,
            Arch::ps(2),
            EngineConfig::tensorflow_ps(),
            SchedulerKind::Baseline,
        ));
        assert!(
            tf.speed <= mxnet.speed + 1e-9,
            "the global barrier cannot help: tf {} vs mxnet {}",
            tf.speed,
            mxnet.speed
        );
    }

    #[test]
    fn crossing_the_barrier_recovers_the_gap() {
        // With ByteScheduler, the TF-style engine should perform like the
        // MXNet-style engine: the barrier is crossed (§3.4).
        let sched = bs(2_000_000, 8_000_000);
        let mxnet = run(&cfg(
            comm_heavy(),
            2,
            Arch::ps(2),
            EngineConfig::mxnet_ps(),
            sched,
        ));
        let tf = run(&cfg(
            comm_heavy(),
            2,
            Arch::ps(2),
            EngineConfig::tensorflow_ps(),
            sched,
        ));
        let rel = (tf.speed - mxnet.speed).abs() / mxnet.speed;
        assert!(
            rel < 0.02,
            "crossed-barrier TF must match MXNet: {} vs {}",
            tf.speed,
            mxnet.speed
        );
    }

    #[test]
    fn p3_lands_between_baseline_and_bytescheduler() {
        let base = run(&cfg(
            comm_heavy(),
            4,
            Arch::ps(4),
            EngineConfig::mxnet_ps(),
            SchedulerKind::Baseline,
        ));
        let p3 = run(&cfg(
            comm_heavy(),
            4,
            Arch::ps(4),
            EngineConfig::mxnet_ps(),
            SchedulerKind::P3,
        ));
        let tuned = run(&cfg(
            comm_heavy(),
            4,
            Arch::ps(4),
            EngineConfig::mxnet_ps(),
            bs(500_000, 1_000_000),
        ));
        assert!(
            p3.speed > base.speed,
            "P3 {} vs base {}",
            p3.speed,
            base.speed
        );
        assert!(
            tuned.speed > p3.speed,
            "ByteScheduler {} must beat P3 {} (stop-and-wait + tiny partitions)",
            tuned.speed,
            p3.speed
        );
    }

    #[test]
    fn allreduce_baseline_and_scheduled_both_run() {
        let base = run(&cfg(
            comm_heavy(),
            4,
            Arch::allreduce(),
            EngineConfig::mxnet_allreduce(),
            SchedulerKind::Baseline,
        ));
        let tuned = run(&cfg(
            comm_heavy(),
            4,
            Arch::allreduce(),
            EngineConfig::mxnet_allreduce(),
            bs(8_000_000, 16_000_000),
        ));
        assert!(base.collective_bytes > 0);
        assert!(
            tuned.speed >= base.speed * 0.95,
            "scheduled all-reduce must not regress much"
        );
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let mut c = cfg(
            comm_heavy(),
            2,
            Arch::ps(2),
            EngineConfig::mxnet_ps(),
            bs(2_000_000, 8_000_000),
        );
        c.jitter = 0.02;
        c.seed = 42;
        let a = run(&c);
        let b = run(&c);
        assert_eq!(a.speed, b.speed);
        c.seed = 43;
        let d = run(&c);
        assert_ne!(a.speed, d.speed);
    }

    #[test]
    fn async_ps_runs() {
        let mut c = cfg(
            comm_heavy(),
            2,
            Arch::ps(2),
            EngineConfig::mxnet_ps(),
            bs(2_000_000, 8_000_000),
        );
        c.arch = Arch::Ps {
            mode: bs_comm::PsMode::Asynchronous,
            num_servers: 2,
            baseline_bigarray_split: false,
        };
        let r = run(&c);
        assert!(r.speed > 0.0);
    }

    #[test]
    fn ps_runs_past_1024_iterations() {
        // Tokens of iteration 1024 on set bit 58 and up: nothing may
        // read a tenant out of those bits.
        let (fwd, bwd) = (SimTime::from_micros(50), SimTime::from_micros(100));
        let model = ModelBuilder::new("tiny", GpuSpec::custom(1e12, 2.0), 8, SampleUnit::Images)
            .explicit("l0", 100_000, fwd, bwd)
            .explicit("l1", 100_000, fwd, bwd)
            .build();
        let mut c = cfg(
            model,
            2,
            Arch::ps(2),
            EngineConfig::mxnet_ps(),
            SchedulerKind::Baseline,
        );
        c.iters = 1030;
        c.warmup = 1;
        let r = run(&c);
        assert_eq!(r.outcome, crate::RunOutcome::Completed);
        assert_eq!(r.iter_times.len(), 1028);
        assert_eq!(r.p2p_bytes, 1030 * 2 * 2 * 200_000);
    }

    #[test]
    fn comm_bound_runs_show_a_saturated_port() {
        // The comm-heavy toy at 10 Gbps: its bottleneck NIC should be
        // busy most of the time; a compute-bound run at 100 Gbps should
        // not be.
        let r = run(&cfg(
            comm_heavy(),
            4,
            Arch::ps(4),
            EngineConfig::mxnet_ps(),
            bs(1_000_000, 4_000_000),
        ));
        assert!(
            r.peak_port_utilisation > 0.4,
            "comm-bound peak utilisation {:.2}",
            r.peak_port_utilisation
        );
        let mut light = cfg(
            comm_heavy(),
            4,
            Arch::ps(4),
            EngineConfig::mxnet_ps(),
            bs(1_000_000, 4_000_000),
        );
        light.net = NetConfig::gbps(100.0, Transport::rdma());
        let r2 = run(&light);
        assert!(
            r2.peak_port_utilisation < r.peak_port_utilisation,
            "more bandwidth must lower utilisation: {:.2} vs {:.2}",
            r2.peak_port_utilisation,
            r.peak_port_utilisation
        );
    }

    #[test]
    fn recorded_trace_covers_compute_and_wire() {
        let mut c = cfg(
            comm_heavy(),
            2,
            Arch::ps(2),
            EngineConfig::mxnet_ps(),
            bs(1_000_000, 4_000_000),
        );
        c.record_trace = true;
        let r = run(&c);
        let trace = r.trace.expect("trace recorded");
        assert!(!trace.is_empty());
        let has = |prefix: &str| trace.spans.iter().any(|s| s.name.starts_with(prefix));
        assert!(has("fwd0@"), "compute spans present");
        assert!(has("bwd3@"), "backward spans present");
        assert!(has("push t"), "push spans present");
        assert!(has("pull t"), "pull spans present");
        for s in &trace.spans {
            assert!(s.end >= s.start);
        }
        // And the export parses as JSON.
        let json = trace.to_chrome_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        // Without the flag, no trace is attached.
        c.record_trace = false;
        assert!(run(&c).trace.is_none());
    }

    #[test]
    fn recorded_metrics_cover_scheduler_fabric_and_gpus() {
        let mut c = cfg(
            comm_heavy(),
            2,
            Arch::ps(2),
            EngineConfig::mxnet_ps(),
            bs(1_000_000, 4_000_000),
        );
        c.record_metrics = true;
        c.record_trace = true;
        let r = run(&c);
        let ms = r.metrics.as_ref().expect("metrics recorded");
        assert_eq!(ms.horizon, r.finished_at);
        // Scheduler, engine and fabric layers all reported.
        assert!(ms.get_series("worker0/sched/lane0/credit_in_use").is_some());
        assert!(ms.get_series("worker1/gpu_busy").is_some());
        assert!(ms.get_series("net/nic0/up_util").is_some());
        assert!(ms.get_counter("net/transfers_delivered").unwrap_or(0) > 0);
        // Stall accounting: busy + stall covers each worker's window.
        let busy = ms.get_gauge("worker0/gpu_busy_secs").expect("busy gauge");
        let stall = ms
            .get_gauge("worker0/comm_stall_secs")
            .expect("stall gauge");
        assert!(busy > 0.0 && stall > 0.0);
        assert!((busy + stall - r.finished_at.as_secs_f64()).abs() < 1e-9);
        // With both recorders on, series ride along as counter tracks.
        let trace = r.trace.as_ref().expect("trace recorded");
        assert!(!trace.counters.is_empty());
        assert!(trace.to_chrome_json().contains("\"ph\":\"C\""));
        // Metrics stay off (and absent) by default.
        c.record_metrics = false;
        c.record_trace = false;
        assert!(run(&c).metrics.is_none());
    }

    #[test]
    fn recorded_xray_attributes_every_iteration_exactly() {
        let mut c = cfg(
            comm_heavy(),
            2,
            Arch::ps(2),
            EngineConfig::mxnet_ps(),
            bs(1_000_000, 4_000_000),
        );
        c.record_xray = true;
        c.record_trace = true;
        let r = run(&c);
        let x = r.xray.as_ref().expect("xray recorded");
        assert_eq!(x.scheduler, "ByteScheduler");
        assert!(!x.iterations.is_empty());
        // Exact tiling: every measured iteration's categories sum to its
        // wall time, and the totals sum to the measured window.
        for it in &x.iterations {
            assert_eq!(it.attribution.total_ns(), it.wall_ns());
        }
        assert_eq!(
            x.totals.total_ns(),
            x.measured_wall_ns,
            "attribution must tile the measured window"
        );
        // A comm-heavy run spends critical-path time on the wire, and the
        // big first tensor dominates the tensor ranking.
        assert!(x.totals.wire_ns > 0, "wire time on the critical path");
        assert!(x.totals.compute_ns > 0);
        assert_eq!(x.tensors.first().map(|t| t.tensor), Some(0));
        // Flow arrows rode along into the Perfetto trace.
        let trace = r.trace.as_ref().expect("trace recorded");
        assert!(!trace.flows.is_empty(), "BP->wire flow arrows present");
        assert!(trace.to_chrome_json().contains("\"ph\":\"s\""));
        // Off by default.
        c.record_xray = false;
        c.record_trace = false;
        assert!(run(&c).xray.is_none());
    }

    #[test]
    fn xray_recording_does_not_change_results() {
        for fabric in [
            bs_net::FabricModel::SerialFifo,
            bs_net::FabricModel::FairShare,
        ] {
            let mut c = cfg(
                comm_heavy(),
                2,
                Arch::ps(2),
                EngineConfig::mxnet_ps(),
                bs(2_000_000, 8_000_000),
            );
            c.fabric = fabric;
            c.jitter = 0.02;
            let off = run(&c);
            c.record_xray = true;
            let on = run(&c);
            assert_eq!(off.speed, on.speed, "{fabric:?}");
            assert_eq!(off.finished_at, on.finished_at, "{fabric:?}");
            assert_eq!(off.p2p_bytes, on.p2p_bytes, "{fabric:?}");
            assert_eq!(off.iter_times, on.iter_times, "{fabric:?}");
        }
    }

    #[test]
    fn metrics_recording_does_not_change_results() {
        let mut c = cfg(
            comm_heavy(),
            2,
            Arch::ps(2),
            EngineConfig::mxnet_ps(),
            bs(2_000_000, 8_000_000),
        );
        c.jitter = 0.02;
        let off = run(&c);
        c.record_metrics = true;
        let on = run(&c);
        assert_eq!(off.speed, on.speed);
        assert_eq!(off.finished_at, on.finished_at);
        assert_eq!(off.p2p_bytes, on.p2p_bytes);
    }

    /// Attaching a scope bus is pure observation: results are
    /// byte-identical with and without it, on both fabrics, even under a
    /// fault plan exercising every emission site (iteration marks,
    /// retransmits, fault firings, NIC windows).
    #[test]
    fn scope_recording_does_not_change_results() {
        use bs_faults::{FaultPlan, RecoveryPolicy};
        use bs_scope::{Collector, ScopeBus};
        for fabric in [
            bs_net::FabricModel::SerialFifo,
            bs_net::FabricModel::FairShare,
        ] {
            let mut c = cfg(
                comm_heavy(),
                2,
                Arch::ps(2),
                EngineConfig::mxnet_ps(),
                bs(2_000_000, 8_000_000),
            );
            c.fabric = fabric;
            c.jitter = 0.02;
            c.record_trace = true;
            c.faults = Some(FaultPlan {
                loss_rate: 0.02,
                recovery: RecoveryPolicy {
                    timeout_us: 1_000,
                    max_retries: 16,
                },
                ..FaultPlan::empty()
            });
            let off = run(&c);
            let mut bus = ScopeBus::new();
            let (collector, log) = Collector::new();
            bus.subscribe(Box::new(collector));
            let on = run_observed(&c, Some(&mut bus));
            assert_eq!(off.speed, on.speed, "{fabric:?}");
            assert_eq!(off.finished_at, on.finished_at, "{fabric:?}");
            assert_eq!(off.p2p_bytes, on.p2p_bytes, "{fabric:?}");
            assert_eq!(off.iter_times, on.iter_times, "{fabric:?}");
            assert_eq!(off.outcome, on.outcome, "{fabric:?}");
            let (off_t, on_t) = (off.trace.unwrap(), on.trace.unwrap());
            assert_eq!(
                off_t.to_chrome_json(),
                on_t.to_chrome_json(),
                "{fabric:?}: traces must be byte-identical"
            );
            let kinds: std::collections::HashSet<&'static str> =
                log.events().iter().map(|e| e.kind()).collect();
            for k in [
                "iter_done",
                "iter_ema",
                "stall_window",
                "retransmit",
                "net_window",
            ] {
                assert!(kinds.contains(k), "{fabric:?}: missing {k} events");
            }
        }
    }

    #[test]
    fn pytorch_nccl_baseline_runs() {
        let r = run(&cfg(
            comm_heavy(),
            4,
            Arch::allreduce(),
            EngineConfig::pytorch_allreduce(),
            SchedulerKind::Baseline,
        ));
        assert!(r.speed > 0.0);
    }

    use crate::result::RunOutcome;
    use bs_faults::{FaultPlan, LinkDir, LinkEvent, LinkFlap, RecoveryPolicy, StragglerSpec};

    fn fault_cfg() -> WorldConfig {
        cfg(
            comm_heavy(),
            2,
            Arch::ps(2),
            EngineConfig::mxnet_ps(),
            bs(2_000_000, 8_000_000),
        )
    }

    /// The empty plan is the identity: attaching it changes not one bit
    /// of the run — the "empty-plan-only" recording guarantee.
    #[test]
    fn empty_fault_plan_is_bit_identical_to_none() {
        for fabric in [
            bs_net::FabricModel::SerialFifo,
            bs_net::FabricModel::FairShare,
        ] {
            let mut c = fault_cfg();
            c.fabric = fabric;
            c.jitter = 0.02;
            let bare = run(&c);
            c.faults = Some(FaultPlan::empty());
            let planned = run(&c);
            assert_eq!(bare.speed, planned.speed, "{fabric:?}");
            assert_eq!(bare.finished_at, planned.finished_at, "{fabric:?}");
            assert_eq!(bare.iter_times, planned.iter_times, "{fabric:?}");
            assert_eq!(bare.p2p_bytes, planned.p2p_bytes, "{fabric:?}");
            assert_eq!(planned.outcome, RunOutcome::Completed, "{fabric:?}");
        }
    }

    /// Bernoulli loss with retries: the run completes degraded on both
    /// fabrics, every retry is counted, and the loss costs time.
    #[test]
    fn loss_recovers_and_reports_degraded() {
        for fabric in [
            bs_net::FabricModel::SerialFifo,
            bs_net::FabricModel::FairShare,
        ] {
            let mut c = fault_cfg();
            c.fabric = fabric;
            let clean = run(&c);
            c.faults = Some(FaultPlan {
                loss_rate: 0.02,
                recovery: RecoveryPolicy {
                    timeout_us: 1_000,
                    max_retries: 16,
                },
                ..FaultPlan::empty()
            });
            let lossy = run(&c);
            let RunOutcome::DegradedCompleted { retries, .. } = lossy.outcome else {
                panic!(
                    "{fabric:?}: expected degraded completion, got {:?}",
                    lossy.outcome
                );
            };
            assert!(retries > 0, "{fabric:?}");
            assert!(
                lossy.finished_at >= clean.finished_at,
                "{fabric:?}: recovery cannot make the run faster"
            );
        }
    }

    /// A mid-run link flap kills in-flight transfers; recovery re-drives
    /// them and the run completes with reroutes counted.
    #[test]
    fn flap_kills_in_flight_transfers_and_recovers() {
        for fabric in [
            bs_net::FabricModel::SerialFifo,
            bs_net::FabricModel::FairShare,
        ] {
            let mut c = fault_cfg();
            c.fabric = fabric;
            // Worker 0's NIC drops for 30 ms in the middle of iteration-1
            // comm (the first window where transfers are on the wire).
            c.faults = Some(FaultPlan {
                flaps: vec![LinkFlap {
                    node: 0,
                    from_us: 40_000,
                    to_us: 70_000,
                }],
                recovery: RecoveryPolicy {
                    timeout_us: 1_000,
                    max_retries: 8,
                },
                ..FaultPlan::empty()
            });
            let r = run(&c);
            let RunOutcome::DegradedCompleted { retries, reroutes } = r.outcome else {
                panic!(
                    "{fabric:?}: expected degraded completion, got {:?}",
                    r.outcome
                );
            };
            assert!(reroutes > 0, "{fabric:?}: the flap must kill something");
            assert!(retries >= reroutes, "{fabric:?}");
        }
    }

    /// Degrading a NIC mid-run slows the run down; restoring it later
    /// still leaves the total behind the fault-free run.
    #[test]
    fn link_degradation_costs_time() {
        let mut c = fault_cfg();
        let clean = run(&c);
        c.faults = Some(FaultPlan {
            link_events: vec![
                LinkEvent {
                    at_us: 20_000,
                    node: 2,
                    dir: LinkDir::Down,
                    scale: 0.25,
                },
                LinkEvent {
                    at_us: 120_000,
                    node: 2,
                    dir: LinkDir::Down,
                    scale: 1.0,
                },
            ],
            ..FaultPlan::empty()
        });
        let degraded = run(&c);
        assert_eq!(degraded.outcome, RunOutcome::Completed, "nothing was lost");
        assert!(
            degraded.finished_at > clean.finished_at,
            "a 4x slower shard downlink must cost wall time: {} vs {}",
            degraded.finished_at,
            clean.finished_at
        );
    }

    /// A straggling worker drags the whole synchronous job.
    #[test]
    fn straggler_slows_the_job() {
        let mut c = fault_cfg();
        let clean = run(&c);
        c.faults = Some(FaultPlan {
            stragglers: vec![StragglerSpec {
                worker: 1,
                from_iter: 2,
                to_iter: 8,
                factor: 3.0,
            }],
            ..FaultPlan::empty()
        });
        let slow = run(&c);
        assert_eq!(slow.outcome, RunOutcome::Completed);
        assert!(
            slow.finished_at > clean.finished_at,
            "a 3x straggler must cost wall time"
        );
    }

    /// Exhausting the retry cap aborts the run with a reason instead of
    /// deadlocking the event loop — whether loss or a flap spends the
    /// budget. The flap input pins the failed-owner corner: two flaps at
    /// one instant with no retries allowed fail the run on the first, and
    /// the second never fires — one `FaultFired`, and only the first
    /// flap's kills in the drop and reclaim counters.
    #[test]
    fn retry_cap_exhaustion_fails_the_run() {
        use bs_scope::{Collector, ScopeBus, ScopeEvent};
        let lossy = FaultPlan {
            loss_rate: 0.95,
            recovery: RecoveryPolicy {
                timeout_us: 100,
                max_retries: 1,
            },
            ..FaultPlan::empty()
        };
        let flap = |node| LinkFlap {
            node,
            from_us: 40_000,
            to_us: 70_000,
        };
        let flaps = FaultPlan {
            flaps: vec![flap(0), flap(1)],
            recovery: RecoveryPolicy {
                timeout_us: 1_000,
                max_retries: 0,
            },
            ..FaultPlan::empty()
        };
        for (plan, flapped) in [(lossy, false), (flaps, true)] {
            let mut c = fault_cfg();
            c.record_metrics = true;
            c.faults = Some(plan);
            let mut bus = ScopeBus::new();
            let (collector, log) = Collector::new();
            bus.subscribe(Box::new(collector));
            let r = run_observed(&c, Some(&mut bus));
            let RunOutcome::Failed { reason } = r.outcome else {
                panic!("expected failure, got {:?}", r.outcome);
            };
            assert!(reason.contains("retransmit attempts"), "{reason}");
            assert_eq!(r.speed, 0.0);
            assert!(r.iter_times.is_empty());
            if !flapped {
                continue;
            }
            let ms = r.metrics.as_ref().expect("metrics recorded");
            let fired: Vec<ScopeEvent> = log
                .events()
                .into_iter()
                .filter(|e| e.kind() == "fault_fired")
                .collect();
            assert_eq!(
                fired,
                vec![ScopeEvent::FaultFired {
                    job: 0,
                    at: SimTime::from_micros(40_000),
                    kind: "flap_down",
                    node: 0,
                    scale: 0.0,
                }],
                "the run failed on the first flap; the second never fires"
            );
            // The first flap killed one 2 MB partition; nothing else counts.
            assert_eq!(ms.get_counter("faults/dropped_bytes"), Some(2_000_000));
            assert_eq!(ms.get_counter("faults/reclaimed_bytes"), Some(2_000_000));
        }
    }

    /// Link faults are validated on the solo path too: an inverted flap
    /// fails fast instead of killing its port for good.
    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn inverted_flap_is_rejected() {
        let mut c = fault_cfg();
        c.faults = Some(FaultPlan {
            flaps: vec![LinkFlap {
                node: 0,
                from_us: 70_000,
                to_us: 40_000,
            }],
            ..FaultPlan::empty()
        });
        run(&c);
    }

    /// Ring collectives lose and retry too, in both baseline (fused) and
    /// scheduled modes.
    #[test]
    fn ring_loss_recovers_on_both_graph_modes() {
        for sched in [SchedulerKind::Baseline, bs(8_000_000, 16_000_000)] {
            let mut c = cfg(
                comm_heavy(),
                4,
                Arch::allreduce(),
                EngineConfig::mxnet_allreduce(),
                sched,
            );
            // Fused baseline graphs run few collectives, so the rate must
            // be high enough that the fixed seed drops at least one.
            c.faults = Some(FaultPlan {
                loss_rate: 0.15,
                recovery: RecoveryPolicy {
                    timeout_us: 1_000,
                    max_retries: 16,
                },
                ..FaultPlan::empty()
            });
            let r = run(&c);
            let RunOutcome::DegradedCompleted { retries, .. } = r.outcome else {
                panic!(
                    "{sched:?}: expected degraded completion, got {:?}",
                    r.outcome
                );
            };
            assert!(retries > 0, "{sched:?}");
        }
    }

    /// Fault runs are deterministic: same seed and plan, same everything;
    /// a different seed shifts the loss stream.
    #[test]
    fn fault_runs_are_deterministic_per_seed() {
        let mut c = fault_cfg();
        c.jitter = 0.02;
        c.faults = Some(FaultPlan {
            loss_rate: 0.02,
            recovery: RecoveryPolicy {
                timeout_us: 1_000,
                max_retries: 16,
            },
            ..FaultPlan::empty()
        });
        let a = run(&c);
        let b = run(&c);
        assert_eq!(a.speed, b.speed);
        assert_eq!(a.finished_at, b.finished_at);
        assert_eq!(a.outcome, b.outcome);
        c.seed = 99;
        let d = run(&c);
        assert_ne!(a.finished_at, d.finished_at);
    }

    /// Fault telemetry counters ride the normal metrics channel, and the
    /// reclaimed credit shows up on the scheduler's own ledger.
    #[test]
    fn fault_counters_land_in_metrics() {
        let mut c = fault_cfg();
        c.record_metrics = true;
        c.faults = Some(FaultPlan {
            loss_rate: 0.02,
            recovery: RecoveryPolicy {
                timeout_us: 1_000,
                max_retries: 16,
            },
            ..FaultPlan::empty()
        });
        let r = run(&c);
        let ms = r.metrics.as_ref().expect("metrics recorded");
        let retries = ms.get_counter("faults/retries").expect("retries counter");
        assert!(retries > 0);
        assert!(ms.get_counter("faults/dropped_bytes").unwrap_or(0) > 0);
        assert_eq!(
            ms.get_counter("faults/reclaimed_bytes"),
            ms.get_counter("faults/dropped_bytes"),
            "delivery-gated credit: every dropped byte was reclaimed"
        );
        // The schedulers' own reclaim ledgers agree in total.
        let sched_reclaimed: u64 = (0..2)
            .map(|w| {
                ms.get_counter(&format!("worker{w}/sched/lane0/reclaimed_bytes"))
                    .unwrap_or(0)
                    + ms.get_counter(&format!("worker{w}/sched/lane1/reclaimed_bytes"))
                        .unwrap_or(0)
            })
            .sum();
        assert_eq!(
            Some(sched_reclaimed),
            ms.get_counter("faults/reclaimed_bytes")
        );
    }
}
