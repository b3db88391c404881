//! Property tests for the cluster layer.
//!
//! Four invariants the whole design rests on:
//!
//! 1. **Placement safety** — every policy gives each job distinct in-job
//!    machines that exist in the cluster, for arbitrary job mixes. A
//!    violation would alias two of one job's nodes onto one NIC and
//!    silently change the contention model.
//! 2. **Degenerate-case equivalence** — a single-job cluster is the
//!    standalone simulator: `run_cluster` with one job must reproduce
//!    `bs_runtime::run` exactly (outcome, finish time, speed, iteration
//!    vector, byte and event counts) for any scheduler, fabric, seed and
//!    job-private link plan. Both run the same driver loop, so this holds
//!    by construction; the property guards it. It is what makes every
//!    existing single-job result in this repo a valid cluster baseline.
//! 3. **Byte-determinism** — for any job mix, placement, fabric and
//!    recorder set, with or without a machine failure, running the same
//!    cluster twice gives the same [`ClusterResult`]. The whole result —
//!    job outcomes, iteration vectors, metrics, xray, traces, link
//!    utilisation — is serialised to JSON and compared as a string;
//!    floats render with shortest-round-trip formatting, so string
//!    equality is bit equality.
//! 4. **Liveness** — every training job finishes. The one exception is
//!    a machine failure with no healthy placement now or at any
//!    scheduled restore: the job then fails closed, and says so.

use bs_cluster::{run_cluster, ClusterConfig, ClusterResult, JobSpec, PlacementPolicy};
use bs_engine::EngineConfig;
use bs_faults::{FaultPlan, LinkDir, LinkEvent, LinkFlap, MachineFailure, RecoveryPolicy};
use bs_models::{DnnModel, GpuSpec, ModelBuilder, SampleUnit};
use bs_net::{FabricModel, NetConfig, Transport};
use bs_runtime::{run, Arch, BackgroundLoad, RunOutcome, SchedulerKind, WorldConfig};
use bs_sim::SimTime;
use proptest::prelude::*;

/// A small comm-heavy toy so each property case simulates in ~ms.
fn toy() -> DnnModel {
    let gpu = GpuSpec::custom(1e12, 2.0);
    ModelBuilder::new("toy", gpu, 8, SampleUnit::Images)
        .explicit(
            "l0",
            12_000_000,
            SimTime::from_millis(2),
            SimTime::from_millis(4),
        )
        .explicit(
            "l1",
            3_000_000,
            SimTime::from_millis(2),
            SimTime::from_millis(4),
        )
        .explicit(
            "l2",
            1_000_000,
            SimTime::from_millis(2),
            SimTime::from_millis(4),
        )
        .build()
}

fn train_spec(workers: usize, seed: u64) -> JobSpec {
    let mut cfg = WorldConfig::new(
        toy(),
        workers,
        Arch::ps(workers),
        NetConfig::gbps(10.0, Transport::tcp()),
        EngineConfig::mxnet_ps(),
        SchedulerKind::Baseline,
    );
    cfg.seed = seed;
    JobSpec::train(format!("w{workers}s{seed}"), cfg)
}

/// One randomly-shaped tenant. `kind_pick` chooses PS training (two
/// scheduler flavours), all-reduce training (never touches the shared
/// fabric), or a burst tenant (never finishes — the forever-live case).
fn tenant(i: usize, kind_pick: usize, seed: u64, arrival_ms: u64) -> JobSpec {
    let arrival = SimTime::from_millis(arrival_ms);
    let ar_sched = SchedulerKind::ByteScheduler {
        partition: 800_000,
        credit: 3_200_000,
    };
    let (arch, engine, sched, name) = match kind_pick {
        0 => (
            Arch::ps(2),
            EngineConfig::mxnet_ps(),
            SchedulerKind::Baseline,
            "ps",
        ),
        1 => (Arch::ps(2), EngineConfig::mxnet_ps(), ar_sched, "ps"),
        2 => (
            Arch::allreduce(),
            EngineConfig::mxnet_allreduce(),
            ar_sched,
            "ar",
        ),
        _ => {
            return JobSpec::Burst {
                name: format!("bg{i}"),
                arrival,
                load: BackgroundLoad {
                    burst_bytes: 1 << 20,
                    gap_us: 400,
                },
                pairs: 1,
                seed,
            }
        }
    };
    let mut cfg = WorldConfig::new(
        toy(),
        2,
        arch,
        NetConfig::gbps(10.0, Transport::tcp()),
        engine,
        sched,
    );
    cfg.iters = 4;
    cfg.warmup = 1;
    cfg.jitter = 0.02;
    cfg.seed = seed;
    JobSpec::train_at(format!("{name}{i}"), cfg, arrival)
}

/// A cluster sized for `specs`: the largest job fits, plus half the
/// total demand and `spare` machines of headroom.
fn mixed_cluster(specs: &[JobSpec], spare: usize, fluid: bool, packed: bool) -> ClusterConfig {
    let machines = specs.iter().map(|s| s.nodes_needed()).max().unwrap().max(2)
        + specs.iter().map(|s| s.nodes_needed()).sum::<usize>() / 2
        + spare;
    let mut cluster = ClusterConfig::new(machines, NetConfig::gbps(10.0, Transport::tcp()));
    cluster.fabric = if fluid {
        FabricModel::FairShare
    } else {
        FabricModel::SerialFifo
    };
    cluster.placement = if packed {
        PlacementPolicy::Packed
    } else {
        PlacementPolicy::RoundRobinSpread
    };
    cluster
}

fn fingerprint(r: &ClusterResult) -> String {
    serde_json::to_string(r).expect("serialize cluster result")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every policy, for any mix of job sizes that fits: machines within
    /// one job are pairwise distinct and in range.
    #[test]
    fn placements_are_in_range_and_distinct_within_each_job(
        sizes in proptest::collection::vec(1usize..5, 1..6),
        extra_room in 0usize..5,
    ) {
        // Each PS job needs workers + servers = 2 * workers machines.
        let largest = sizes.iter().map(|w| 2 * w).max().unwrap();
        let machines = largest + extra_room;
        let specs: Vec<JobSpec> = sizes
            .iter()
            .enumerate()
            .map(|(i, &w)| train_spec(w, i as u64))
            .collect();
        for policy in PlacementPolicy::all() {
            let placed = policy.place(machines, &specs);
            prop_assert_eq!(placed.len(), specs.len());
            for (spec, nodes) in specs.iter().zip(&placed) {
                prop_assert_eq!(nodes.len(), spec.nodes_needed());
                let mut seen: Vec<usize> = nodes.iter().map(|n| n.0).collect();
                seen.sort_unstable();
                for m in &seen {
                    prop_assert!(*m < machines, "{policy:?} placed on machine {m} of {machines}");
                }
                seen.dedup();
                prop_assert_eq!(
                    seen.len(),
                    nodes.len(),
                    "{:?} reused a machine within one job",
                    policy
                );
            }
        }
    }
}

proptest! {
    // Each case runs two full simulations; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// One-job cluster ≡ `World::run`, over schedulers × fabrics × seeds
    /// × placement policies × no plan or a random job-private link plan
    /// (bandwidth scales and flaps, hoisted onto the driver's timeline on
    /// both paths).
    #[test]
    fn single_job_cluster_reproduces_the_standalone_run(
        seed in 0u64..1000,
        sched_pick in 0usize..3,
        fluid in any::<bool>(),
        policy_pick in 0usize..3,
        workers in 2usize..4,
        scales in proptest::collection::vec((0u64..80_000, 0usize..8, any::<bool>(), 0.1f64..1.0), 0..4),
        flaps in proptest::collection::vec((0u64..80_000, 1u64..20_000, 0usize..8), 0..3),
        faulty in any::<bool>(),
    ) {
        let sched = match sched_pick {
            0 => SchedulerKind::Baseline,
            1 => SchedulerKind::ByteScheduler { partition: 800_000, credit: 3_200_000 },
            _ => SchedulerKind::P3,
        };
        let fabric = if fluid { FabricModel::FairShare } else { FabricModel::SerialFifo };
        let mut cfg = WorldConfig::new(
            toy(),
            workers,
            Arch::ps(workers),
            NetConfig::gbps(10.0, Transport::tcp()),
            EngineConfig::mxnet_ps(),
            sched,
        );
        cfg.iters = 5;
        cfg.warmup = 1;
        cfg.jitter = 0.02;
        cfg.seed = seed;
        cfg.fabric = fabric;
        // Local nodes are workers, then as many PS shards. Half the cases
        // keep the fault-free configuration (`faults: None`).
        let nodes = 2 * workers;
        cfg.faults = faulty.then(|| FaultPlan {
            link_events: scales
                .iter()
                .map(|&(at_us, node, up, scale)| LinkEvent {
                    at_us,
                    node: node % nodes,
                    dir: if up { LinkDir::Up } else { LinkDir::Down },
                    scale,
                })
                .collect(),
            flaps: flaps
                .iter()
                .map(|&(from_us, len_us, node)| LinkFlap {
                    node: node % nodes,
                    from_us,
                    to_us: from_us + len_us,
                })
                .collect(),
            recovery: RecoveryPolicy {
                timeout_us: 1_000,
                max_retries: 8,
            },
            ..FaultPlan::empty()
        });

        let solo = run(&cfg);

        let mut cluster = ClusterConfig::new(2 * workers, cfg.net);
        cluster.fabric = fabric;
        cluster.placement = PlacementPolicy::all()[policy_pick];
        let r = run_cluster(&cluster, &[JobSpec::train("solo", cfg.clone())]);
        prop_assert_eq!(r.jobs.len(), 1);
        let job = &r.jobs[0].result;

        prop_assert_eq!(&solo.outcome, &job.outcome);
        prop_assert_eq!(solo.finished_at, job.finished_at);
        prop_assert_eq!(solo.speed, job.speed);
        prop_assert_eq!(&solo.iter_times, &job.iter_times);
        prop_assert_eq!(solo.p2p_bytes, job.p2p_bytes);
        prop_assert_eq!(solo.comm_events, job.comm_events);
        prop_assert_eq!(r.makespan, solo.finished_at);
    }
}

proptest! {
    // Each case runs two full cluster simulations; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any mix of PS, all-reduce and burst tenants on either fabric and
    /// placement, recorders on or off: the run is byte-deterministic and
    /// every training job completes.
    #[test]
    fn any_mix_runs_deterministically_and_finishes(
        kinds in proptest::collection::vec((0usize..4, 0u64..1000, 0u64..30), 2..6),
        fluid in any::<bool>(),
        packed in any::<bool>(),
        record in any::<bool>(),
    ) {
        // At least one training job, or the run never terminates.
        let mut kinds = kinds;
        if kinds.iter().all(|(k, _, _)| *k >= 3) {
            kinds[0].0 = 1;
        }
        let specs: Vec<JobSpec> = kinds
            .iter()
            .enumerate()
            .map(|(i, &(k, seed, arr))| tenant(i, k, seed, arr))
            .collect();
        let mut cluster = mixed_cluster(&specs, 0, fluid, packed);
        cluster.record_trace = record;
        cluster.record_metrics = record;
        cluster.record_xray = record;

        let r = run_cluster(&cluster, &specs);
        let trains = specs.iter().filter(|s| matches!(s, JobSpec::Train { .. }));
        prop_assert_eq!(r.jobs.len(), trains.count());
        for j in &r.jobs {
            prop_assert_eq!(&j.result.outcome, &RunOutcome::Completed, "{}", &j.name);
            prop_assert!(j.finished_at > j.arrival && j.finished_at <= r.makespan);
        }
        let again = fingerprint(&run_cluster(&cluster, &specs));
        prop_assert_eq!(
            again,
            fingerprint(&r),
            "fabric={:?} placement={:?}: repeat run diverged",
            cluster.fabric,
            cluster.placement
        );
    }

    /// A cluster-scope machine failure, with or without a scheduled
    /// restore: the checkpoint/migrate/resume epochs (or the fail-closed
    /// path when no placement exists) replay at the same virtual
    /// instants with the same node moves, and no job is left hanging.
    #[test]
    fn machine_failure_runs_deterministically_and_stays_live(
        kinds in proptest::collection::vec((0usize..3, 0u64..1000, 0u64..30), 2..5),
        fluid in any::<bool>(),
        packed in any::<bool>(),
        fail_pick in 0usize..64,
        at_ms in 1u64..40,
        restore in any::<bool>(),
    ) {
        // Training tenants only (kind < 3): a burst tenant never
        // finishes, and here every case already exercises liveness
        // through the failure/restore timeline.
        let specs: Vec<JobSpec> = kinds
            .iter()
            .enumerate()
            .map(|(i, &(k, seed, arr))| tenant(i, k, seed, arr))
            .collect();
        // One spare machine so a migration has somewhere to land (the
        // failure may still be unplaceable — that path must hold too).
        let mut cluster = mixed_cluster(&specs, 1, fluid, packed);
        let machine = fail_pick % cluster.machines;
        cluster.faults = Some(FaultPlan {
            machine_failures: vec![MachineFailure {
                machine,
                at_us: at_ms * 1_000,
                restore_us: restore.then_some(at_ms * 1_000 + 2_000_000),
            }],
            ..FaultPlan::empty()
        });

        let r = run_cluster(&cluster, &specs);
        prop_assert_eq!(r.jobs.len(), specs.len());
        for j in &r.jobs {
            if let RunOutcome::Failed { reason } = &j.result.outcome {
                // Only a failure that never restores can strand a job.
                prop_assert!(!restore, "{} failed despite a restore: {}", &j.name, reason);
                prop_assert!(reason.contains("no healthy placement"), "{}", reason);
            }
            prop_assert!(j.finished_at <= r.makespan);
        }
        let again = fingerprint(&run_cluster(&cluster, &specs));
        prop_assert_eq!(
            again,
            fingerprint(&r),
            "fabric={:?} placement={:?} fail={} at={}ms restore={}: repeat run diverged",
            cluster.fabric,
            cluster.placement,
            machine,
            at_ms,
            restore
        );
    }
}
