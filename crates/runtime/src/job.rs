//! Job-scoped simulation state: one training job's engines, schedulers,
//! comm backend and plugins, decoupled from fabric ownership.
//!
//! *N* jobs multiplex one fabric under one clock, so the per-job state
//! lives here in [`JobState`], and the one driver loop
//! ([`crate::driver`]) owns the fabric — with a single tenant for
//! [`crate::world::run`], with a placed fleet for `bs-cluster`. A job
//! never calls the fabric: it buffers each transfer it wants as a
//! [`Submit`] effect under its job-local tag, and the driver applies the
//! effects and gives each transfer its wire tag. The driver also applies
//! link faults; a job keeps only its loss stream, stragglers and
//! recovery state. A [`NodeMap`] translates job-local node indices
//! (worker `w`, shard `s`) to fabric [`NodeId`]s.
//!
//! Every job-side fact is recorded once, where the job already handles
//! it: compute spans in each engine's span log, credit stalls in each
//! scheduler lane's stall series, ring ops `(tag, start, end)` where
//! [`JobState::advance`] drains the ring, PS aggregation instants where
//! a push completion grants pulls. Metrics (GPU busy / comm stall), the
//! scope bus's `IterDone` split, the xray log (compute spans, stall
//! spans, ring hops) and the span trace (compute and ring spans, flow
//! arrows, counter tracks) are projections of those records, assembled
//! at close-out by [`JobState::close_out`].

use bs_comm::{AllReduceConfig, ParamServer, PartitionKey, PsConfig, RingAllReduce, ShardAssign};
use bs_core::{
    partition_tensor, ByteScheduler, CommKind, CommTask, FifoScheduler, P3Scheduler, Scheduler,
    WorkItem,
};
use bs_engine::{BusyFold, EngineEvent, ExternalRole, IterDag, NodeKind, Pass, WorkerEngine};
use bs_faults::{job_seed, FaultInjector, FaultPlan, PlanTarget};
use bs_net::{DroppedTransfer, NetEvent, NetPort, NodeId, WireXrayRecord};
use bs_scope::{ScopeBus, ScopeEvent};
use bs_sim::{SimRng, SimTime, Trace};
use bs_telemetry::MetricSet;
use bs_xray::{AggEvent, ComputeSpan, PartRecord, RingOp, StallSpan, XrayLog, XrayReport};

use crate::config::{Arch, SchedulerKind, WorldConfig};
use crate::partlog::PartLog;
use crate::plugin::{ArPluginState, PsPluginState};
use crate::result::{RunOutcome, RunResult};
use crate::token::Token;
use crate::traffic::{is_burst_tag, BurstSource};

/// Maps a job's local node indices onto fabric nodes.
///
/// Job-local node numbering follows the single-job convention: workers
/// are `0..num_workers`, PS shards are `num_workers..num_workers +
/// num_servers`. Job 0 with an identity map is a solo
/// [`crate::world::run`] — the equivalence the cluster's degenerate-case
/// tests pin.
#[derive(Clone, Debug)]
pub struct NodeMap {
    nodes: Vec<NodeId>,
    job: usize,
}

impl NodeMap {
    /// Identity map for a solo job occupying fabric nodes `0..n` as job 0.
    pub fn identity(n: usize) -> NodeMap {
        NodeMap {
            nodes: (0..n).map(NodeId).collect(),
            job: 0,
        }
    }

    /// Maps job `job`'s local nodes onto the given fabric nodes. The
    /// placement must be injective — two of a job's nodes sharing a
    /// machine would mean loopback traffic the fabric does not model.
    pub fn new(job: usize, nodes: Vec<NodeId>) -> NodeMap {
        let mut seen = std::collections::HashSet::new();
        for n in &nodes {
            assert!(seen.insert(n.0), "node {n:?} assigned twice within one job");
        }
        NodeMap { nodes, job }
    }

    /// Number of fabric nodes this job occupies.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the job occupies no fabric nodes (all-reduce jobs ride a
    /// private collective stream).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The fabric node backing job-local node `local`.
    pub fn node(&self, local: usize) -> NodeId {
        self.nodes[local]
    }

    /// All fabric nodes this job occupies, in job-local order.
    pub fn fabric_nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The job's index among its fabric's tenants.
    pub fn job(&self) -> usize {
        self.job
    }
}

/// A transfer a job asks the fabric for, under its job-local tag. Jobs
/// buffer these effects; the driver applies them in emission order and
/// owns the wire tag each transfer travels under.
#[derive(Clone, Copy, Debug)]
pub struct Submit {
    /// Sending fabric node.
    pub src: NodeId,
    /// Receiving fabric node.
    pub dst: NodeId,
    /// Payload bytes.
    pub bytes: u64,
    /// Job-local tag: a packed [`Token`] or a co-tenant burst tag.
    pub tag: u64,
}

/// Internal event routed between a job's subsystems during one timestamp.
pub enum JobEvent {
    /// An engine event from worker `usize`.
    Engine(usize, EngineEvent),
    /// A point-to-point fabric milestone, under the job-local tag.
    Net(NetEvent),
    /// A completed collective on the job's private ring stream.
    Ring(bs_comm::CompletedOp),
}

// One backend exists per job, so the Ps/Ring size gap costs nothing.
#[allow(clippy::large_enum_variant)]
enum JobBackend {
    Ps {
        ps: ParamServer,
        plug: PsPluginState,
    },
    Ring {
        ring: RingAllReduce,
        /// Global readiness and the fusion queue both graphs launch from.
        plug: ArPluginState,
        /// Fusion threshold (bytes): baseline tensors and scheduled
        /// partitions alike fuse up to it; 0 sends each item alone.
        fusion_bytes: u64,
        /// Baseline fusion-cycle launch delay; zero for scheduled runs.
        cycle_delay: SimTime,
        /// Completed ops in completion order, recorded for the span
        /// trace and xray (`None` when neither records).
        ops: Option<Vec<RingOp>>,
    },
}

/// Point-to-point statistics a driver attributes to one job when closing
/// it out (the fabric's own counters are fabric-global).
#[derive(Clone, Copy, Debug, Default)]
pub struct JobNetStats {
    /// Payload bytes delivered for this job.
    pub p2p_bytes: u64,
    /// Point-to-point deliveries for this job.
    pub comm_events: u64,
    /// Peak concurrently in-flight transfers (fabric-global high-water).
    pub peak_in_flight: usize,
    /// Busiest NIC direction's busy fraction (FIFO fabric only).
    pub peak_port_utilisation: f64,
}

/// One training job's complete simulation state minus the fabric.
pub struct JobState {
    num_workers: usize,
    /// Instant the job's compute began (its arrival, or a migrated
    /// job's resume instant).
    arrival: SimTime,
    /// PS shard count (0 for all-reduce runs).
    num_servers: usize,
    iters: u64,
    baseline_graph: bool,
    /// Per-tensor partition byte sizes.
    partitions: Vec<Vec<u64>>,
    /// Per-tensor scheduling priority.
    priorities: Vec<u64>,
    engines: Vec<WorkerEngine>,
    /// PS: one per worker. All-reduce: a single master in slot 0 (§5).
    scheds: Vec<Box<dyn Scheduler>>,
    backend: JobBackend,
    /// Co-tenant traffic source (PS only).
    burst: Option<BurstSource>,
    /// Job-local → fabric node translation.
    nodes: NodeMap,
    /// Transfers emitted since the driver last applied them.
    pub(crate) submits: Vec<Submit>,
    /// Worker 0's compute-iteration completion times.
    marks: Vec<SimTime>,
    /// Reusable buffer for scheduler polls (`drain_sched` runs on every
    /// completion; this keeps the hot path allocation-free).
    sched_scratch: Vec<WorkItem>,
    /// Causal-tracing state (`None` unless `record_xray` was set).
    xray: Option<JobXray>,
    /// Fault injection and loss recovery (`None` without a fault plan).
    faults: Option<Box<JobFaults>>,
    /// Scope observation state (`None` unless the run is observed).
    scope: Option<Box<JobScope>>,
}

/// A lost partition waiting out its retransmit backoff.
#[derive(Clone, Copy, Debug)]
struct LostPart {
    token: u64,
    bytes: u64,
}

/// Loss stream and stragglers plus the recovery state machine: lost
/// partitions sit in `pending` keyed by a monotonic sequence number until
/// their backoff `timers` fire, then re-enter the scheduler under the
/// same token. `attempts` is the per-partition retry ledger that enforces
/// the plan's retry cap; exceeding it sets `failed` and aborts the run
/// with [`RunOutcome::Failed`].
struct JobFaults {
    injector: FaultInjector,
    /// Pending backoff timers, earliest first; `seq` breaks ties.
    timers: std::collections::BTreeSet<(SimTime, u64)>,
    /// `seq` → the lost partition its timer will resubmit.
    pending: std::collections::HashMap<u64, LostPart>,
    next_seq: u64,
    /// token (or collective tag) → retransmit attempts so far. Cleared
    /// on successful delivery.
    attempts: std::collections::HashMap<u64, u32>,
    retries: u64,
    reroutes: u64,
    dropped_bytes: u64,
    reclaimed_bytes: u64,
    failed: Option<String>,
}

impl JobFaults {
    fn new(plan: &FaultPlan, seed: u64) -> JobFaults {
        JobFaults {
            injector: FaultInjector::new(plan, seed),
            timers: std::collections::BTreeSet::new(),
            pending: std::collections::HashMap::new(),
            next_seq: 0,
            attempts: std::collections::HashMap::new(),
            retries: 0,
            reroutes: 0,
            dropped_bytes: 0,
            reclaimed_bytes: 0,
            failed: None,
        }
    }
}

/// Per-job scope observation state: lifecycle events buffered in the
/// order the job emitted them, waiting for the owning driver to publish
/// them onto the run's [`ScopeBus`].
struct JobScope {
    /// Bus-visible job id.
    job: usize,
    /// Buffered events, oldest first.
    pending: Vec<ScopeEvent>,
    /// Worker 0's GPU occupancy, folded over its span log one iteration
    /// at a time.
    busy: BusyFold,
    /// Worker 0's cumulative GPU-busy seconds at the last mark.
    busy_so_far: f64,
    /// Fault-recovery retries counted through the last mark.
    retries_seen: u64,
}

/// Per-job causal-tracing state: the append-only partition log (joined
/// into [`PartRecord`]s once, at teardown) and the PS aggregation
/// instants.
struct JobXray {
    log: PartLog,
    aggs: Vec<AggEvent>,
}

impl JobState {
    /// Fabric nodes a configuration needs: workers + shards for PS, none
    /// for all-reduce (its collective stream is private).
    pub fn fabric_nodes_needed(cfg: &WorldConfig) -> usize {
        match cfg.arch {
            Arch::Ps { num_servers, .. } => cfg.num_workers + num_servers,
            Arch::AllReduce { .. } => 0,
        }
    }

    /// Builds a job starting at time zero (the solo-run case).
    pub fn build(cfg: &WorldConfig, nodes: NodeMap) -> JobState {
        Self::build_at(cfg, nodes, SimTime::ZERO)
    }

    /// Builds a job whose compute begins at `arrival` — a job joining a
    /// shared cluster mid-simulation.
    pub fn build_at(cfg: &WorldConfig, nodes: NodeMap, arrival: SimTime) -> JobState {
        assert!(cfg.num_workers >= 1, "need at least one worker");
        assert!(
            cfg.warmup + 2 <= cfg.iters,
            "need at least two measured iterations after warmup"
        );
        assert_eq!(
            nodes.len(),
            Self::fabric_nodes_needed(cfg),
            "node map must cover every worker and shard"
        );
        let n_layers = cfg.model.num_layers();

        let engine_cfg = if cfg.scheduler.needs_scheduled_engine() {
            cfg.engine.scheduled()
        } else {
            cfg.engine
        };
        let template = IterDag::build(n_layers, engine_cfg);

        let partition_unit = match cfg.scheduler {
            SchedulerKind::Baseline => None,
            SchedulerKind::FifoPartitioned { partition } => Some(partition),
            SchedulerKind::FifoCredit { partition, .. } => Some(partition),
            SchedulerKind::P3 => Some(P3Scheduler::DEFAULT_PARTITION),
            SchedulerKind::ByteScheduler { partition, .. } => Some(partition),
        };

        let tensor_bytes: Vec<u64> = cfg.model.layers.iter().map(|l| l.param_bytes).collect();
        // MXNet-style big-array splitting: the vanilla PS baseline slices
        // any tensor above 1 MB across the server shards (balanced
        // placement), while keeping the *pull-after-whole-push* key-level
        // dependency (§2.2). Scheduling policies use their own δ instead.
        const BIGARRAY_BOUND: u64 = 1 << 20;
        let baseline_split_servers = match (cfg.scheduler, cfg.arch) {
            (
                SchedulerKind::Baseline,
                Arch::Ps {
                    num_servers,
                    baseline_bigarray_split: true,
                    ..
                },
            ) => Some(num_servers as u64),
            _ => None,
        };
        if cfg.per_tensor_partition.is_some() {
            assert!(
                matches!(cfg.scheduler, SchedulerKind::ByteScheduler { .. }),
                "per-tensor partition sizes require the ByteScheduler policy"
            );
            assert_eq!(
                cfg.per_tensor_partition.as_ref().map(Vec::len),
                Some(n_layers),
                "per-tensor partition override must cover every layer"
            );
        }
        let partitions: Vec<Vec<u64>> = (0..n_layers)
            .map(|i| {
                let unit = if let Some(v) = &cfg.per_tensor_partition {
                    Some(v[i].max(1))
                } else if let Some(servers) = baseline_split_servers {
                    let slices = servers.min(tensor_bytes[i].div_ceil(BIGARRAY_BOUND)).max(1);
                    Some(tensor_bytes[i].div_ceil(slices).max(1))
                } else {
                    partition_unit
                };
                partition_tensor(
                    &CommTask {
                        tensor: i as u32,
                        kind: CommKind::Push,
                        bytes: tensor_bytes[i],
                    },
                    unit,
                )
                .iter()
                .map(|s| s.bytes)
                .collect()
            })
            .collect();

        // FifoCredit isolates the credit knob: all priorities equal, so
        // the ByteScheduler queue degenerates to arrival order.
        let priorities: Vec<u64> = if let Some(p) = &cfg.priority_override {
            assert_eq!(
                p.len(),
                n_layers,
                "priority override must cover every layer"
            );
            p.clone()
        } else if matches!(cfg.scheduler, SchedulerKind::FifoCredit { .. }) {
            vec![0; n_layers]
        } else {
            (0..n_layers)
                .map(|i| cfg.engine.kind.priority_of_layer(i, n_layers))
                .collect()
        };

        let lanes = cfg.arch.num_lanes();
        let num_scheds = match cfg.arch {
            Arch::Ps { .. } => cfg.num_workers,
            Arch::AllReduce { .. } => 1,
        };
        let scheds: Vec<Box<dyn Scheduler>> = (0..num_scheds)
            .map(|_| -> Box<dyn Scheduler> {
                match cfg.scheduler {
                    SchedulerKind::Baseline => Box::new(FifoScheduler::new(lanes)),
                    SchedulerKind::FifoPartitioned { partition } => {
                        Box::new(FifoScheduler::with_partition(Some(partition), lanes))
                    }
                    SchedulerKind::P3 => Box::new(P3Scheduler::new(lanes)),
                    SchedulerKind::ByteScheduler { partition, credit }
                    | SchedulerKind::FifoCredit { partition, credit } => {
                        Box::new(ByteScheduler::new(partition, credit, lanes))
                    }
                }
            })
            .collect();

        let mut root_rng = SimRng::new(cfg.seed);
        let engines: Vec<WorkerEngine> = (0..cfg.num_workers)
            .map(|w| {
                let jitter = if cfg.jitter > 0.0 {
                    Some((root_rng.fork(w as u64), cfg.jitter))
                } else {
                    None
                };
                WorkerEngine::new_at(template.clone(), &cfg.model, cfg.iters, jitter, arrival)
            })
            .collect();

        let backend = match cfg.arch {
            Arch::Ps {
                mode, num_servers, ..
            } => {
                // Scheduling policies spread δ-sized keys round-robin
                // (balanced); the unsplit baseline places whole tensors
                // round-robin — the naive assignment whose imbalance §6.2
                // calls out.
                let assign = if partition_unit.is_some() || baseline_split_servers.is_some() {
                    ShardAssign::PerPartition
                } else {
                    ShardAssign::PerTensor
                };
                let ps = ParamServer::new(PsConfig {
                    num_workers: cfg.num_workers,
                    num_servers,
                    assign,
                    mode,
                });
                JobBackend::Ps {
                    ps,
                    plug: PsPluginState::new(cfg.num_workers, n_layers),
                }
            }
            Arch::AllReduce {
                baseline_fusion_bytes,
                baseline_cycle_delay_us,
            } => {
                assert!(cfg.num_workers >= 2, "a ring needs at least two workers");
                // ByteScheduler replaces Horovod's coordinator cycle with
                // event-driven launches but keeps its fusion (§5).
                let cycle_us = if cfg.scheduler.needs_scheduled_engine() {
                    0
                } else {
                    baseline_cycle_delay_us
                };
                JobBackend::Ring {
                    ring: RingAllReduce::new(AllReduceConfig::new(cfg.num_workers, cfg.net)),
                    plug: ArPluginState::new(cfg.num_workers, n_layers),
                    fusion_bytes: baseline_fusion_bytes.unwrap_or(0),
                    cycle_delay: SimTime::from_micros(cycle_us),
                    ops: (cfg.record_trace || cfg.record_xray).then(Vec::new),
                }
            }
        };

        let num_servers = match cfg.arch {
            Arch::Ps { num_servers, .. } => num_servers,
            Arch::AllReduce { .. } => 0,
        };
        let mut engines = engines;
        let mut scheds = scheds;
        // The span trace, xray and the GPU-busy metrics read one
        // compute-span log per engine.
        if cfg.record_trace || cfg.record_xray || cfg.record_metrics {
            for e in &mut engines {
                e.enable_spans();
            }
        }
        if cfg.record_metrics {
            for s in &mut scheds {
                s.enable_telemetry(arrival);
            }
        }
        let xray = cfg.record_xray.then(|| {
            for s in &mut scheds {
                s.enable_xray(arrival);
            }
            // An enqueue and a grant per partition transfer: each
            // iteration every worker pushes and pulls every partition
            // (PS), or the master reduces each once (ring).
            let parts: usize = partitions.iter().map(Vec::len).sum();
            let per_iter = match cfg.arch {
                Arch::Ps { .. } => 2 * cfg.num_workers * parts,
                Arch::AllReduce { .. } => parts,
            };
            JobXray {
                log: PartLog::with_capacity(2 * per_iter * cfg.iters as usize),
                aggs: Vec::new(),
            }
        });
        let burst = cfg.background.map(|bg| {
            assert!(
                matches!(cfg.arch, Arch::Ps { .. }),
                "background load is modelled for PS runs only"
            );
            BurstSource::new(bg, cfg.seed ^ 0xB6_0000)
        });
        let faults = cfg.faults.as_ref().map(|plan| {
            let target = PlanTarget::Job {
                workers: cfg.num_workers,
                nodes: nodes.len(),
            };
            if let Err(e) = plan.check_fits(target) {
                panic!("invalid fault plan: {e}");
            }
            assert!(
                !plan.has_links(),
                "link faults are driver-applied: hoist them onto the driver's \
                 timeline (`driver::hoist_job_links`) before building the job"
            );
            for s in &plan.stragglers {
                engines[s.worker].add_compute_scale(s.from_iter, s.to_iter, s.factor);
            }
            // Each job draws its loss stream from a golden-ratio-split
            // seed so co-tenants never share Bernoulli draws; job 0's
            // split is the identity, keeping solo runs bit-identical.
            Box::new(JobFaults::new(plan, job_seed(cfg.seed, nodes.job())))
        });
        JobState {
            num_workers: cfg.num_workers,
            arrival,
            num_servers,
            iters: cfg.iters,
            baseline_graph: !cfg.scheduler.needs_scheduled_engine(),
            partitions,
            priorities,
            engines,
            scheds,
            backend,
            burst,
            nodes,
            submits: Vec::new(),
            marks: Vec::new(),
            sched_scratch: Vec::new(),
            xray,
            faults,
            scope: None,
        }
    }

    /// Switches on scope observation for this job. Worker 0's span log
    /// backs the wall/busy/stall split; enabling it here is invisible to
    /// the run's outputs, which read span logs only for the recorders the
    /// configuration requested.
    pub fn enable_scope(&mut self, job: usize) {
        self.engines[0].enable_spans();
        self.scope = Some(Box::new(JobScope {
            job,
            pending: Vec::new(),
            busy: BusyFold::default(),
            busy_so_far: 0.0,
            retries_seen: 0,
        }));
    }

    /// Publishes every buffered scope event onto `bus`, oldest first.
    pub fn publish_scope(&mut self, bus: &mut ScopeBus) {
        if let Some(sc) = self.scope.as_mut() {
            for ev in sc.pending.drain(..) {
                bus.publish(ev);
            }
        }
    }

    /// Emits the co-tenant's initial bursts: one per worker NIC in each
    /// direction, looped on delivery (see [`Self::react`]).
    pub fn emit_background(&mut self) {
        let Some(burst) = &mut self.burst else { return };
        let num_servers = self.num_servers;
        for w in 0..self.num_workers {
            let server = self.nodes.node(self.num_workers + (w % num_servers));
            burst.seed_pair(w, self.nodes.node(w), server, &mut self.submits);
        }
    }

    /// [`Self::emit_background`], submitted to `fabric` at once.
    pub fn seed_background<P: NetPort>(&mut self, now: SimTime, fabric: &mut P) {
        self.emit_background();
        self.apply_submits(now, fabric);
    }

    /// [`Self::step`], submitted to `fabric` at once.
    pub fn advance<P: NetPort>(&mut self, t: SimTime, fabric: &mut P, queue: &mut Vec<JobEvent>) {
        self.step(t, queue);
        self.apply_submits(t, fabric);
    }

    /// [`Self::react`], submitted to `fabric` at once.
    pub fn handle<P: NetPort>(
        &mut self,
        ev: JobEvent,
        now: SimTime,
        fabric: &mut P,
        out: &mut Vec<JobEvent>,
    ) {
        self.react(ev, now, out);
        self.apply_submits(now, fabric);
    }

    /// The adapters' fabric path: submits under job-local tags.
    fn apply_submits<P: NetPort>(&mut self, now: SimTime, fabric: &mut P) {
        for s in self.submits.drain(..) {
            fabric.submit(now, s.src, s.dst, s.bytes, s.tag);
        }
    }

    /// True once every worker retired all its iterations — or the run
    /// failed (recovery exhausted its retry budget) and must stop.
    pub fn done(&self) -> bool {
        self.failed().is_some()
            || self
                .engines
                .iter()
                .all(|e| e.done_iterations() == self.iters)
    }

    /// The abort reason, once recovery has given up on this run.
    pub fn failed(&self) -> Option<&str> {
        self.faults.as_ref().and_then(|f| f.failed.as_deref())
    }

    /// Iterations every worker has fully retired — the checkpoint
    /// barrier: a migrating job resumes from here and re-runs the rest.
    pub fn completed_iterations(&self) -> u64 {
        self.engines
            .iter()
            .map(|e| e.done_iterations())
            .min()
            .unwrap_or(0)
    }

    /// Fails the run from outside: the cluster driver calls this when a
    /// machine failure leaves a job with no feasible placement. Closes
    /// instrumented intervals like an exhausted retry budget would.
    pub fn abort(&mut self, reason: String, now: SimTime) {
        let f = self
            .faults
            .get_or_insert_with(|| Box::new(JobFaults::new(&FaultPlan::empty(), 0)));
        if f.failed.is_some() {
            return;
        }
        f.failed = Some(reason);
        for s in &mut self.scheds {
            s.teardown(now);
        }
    }

    /// Routes a transfer the driver killed on the fabric (a link flap or
    /// a machine failure) into this job's recovery machinery. Co-tenant
    /// bursts simply re-arm (the tenant tries again next cycle); the
    /// job's own partitions reclaim their credit — the wire never
    /// released them, so it is still out under either credit-timing
    /// discipline — and enter retransmit backoff. `d` carries its
    /// job-local tag; resubmissions become submits.
    pub fn route_fabric_drop(&mut self, d: DroppedTransfer, now: SimTime) {
        if self.faults.is_none() {
            // A faultless tenant can still lose transfers to cluster-scope
            // outages; give it recovery state with the default policy.
            self.faults = Some(Box::new(JobFaults::new(
                &FaultPlan::empty(),
                job_seed(0, self.nodes.job()),
            )));
        }
        if is_burst_tag(d.tag) {
            if let Some(b) = self.burst.as_mut() {
                b.requeue(now, d.src, d.dst, d.tag);
            }
            return;
        }
        let tok = Token::unpack(d.tag);
        {
            let f = self.faults.as_mut().expect("kill without fault state");
            f.dropped_bytes += d.bytes;
            f.reclaimed_bytes += d.bytes;
        }
        self.scheds[tok.worker].reclaim(now, tok.kind.lane(), d.bytes);
        self.drain_sched(tok.worker, now);
        self.schedule_retransmit(d.tag, d.bytes, true, now);
    }

    /// Buffers a scope event on this job's stream (no-op when the job is
    /// unobserved). The cluster driver records checkpoint/migrate/resume
    /// decisions and cluster-scope fault firings this way.
    pub fn scope_push(&mut self, ev: ScopeEvent) {
        if let Some(sc) = self.scope.as_mut() {
            sc.pending.push(ev);
        }
    }

    /// This job's node map.
    pub fn nodes(&self) -> &NodeMap {
        &self.nodes
    }

    /// Earliest instant this job does anything on its own: a GPU op ends,
    /// a co-tenant burst fires, or the private ring stream advances. The
    /// shared fabric's next event is the driver's concern.
    pub fn next_event_time(&self) -> SimTime {
        let mut t = SimTime::MAX;
        for e in &self.engines {
            t = t.min(e.next_event_time());
        }
        if let Some(b) = &self.burst {
            t = t.min(b.next_time());
        }
        if let JobBackend::Ring { ring, .. } = &self.backend {
            t = t.min(ring.next_event_time());
        }
        if let Some(f) = &self.faults {
            if f.failed.is_none() {
                if let Some(&(due, _)) = f.timers.first() {
                    t = t.min(due);
                }
            }
        }
        t
    }

    /// Advances the job's own subsystems to `t`: fires due retransmits
    /// and co-tenant bursts (as submits), retires GPU ops, and advances
    /// the private ring stream. Emitted events are pushed onto `queue`
    /// for the driver's cascade loop.
    pub fn step(&mut self, t: SimTime, queue: &mut Vec<JobEvent>) {
        if self.faults.is_some() {
            self.fire_due_retransmits(t);
        }
        if let Some(b) = &mut self.burst {
            b.fire_due(t, &mut self.submits);
        }
        for w in 0..self.engines.len() {
            let e = &mut self.engines[w];
            // An engine whose next GPU-op end lies beyond `t` (and with
            // nothing buffered) cannot emit anything; skip it.
            if e.next_event_time() > t && !e.has_pending() {
                continue;
            }
            e.advance_queued(t);
            for ev in e.drain_pending() {
                queue.push(JobEvent::Engine(w, ev));
            }
        }
        if let JobBackend::Ring { ring, ops, .. } = &mut self.backend {
            if ring.next_event_time() <= t {
                for c in ring.advance(t) {
                    if let Some(ops) = ops {
                        ops.push(RingOp {
                            tag: c.tag,
                            start: c.finished_at.saturating_sub(ring.config().op_time(c.bytes)),
                            end: c.finished_at,
                        });
                    }
                    queue.push(JobEvent::Ring(c));
                }
            }
        }
    }

    /// Routes one event through the job's plugins, schedulers and
    /// engines; granted transfers become submits. Net events carry
    /// job-local tags.
    pub fn react(&mut self, ev: JobEvent, now: SimTime, out: &mut Vec<JobEvent>) {
        // A failed run is over: stop routing events so the driver's
        // `done()` check ends the loop without scheduling more work.
        if self.failed().is_some() {
            return;
        }
        match ev {
            JobEvent::Engine(w, event) => self.handle_engine(w, event, now),
            JobEvent::Net(c) => self.handle_net(c, now, out),
            JobEvent::Ring(c) => self.handle_ring(c, now, out),
        }
    }

    /// Re-drives every lost partition whose backoff timer is due at `t`.
    /// The driver applies link changes due at `t` before any tenant
    /// advances, so a retransmit firing at the same instant sees the
    /// post-change fabric.
    fn fire_due_retransmits(&mut self, t: SimTime) {
        loop {
            let Some(f) = self.faults.as_mut() else {
                return;
            };
            if f.failed.is_some() {
                return;
            }
            let Some(&(due, seq)) = f.timers.first() else {
                break;
            };
            if due > t {
                break;
            }
            f.timers.pop_first();
            let lost = f
                .pending
                .remove(&seq)
                .expect("timer without pending partition");
            self.resubmit_lost(lost, t);
        }
    }

    /// A delivered transfer was picked by the Bernoulli loss stream: the
    /// payload is gone before any completion bookkeeping ran. Return the
    /// credit the lane still holds for it and book the retransmit.
    fn on_delivery_lost(&mut self, tag: u64, bytes: u64, now: SimTime) {
        let tok = Token::unpack(tag);
        self.faults
            .as_mut()
            .expect("loss without fault state")
            .dropped_bytes += bytes;
        // Release-gated schedulers (P3) already took their credit back
        // when the wire released the message; delivery-gated ones still
        // hold it and must reclaim, or the lane leaks and deadlocks.
        if !self.scheds[tok.worker].credit_on_release() {
            self.scheds[tok.worker].reclaim(now, tok.kind.lane(), bytes);
            self.faults.as_mut().unwrap().reclaimed_bytes += bytes;
            self.drain_sched(tok.worker, now);
        }
        self.schedule_retransmit(tag, bytes, false, now);
    }

    /// Books a retransmit for a lost partition after the policy backoff,
    /// failing the run when the partition's retry budget is exhausted.
    fn schedule_retransmit(&mut self, token: u64, bytes: u64, flap: bool, now: SimTime) {
        let f = self
            .faults
            .as_mut()
            .expect("retransmit without fault state");
        if f.failed.is_some() {
            return;
        }
        let attempt = f.attempts.entry(token).or_insert(0);
        *attempt += 1;
        let attempt = *attempt;
        let policy = f.injector.policy();
        if attempt > policy.max_retries {
            let tok = Token::unpack(token);
            f.failed = Some(format!(
                "tensor {} part {} (iter {}, worker {}) exceeded {} retransmit attempts",
                tok.tensor, tok.part, tok.iter, tok.worker, policy.max_retries
            ));
            // Close instrumented intervals so the aborted run still
            // reports correct stall totals.
            for s in &mut self.scheds {
                s.teardown(now);
            }
            return;
        }
        f.retries += 1;
        if flap {
            f.reroutes += 1;
        }
        let seq = f.next_seq;
        f.next_seq += 1;
        f.timers.insert((now + policy.backoff(attempt), seq));
        f.pending.insert(seq, LostPart { token, bytes });
        if let Some(sc) = self.scope.as_mut() {
            let tok = Token::unpack(token);
            sc.pending.push(ScopeEvent::Retransmit {
                job: sc.job,
                at: now,
                worker: tok.worker,
                tensor: tok.tensor,
                part: tok.part,
                iter: tok.iter,
                bytes,
                attempt,
                rerouted: flap,
            });
        }
    }

    /// A backoff timer fired: re-drive the lost partition through its
    /// scheduler — same token, same priority, so recovery rides the
    /// normal grant path and shows up as an extra wire span.
    fn resubmit_lost(&mut self, lost: LostPart, now: SimTime) {
        let tok = Token::unpack(lost.token);
        let item = WorkItem {
            lane: tok.kind.lane(),
            priority: self.priorities[tok.tensor as usize],
            bytes: lost.bytes,
            token: lost.token,
        };
        match self.backend {
            JobBackend::Ps { .. } => {
                self.scheds[tok.worker].submit(now, item);
                self.drain_sched(tok.worker, now);
            }
            JobBackend::Ring { .. } => unreachable!("ring losses retry on the collective stream"),
        }
    }

    fn handle_engine(&mut self, w: usize, event: EngineEvent, now: SimTime) {
        match event {
            EngineEvent::ComputeIterDone { iter: _, at } => {
                if w == 0 {
                    let retries_now = self.faults.as_ref().map_or(0, |f| f.retries);
                    self.marks.push(at);
                    if let Some(sc) = self.scope.as_mut() {
                        let iter = (self.marks.len() - 1) as u64;
                        let prev = if self.marks.len() >= 2 {
                            self.marks[self.marks.len() - 2]
                        } else {
                            self.arrival
                        };
                        let wall_secs = at.saturating_sub(prev).as_secs_f64();
                        let busy_total = self.engines[0].busy_secs(&mut sc.busy, at);
                        let busy_secs = (busy_total - sc.busy_so_far).max(0.0);
                        sc.busy_so_far = busy_total;
                        let retries = retries_now - sc.retries_seen;
                        sc.retries_seen = retries_now;
                        sc.pending.push(ScopeEvent::IterDone {
                            job: sc.job,
                            at,
                            iter,
                            wall_secs,
                            busy_secs,
                            stall_secs: (wall_secs - busy_secs).max(0.0),
                            retries,
                        });
                    }
                }
            }
            EngineEvent::AllDone { .. } => {}
            EngineEvent::ExternalReady { iter, role, .. } => match role {
                ExternalRole::ProxyReady(i) | ExternalRole::Push(i)
                    if matches!(self.backend, JobBackend::Ps { .. }) =>
                {
                    self.on_grad_ready_ps(w, i, iter, now);
                }
                ExternalRole::ProxyReady(i) | ExternalRole::AllReduce(i) => {
                    self.on_grad_ready_ar(i, iter, now);
                }
                ExternalRole::Pull(_) | ExternalRole::ProxyFinish(_) => {}
                other => panic!("role {other:?} unexpected for this backend"),
            },
        }
    }

    /// Worker `w`'s gradient for tensor `i` is ready: submit its push
    /// subtasks to the worker's scheduler.
    fn on_grad_ready_ps(&mut self, w: usize, i: usize, iter: u64, now: SimTime) {
        let JobBackend::Ps { plug, .. } = &mut self.backend else {
            unreachable!("push readiness on a ring job")
        };
        plug.on_grad_ready(w, i, iter, self.partitions[i].len() as u32);
        for (p, &bytes) in self.partitions[i].iter().enumerate() {
            let token = Token {
                iter,
                worker: w,
                kind: CommKind::Push,
                tensor: i as u32,
                part: p as u32,
            }
            .pack();
            if let Some(x) = self.xray.as_mut() {
                // BP produced the gradient this instant; the runtime
                // enqueues it in the same instant.
                x.log.enqueued(token, now);
            }
            self.scheds[w].submit(
                now,
                WorkItem {
                    lane: CommKind::Push.lane(),
                    priority: self.priorities[i],
                    bytes,
                    token,
                },
            );
        }
        self.drain_sched(w, now);
    }

    /// A worker reported tensor `i` ready for all-reduce. When the last
    /// worker reports, the master submits the collective (§5): the
    /// baseline queues the whole tensor for fusion (bypassing the
    /// scheduler), a scheduling policy submits its partitions to the
    /// master scheduler.
    fn on_grad_ready_ar(&mut self, i: usize, iter: u64, now: SimTime) {
        let JobBackend::Ring { plug, .. } = &mut self.backend else {
            unreachable!("all-reduce readiness on a PS job")
        };
        let parts = if self.baseline_graph {
            1
        } else {
            self.partitions[i].len() as u32
        };
        if !plug.on_worker_ready(i, iter, parts) {
            return;
        }
        if self.baseline_graph {
            let token = Token {
                iter,
                worker: 0,
                kind: CommKind::AllReduce,
                tensor: i as u32,
                part: 0,
            }
            .pack();
            plug.queue_for_fusion(token, self.partitions[i].iter().sum());
        } else {
            for (p, &bytes) in self.partitions[i].iter().enumerate() {
                let token = Token {
                    iter,
                    worker: 0,
                    kind: CommKind::AllReduce,
                    tensor: i as u32,
                    part: p as u32,
                }
                .pack();
                if let Some(x) = self.xray.as_mut() {
                    x.log.enqueued(token, now);
                }
                self.scheds[0].submit(
                    now,
                    WorkItem {
                        lane: 0,
                        priority: self.priorities[i],
                        bytes,
                        token,
                    },
                );
            }
            self.drain_sched_ring(now);
        }
        self.launch_fused(now);
    }

    /// Hands everything worker `s`'s scheduler releases to the wire (PS
    /// jobs only).
    fn drain_sched(&mut self, s: usize, now: SimTime) {
        let JobBackend::Ps { ps, .. } = &mut self.backend else {
            unreachable!("fabric grant on a ring job")
        };
        let mut items = std::mem::take(&mut self.sched_scratch);
        debug_assert!(items.is_empty());
        self.scheds[s].poll_into(now, &mut items);
        for item in items.drain(..) {
            if let Some(x) = self.xray.as_mut() {
                x.log.granted(item.token, now);
            }
            let tok = Token::unpack(item.token);
            let key = PartitionKey {
                tensor: tok.tensor,
                part: tok.part,
            };
            let shard = self.nodes.node(ps.shard_of(key).0);
            let worker = self.nodes.node(tok.worker);
            let (src, dst) = match tok.kind {
                CommKind::Push => (worker, shard),
                CommKind::Pull => (shard, worker),
                CommKind::AllReduce => unreachable!("all-reduce token on PS backend"),
            };
            self.submits.push(Submit {
                src,
                dst,
                bytes: item.bytes,
                tag: item.token,
            });
        }
        self.sched_scratch = items;
    }

    /// Ring variant of [`Self::drain_sched`]: released partitions join
    /// the fusion queue on their way to the ring (§5: ByteScheduler wraps
    /// Horovod's DistributedOptimizer); FIFO keeps the priority order the
    /// scheduler chose.
    fn drain_sched_ring(&mut self, now: SimTime) {
        let JobBackend::Ring { plug, .. } = &mut self.backend else {
            unreachable!("collective grant on a PS job")
        };
        let mut items = std::mem::take(&mut self.sched_scratch);
        debug_assert!(items.is_empty());
        self.scheds[0].poll_into(now, &mut items);
        for item in items.drain(..) {
            if let Some(x) = self.xray.as_mut() {
                x.log.granted(item.token, now);
            }
            plug.queue_for_fusion(item.token, item.bytes);
        }
        self.sched_scratch = items;
    }

    /// Launches the next fused collective if the ring is idle (ring FIFO
    /// means pre-queueing buys nothing, and waiting maximises fusion). The
    /// baseline batch waits out Horovod's coordinator cycle; a scheduled
    /// one launches at once — event-driven launching is one of
    /// ByteScheduler's implementation advantages.
    fn launch_fused(&mut self, now: SimTime) {
        let JobBackend::Ring {
            ring,
            plug,
            fusion_bytes,
            cycle_delay,
            ..
        } = &mut self.backend
        else {
            unreachable!("fused launch on a PS job")
        };
        if ring.outstanding() > 0 {
            return;
        }
        if let Some((id, bytes)) = plug.next_fused_batch(*fusion_bytes) {
            ring.submit_after(now, *cycle_delay, bytes, id);
        }
    }

    /// Queues one pull partition on the worker's scheduler.
    fn submit_pull(&mut self, worker: usize, tensor: usize, iter: u64, part: u32, now: SimTime) {
        let token = Token {
            iter,
            worker,
            kind: CommKind::Pull,
            tensor: tensor as u32,
            part,
        }
        .pack();
        let bytes = self.partitions[tensor][part as usize];
        if let Some(x) = self.xray.as_mut() {
            // A pull is enqueued at the aggregation grant that made it
            // legal.
            x.log.enqueued(token, now);
        }
        self.scheds[worker].submit(
            now,
            WorkItem {
                lane: CommKind::Pull.lane(),
                priority: self.priorities[tensor],
                bytes,
                token,
            },
        );
    }

    fn handle_net(&mut self, ev: NetEvent, now: SimTime, out: &mut Vec<JobEvent>) {
        let c = match ev {
            // Co-tenant bursts loop forever: when one delivers, schedule
            // the next after the configured gap. Releases are ignored.
            NetEvent::Delivered(c) if is_burst_tag(c.tag) => {
                let burst = self.burst.as_mut().expect("bg transfer without config");
                burst.requeue(now, c.src, c.dst, c.tag);
                return;
            }
            NetEvent::Released(c) if is_burst_tag(c.tag) => return,
            NetEvent::Released(c) => {
                // Wire accepted the message: release-gated schedulers
                // (P3's stop-and-wait) get their credit back now.
                let tok = Token::unpack(c.tag);
                if self.scheds[tok.worker].credit_on_release() {
                    self.scheds[tok.worker].complete(now, tok.kind.lane(), c.bytes);
                    self.drain_sched(tok.worker, now);
                }
                return;
            }
            NetEvent::Delivered(c) => c,
        };
        if let Some(f) = self.faults.as_mut() {
            // One Bernoulli draw per candidate delivery, in delivery
            // order — the loss stream's determinism contract.
            if f.injector.has_loss() && f.injector.should_drop() {
                self.on_delivery_lost(c.tag, c.bytes, now);
                return;
            }
            // Delivered for real: close the partition's retry ledger.
            if !f.attempts.is_empty() {
                f.attempts.remove(&c.tag);
            }
        }
        let tok = Token::unpack(c.tag);
        let (w, i) = (tok.worker, tok.tensor as usize);
        let credit_on_delivery = !self.scheds[w].credit_on_release();
        match tok.kind {
            CommKind::Push => {
                if credit_on_delivery {
                    self.scheds[w].complete(now, CommKind::Push.lane(), c.bytes);
                    self.drain_sched(w, now);
                }
                let JobBackend::Ps { ps, plug } = &mut self.backend else {
                    unreachable!("push completion without PS backend")
                };
                if plug.on_push_part_done(w, i, tok.iter) && self.baseline_graph {
                    release(
                        &mut self.engines,
                        w,
                        now,
                        tok.iter,
                        ExternalRole::Push(i),
                        out,
                    );
                }
                // Aggregation bookkeeping: which pulls became legal?
                let key = PartitionKey {
                    tensor: tok.tensor,
                    part: tok.part,
                };
                let mut grants = ps.on_push_complete(tok.iter, key, w);
                if let (Some(x), false) = (self.xray.as_mut(), grants.is_empty()) {
                    x.aggs.push(AggEvent {
                        iter: tok.iter,
                        tensor: key.tensor,
                        part: key.part,
                        at: now,
                    });
                }
                if self.baseline_graph {
                    // Key-level dependency: the worker pulls the tensor
                    // only once every slice is aggregated.
                    grants.retain(|g| plug.on_grant_part(g.worker, i, tok.iter));
                }
                for g in grants {
                    if self.baseline_graph {
                        for p in 0..self.partitions[i].len() {
                            self.submit_pull(g.worker, i, tok.iter, p as u32, now);
                        }
                    } else {
                        // Partition-level dependency: partial pull after
                        // partial push (Theorem 1 condition 3).
                        self.submit_pull(g.worker, i, tok.iter, g.key.part, now);
                    }
                    self.drain_sched(g.worker, now);
                }
            }
            CommKind::Pull => {
                if credit_on_delivery {
                    self.scheds[w].complete(now, CommKind::Pull.lane(), c.bytes);
                    self.drain_sched(w, now);
                }
                let JobBackend::Ps { plug, .. } = &mut self.backend else {
                    unreachable!("pull completion without PS backend")
                };
                if plug.on_pull_part_done(w, i, tok.iter) {
                    let (iter, role) = if self.baseline_graph {
                        (tok.iter, ExternalRole::Pull(i))
                    } else {
                        (tok.iter + 1, ExternalRole::ProxyFinish(i))
                    };
                    release(&mut self.engines, w, now, iter, role, out);
                }
            }
            CommKind::AllReduce => unreachable!("collective token on the p2p network"),
        }
    }

    fn handle_ring(&mut self, c: bs_comm::CompletedOp, now: SimTime, out: &mut Vec<JobEvent>) {
        if self.faults.as_ref().is_some_and(|f| f.injector.has_loss()) {
            let f = self.faults.as_mut().unwrap();
            if f.injector.should_drop() {
                // The collective failed: no member completes. Re-run the
                // whole op after backoff — the ring is analytic, so the
                // retry is a fresh submission under the same tag.
                f.dropped_bytes += c.bytes;
                let attempt = f.attempts.entry(c.tag).or_insert(0);
                *attempt += 1;
                let attempt = *attempt;
                let policy = f.injector.policy();
                if attempt > policy.max_retries {
                    f.failed = Some(format!(
                        "collective {} exceeded {} retransmit attempts",
                        c.tag, policy.max_retries
                    ));
                    for s in &mut self.scheds {
                        s.teardown(now);
                    }
                    return;
                }
                f.retries += 1;
                let delay = policy.backoff(attempt);
                let JobBackend::Ring { ring, .. } = &mut self.backend else {
                    unreachable!("ring completion without ring backend")
                };
                ring.submit_after(now, delay, c.bytes, c.tag);
                return;
            }
            if !f.attempts.is_empty() {
                f.attempts.remove(&c.tag);
            }
        }
        let JobBackend::Ring { plug, .. } = &mut self.backend else {
            unreachable!("ring completion without ring backend")
        };
        for (token, bytes) in plug.take_batch(c.tag) {
            let tok = Token::unpack(token);
            let i = tok.tensor as usize;
            if !self.baseline_graph {
                self.scheds[0].complete(now, 0, bytes);
            }
            if plug.on_part_done(i, tok.iter) {
                let (iter, role) = if self.baseline_graph {
                    (tok.iter, ExternalRole::AllReduce(i))
                } else {
                    (tok.iter + 1, ExternalRole::ProxyFinish(i))
                };
                for w in 0..self.num_workers {
                    release(&mut self.engines, w, now, iter, role, out);
                }
            }
        }
        if !self.baseline_graph {
            self.drain_sched_ring(now);
        }
        self.launch_fused(now);
    }

    /// Flushes every instrumented subsystem into one [`MetricSet`] with
    /// summaries closed at `now`; call only when metrics were recorded.
    /// Scheduler metrics get a `worker{w}/sched/` prefix (PS: one
    /// scheduler per worker) or `sched/` (all-reduce: a single master).
    /// Each worker's GPU occupancy lands as a `worker{w}/gpu_busy` series
    /// beside `gpu_busy_secs` / `comm_stall_secs` gauges — the stall
    /// being the part of the worker's window its GPU sat idle waiting on
    /// communication (Fig. 1's "network idle" time). All three are folds
    /// over the worker's compute-span log.
    fn take_metrics(&mut self, now: SimTime) -> MetricSet {
        let mut ms = MetricSet::new();
        ms.horizon = now;
        let solo_sched = self.scheds.len() == 1;
        for (s, sched) in self.scheds.iter_mut().enumerate() {
            if let Some(m) = sched.take_metrics(now) {
                if solo_sched {
                    ms.absorb("sched/", m);
                } else {
                    ms.absorb(&format!("worker{s}/sched/"), m);
                }
            }
        }
        let window = now.saturating_sub(self.arrival).as_secs_f64();
        for (w, engine) in self.engines.iter().enumerate() {
            let busy_secs = engine.busy_secs(&mut BusyFold::default(), now);
            ms.gauge(format!("worker{w}/gpu_busy_secs"), busy_secs);
            ms.gauge(
                format!("worker{w}/comm_stall_secs"),
                (window - busy_secs).max(0.0),
            );
            ms.series(
                format!("worker{w}/gpu_busy"),
                engine.busy_series(self.arrival),
            );
        }
        if let Some(f) = &self.faults {
            ms.counter("faults/retries", f.retries);
            ms.counter("faults/reroutes", f.reroutes);
            ms.counter("faults/dropped_bytes", f.dropped_bytes);
            ms.counter("faults/reclaimed_bytes", f.reclaimed_bytes);
        }
        ms
    }

    /// Joins the partition log with `wire`, this job's share of the
    /// fabric's wire log (no records when the job was built without
    /// `record_xray`). The log is taken; the aggregation instants stay.
    fn join_parts(&mut self, wire: &[WireXrayRecord]) -> Vec<PartRecord> {
        match self.xray.as_mut() {
            Some(x) => std::mem::take(&mut x.log).into_records(&self.partitions, wire),
            None => Vec::new(),
        }
    }

    /// Assembles the xray log from the joined partition records and the
    /// job's other records, or `None` when the job was built without
    /// `record_xray`. It is the compute-span logs' last reader and takes
    /// them (so they are freed before the report is built); the stall
    /// series and ring ops stay where they are.
    fn take_xray_log(
        &mut self,
        cfg: &WorldConfig,
        finished_at: SimTime,
        parts: Vec<PartRecord>,
    ) -> Option<XrayLog> {
        let x = self.xray.take()?;
        let mut log = XrayLog {
            scheduler: cfg.scheduler.label().to_string(),
            start: self.arrival,
            end: finished_at,
            warmup: cfg.warmup as usize,
            marks: self.marks.clone(),
            parts,
            aggs: x.aggs,
            ..XrayLog::default()
        };
        for (w, engine) in self.engines.iter_mut().enumerate() {
            for (iter, node, start, end) in engine.take_spans() {
                if let NodeKind::Compute { layer, pass } = engine.dag().nodes[node].kind {
                    log.compute.push(ComputeSpan {
                        worker: w,
                        iter,
                        layer: layer as u32,
                        backward: matches!(pass, Pass::Backward),
                        start,
                        end,
                    });
                }
            }
        }
        for (s, sched) in self.scheds.iter_mut().enumerate() {
            if let Some(stalls) = sched.take_xray(finished_at) {
                for (lane, start, end) in stalls {
                    log.stalls.push(StallSpan {
                        worker: s,
                        lane,
                        start,
                        end,
                    });
                }
            }
        }
        if let JobBackend::Ring { ops: Some(ops), .. } = &self.backend {
            log.ring_hops = ops
                .iter()
                .flat_map(|op| op.hops(self.num_workers))
                .collect();
            log.ring_ops = ops.clone();
        }
        Some(log)
    }

    /// Closes the job out into a [`RunResult`]. `net` carries the
    /// point-to-point statistics the driver attributes to this job (the
    /// solo driver passes fabric totals; a cluster driver passes per-job
    /// counters); ring statistics come from the job's private stream.
    /// Recorders read here are the job's own; [`Self::close_out`] adds
    /// the fabric's wire records and the span trace.
    pub fn into_result(
        mut self,
        cfg: &WorldConfig,
        finished_at: SimTime,
        net: JobNetStats,
    ) -> RunResult {
        let parts = self.join_parts(&[]);
        self.result(cfg, finished_at, net, parts)
    }

    /// [`Self::into_result`] over partition records already joined.
    fn result(
        mut self,
        cfg: &WorldConfig,
        finished_at: SimTime,
        net: JobNetStats,
        parts: Vec<PartRecord>,
    ) -> RunResult {
        // Metrics first: the xray log is the span logs' last reader.
        let metrics = cfg.record_metrics.then(|| self.take_metrics(finished_at));
        if let Some(reason) = self.faults.as_ref().and_then(|f| f.failed.clone()) {
            // The run aborted before measuring anything; report the
            // outcome (and whatever metrics were recorded) instead of
            // asserting on missing iteration marks.
            let mut result = RunResult::failed(
                cfg.model.sample_unit.label(),
                cfg.scheduler.label(),
                finished_at,
                reason,
            );
            result.metrics = metrics;
            return result;
        }
        let xray = self
            .take_xray_log(cfg, finished_at, parts)
            .map(|log| XrayReport::build(&log));
        let (p2p, coll, comm_events, peak_in_flight) = match &self.backend {
            JobBackend::Ps { .. } => (net.p2p_bytes, 0, net.comm_events, net.peak_in_flight),
            JobBackend::Ring { ring, .. } => (0, ring.bytes_reduced(), ring.ops_reduced(), 0),
        };
        let mut result = RunResult::from_iteration_marks(
            &self.marks,
            cfg.warmup as usize,
            cfg.global_batch(),
            cfg.model.sample_unit.label(),
            cfg.scheduler.label(),
            p2p,
            coll,
            finished_at,
        );
        result.peak_port_utilisation = match self.backend {
            JobBackend::Ps { .. } => net.peak_port_utilisation,
            JobBackend::Ring { .. } => 0.0,
        };
        result.comm_events = comm_events;
        result.peak_in_flight = peak_in_flight;
        result.metrics = metrics;
        result.xray = xray;
        if let Some(f) = &self.faults {
            if f.retries > 0 || f.dropped_bytes > 0 {
                result.outcome = RunOutcome::DegradedCompleted {
                    retries: f.retries,
                    reroutes: f.reroutes,
                };
            }
        }
        result
    }

    /// Closes the job out with every recorder projected: the one teardown
    /// both the solo run and the cluster call. `wire` is this job's share
    /// of the fabric's wire log (job-local tags; bursts are skipped) and
    /// completes the xray partition records. With a `trace`, the job's
    /// compute and ring spans, flow arrows and metric series (as counter
    /// tracks) land on it under track names prefixed by `prefix`; the
    /// fabric's wire spans and `net/` series are the caller's.
    pub fn close_out(
        mut self,
        cfg: &WorldConfig,
        finished_at: SimTime,
        net: JobNetStats,
        wire: Vec<WireXrayRecord>,
        mut trace: Option<&mut Trace>,
        prefix: &str,
    ) -> RunResult {
        let parts = self.join_parts(&wire);
        // Freed before the xray report is built.
        drop(wire);
        if let Some(trace) = trace.as_deref_mut() {
            self.append_compute_trace(trace, prefix);
            self.append_ring_trace(trace, prefix);
            self.append_xray_flows(trace, prefix, &parts);
        }
        let result = self.result(cfg, finished_at, net, parts);
        if let (Some(trace), Some(ms)) = (trace, &result.metrics) {
            for t in ms.counter_tracks() {
                trace.push_counter(format!("{prefix}{}", t.name), t.samples);
            }
        }
        result
    }

    /// Appends the compute spans, one per retired GPU op.
    fn append_compute_trace(&self, trace: &mut Trace, prefix: &str) {
        for (w, engine) in self.engines.iter().enumerate() {
            let dag = engine.dag();
            for &(iter, node, start, end) in engine.spans() {
                let name = match dag.nodes[node].kind {
                    NodeKind::Compute { layer, pass } => match pass {
                        Pass::Forward => format!("fwd{layer}@it{iter}"),
                        Pass::Backward => format!("bwd{layer}@it{iter}"),
                    },
                    _ => continue,
                };
                trace.push(name, format!("{prefix}worker{w}/gpu"), start, end);
            }
        }
    }

    /// Appends each ring op: the full op on the `ring` track plus its
    /// reduce-scatter and all-gather halves on phase-colored sub-tracks.
    fn append_ring_trace(&self, trace: &mut Trace, prefix: &str) {
        let JobBackend::Ring { ops: Some(ops), .. } = &self.backend else {
            return;
        };
        for op in ops {
            let (tag, rs_end) = (op.tag, op.phase_boundary(self.num_workers));
            // Scheduled batches and baseline fused batches both use
            // opaque batch ids; name them generically.
            trace.push(
                format!("allreduce batch {tag}"),
                format!("{prefix}ring"),
                op.start,
                op.end,
            );
            trace.push(
                format!("reduce_scatter b{tag}"),
                format!("{prefix}ring/reduce_scatter"),
                op.start,
                rs_end,
            );
            trace.push(
                format!("all_gather b{tag}"),
                format!("{prefix}ring/all_gather"),
                rs_end,
                op.end,
            );
        }
    }

    /// Appends causal flow arrows (xray only): BP production → wire
    /// start, one per push partition (of the joined `parts`) that reached
    /// the wire, and one per ring chunk across the op's reduce-scatter →
    /// all-gather boundary.
    fn append_xray_flows(&self, trace: &mut Trace, prefix: &str, parts: &[PartRecord]) {
        if self.xray.is_none() {
            return;
        }
        for p in parts {
            if p.pull || !p.wire_seen {
                continue;
            }
            trace.push_flow(
                format!("t{}.p{}@it{}", p.tensor, p.part, p.iter),
                format!("{prefix}worker{}/gpu", p.worker),
                p.enqueued,
                format!("{prefix}worker{}/up", p.worker),
                p.wire_start,
            );
        }
        if let JobBackend::Ring { ops: Some(ops), .. } = &self.backend {
            for op in ops {
                let at = op.phase_boundary(self.num_workers);
                for chunk in 0..self.num_workers {
                    trace.push_flow(
                        format!("b{} chunk{chunk}", op.tag),
                        format!("{prefix}ring/reduce_scatter"),
                        at,
                        format!("{prefix}ring/all_gather"),
                        at,
                    );
                }
            }
        }
    }

    /// Per-worker queued-subtask counts — the first tool to reach for
    /// when a configuration seems wedged.
    pub fn debug_sched_queues(&self) -> Vec<usize> {
        self.scheds.iter().map(|s| s.queued()).collect()
    }

    /// Per-worker retired-iteration counts.
    pub fn debug_iterations(&self) -> Vec<u64> {
        self.engines.iter().map(|e| e.done_iterations()).collect()
    }
}

/// Completes `role` at `iter` on worker `w`'s engine and forwards the
/// events the engine emits onto `out`.
fn release(
    engines: &mut [WorkerEngine],
    w: usize,
    now: SimTime,
    iter: u64,
    role: ExternalRole,
    out: &mut Vec<JobEvent>,
) {
    engines[w].complete_external_queued(now, iter, role);
    out.extend(engines[w].drain_pending().map(|ev| JobEvent::Engine(w, ev)));
}

/// Names the wire span of one wire lifecycle record (its wire start to
/// its release) from its job-local tag, matching the single-job trace
/// conventions: co-tenant bursts are labelled by node pair, subtask
/// transfers by `(kind, tensor, partition, iteration)` on the owning
/// worker's up/down track. Track names get `prefix` prepended.
pub fn wire_span_into_trace(trace: &mut Trace, rec: &WireXrayRecord, prefix: &str) {
    let &(tag, src, dst, _, start, end, _) = rec;
    if is_burst_tag(tag) {
        trace.push(
            "co-tenant burst",
            format!("{prefix}node{src}->node{dst}/bg"),
            start,
            end,
        );
        return;
    }
    let tok = Token::unpack(tag);
    let (name, track) = match tok.kind {
        CommKind::Push => (
            format!("push t{}.p{}@it{}", tok.tensor, tok.part, tok.iter),
            format!("{prefix}worker{}/up", tok.worker),
        ),
        CommKind::Pull => (
            format!("pull t{}.p{}@it{}", tok.tensor, tok.part, tok.iter),
            format!("{prefix}worker{}/down", tok.worker),
        ),
        CommKind::AllReduce => unreachable!("collective on p2p fabric"),
    };
    trace.push(name, track, start, end);
}
