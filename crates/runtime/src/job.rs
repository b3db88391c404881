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
//! Like the paper's generic Core with a thin plugin per architecture
//! (§3.2, §5), a job is a shared [`JobCore`] and a backend,
//! [`crate::ps_job::PsJob`] or [`crate::ring_job::RingJob`], whose
//! methods take the core; [`JobState`] dispatches each event once.
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

use std::collections::{BTreeSet, HashMap};

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
use bs_xray::{AggEvent, ComputeSpan, PartRecord, StallSpan, XrayLog, XrayReport};

use crate::config::{Arch, SchedulerKind, WorldConfig};
use crate::partlog::PartLog;
use crate::ps_job::PsJob;
use crate::result::{RunOutcome, RunResult};
use crate::ring_job::RingJob;
use crate::token::Token;
use crate::traffic::is_burst_tag;

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
pub(crate) enum JobBackend {
    Ps(PsJob),
    Ring(RingJob),
}

/// The engine graph a job runs (§3.1), fixed at build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Graph {
    /// The framework's: each comm op is a node of its iteration.
    Baseline,
    /// ByteScheduler's: a Dependency Proxy per tensor.
    Scheduled,
}

impl Graph {
    /// The engine dependency a tensor's finished comm op `op` of `iter`
    /// releases: the op itself, or the proxy finish of `iter + 1` once
    /// the tensor's last op (not a push) is done.
    fn release(self, iter: u64, op: ExternalRole) -> Option<(u64, ExternalRole)> {
        match (self, op) {
            (Graph::Baseline, op) => Some((iter, op)),
            (Graph::Scheduled, ExternalRole::Pull(i) | ExternalRole::AllReduce(i)) => {
                Some((iter + 1, ExternalRole::ProxyFinish(i)))
            }
            (Graph::Scheduled, _) => None,
        }
    }
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
    pub(crate) core: JobCore,
    backend: JobBackend,
}

/// What a backend asks of the shared core at build.
pub(crate) struct Layout {
    /// Schedulers: one per worker (PS) or a single master (§5).
    pub(crate) scheds: usize,
    /// Transfers per partition and iteration (sizes the xray log).
    pub(crate) transfers_per_part: usize,
    /// Shards the PS baseline's big-array split slices across.
    pub(crate) bigarray_servers: Option<u64>,
}

/// The architecture-independent half of a job.
pub(crate) struct JobCore {
    pub(crate) num_workers: usize,
    /// Instant the job's compute began (its arrival, or a migrated
    /// job's resume instant).
    arrival: SimTime,
    iters: u64,
    pub(crate) graph: Graph,
    /// Per-tensor partition byte sizes.
    pub(crate) partitions: Vec<Vec<u64>>,
    /// Per-tensor scheduling priority.
    pub(crate) priorities: Vec<u64>,
    engines: Vec<WorkerEngine>,
    /// PS: one per worker. All-reduce: a single master in slot 0 (§5).
    pub(crate) scheds: Vec<Box<dyn Scheduler>>,
    /// Job-local → fabric node translation.
    pub(crate) nodes: NodeMap,
    /// Transfers emitted since the driver last applied them.
    pub(crate) submits: Vec<Submit>,
    /// Worker 0's compute-iteration completion times.
    marks: Vec<SimTime>,
    /// Reusable buffer for scheduler polls (a drain runs on every
    /// completion; this keeps the hot path allocation-free).
    sched_scratch: Vec<WorkItem>,
    /// Causal-tracing state (`None` unless `record_xray` was set).
    pub(crate) xray: Option<JobXray>,
    /// Fault injection and loss recovery (`None` without a fault plan).
    pub(crate) faults: Option<Box<JobFaults>>,
    /// Scope observation state (`None` unless the run is observed).
    pub(crate) scope: Option<Box<JobScope>>,
}

/// Loss stream and stragglers plus the recovery state machine. `attempts`
/// is the one per-tag retry ledger, for partitions and collectives alike:
/// exceeding the plan's cap sets `failed` and aborts the run with
/// [`RunOutcome::Failed`]. A lost PS partition waits in `timers` until
/// its backoff ends, then re-enters the scheduler under the same token.
pub(crate) struct JobFaults {
    injector: FaultInjector,
    /// `(due, seq, token)` backoff timers, earliest first. `seq` is the
    /// retry count at booking, so ties fire in booking order.
    timers: BTreeSet<(SimTime, u64, u64)>,
    /// token (or collective tag) → retransmit attempts so far. Cleared
    /// on successful delivery.
    attempts: HashMap<u64, u32>,
    retries: u64,
    pub(crate) reroutes: u64,
    pub(crate) dropped_bytes: u64,
    pub(crate) reclaimed_bytes: u64,
    failed: Option<String>,
}

impl JobFaults {
    pub(crate) fn new(plan: &FaultPlan, seed: u64) -> JobFaults {
        JobFaults {
            injector: FaultInjector::new(plan, seed),
            timers: BTreeSet::new(),
            attempts: HashMap::new(),
            retries: 0,
            reroutes: 0,
            dropped_bytes: 0,
            reclaimed_bytes: 0,
            failed: None,
        }
    }

    /// Draws whether the completion of `tag` is lost (one draw per
    /// candidate, in completion order: the loss stream's determinism
    /// contract); one that lands closes the tag's retry ledger.
    pub(crate) fn lost(&mut self, tag: u64) -> bool {
        if self.injector.has_loss() && self.injector.should_drop() {
            return true;
        }
        if !self.attempts.is_empty() {
            self.attempts.remove(&tag);
        }
        false
    }

    /// Sets a backoff timer resubmitting partition `token` at `at`.
    pub(crate) fn defer(&mut self, at: SimTime, token: u64) {
        self.timers.insert((at, self.retries, token));
    }

    /// The earliest pending backoff timer, while the run is alive.
    pub(crate) fn next_timer(&self) -> Option<SimTime> {
        let first = self.timers.first().filter(|_| self.failed.is_none());
        first.map(|&(due, ..)| due)
    }

    /// Pops the next lost partition whose backoff is due at `t`.
    pub(crate) fn pop_due(&mut self, t: SimTime) -> Option<u64> {
        if self.next_timer()? > t {
            return None;
        }
        self.timers.pop_first().map(|(.., token)| token)
    }
}

/// Per-job scope observation state: lifecycle events buffered in the
/// order the job emitted them, waiting for the owning driver to publish
/// them onto the run's [`ScopeBus`].
#[derive(Default)]
pub(crate) struct JobScope {
    /// Bus-visible job id.
    pub(crate) job: usize,
    /// Buffered events, oldest first.
    pub(crate) pending: Vec<ScopeEvent>,
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
pub(crate) struct JobXray {
    log: PartLog,
    pub(crate) aggs: Vec<AggEvent>,
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
        let (backend, layout) = match cfg.arch {
            Arch::Ps {
                mode,
                num_servers,
                baseline_bigarray_split: split,
            } => PsJob::build(cfg, mode, num_servers, split),
            Arch::AllReduce {
                baseline_fusion_bytes: fusion,
                baseline_cycle_delay_us: delay,
            } => RingJob::build(cfg, fusion, delay),
        };
        JobState {
            core: JobCore::new(cfg, nodes, arrival, layout),
            backend,
        }
    }

    /// Switches on scope observation for this job. Worker 0's span log
    /// backs the wall/busy/stall split; enabling it here is invisible to
    /// the run's outputs, which read span logs only for the recorders the
    /// configuration requested.
    pub fn enable_scope(&mut self, job: usize) {
        self.core.engines[0].enable_spans();
        self.core.scope = Some(Box::new(JobScope {
            job,
            ..JobScope::default()
        }));
    }

    /// Publishes every buffered scope event onto `bus`, oldest first.
    pub fn publish_scope(&mut self, bus: &mut ScopeBus) {
        if let Some(sc) = self.core.scope.as_mut() {
            for ev in sc.pending.drain(..) {
                bus.publish(ev);
            }
        }
    }

    /// Emits the co-tenant's initial bursts (PS only).
    pub fn emit_background(&mut self) {
        if let JobBackend::Ps(ps) = &self.backend {
            ps.emit_background(&mut self.core);
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
        for s in self.core.submits.drain(..) {
            fabric.submit(now, s.src, s.dst, s.bytes, s.tag);
        }
    }

    /// True once every worker retired all its iterations — or the run
    /// failed (recovery exhausted its retry budget) and must stop.
    pub fn done(&self) -> bool {
        let (engines, iters) = (&self.core.engines, self.core.iters);
        self.failed().is_some() || engines.iter().all(|e| e.done_iterations() == iters)
    }

    /// The abort reason, once recovery has given up on this run.
    pub fn failed(&self) -> Option<&str> {
        self.core.faults.as_ref().and_then(|f| f.failed.as_deref())
    }

    /// Iterations every worker has fully retired — the checkpoint
    /// barrier: a migrating job resumes from here and re-runs the rest.
    pub fn completed_iterations(&self) -> u64 {
        self.debug_iterations().into_iter().min().unwrap_or(0)
    }

    /// Fails the run from outside: the cluster driver calls this when a
    /// machine failure leaves a job with no feasible placement. Closes
    /// instrumented intervals like an exhausted retry budget would.
    pub fn abort(&mut self, reason: String, now: SimTime) {
        self.core.abort(reason, now);
    }

    /// Routes a transfer the driver killed on the fabric (a link flap or
    /// a machine failure), under its job-local tag, into recovery. Only
    /// PS jobs have transfers on the fabric.
    pub fn route_fabric_drop(&mut self, d: DroppedTransfer, now: SimTime) {
        if let JobBackend::Ps(ps) = &mut self.backend {
            ps.route_fabric_drop(&mut self.core, d, now);
        }
    }

    /// Buffers a scope event on this job's stream (no-op when the job is
    /// unobserved). The cluster driver records checkpoint/migrate/resume
    /// decisions and cluster-scope fault firings this way.
    pub fn scope_push(&mut self, ev: ScopeEvent) {
        if let Some(sc) = self.core.scope.as_mut() {
            sc.pending.push(ev);
        }
    }

    /// This job's node map.
    pub fn nodes(&self) -> &NodeMap {
        &self.core.nodes
    }

    /// Earliest instant this job does anything on its own: a GPU op ends,
    /// a retransmit or a co-tenant burst fires, or the ring advances.
    pub fn next_event_time(&self) -> SimTime {
        let t = self
            .core
            .engines
            .iter()
            .map(WorkerEngine::next_event_time)
            .min()
            .unwrap_or(SimTime::MAX);
        t.min(match &self.backend {
            JobBackend::Ps(ps) => ps.next_event_time(&self.core),
            JobBackend::Ring(ring) => ring.next_event_time(),
        })
    }

    /// Advances the job's own subsystems to `t`, pushing emitted events
    /// onto `queue` for the driver's cascade loop.
    pub fn step(&mut self, t: SimTime, queue: &mut Vec<JobEvent>) {
        for (w, e) in self.core.engines.iter_mut().enumerate() {
            // An engine whose next GPU-op end lies beyond `t` (and with
            // nothing buffered) cannot emit anything; skip it.
            if e.next_event_time() > t && !e.has_pending() {
                continue;
            }
            e.advance_queued(t);
            queue.extend(e.drain_pending().map(|ev| JobEvent::Engine(w, ev)));
        }
        match &mut self.backend {
            JobBackend::Ps(ps) => ps.step(&mut self.core, t),
            JobBackend::Ring(ring) => ring.step(t, queue),
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
        let core = &mut self.core;
        match (ev, &mut self.backend) {
            (JobEvent::Engine(w, EngineEvent::ComputeIterDone { at, .. }), _) => {
                core.on_compute_iter_done(w, at)
            }
            (JobEvent::Engine(_, EngineEvent::AllDone { .. }), _) => {}
            (JobEvent::Engine(w, EngineEvent::ExternalReady { iter, role, .. }), backend) => {
                match (role, backend) {
                    (ExternalRole::ProxyReady(i) | ExternalRole::Push(i), JobBackend::Ps(ps)) => {
                        ps.on_grad_ready(core, w, i, iter, now)
                    }
                    (
                        ExternalRole::ProxyReady(i) | ExternalRole::AllReduce(i),
                        JobBackend::Ring(ring),
                    ) => ring.on_grad_ready(core, i, iter, now),
                    (ExternalRole::Pull(_) | ExternalRole::ProxyFinish(_), _) => {}
                    (other, _) => panic!("role {other:?} unexpected for this backend"),
                }
            }
            (JobEvent::Net(ev), JobBackend::Ps(ps)) => ps.handle_net(core, ev, now, out),
            (JobEvent::Ring(c), JobBackend::Ring(ring)) => ring.handle_ring(core, c, now, out),
            (JobEvent::Net(_), JobBackend::Ring(_)) | (JobEvent::Ring(_), JobBackend::Ps(_)) => {
                panic!("communication event unexpected for this backend")
            }
        }
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
        let parts = self.core.join_parts(&[]);
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
        let metrics = cfg
            .record_metrics
            .then(|| self.core.take_metrics(finished_at));
        if let Some(reason) = self.failed() {
            // The run aborted before measuring anything; report the
            // outcome (and whatever metrics were recorded) instead of
            // asserting on missing iteration marks.
            let mut result = RunResult::failed(
                cfg.model.sample_unit.label(),
                cfg.scheduler.label(),
                finished_at,
                reason.to_string(),
            );
            result.metrics = metrics;
            return result;
        }
        let core = &mut self.core;
        let xray = core.take_xray_log(cfg, finished_at, parts).map(|mut log| {
            if let JobBackend::Ring(ring) = &self.backend {
                ring.xray_log(&mut log, core.num_workers);
            }
            XrayReport::build(&log)
        });
        let (net, collective_bytes) = match &self.backend {
            JobBackend::Ps(_) => (net, 0),
            JobBackend::Ring(ring) => ring.stats(),
        };
        let mut result = RunResult::from_iteration_marks(
            &core.marks,
            cfg.warmup as usize,
            cfg.global_batch(),
            cfg.model.sample_unit.label(),
            cfg.scheduler.label(),
            net.p2p_bytes,
            collective_bytes,
            finished_at,
        );
        result.peak_port_utilisation = net.peak_port_utilisation;
        result.comm_events = net.comm_events;
        result.peak_in_flight = net.peak_in_flight;
        result.metrics = metrics;
        result.xray = xray;
        if let Some(f) = &core.faults {
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
        let parts = self.core.join_parts(&wire);
        // Freed before the xray report is built.
        drop(wire);
        if let Some(trace) = trace.as_deref_mut() {
            self.core.append_compute_trace(trace, prefix);
            if let JobBackend::Ring(ring) = &self.backend {
                let flows = self.core.xray.is_some();
                ring.append_trace(trace, prefix, self.core.num_workers, flows);
            }
            self.core.append_part_flows(trace, prefix, &parts);
        }
        let result = self.result(cfg, finished_at, net, parts);
        if let (Some(trace), Some(ms)) = (trace, &result.metrics) {
            for t in ms.counter_tracks() {
                trace.push_counter(format!("{prefix}{}", t.name), t.samples);
            }
        }
        result
    }

    /// Per-worker queued-subtask counts — the first tool to reach for
    /// when a configuration seems wedged.
    pub fn debug_sched_queues(&self) -> Vec<usize> {
        self.core.scheds.iter().map(|s| s.queued()).collect()
    }

    /// Per-worker retired-iteration counts.
    pub fn debug_iterations(&self) -> Vec<u64> {
        let engines = &self.core.engines;
        engines.iter().map(|e| e.done_iterations()).collect()
    }
}

impl JobCore {
    /// Builds the core a backend's `layout` asks for.
    fn new(cfg: &WorldConfig, nodes: NodeMap, arrival: SimTime, layout: Layout) -> JobCore {
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
                } else if let Some(servers) = layout.bigarray_servers {
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
        let mut scheds: Vec<Box<dyn Scheduler>> = (0..layout.scheds)
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
        let mut engines: Vec<WorkerEngine> = (0..cfg.num_workers)
            .map(|w| {
                let jitter = if cfg.jitter > 0.0 {
                    Some((root_rng.fork(w as u64), cfg.jitter))
                } else {
                    None
                };
                WorkerEngine::new_at(template.clone(), &cfg.model, cfg.iters, jitter, arrival)
            })
            .collect();
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
            // An enqueue and a grant per partition transfer.
            let parts: usize = partitions.iter().map(Vec::len).sum();
            let per_iter = layout.transfers_per_part * parts;
            JobXray {
                log: PartLog::with_capacity(2 * per_iter * cfg.iters as usize),
                aggs: Vec::new(),
            }
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
        JobCore {
            num_workers: cfg.num_workers,
            arrival,
            iters: cfg.iters,
            graph: if cfg.scheduler.needs_scheduled_engine() {
                Graph::Scheduled
            } else {
                Graph::Baseline
            },
            partitions,
            priorities,
            engines,
            scheds,
            nodes,
            submits: Vec::new(),
            marks: Vec::new(),
            sched_scratch: Vec::new(),
            xray,
            faults,
            scope: None,
        }
    }

    /// Fails the run (once), closing every scheduler's instrumented
    /// intervals so an aborted run still reports correct stall totals.
    pub(crate) fn abort(&mut self, reason: String, now: SimTime) {
        let f = self.faults_mut();
        if f.failed.is_some() {
            return;
        }
        f.failed = Some(reason);
        for s in &mut self.scheds {
            s.teardown(now);
        }
    }

    /// The fault state; a faultless job that a driver-applied outage or
    /// an abort reaches gets one with the default policy and no loss.
    pub(crate) fn faults_mut(&mut self) -> &mut JobFaults {
        let empty = || Box::new(JobFaults::new(&FaultPlan::empty(), 0));
        self.faults.get_or_insert_with(empty)
    }

    /// Books a retry of the lost `tag`: its attempt number and backoff,
    /// or `None` once the run is over — now, with `reason(cap)`, if `tag`
    /// ran out of attempts.
    pub(crate) fn retry(
        &mut self,
        tag: u64,
        now: SimTime,
        reason: impl FnOnce(u32) -> String,
    ) -> Option<(u32, SimTime)> {
        let f = self.faults.as_mut().expect("retry without fault state");
        if f.failed.is_some() {
            return None;
        }
        let attempt = f.attempts.entry(tag).or_insert(0);
        *attempt += 1;
        let attempt = *attempt;
        let policy = f.injector.policy();
        if attempt > policy.max_retries {
            self.abort(reason(policy.max_retries), now);
            return None;
        }
        f.retries += 1;
        Some((attempt, policy.backoff(attempt)))
    }

    /// Releases on `workers` what a finished comm op clears on this
    /// job's [`Graph`], forwarding the engines' events onto `out`.
    pub(crate) fn finish(
        &mut self,
        workers: std::ops::Range<usize>,
        iter: u64,
        op: ExternalRole,
        now: SimTime,
        out: &mut Vec<JobEvent>,
    ) {
        let Some((iter, role)) = self.graph.release(iter, op) else {
            return;
        };
        for w in workers {
            let e = &mut self.engines[w];
            e.complete_external_queued(now, iter, role);
            out.extend(e.drain_pending().map(|ev| JobEvent::Engine(w, ev)));
        }
    }

    /// Queues partition `tok` on its scheduler (its worker's; the
    /// master's, slot 0, for a collective), noting the enqueue for xray.
    pub(crate) fn enqueue(&mut self, tok: Token, now: SimTime) {
        if let Some(x) = self.xray.as_mut() {
            x.log.enqueued(tok.pack(), now);
        }
        self.resubmit(tok, now);
    }

    /// [`Self::enqueue`] for a retransmit: xray keeps the first enqueue.
    pub(crate) fn resubmit(&mut self, tok: Token, now: SimTime) {
        let i = tok.tensor as usize;
        let item = WorkItem {
            lane: tok.kind.lane(),
            priority: self.priorities[i],
            bytes: self.partitions[i][tok.part as usize],
            token: tok.pack(),
        };
        self.scheds[tok.worker].submit(now, item);
    }

    /// Polls scheduler `s`, noting each grant for xray. Hand the drained
    /// buffer back with [`Self::recycle`].
    pub(crate) fn poll(&mut self, s: usize, now: SimTime) -> Vec<WorkItem> {
        let mut items = std::mem::take(&mut self.sched_scratch);
        debug_assert!(items.is_empty());
        self.scheds[s].poll_into(now, &mut items);
        if let Some(x) = self.xray.as_mut() {
            for item in &items {
                x.log.granted(item.token, now);
            }
        }
        items
    }

    /// Returns [`Self::poll`]'s buffer for the next poll.
    pub(crate) fn recycle(&mut self, items: Vec<WorkItem>) {
        self.sched_scratch = items;
    }

    /// Worker 0 marks each finished compute pass; an observed job
    /// reports its wall/busy/stall split.
    fn on_compute_iter_done(&mut self, w: usize, at: SimTime) {
        if w != 0 {
            return;
        }
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
    /// series stay where they are.
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
        Some(log)
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

    /// Appends causal flow arrows (xray only): BP production → wire
    /// start, one per push partition of the joined `parts` that reached
    /// the wire.
    fn append_part_flows(&self, trace: &mut Trace, prefix: &str, parts: &[PartRecord]) {
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
    }
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
